//! # PIP: A Database System for Great and Small Expectations
//!
//! A from-scratch Rust reproduction of Kennedy & Koch, *PIP: A database
//! system for great and small expectations* (ICDE 2010): a general
//! probabilistic database that evaluates queries **symbolically** over
//! probabilistic c-tables — supporting continuous as well as discrete
//! distributions — and defers all sampling until the expression to be
//! measured is fully known. Deferral makes goal-directed integration
//! possible: exact CDF evaluation, inverse-CDF sampling bounded by the
//! consistency checker's intervals, independence-decomposed rejection
//! sampling, and a Metropolis fallback.
//!
//! The workspace layers (re-exported here):
//!
//! * [`core`] — values, schemas, tuples.
//! * [`dist`] — distribution classes (`Generate`/`PDF`/`CDF`/
//!   `CDF⁻¹`) and hand-written special functions.
//! * [`expr`] — random variables, the equation datatype,
//!   condition atoms and conjunctions.
//! * [`ctable`] — c-tables, Figure 1 relational algebra, the
//!   Algorithm 3.2 consistency checker.
//! * [`sampling`] — the Algorithm 4.3 expectation operator,
//!   `conf`/`aconf`, aggregate operators and their per-world samples.
//! * [`engine`] — catalog, logical plans, executor, SQL.
//! * [`samplefirst`] — the MCDB-style tuple-bundle
//!   baseline the paper compares against.
//! * [`workloads`] — TPC-H-like + iceberg generators and
//!   evaluation queries Q1–Q5.
//!
//! ## Quickstart
//!
//! ```
//! use pip::prelude::*;
//!
//! let db = Database::new();
//! let cfg = SamplerConfig::default();
//! sql::run(&db, "CREATE TABLE orders (cust TEXT, price SYMBOLIC)", &cfg).unwrap();
//! sql::run(
//!     &db,
//!     "INSERT INTO orders VALUES ('Joe', create_variable('Normal', 100, 10))",
//!     &cfg,
//! ).unwrap();
//! let t = sql::run(&db, "SELECT expected_sum(price) FROM orders", &cfg).unwrap();
//! assert!((scalar_result(&t).unwrap() - 100.0).abs() < 1e-9);
//! ```

pub use pip_core as core;
pub use pip_ctable as ctable;
pub use pip_dist as dist;
pub use pip_engine as engine;
pub use pip_expr as expr;
pub use pip_samplefirst as samplefirst;
pub use pip_sampling as sampling;
pub use pip_store as store;
pub use pip_workloads as workloads;

/// One-stop import for applications.
pub mod prelude {
    pub use pip_core::{Column, DataType, PipError, Result, Schema, Tuple, Value};
    pub use pip_ctable::prelude::*;
    pub use pip_dist::prelude::*;
    pub use pip_engine::prelude::*;
    pub use pip_engine::{scalar_result, sql};
    pub use pip_expr::prelude::*;
    pub use pip_sampling::prelude::*;
}
