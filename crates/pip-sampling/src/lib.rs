//! # pip-sampling
//!
//! The sampling and integration engine of PIP (paper Section IV): the
//! expectation operator (Algorithm 4.3), confidence operators, aggregate
//! operators, and the sampling strategies they choose among — exact CDF
//! integration, inverse-CDF bounded sampling, independence-decomposed
//! rejection sampling, and Metropolis.
//!
//! Every operator is a pure function of `(inputs, SamplerConfig sampling
//! parameters)`: a draw's seed comes from its identity (`world_seed`,
//! row index), never from execution order, so each head has one body and
//! hands its per-row work to [`parallel::run_indexed`], which alone
//! decides between the calling thread and the shared pool.
//!
//! ```
//! use pip_dist::prelude::builtin;
//! use pip_expr::{atoms, Conjunction, Equation, RandomVar};
//! use pip_sampling::{conf, expectation, SamplerConfig};
//!
//! // [Y ⇒ Normal(5, 10)] with condition (Y > -3) AND (Y < 2)
//! let y = RandomVar::create(builtin::normal(), &[5.0, 10.0]).unwrap();
//! let cond = Conjunction::of(vec![
//!     atoms::gt(Equation::from(y.clone()), -3.0),
//!     atoms::lt(Equation::from(y.clone()), 2.0),
//! ]);
//! let cfg = SamplerConfig::default();
//! let r = expectation(&Equation::from(y), &cond, true, &cfg, 0).unwrap();
//! // Paper Example 4.1: the conditional mean is nowhere near the
//! // unconditional mean of 5 — it lies inside the constraint box.
//! assert!(r.expectation > -3.0 && r.expectation < 2.0);
//! let p = conf(&cond, &cfg, 0).unwrap();
//! assert!(p > 0.0 && p < 1.0);
//! ```

pub mod aggregate;
pub mod blocks;
pub mod confidence;
pub mod config;
pub mod expectation;
pub mod metropolis;
pub mod obs;
#[doc(hidden)]
pub mod oracle;
pub mod parallel;
pub mod strategy;
pub mod streaming;
pub mod tape;
pub mod worlds;

pub use aggregate::{
    expected_avg, expected_count, expected_max_const, expected_max_hist, expected_max_sampled,
    expected_sum, expected_sum_hist, AggregateResult,
};
pub use blocks::{block_cache_clear, SampleBlock};
pub use confidence::{aconf, conf};
pub use config::SamplerConfig;
pub use expectation::{expectation, ExpectationResult};
pub use parallel::ParallelSampler;
pub use strategy::exact_group_probability;
pub use streaming::{ConfStream, StreamingGroups};
pub use tape::{CondTape, Tape, TapeOp};
pub use worlds::sample_worlds;

/// Glob-import surface.
pub mod prelude {
    pub use crate::aggregate::{
        expected_avg, expected_count, expected_max_const, expected_max_hist, expected_max_sampled,
        expected_sum, expected_sum_hist, AggregateResult,
    };
    pub use crate::confidence::{aconf, conf};
    pub use crate::config::SamplerConfig;
    pub use crate::expectation::{expectation, ExpectationResult};
    pub use crate::parallel::ParallelSampler;
    pub use crate::strategy::exact_group_probability;
    pub use crate::streaming::{ConfStream, StreamingGroups};
    pub use crate::worlds::sample_worlds;
}
