//! # pip-ctable
//!
//! Probabilistic c-tables and relational algebra over them (paper
//! Sections II and III): the symbolic intermediate representation that
//! PIP query plans manipulate before any sampling happens.
//!
//! * [`ctable`] — the table type: rows of equations plus local conditions.
//! * [`algebra`] — σ, π, ×, ∪, distinct, −, group-by (Figure 1).
//! * [`stream`] — the σ/π/× kernels one row at a time, for the
//!   pipelined executor.
//! * [`bounds`] / [`consistency`] — Algorithm 3.2: interval propagation
//!   that prunes statically inconsistent rows and feeds the CDF sampler.
//! * [`explode`] — finite discrete variables expanded to per-valuation
//!   rows (Section III-C).
//! * [`index`] — ordered secondary indexes over deterministic columns
//!   for the engine's seek-based access paths.

pub mod algebra;
pub mod bounds;
pub mod consistency;
pub mod ctable;
pub mod explode;
pub mod index;
pub mod repair;
pub mod stream;

pub use algebra::{
    difference, distinct, distinct_groups, equi_join, map, partition_by, product, project, select,
    union, SelectOutcome,
};
pub use bounds::{BoundsMap, Interval};
pub use consistency::{consistency_check, consistency_of_groups, Consistency};
pub use ctable::{CRow, CTable};
pub use explode::{discrete_domain, explode_discrete};
pub use index::OrderedIndex;
pub use repair::{group_probabilities, repair_key};
pub use stream::{filter_row, join_rows, map_row};

/// Glob-import surface.
pub mod prelude {
    pub use crate::algebra::{
        difference, distinct, distinct_groups, equi_join, map, partition_by, product, project,
        select, union, SelectOutcome,
    };
    pub use crate::bounds::{BoundsMap, Interval};
    pub use crate::consistency::{consistency_check, consistency_of_groups, Consistency};
    pub use crate::ctable::{CRow, CTable};
    pub use crate::explode::{discrete_domain, explode_discrete};
    pub use crate::index::OrderedIndex;
    pub use crate::repair::{group_probabilities, repair_key};
    pub use crate::stream::{filter_row, join_rows, map_row};
}
