//! # pip-engine
//!
//! The query engine PIP runs on — the role PostgreSQL plays for the
//! paper's plugin (Section V): a catalog of c-tables with optimizer
//! statistics, logical plans with a fluent builder, a cost-based
//! optimizer ([`optimize`](mod@optimize) — predicate pushdown, cardinality-driven
//! join reordering, cost-gated projection pushdown over the [`stats`]
//! layer), a pipelined physical executor ([`physical`]) with a
//! materializing reference interpreter beside it, the CTYPE-hoisting
//! rewriter, and a SQL front-end supporting `CREATE TABLE` / `INSERT` /
//! `SELECT` / `ANALYZE` / `EXPLAIN [ANALYZE] [(FORMAT JSON)]` with
//! `create_variable(...)`, `expected_sum`, `expected_count`,
//! `expected_avg`, `expected_max` and `conf()`.

pub mod catalog;
pub mod exec;
pub mod metrics;
pub mod optimize;
pub mod persist;
pub mod physical;
pub mod plan;
pub mod rewrite;
pub mod sql;
pub mod stats;

pub use catalog::{Database, RecoveryInfo};
pub use metrics::EngineMetrics;
// The durability knob travels with the catalog API.
pub use exec::{
    execute, execute_materialized, execute_materialized_with_stats, execute_with_stats,
    scalar_result, QueryStats,
};
pub use optimize::{
    optimize, optimize_with, plan_schema, push_selects, OptimizerConfig, PruneMode,
};
pub use physical::{lower, lower_annotated, OpProfile, PhysicalPlan};
pub use pip_store::Durability;
pub use plan::{AggFunc, Plan, PlanBuilder, ScalarExpr};
pub use rewrite::{compile_predicate, compile_scalar};
pub use stats::{estimate, plan_cost, ColumnStats, CostModel, ExecTarget, PlanEst, TableStats};

/// Glob-import surface.
pub mod prelude {
    pub use crate::catalog::Database;
    pub use crate::exec::{
        execute, execute_materialized, execute_materialized_with_stats, execute_with_stats,
        scalar_result, QueryStats,
    };
    pub use crate::optimize::{
        optimize, optimize_with, plan_schema, push_selects, OptimizerConfig, PruneMode,
    };
    pub use crate::physical::{lower, lower_annotated, OpProfile, PhysicalPlan};
    pub use crate::plan::{AggFunc, Plan, PlanBuilder, ScalarExpr};
    pub use crate::sql;
    pub use crate::stats::{
        estimate, plan_cost, ColumnStats, CostModel, ExecTarget, PlanEst, TableStats,
    };
}
