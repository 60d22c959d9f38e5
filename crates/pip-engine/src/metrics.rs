//! Engine-level metric handles, one set per [`crate::Database`].
//!
//! Registered into the database's own [`pip_obs::Registry`] so that two
//! databases in one process (tests, embedded uses) never share counters.
//! The hot-path cost is a handful of relaxed atomic ops per query; phase
//! histograms are gated by the global observability switch.

use crate::plan::Plan;
use pip_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

#[derive(Debug)]
pub struct EngineMetrics {
    /// SELECTs executed through the pipelined executor.
    pub queries_total: Arc<Counter>,
    /// Logical catalog mutations (DDL + DML) applied.
    pub mutations_total: Arc<Counter>,
    /// Inserts that had to copy their table or an index on it first,
    /// because a reader still held that snapshot.
    pub insert_copies_total: Arc<Counter>,
    /// SQL text parse latency (recorded by front-ends that parse).
    pub parse_seconds: Arc<Histogram>,
    /// Optimizer latency (full pipeline: pushdown, reorder, access paths).
    pub optimize_seconds: Arc<Histogram>,
    /// Symbolic (relational algebra) phase latency per query.
    pub query_phase_seconds: Arc<Histogram>,
    /// Sampling/integration phase latency per query.
    pub sample_phase_seconds: Arc<Histogram>,
    /// Optimizer access-path choices in final plans, by leaf kind.
    pub access_table_scan_total: Arc<Counter>,
    pub access_index_scan_total: Arc<Counter>,
    pub access_index_join_total: Arc<Counter>,
}

impl EngineMetrics {
    pub fn register(r: &Registry) -> EngineMetrics {
        EngineMetrics {
            queries_total: r.counter(
                "pip_engine_queries_total",
                "SELECT statements executed by the pipelined executor.",
            ),
            mutations_total: r.counter(
                "pip_engine_mutations_total",
                "Logical catalog mutations (DDL and DML) applied.",
            ),
            insert_copies_total: r.counter(
                "pip_engine_insert_copies_total",
                "Inserts that copied their table or an index first, because a reader held it.",
            ),
            parse_seconds: r.histogram("pip_engine_parse_seconds", "SQL parse latency."),
            optimize_seconds: r.histogram(
                "pip_engine_optimize_seconds",
                "Optimizer latency (pushdown, join reorder, access paths, pruning).",
            ),
            query_phase_seconds: r.histogram(
                "pip_engine_query_phase_seconds",
                "Symbolic (relational algebra) phase latency per query.",
            ),
            sample_phase_seconds: r.histogram(
                "pip_engine_sample_phase_seconds",
                "Sampling/integration phase latency per query.",
            ),
            access_table_scan_total: r.counter(
                "pip_engine_access_path_table_scan_total",
                "Optimized plans' base-table scan leaves.",
            ),
            access_index_scan_total: r.counter(
                "pip_engine_access_path_index_scan_total",
                "Optimized plans' index-scan leaves.",
            ),
            access_index_join_total: r.counter(
                "pip_engine_access_path_index_join_total",
                "Optimized plans' index-join operators.",
            ),
        }
    }

    /// Count the access paths the optimizer settled on in a final plan.
    pub fn note_plan(&self, plan: &Plan) {
        if !pip_obs::enabled() {
            return;
        }
        let mut scans = 0u64;
        let mut index_scans = 0u64;
        let mut index_joins = 0u64;
        walk(plan, &mut scans, &mut index_scans, &mut index_joins);
        if scans > 0 {
            self.access_table_scan_total.add(scans);
        }
        if index_scans > 0 {
            self.access_index_scan_total.add(index_scans);
        }
        if index_joins > 0 {
            self.access_index_join_total.add(index_joins);
        }
    }
}

fn walk(plan: &Plan, scans: &mut u64, index_scans: &mut u64, index_joins: &mut u64) {
    match plan {
        Plan::Scan(_) => *scans += 1,
        Plan::IndexScan { .. } => *index_scans += 1,
        Plan::IndexJoin { left, .. } => {
            *index_joins += 1;
            walk(left, scans, index_scans, index_joins);
        }
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => walk(input, scans, index_scans, index_joins),
        Plan::Distinct(input) | Plan::Conf(input) => walk(input, scans, index_scans, index_joins),
        Plan::Aggregate { input, .. } => walk(input, scans, index_scans, index_joins),
        Plan::Product { left, right }
        | Plan::EquiJoin { left, right, .. }
        | Plan::Union { left, right }
        | Plan::Difference { left, right } => {
            walk(left, scans, index_scans, index_joins);
            walk(right, scans, index_scans, index_joins);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;

    #[test]
    fn note_plan_counts_leaves() {
        let r = Registry::new();
        let m = EngineMetrics::register(&r);
        let plan = PlanBuilder::scan("a")
            .product(PlanBuilder::scan("b"))
            .build();
        m.note_plan(&plan);
        assert_eq!(m.access_table_scan_total.get(), 2);
        assert_eq!(m.access_index_scan_total.get(), 0);
    }
}
