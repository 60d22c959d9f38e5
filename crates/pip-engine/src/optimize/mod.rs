//! The cost-based logical plan optimizer.
//!
//! The paper leans on the host DBMS for deterministic optimization
//! ("deterministic database query optimizers do a satisfactory job of
//! ensuring that constraints over discrete variables are filtered as
//! soon as possible", Section III-C). Our engine provides the moral
//! equivalent as a pipeline of passes over [`Plan`]s, driven by the
//! statistics and cost model in [`crate::stats`]. [`optimize_with`] is
//! the list of passes, one module each:
//!
//! 1. **Predicate pushdown** (`pushdown.rs`, [`push_selects`]): split
//!    conjunctions, push single-side conjuncts below products/joins,
//!    fuse adjacent selects, and make the leading cross-side column
//!    equalities `l = r` hash-join keys — a `Product` becomes an
//!    `EquiJoin`, an `EquiJoin` grows its `on` — whatever the reorderer
//!    decides next. Purely deterministic rewrites that shrink
//!    intermediate c-tables before any sampling happens; rows and row
//!    conditions stay those of filtering the product.
//! 2. **Join reordering** (`reorder.rs`): extract the join graph from
//!    nested `Product`/`EquiJoin` regions and their cross-side equality
//!    conjuncts, then greedily build a left-deep tree of hash joins in
//!    ascending estimated-cardinality order. The rewrite is adopted only
//!    when the cost model says it beats the written order by a margin;
//!    a trailing projection restores the original column order, so the
//!    plan's schema is invariant. Reordering preserves the multiset
//!    (possible-worlds) semantics of the region; the row *order* of a
//!    reordered region follows the new join sequence.
//! 3. **Access-path selection** (`access.rs`): where an
//!    ordered secondary index exists, rewrite `Select` over a base scan
//!    into an [`Plan::IndexScan`] and an equi-join probing a base scan
//!    into an [`Plan::IndexJoin`] — but only when the cost model (fed
//!    by histogram selectivity estimates) says the seek beats the
//!    sequential plan. Candidates carry the exact cardinality estimate
//!    of the logical shape they replace, so the decision reduces to
//!    the access-cost formulas.
//! 4. **Cost-gated projection pushdown** (`prune.rs`): wrap base
//!    scans in narrow projections only where the estimator says the
//!    saved downstream cell clones outweigh the extra per-row stage —
//!    pruning is free on wide join fan-outs and a net loss on scans
//!    whose rows are cloned once.

mod access;
mod prune;
mod pushdown;
mod reorder;

pub use pushdown::push_selects;

use pip_core::{Result, Schema};

use crate::catalog::Database;
use crate::plan::{Plan, ScalarExpr};
use crate::stats::{CostModel, ExecTarget};

/// When to wrap base-table scans in narrow column projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneMode {
    /// Prune only where the cost model predicts a net win (default).
    CostBased,
    /// Prune whenever any column is dead (the pre-cost-model behavior;
    /// useful for isolating what pruning does in tests and benchmarks).
    Always,
    /// Never prune.
    Never,
}

/// Optimizer knobs. [`OptimizerConfig::default`] is what [`optimize`]
/// (and therefore the SQL layer and the server) runs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Executor the plan is being optimized for: the pipelined executor
    /// (default) or the materializing reference interpreter. Affects
    /// both cost estimates and the pruning gate.
    pub target: ExecTarget,
    /// Enable the cost-based join reorderer.
    pub reorder_joins: bool,
    /// Projection-pushdown gating.
    pub prune: PruneMode,
    /// Enable cost-based access-path selection over secondary indexes.
    /// Off forces every access through sequential scans and hash joins
    /// (the pre-index behavior; benchmarks use it as the baseline).
    pub use_indexes: bool,
    /// Cost-model constants.
    pub cost: CostModel,
    /// A reordered region is adopted only if its estimated cost is below
    /// `reorder_margin` × the written-order cost — estimates are fuzzy,
    /// and ties should keep the user's (bit-reproducible) written order.
    pub reorder_margin: f64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            target: ExecTarget::Streaming,
            reorder_joins: true,
            prune: PruneMode::CostBased,
            use_indexes: true,
            cost: CostModel::default(),
            reorder_margin: 0.9,
        }
    }
}

impl OptimizerConfig {
    /// Preset for the materializing reference interpreter.
    pub fn materializing() -> Self {
        OptimizerConfig {
            target: ExecTarget::Materializing,
            ..Self::default()
        }
    }
}

/// Compute the output schema of a plan (column names drive pushdown
/// decisions).
pub fn plan_schema(db: &Database, plan: &Plan) -> Result<Schema> {
    Ok(match plan {
        Plan::Scan(name) => db.table(name)?.schema().clone(),
        Plan::IndexScan { table, .. } => db.table(table)?.schema().clone(),
        Plan::IndexJoin { left, table, .. } => {
            plan_schema(db, left)?.join(db.table(table)?.schema())?
        }
        Plan::Select { input, .. } => plan_schema(db, input)?,
        Plan::Project { exprs, .. } => {
            // Types don't matter for pushdown; mark everything symbolic.
            Schema::new(
                exprs
                    .iter()
                    .map(|(n, _)| pip_core::Column::new(n.clone(), pip_core::DataType::Symbolic))
                    .collect(),
            )?
        }
        Plan::Product { left, right } | Plan::EquiJoin { left, right, .. } => {
            plan_schema(db, left)?.join(&plan_schema(db, right)?)?
        }
        Plan::Union { left, .. } => plan_schema(db, left)?,
        Plan::Distinct(input) => plan_schema(db, input)?,
        Plan::Difference { left, .. } => plan_schema(db, left)?,
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let in_schema = plan_schema(db, input)?;
            let mut cols = Vec::new();
            for g in group_by {
                cols.push(in_schema.column(g)?.clone());
            }
            for a in aggs {
                cols.push(pip_core::Column::new(
                    a.output_name(),
                    pip_core::DataType::Float,
                ));
            }
            Schema::new(cols)?
        }
        Plan::Conf(input) => {
            let in_schema = plan_schema(db, input)?;
            let mut cols = in_schema.columns().to_vec();
            cols.push(pip_core::Column::new("conf()", pip_core::DataType::Float));
            Schema::new(cols)?
        }
        Plan::Sort { input, .. } | Plan::Limit { input, .. } => plan_schema(db, input)?,
    })
}

/// Column names referenced by an expression.
fn columns_of(e: &ScalarExpr, out: &mut Vec<String>) {
    match e {
        ScalarExpr::Column(c) => {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        ScalarExpr::Literal(_) | ScalarExpr::Var(_) | ScalarExpr::CreateVariable { .. } => {}
        ScalarExpr::Binary { left, right, .. } | ScalarExpr::Cmp { left, right, .. } => {
            columns_of(left, out);
            columns_of(right, out);
        }
        ScalarExpr::Neg(e) => columns_of(e, out),
        ScalarExpr::And(ps) => {
            for p in ps {
                columns_of(p, out);
            }
        }
    }
}

/// Split a predicate into its top-level conjuncts.
fn conjuncts(pred: ScalarExpr) -> Vec<ScalarExpr> {
    match pred {
        ScalarExpr::And(ps) => ps.into_iter().flat_map(conjuncts).collect(),
        other => vec![other],
    }
}

/// Rebuild a conjunction from parts (None when empty).
fn rebuild(mut parts: Vec<ScalarExpr>) -> Option<ScalarExpr> {
    match parts.len() {
        0 => None,
        1 => Some(parts.pop().expect("len checked")),
        _ => Some(ScalarExpr::And(parts)),
    }
}

/// Optimize a plan with the default configuration (predicate pushdown,
/// cost-based join reordering, cost-gated projection pushdown).
pub fn optimize(db: &Database, plan: Plan) -> Result<Plan> {
    optimize_with(db, plan, &OptimizerConfig::default())
}

/// Optimize a plan under an explicit [`OptimizerConfig`]: the passes in
/// order, each the identity where `cfg` switches it off.
pub fn optimize_with(db: &Database, plan: Plan, cfg: &OptimizerConfig) -> Result<Plan> {
    let start = std::time::Instant::now();
    let plan = push_selects(db, plan)?;
    let plan = reorder::run(db, plan, cfg)?;
    let plan = access::run(db, plan, cfg)?;
    let plan = prune::run(db, plan, cfg)?;
    let m = db.metrics();
    m.optimize_seconds.observe_since(start);
    m.note_plan(&plan);
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use pip_core::{tuple, DataType};
    use pip_sampling::SamplerConfig;

    fn setup() -> Database {
        let db = Database::new();
        db.create_table(
            "l",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]),
        )
        .unwrap();
        db.create_table(
            "r",
            Schema::of(&[("c", DataType::Int), ("d", DataType::Int)]),
        )
        .unwrap();
        db.insert_tuples("l", &[tuple![1i64, 10i64], tuple![2i64, 20i64]])
            .unwrap();
        db.insert_tuples("r", &[tuple![1i64, 100i64], tuple![3i64, 300i64]])
            .unwrap();
        db
    }

    /// Config that isolates the predicate-pushdown pass shapes (no
    /// reordering, no pruning) for structural assertions.
    fn pushdown_only() -> OptimizerConfig {
        OptimizerConfig {
            reorder_joins: false,
            prune: PruneMode::Never,
            ..OptimizerConfig::default()
        }
    }

    /// Config with unconditional pruning (the pre-cost-gate behavior).
    fn prune_always() -> OptimizerConfig {
        OptimizerConfig {
            reorder_joins: false,
            prune: PruneMode::Always,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn single_side_conjuncts_are_pushed() {
        let db = setup();
        let plan = PlanBuilder::scan("l")
            .product(PlanBuilder::scan("r"))
            .select(
                ScalarExpr::col("a")
                    .eq(ScalarExpr::lit(1i64))
                    .and(ScalarExpr::col("d").gt(ScalarExpr::lit(0i64)))
                    .and(ScalarExpr::col("a").eq(ScalarExpr::col("c"))),
            )
            .unwrap()
            .build();
        let opt = optimize_with(&db, plan.clone(), &pushdown_only()).unwrap();
        // Expect: the cross-side equality as the key of a join over the
        // two single-side selects, and no filter left above it.
        match &opt {
            Plan::EquiJoin { left, right, on } => {
                assert_eq!(on, &vec![("a".to_string(), "c".to_string())]);
                assert!(matches!(**left, Plan::Select { .. }), "{left:?}");
                assert!(matches!(**right, Plan::Select { .. }), "{right:?}");
            }
            other => panic!("expected equi-join, got {other:?}"),
        }
        // Semantics preserved, both under pushdown only and the full
        // cost-based pipeline.
        let cfg = SamplerConfig::default();
        let a = crate::exec::execute(&db, &plan, &cfg).unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
        let full = optimize(&db, plan.clone()).unwrap();
        let c = crate::exec::execute(&db, &full, &cfg).unwrap();
        assert_eq!(a.rows(), c.rows());
    }

    #[test]
    fn select_fusion() {
        let db = setup();
        let plan = PlanBuilder::scan("l")
            .select(ScalarExpr::col("a").gt(ScalarExpr::lit(0i64)))
            .unwrap()
            .select(ScalarExpr::col("b").gt(ScalarExpr::lit(0i64)))
            .unwrap()
            .build();
        let opt = optimize(&db, plan).unwrap();
        // One fused Select over the scan.
        match opt {
            Plan::Select { input, predicate } => {
                assert!(matches!(*input, Plan::Scan(_)));
                assert!(matches!(predicate, ScalarExpr::And(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambiguous_columns_not_pushed_or_reordered() {
        let db = setup();
        db.create_table("l2", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        db.create_table("r2", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        let plan = PlanBuilder::scan("l2")
            .product(PlanBuilder::scan("r2"))
            .select(ScalarExpr::col("a").gt(ScalarExpr::lit(0i64)))
            .unwrap()
            .build();
        let opt = optimize(&db, plan).unwrap();
        // `a` exists on both sides → predicate must stay above, and the
        // reorderer must leave the ambiguous region alone.
        match opt {
            Plan::Select { input, .. } => {
                assert!(matches!(*input, Plan::Product { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn only_unambiguous_leading_equalities_become_join_keys() {
        let db = setup();
        db.create_table("l2", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        db.create_table(
            "r3",
            Schema::of(&[("a", DataType::Int), ("e", DataType::Int)]),
        )
        .unwrap();
        let col = ScalarExpr::col;
        let shape = |l: &str, r: &str, pred: ScalarExpr| {
            let plan = PlanBuilder::scan(l)
                .product(PlanBuilder::scan(r))
                .select(pred)
                .unwrap()
                .build();
            optimize_with(&db, plan, &pushdown_only()).unwrap()
        };
        let stays_a_filter = |opt: Plan| match opt {
            Plan::Select { input, .. } => assert!(matches!(*input, Plan::Product { .. })),
            other => panic!("expected select over product, got {other:?}"),
        };
        // `a` is a column of both sides, so `a = e` binds to neither.
        stays_a_filter(shape("l2", "r3", col("a").eq(col("e"))));
        // Flipped: the join would emit the atom `a = c`, not `c = a`.
        stays_a_filter(shape("l", "r", col("c").eq(col("a"))));
        // Behind a cross-side residual: fusing would move its atom first.
        stays_a_filter(shape(
            "l",
            "r",
            col("b").lt(col("d")).and(col("a").eq(col("c"))),
        ));
        // A residual that creates variables keeps the product.
        let fresh = ScalarExpr::CreateVariable {
            class: "Normal".into(),
            params: vec![0.0, 1.0],
        };
        stays_a_filter(shape(
            "l",
            "r",
            col("a").eq(col("c")).and(col("b").add(col("d")).lt(fresh)),
        ));
        // The leading equality fuses; the residual filters the join.
        match shape("l", "r", col("a").eq(col("c")).and(col("b").lt(col("d")))) {
            Plan::Select { input, .. } => match *input {
                Plan::EquiJoin { on, .. } => {
                    assert_eq!(on, vec![("a".to_string(), "c".to_string())])
                }
                other => panic!("expected equi-join, got {other:?}"),
            },
            other => panic!("expected select over equi-join, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_join_sql_lowers_to_a_hash_join() {
        // The Fig. 6 join as the end-to-end benchmark writes it: both
        // tables carry the same six `pad*` columns, so the join-order
        // pass keeps the written order and the join must come from
        // pushdown.
        let db = Database::new();
        let cfg = SamplerConfig::default();
        let pads: String = (0..6).map(|i| format!(", pad{i} FLOAT")).collect();
        let zeros = ", 0.0".repeat(6);
        for stmt in [
            format!("CREATE TABLE customers (cust INT, spend FLOAT, incr SYMBOLIC, supp INT{pads})"),
            format!("CREATE TABLE deliveries (supp_id INT, duration SYMBOLIC, thr FLOAT{pads})"),
            format!(
                "INSERT INTO customers VALUES (0, 50.0, create_variable('Poisson', 2.0), 0{zeros}), \
                 (1, 90.0, create_variable('Poisson', 3.0), 1{zeros})"
            ),
            format!(
                "INSERT INTO deliveries VALUES (0, create_variable('Normal', 5.0, 1.0), 5.8{zeros}), \
                 (1, create_variable('Normal', 9.0, 2.0), 10.7{zeros})"
            ),
        ] {
            crate::sql::run(&db, &stmt, &cfg).unwrap();
        }
        let crate::sql::Statement::Select(plan) = crate::sql::parse(
            "SELECT expected_sum(spend * incr) FROM customers, deliveries \
             WHERE supp = supp_id AND duration > thr AND spend > 20.0",
        )
        .unwrap() else {
            panic!("not a select");
        };
        let plan = optimize(&db, plan).unwrap();
        let text = crate::physical::lower(&db, &plan, &cfg)
            .unwrap()
            .explain(false);
        assert!(text.contains("HashJoin: supp=supp_id"), "{text}");
        assert!(!text.contains("Product"), "{text}");
    }

    #[test]
    fn pushdown_through_equijoin_preserves_results() {
        let db = setup();
        let plan = PlanBuilder::scan("l")
            .equi_join(PlanBuilder::scan("r"), vec![("a", "c")])
            .select(ScalarExpr::col("b").ge(ScalarExpr::lit(10i64)))
            .unwrap()
            .build();
        let opt = optimize(&db, plan.clone()).unwrap();
        let cfg = SamplerConfig::default();
        let a = crate::exec::execute(&db, &plan, &cfg).unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
        // And the filter moved below the join.
        match opt {
            Plan::EquiJoin { left, .. } => {
                assert!(matches!(*left, Plan::Select { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_pushdown_prunes_scans_under_aggregates() {
        let db = setup();
        // Only `a` is referenced: `b` is prunable at the scan — the
        // mechanism fires under PruneMode::Always...
        let plan = PlanBuilder::scan("l")
            .aggregate(vec![], vec![crate::plan::AggFunc::ExpectedSum("a".into())])
            .build();
        let opt = optimize_with(&db, plan.clone(), &prune_always()).unwrap();
        match &opt {
            Plan::Aggregate { input, .. } => match &**input {
                Plan::Project { input, exprs } => {
                    assert_eq!(exprs.len(), 1);
                    assert_eq!(exprs[0].0, "a");
                    assert!(matches!(**input, Plan::Scan(_)));
                }
                other => panic!("expected pruning projection, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // ...but the cost gate declines it: the row is cloned once into
        // its group, which cannot repay a fresh per-row stage.
        let gated = optimize(&db, plan.clone()).unwrap();
        match &gated {
            Plan::Aggregate { input, .. } => {
                assert!(matches!(**input, Plan::Scan(_)), "{input:?}")
            }
            other => panic!("{other:?}"),
        }
        let cfg = SamplerConfig::default();
        let a = crate::exec::execute(&db, &plan, &cfg).unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn projection_pushdown_splits_across_joins() {
        let db = setup();
        // d is never used; c is a join key and must survive.
        let plan = PlanBuilder::scan("l")
            .equi_join(PlanBuilder::scan("r"), vec![("a", "c")])
            .project(vec![("b", ScalarExpr::col("b"))])
            .build();
        let opt = optimize_with(&db, plan.clone(), &prune_always()).unwrap();
        let text = opt.explain();
        assert!(text.contains("Project: [c]"), "{text}");
        let cfg = SamplerConfig::default();
        assert_eq!(
            crate::exec::execute(&db, &plan, &cfg).unwrap().rows(),
            crate::exec::execute(&db, &opt, &cfg).unwrap().rows()
        );
    }

    #[test]
    fn cost_gate_prunes_wide_fanout_sides() {
        // A build side whose rows fan out into many join outputs repays
        // pruning; the probe side (fan-out 1) does not.
        let db = Database::new();
        db.create_table(
            "probe",
            Schema::of(&[
                ("pk", DataType::Int),
                ("pv", DataType::Float),
                ("pad0", DataType::Float),
            ]),
        )
        .unwrap();
        let mut build_cols = vec![("bk", DataType::Int), ("bv", DataType::Float)];
        let pads: Vec<String> = (0..8).map(|i| format!("bpad{i}")).collect();
        for p in &pads {
            build_cols.push((p.as_str(), DataType::Float));
        }
        db.create_table("build", Schema::of(&build_cols)).unwrap();
        for i in 0..200i64 {
            db.insert_tuples("probe", &[tuple![i % 10, i as f64, 0.0]])
                .unwrap();
        }
        for i in 0..10i64 {
            let mut cells = vec![pip_expr::Equation::val(i), pip_expr::Equation::val(1.0)];
            for _ in 0..8 {
                cells.push(pip_expr::Equation::val(0.0));
            }
            db.insert_rows("build", vec![pip_ctable::CRow::unconditional(cells)])
                .unwrap();
        }
        let plan = PlanBuilder::scan("probe")
            .equi_join(PlanBuilder::scan("build"), vec![("pk", "bk")])
            .project(vec![(
                "x",
                ScalarExpr::col("pv").mul(ScalarExpr::col("bv")),
            )])
            .build();
        let opt = optimize(&db, plan).unwrap();
        let text = opt.explain();
        // Build side pruned to its key + referenced value...
        assert!(text.contains("Project: [bk, bv]"), "{text}");
        // ...probe side left alone (fan-out 1: pruning cannot pay).
        assert!(!text.contains("Project: [pk, pv]"), "{text}");
    }

    #[test]
    fn projection_pushdown_respects_whole_row_operators() {
        let db = setup();
        // distinct dedups on all cells: nothing may be pruned below it.
        let plan = PlanBuilder::scan("l")
            .distinct()
            .aggregate(vec![], vec![crate::plan::AggFunc::ExpectedCount])
            .build();
        let opt = optimize_with(&db, plan, &prune_always()).unwrap();
        match &opt {
            Plan::Aggregate { input, .. } => match &**input {
                Plan::Distinct(inner) => assert!(matches!(**inner, Plan::Scan(_)), "{inner:?}"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
        // Ambiguous names across a product bail out to no pruning.
        db.create_table("l2", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        db.create_table("r2", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        let plan = PlanBuilder::scan("l2")
            .product(PlanBuilder::scan("r2"))
            .aggregate(vec![], vec![crate::plan::AggFunc::ExpectedSum("a".into())])
            .build();
        let opt = optimize_with(&db, plan, &prune_always()).unwrap();
        match &opt {
            Plan::Aggregate { input, .. } => match &**input {
                Plan::Product { left, right } => {
                    assert!(matches!(**left, Plan::Scan(_)));
                    assert!(matches!(**right, Plan::Scan(_)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// Three name-disjoint tables with skewed sizes for reorder tests:
    /// `big(bk, bx)` 60 rows, `mid(mk, mv)` 12, `tiny(tk, tv)` 3.
    fn reorder_db() -> Database {
        let db = Database::new();
        db.create_table(
            "big",
            Schema::of(&[("bk", DataType::Int), ("bx", DataType::Int)]),
        )
        .unwrap();
        db.create_table(
            "mid",
            Schema::of(&[("mk", DataType::Int), ("mv", DataType::Int)]),
        )
        .unwrap();
        db.create_table(
            "tiny",
            Schema::of(&[("tk", DataType::Int), ("tv", DataType::Int)]),
        )
        .unwrap();
        for i in 0..60i64 {
            db.insert_tuples("big", &[tuple![i % 12, i]]).unwrap();
        }
        for i in 0..12i64 {
            db.insert_tuples("mid", &[tuple![i, i % 3]]).unwrap();
        }
        for i in 0..3i64 {
            db.insert_tuples("tiny", &[tuple![i, i * 100]]).unwrap();
        }
        db
    }

    #[test]
    fn cross_side_equality_becomes_hash_join() {
        // σ_{bk=mk}(big × mid) — written as a product — should execute
        // as a hash join after optimization.
        let db = reorder_db();
        let plan = PlanBuilder::scan("big")
            .product(PlanBuilder::scan("mid"))
            .select(ScalarExpr::col("bk").eq(ScalarExpr::col("mk")))
            .unwrap()
            .build();
        let opt = optimize(&db, plan.clone()).unwrap();
        match &opt {
            Plan::EquiJoin { on, .. } => {
                assert_eq!(on, &vec![("bk".to_string(), "mk".to_string())])
            }
            other => panic!("expected hash join, got {other:?}"),
        }
        // The conversion preserves rows bit-for-bit (same probe order).
        let cfg = SamplerConfig::default();
        let a = crate::exec::execute(&db, &plan, &cfg).unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn join_graph_reorders_by_cardinality() {
        // Written order products big × mid first even though the tiny
        // table is the selective one; the reorderer must restructure,
        // and the result schema must stay identical.
        let db = reorder_db();
        let plan = PlanBuilder::scan("big")
            .product(PlanBuilder::scan("mid"))
            .product(PlanBuilder::scan("tiny"))
            .select(
                ScalarExpr::col("bk")
                    .eq(ScalarExpr::col("mk"))
                    .and(ScalarExpr::col("mv").eq(ScalarExpr::col("tk"))),
            )
            .unwrap()
            .build();
        let opt = optimize(&db, plan.clone()).unwrap();
        let text = opt.explain();
        assert!(text.contains("EquiJoin"), "no join produced:\n{text}");
        assert!(!text.contains("Product"), "product survived:\n{text}");
        let names = |p: &Plan| -> Vec<String> {
            plan_schema(&db, p)
                .unwrap()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect()
        };
        assert_eq!(
            names(&plan),
            names(&opt),
            "reordering must not change the output column order"
        );
        // Multiset world-semantics: same tuples, order may differ.
        let cfg = SamplerConfig::default();
        let mut a = crate::exec::execute(&db, &plan, &cfg)
            .unwrap()
            .instantiate(&pip_expr::Assignment::new())
            .unwrap();
        let mut b = crate::exec::execute(&db, &opt, &cfg)
            .unwrap()
            .instantiate(&pip_expr::Assignment::new())
            .unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn reorder_keeps_written_order_when_already_optimal() {
        // A two-table equi-join with the smaller table already on the
        // build side gains nothing; the written plan must come back
        // unchanged (bit-compatible row order).
        let db = reorder_db();
        let plan = PlanBuilder::scan("big")
            .equi_join(PlanBuilder::scan("mid"), vec![("bk", "mk")])
            .build();
        let opt = optimize_with(
            &db,
            plan.clone(),
            &OptimizerConfig {
                prune: PruneMode::Never,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(opt, plan);
    }

    /// Indexed fact table (400 rows) with a small dimension table: the
    /// shape where secondary-index access paths pay off only for
    /// selective work.
    fn index_db() -> Database {
        let db = Database::new();
        db.create_table(
            "fact",
            Schema::of(&[("fk", DataType::Int), ("fv", DataType::Float)]),
        )
        .unwrap();
        db.create_table(
            "dim",
            Schema::of(&[("dk", DataType::Int), ("dv", DataType::Float)]),
        )
        .unwrap();
        let rows: Vec<_> = (0..400i64).map(|i| tuple![i, i as f64]).collect();
        db.insert_tuples("fact", &rows).unwrap();
        let rows: Vec<_> = (0..20i64).map(|i| tuple![i, i as f64 * 10.0]).collect();
        db.insert_tuples("dim", &rows).unwrap();
        db.create_index("idx_fk", "fact", "fk").unwrap();
        db.analyze_all().unwrap();
        db
    }

    fn no_index_cfg() -> OptimizerConfig {
        OptimizerConfig {
            use_indexes: false,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn cost_model_picks_index_scan_only_when_selective() {
        let db = index_db();
        let cfg = SamplerConfig::default();
        // Selective range: the histogram prices it at ~2/400 rows, so
        // the seek beats the sequential scan.
        let selective = PlanBuilder::scan("fact")
            .select(
                ScalarExpr::col("fk")
                    .ge(ScalarExpr::lit(10i64))
                    .and(ScalarExpr::col("fk").lt(ScalarExpr::lit(12i64))),
            )
            .unwrap()
            .build();
        let opt = optimize(&db, selective.clone()).unwrap();
        assert!(
            matches!(opt, Plan::IndexScan { .. }),
            "expected IndexScan, got:\n{}",
            opt.explain()
        );
        // The index path is bit-identical to the pre-index plan.
        let a = crate::exec::execute(
            &db,
            &optimize_with(&db, selective, &no_index_cfg()).unwrap(),
            &cfg,
        )
        .unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a, b);
        // Non-selective range: the histogram says nearly every row
        // qualifies, so the full scan stays.
        let wide = PlanBuilder::scan("fact")
            .select(ScalarExpr::col("fk").ge(ScalarExpr::lit(0i64)))
            .unwrap()
            .build();
        let opt = optimize(&db, wide).unwrap();
        assert!(
            matches!(opt, Plan::Select { .. }),
            "expected full scan to survive, got:\n{}",
            opt.explain()
        );
    }

    #[test]
    fn cost_model_picks_index_join_for_small_probe_side() {
        let db = index_db();
        let cfg = SamplerConfig::default();
        // 3 dimension rows probing a 400-row indexed fact table: the
        // seek-per-probe-row plan beats building a 400-row hash table.
        let plan = PlanBuilder::scan("dim")
            .select(ScalarExpr::col("dk").lt(ScalarExpr::lit(3i64)))
            .unwrap()
            .equi_join(PlanBuilder::scan("fact"), vec![("dk", "fk")])
            .build();
        let opt = optimize(&db, plan.clone()).unwrap();
        assert!(
            opt.explain().contains("IndexJoin"),
            "expected IndexJoin, got:\n{}",
            opt.explain()
        );
        let a = crate::exec::execute(
            &db,
            &optimize_with(&db, plan, &no_index_cfg()).unwrap(),
            &cfg,
        )
        .unwrap();
        let b = crate::exec::execute(&db, &opt, &cfg).unwrap();
        assert_eq!(a, b);
        // Probe side as large as the indexed side: per-row seeks cost
        // more than one hash build, so the hash join survives.
        let plan = PlanBuilder::scan("fact")
            .equi_join(PlanBuilder::scan("fact"), vec![("fk", "fk")])
            .build();
        let opt = optimize(&db, plan).unwrap();
        assert!(
            !opt.explain().contains("IndexJoin"),
            "expected hash join to survive, got:\n{}",
            opt.explain()
        );
    }

    #[test]
    fn unindexed_or_unbounded_predicates_keep_the_scan() {
        let db = index_db();
        // No conjunct constrains the indexed column.
        let plan = PlanBuilder::scan("fact")
            .select(ScalarExpr::col("fv").lt(ScalarExpr::lit(5.0)))
            .unwrap()
            .build();
        let opt = optimize(&db, plan).unwrap();
        assert!(matches!(opt, Plan::Select { .. }), "{}", opt.explain());
        // use_indexes: false is a hard off-switch even for selective work.
        let plan = PlanBuilder::scan("fact")
            .select(ScalarExpr::col("fk").eq(ScalarExpr::lit(7i64)))
            .unwrap()
            .build();
        let opt = optimize_with(&db, plan, &no_index_cfg()).unwrap();
        assert!(matches!(opt, Plan::Select { .. }), "{}", opt.explain());
    }

    #[test]
    fn plan_schema_shapes() {
        let db = setup();
        let s = plan_schema(&db, &Plan::Scan("l".into())).unwrap();
        assert_eq!(s.len(), 2);
        let agg = PlanBuilder::scan("l")
            .aggregate(vec!["a"], vec![crate::plan::AggFunc::ExpectedCount])
            .build();
        let s = plan_schema(&db, &agg).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.columns()[1].name, "expected_count(*)");
        let conf = PlanBuilder::scan("l").conf().build();
        assert_eq!(plan_schema(&db, &conf).unwrap().len(), 3);
    }
}
