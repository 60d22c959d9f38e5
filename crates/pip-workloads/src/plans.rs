//! Engine-level (logical plan) versions of the evaluation workloads.
//!
//! The queries in [`crate::queries`] build each result c-table by hand —
//! right for isolating the sampling operators, but blind to query-phase
//! cost. The workload here drives Q3's shape (the Figure 6 selective
//! join) through the *whole* engine instead: catalog tables, a join
//! plan, the optimizer, and an executor. Customer and delivery tables
//! carry deliberately wide padding columns that every join output row
//! copies.

use pip_core::{DataType, Result, Schema};
use pip_dist::prelude::builtin;
use pip_expr::{Equation, RandomVar};

use pip_ctable::CRow;
use pip_engine::{Database, Plan, PlanBuilder, ScalarExpr};

use crate::tpch::TpchData;

/// Number of unused padding columns on each base table.
pub const PAD_COLS: usize = 6;

/// Build the join-workload catalog: `customers(cust, spend, incr, supp,
/// pad0..)` and `deliveries(supp_id, duration, thr, pad0..)` where
/// `incr ~ Poisson(rate_c)` is the purchase-increase variable and
/// `duration ~ Normal` with per-row threshold `thr` calibrated so
/// `P[duration > thr] = selectivity` (Q3's dissatisfaction filter).
pub fn join_db(data: &TpchData, selectivity: f64) -> Result<Database> {
    let db = Database::new();
    let mut cust_cols = vec![
        ("cust", DataType::Int),
        ("spend", DataType::Float),
        ("incr", DataType::Symbolic),
        ("supp", DataType::Int),
    ];
    let mut deli_cols = vec![
        ("supp_id", DataType::Int),
        ("duration", DataType::Symbolic),
        ("thr", DataType::Float),
    ];
    let pads: Vec<String> = (0..PAD_COLS).map(|i| format!("pad{i}")).collect();
    for p in &pads {
        cust_cols.push((p, DataType::Float));
        deli_cols.push((p, DataType::Float));
    }
    db.create_table("customers", Schema::of(&cust_cols))?;
    db.create_table("deliveries", Schema::of(&deli_cols))?;

    let z = pip_dist::special::inverse_normal_cdf(1.0 - selectivity);
    let n_supp = data.suppliers.len().max(1);
    let mut cust_rows = Vec::with_capacity(data.customers.len());
    for (i, c) in data.customers.iter().enumerate() {
        let x = RandomVar::create(builtin::poisson(), &[c.increase_rate()])?;
        let mut cells = vec![
            Equation::val(c.id as i64),
            Equation::val(c.spend),
            Equation::from(x),
            Equation::val((i % n_supp) as i64),
        ];
        for p in 0..PAD_COLS {
            cells.push(Equation::val((i * 7 + p) as f64));
        }
        cust_rows.push(CRow::unconditional(cells));
    }
    db.insert_rows("customers", cust_rows)?;

    let mut deli_rows = Vec::with_capacity(n_supp);
    for (i, s) in data.suppliers.iter().enumerate() {
        let mu = s.mfg_mean + s.ship_mean;
        let sd = (s.mfg_std * s.mfg_std + s.ship_std * s.ship_std).sqrt();
        let d = RandomVar::create(builtin::normal(), &[mu, sd])?;
        let mut cells = vec![
            Equation::val(i as i64),
            Equation::from(d),
            Equation::val(mu + z * sd),
        ];
        for p in 0..PAD_COLS {
            cells.push(Equation::val((i * 3 + p) as f64));
        }
        deli_rows.push(CRow::unconditional(cells));
    }
    db.insert_rows("deliveries", deli_rows)?;
    Ok(db)
}

/// The Q3-shaped plan over [`join_db`]'s catalog:
///
/// ```sql
/// SELECT expected_sum(lost) FROM (
///   SELECT spend * incr AS lost
///   FROM customers JOIN deliveries ON supp = supp_id
///   WHERE duration > thr
/// )
/// ```
pub fn join_plan() -> Plan {
    PlanBuilder::scan("customers")
        .equi_join(PlanBuilder::scan("deliveries"), vec![("supp", "supp_id")])
        .select(ScalarExpr::col("duration").gt(ScalarExpr::col("thr")))
        .expect("predicate")
        .project(vec![(
            "lost",
            ScalarExpr::col("spend").mul(ScalarExpr::col("incr")),
        )])
        .aggregate(
            vec![],
            vec![pip_engine::AggFunc::ExpectedSum("lost".into())],
        )
        .build()
}

/// Row counts of the star join-order workload, derived from the fact
/// table size with sharply skewed dimensions.
#[derive(Debug, Clone, Copy)]
pub struct StarShape {
    pub fact: usize,
    pub dim_a: usize,
    pub dim_b: usize,
    pub dim_c: usize,
    /// Fraction of `dim_c` kept by its filter (the selective dimension).
    pub c_selectivity: f64,
}

impl StarShape {
    /// Shape for a given fact-table size.
    pub fn of(fact: usize) -> StarShape {
        StarShape {
            fact: fact.max(40),
            dim_a: (fact / 10).max(8),
            dim_b: (fact / 40).max(4),
            dim_c: (fact / 100).max(5),
            c_selectivity: 0.2,
        }
    }
}

/// Build the join-order workload catalog: a star schema with skewed
/// cardinalities — `fact(fa, fb, fc, amount, fpad0, fpad1)` referencing
/// `dim_a(ak, aw)`, `dim_b(bk, bw)` and the small, selectively filtered
/// `dim_c(ck, cfilter, cw)`. All cells are deterministic so the query
/// phase (the thing join order changes) dominates; the aggregate head
/// costs the same under every plan.
pub fn star_db(shape: &StarShape) -> Result<Database> {
    let db = Database::new();
    db.create_table(
        "fact",
        Schema::of(&[
            ("fa", DataType::Int),
            ("fb", DataType::Int),
            ("fc", DataType::Int),
            ("amount", DataType::Float),
            ("fpad0", DataType::Float),
            ("fpad1", DataType::Float),
        ]),
    )?;
    db.create_table(
        "dim_a",
        Schema::of(&[("ak", DataType::Int), ("aw", DataType::Float)]),
    )?;
    db.create_table(
        "dim_b",
        Schema::of(&[("bk", DataType::Int), ("bw", DataType::Float)]),
    )?;
    db.create_table(
        "dim_c",
        Schema::of(&[
            ("ck", DataType::Int),
            ("cfilter", DataType::Float),
            ("cw", DataType::Float),
        ]),
    )?;
    let mut fact = Vec::with_capacity(shape.fact);
    for i in 0..shape.fact {
        fact.push(CRow::unconditional(vec![
            Equation::val(((i * 7 + 3) % shape.dim_a) as i64),
            Equation::val(((i * 13 + 1) % shape.dim_b) as i64),
            Equation::val(((i * 11 + 5) % shape.dim_c) as i64),
            Equation::val(1.0 + (i % 17) as f64),
            Equation::val(i as f64),
            Equation::val((i * 2) as f64),
        ]));
    }
    db.insert_rows("fact", fact)?;
    fn dim(n: usize, f: impl Fn(usize) -> Vec<Equation>) -> Vec<CRow> {
        (0..n).map(|i| CRow::unconditional(f(i))).collect()
    }
    db.insert_rows(
        "dim_a",
        dim(shape.dim_a, |i| {
            vec![Equation::val(i as i64), Equation::val((i % 5) as f64)]
        }),
    )?;
    db.insert_rows(
        "dim_b",
        dim(shape.dim_b, |i| {
            vec![Equation::val(i as i64), Equation::val((i % 3) as f64)]
        }),
    )?;
    db.insert_rows(
        "dim_c",
        dim(shape.dim_c, |i| {
            vec![
                Equation::val(i as i64),
                // Uniform in [0, 1): the filter keeps `c_selectivity`.
                Equation::val((i as f64 + 0.5) / shape.dim_c as f64),
                Equation::val((i % 7) as f64),
            ]
        }),
    )?;
    Ok(db)
}

/// The star workload's query, written in the worst plausible order —
/// products in FROM-clause sequence with every join predicate in the
/// WHERE clause, exactly what `SELECT ... FROM fact, dim_a, dim_b,
/// dim_c WHERE ...` parses to:
///
/// ```sql
/// SELECT expected_sum(amount)
/// FROM fact, dim_a, dim_b, dim_c
/// WHERE fa = ak AND fb = bk AND fc = ck AND cfilter < 0.2
/// ```
///
/// Executed literally, `fact × dim_a` materializes first; a cost-based
/// optimizer must join the small filtered `dim_c` in early instead.
pub fn star_plan_written(shape: &StarShape) -> Plan {
    PlanBuilder::scan("fact")
        .product(PlanBuilder::scan("dim_a"))
        .product(PlanBuilder::scan("dim_b"))
        .product(PlanBuilder::scan("dim_c"))
        .select(
            ScalarExpr::col("fa")
                .eq(ScalarExpr::col("ak"))
                .and(ScalarExpr::col("fb").eq(ScalarExpr::col("bk")))
                .and(ScalarExpr::col("fc").eq(ScalarExpr::col("ck")))
                .and(ScalarExpr::col("cfilter").lt(ScalarExpr::lit(shape.c_selectivity))),
        )
        .expect("predicate")
        .aggregate(
            vec![],
            vec![pip_engine::AggFunc::ExpectedSum("amount".into())],
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::q3_exact;
    use crate::tpch::{generate, TpchConfig};
    use pip_engine::{execute, execute_materialized, optimize, scalar_result};
    use pip_sampling::SamplerConfig;

    #[test]
    fn join_workload_executes_and_matches_q3_truth() {
        let data = generate(&TpchConfig {
            n_customers: 40,
            n_parts: 5,
            n_suppliers: 8,
            seed: 21,
        });
        let sel = 0.2;
        let db = join_db(&data, sel).unwrap();
        let cfg = SamplerConfig::default();
        let plan = optimize(&db, join_plan()).unwrap();
        let t = execute(&db, &plan, &cfg).unwrap();
        let v = scalar_result(&t).unwrap();
        // Purchase increase is independent of delivery: Σ spend·λ·sel.
        let truth = q3_exact(&data, sel);
        assert!((v - truth).abs() / truth < 0.15, "{v} vs {truth}");
        // Both executors, optimized or not: one result.
        let raw = join_plan();
        let m = scalar_result(&execute_materialized(&db, &raw, &cfg).unwrap()).unwrap();
        assert_eq!(v.to_bits(), m.to_bits(), "executors disagree");
    }

    #[test]
    fn star_workload_reorders_and_preserves_the_answer() {
        let shape = StarShape::of(400);
        let db = star_db(&shape).unwrap();
        let written = star_plan_written(&shape);
        let cfg = SamplerConfig::fixed_samples(50);
        let opt = optimize(&db, written.clone()).unwrap();
        let text = opt.explain();
        // Every product became a hash join.
        assert!(!text.contains("Product"), "{text}");
        assert!(text.contains("EquiJoin"), "{text}");
        // The reorderer's column-restoring projection is narrowed to
        // the one column the aggregate reads.
        assert!(text.contains("Project: [amount]"), "{text}");
        // The selective dimension joins before the wide ones: dim_c must
        // appear as the first build side (the innermost right leaf).
        let join_line = text
            .lines()
            .rfind(|l| l.contains("EquiJoin"))
            .unwrap()
            .to_string();
        assert!(
            join_line.contains("fc=ck"),
            "first join should bind dim_c: {text}"
        );
        // Same answer from written order, both executors.
        let v_written = scalar_result(&execute(&db, &written, &cfg).unwrap()).unwrap();
        let v_opt = scalar_result(&execute(&db, &opt, &cfg).unwrap()).unwrap();
        let v_mat = scalar_result(&execute_materialized(&db, &opt, &cfg).unwrap()).unwrap();
        assert_eq!(v_opt.to_bits(), v_mat.to_bits(), "executors disagree");
        assert!(
            (v_written - v_opt).abs() < 1e-9,
            "{v_written} vs {v_opt} (deterministic sum must be identical)"
        );
    }
}
