//! End-to-end integration tests spanning the whole stack: SQL → plans →
//! c-table algebra → sampling operators, checked against closed forms.

use pip::dist::special;
use pip::prelude::*;

fn setup() -> (Database, SamplerConfig) {
    (Database::new(), SamplerConfig::default())
}

#[test]
fn paper_running_example_sql() {
    let (db, cfg) = setup();
    sql::run(
        &db,
        "CREATE TABLE orders (cust TEXT, ship_to TEXT, price SYMBOLIC)",
        &cfg,
    )
    .unwrap();
    sql::run(
        &db,
        "CREATE TABLE shipping (dest TEXT, duration SYMBOLIC)",
        &cfg,
    )
    .unwrap();
    sql::run(
        &db,
        "INSERT INTO orders VALUES \
         ('Joe', 'NY', create_variable('Normal', 100, 10)), \
         ('Bob', 'LA', create_variable('Normal', 50, 5))",
        &cfg,
    )
    .unwrap();
    sql::run(
        &db,
        "INSERT INTO shipping VALUES \
         ('NY', create_variable('Normal', 5, 2)), \
         ('LA', create_variable('Normal', 9, 2))",
        &cfg,
    )
    .unwrap();

    let r = sql::run(
        &db,
        "SELECT expected_sum(price) FROM orders, shipping \
         WHERE ship_to = dest AND cust = 'Joe' AND duration >= 7",
        &cfg,
    )
    .unwrap();
    let v = scalar_result(&r).unwrap();
    let truth = 100.0 * (1.0 - special::normal_cdf(1.0));
    assert!((v - truth).abs() < 2.0, "{v} vs {truth}");
}

#[test]
fn symbolic_view_materialization_is_lossless() {
    // Section III-A: intermediate results can be materialized without
    // estimation bias — because they are symbolic. Materialize the join
    // as a catalog table, query it twice with different sample budgets,
    // and check both converge to the same truth.
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE t (v SYMBOLIC)", &cfg).unwrap();
    sql::run(
        &db,
        "INSERT INTO t VALUES (create_variable('Exponential', 0.5))",
        &cfg,
    )
    .unwrap();
    // Materialize σ_{v>2}(t) symbolically.
    let plan = PlanBuilder::scan("t")
        .select(ScalarExpr::col("v").gt(ScalarExpr::lit(2.0)))
        .unwrap()
        .build();
    let view = execute(&db, &plan, &cfg).unwrap();
    assert_eq!(view.len(), 1);
    assert!(!view.rows()[0].condition.is_trivially_true());
    db.register_table("late", view).unwrap();

    // Query the view: E[v | v > 2] = 2 + 1/λ = 4 (memorylessness).
    let r1 = sql::run(&db, "SELECT expected_sum(v) FROM late", &cfg).unwrap();
    // expected_sum = E[v|cond]·P[cond]; P = e^{-1}.
    let truth = 4.0 * (-1.0f64).exp();
    let v1 = scalar_result(&r1).unwrap();
    assert!((v1 - truth).abs() < 0.15, "{v1} vs {truth}");

    // conf() on the view is exact via the exponential CDF.
    let r2 = sql::run(&db, "SELECT v, conf() FROM late", &cfg).unwrap();
    let p = r2.rows()[0].cells[1].as_const().unwrap().as_f64().unwrap();
    assert!((p - (-1.0f64).exp()).abs() < 1e-9, "{p}");
}

#[test]
fn group_by_with_uncertain_measures() {
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE sales (region TEXT, amt SYMBOLIC)", &cfg).unwrap();
    sql::run(
        &db,
        "INSERT INTO sales VALUES \
         ('east', create_variable('Normal', 10, 1)), \
         ('east', create_variable('Normal', 20, 1)), \
         ('west', create_variable('Uniform', 0, 10))",
        &cfg,
    )
    .unwrap();
    let r = sql::run(
        &db,
        "SELECT region, expected_sum(amt), expected_count(*) FROM sales GROUP BY region",
        &cfg,
    )
    .unwrap();
    assert_eq!(r.len(), 2);
    let east_sum = r.rows()[0].cells[1].as_const().unwrap().as_f64().unwrap();
    let west_sum = r.rows()[1].cells[1].as_const().unwrap().as_f64().unwrap();
    assert!((east_sum - 30.0).abs() < 1e-6, "{east_sum}");
    assert!((west_sum - 5.0).abs() < 1e-6, "{west_sum}");
}

#[test]
fn lone_conf_under_group_by_answers_per_group() {
    // `GROUP BY` with `conf()` as the only aggregate: one row per group
    // (P[the group is non-empty]), the `conf()` column of the same query
    // with another aggregate beside it — not one row per input row.
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE t (g TEXT, x SYMBOLIC)", &cfg).unwrap();
    let rows: Vec<String> = (0..8)
        .map(|i| {
            let (mu, sd) = (10.0 + 0.1 * i as f64, 1.8 + 0.05 * i as f64);
            format!("('g{}', create_variable('Normal', {mu}, {sd}))", i % 4)
        })
        .collect();
    sql::run(
        &db,
        &format!("INSERT INTO t VALUES {}", rows.join(", ")),
        &cfg,
    )
    .unwrap();
    let lone = sql::run(
        &db,
        "SELECT g, conf() FROM t WHERE x > 11.3 GROUP BY g",
        &cfg,
    )
    .unwrap();
    let beside = sql::run(
        &db,
        "SELECT g, expected_sum(x), conf() FROM t WHERE x > 11.3 GROUP BY g",
        &cfg,
    )
    .unwrap();
    assert_eq!(lone.len(), 4);
    assert_eq!(beside.len(), 4);
    for (a, b) in lone.rows().iter().zip(beside.rows()) {
        assert_eq!(a.cells[0], b.cells[0], "group key");
        assert_eq!(a.cells[1], b.cells[2], "conf() of {:?}", a.cells[0]);
    }

    // Without `GROUP BY` the whole result is the one group: the same
    // factorised `aconf` over all eight variable-disjoint rows, so it is
    // the closed form "some group is non-empty" — the same at every seed,
    // alone or beside another aggregate.
    let p = |r: &CTable, row: usize, col: usize| {
        let cell = r.rows()[row].cells[col].as_const().unwrap();
        cell.as_f64().unwrap()
    };
    let any_group = 1.0 - (0..4).map(|g| 1.0 - p(&lone, g, 1)).product::<f64>();
    let whole = |sql: &str, seed| {
        let reply = sql::run(&db, sql, &cfg.clone().with_seed(seed)).unwrap();
        p(&reply, 0, reply.schema().len() - 1)
    };
    let beside = whole("SELECT expected_sum(x), conf() FROM t WHERE x > 11.3", 1);
    assert!(
        (beside - any_group).abs() < 1e-12,
        "{beside} vs {any_group}"
    );
    assert_eq!(
        beside,
        whole("SELECT expected_sum(x), conf() FROM t WHERE x > 11.3", 2)
    );
    assert_eq!(beside, whole("SELECT conf() FROM t WHERE x > 11.3", 3));
}

#[test]
fn discrete_and_continuous_mix_in_one_query() {
    // A Bernoulli gate on a Normal payout: E = p · μ.
    let (db, cfg) = setup();
    sql::run(
        &db,
        "CREATE TABLE deals (gate SYMBOLIC, payout SYMBOLIC)",
        &cfg,
    )
    .unwrap();
    sql::run(
        &db,
        "INSERT INTO deals VALUES \
         (create_variable('Bernoulli', 0.25), create_variable('Normal', 80, 5))",
        &cfg,
    )
    .unwrap();
    let r = sql::run(&db, "SELECT expected_sum(gate * payout) FROM deals", &cfg).unwrap();
    let v = scalar_result(&r).unwrap();
    assert!((v - 0.25 * 80.0).abs() < 1.5, "{v}");
}

#[test]
fn selection_pushes_conditions_not_samples() {
    // After a selective WHERE, the result table is symbolic — no
    // sampling has happened yet, and the row is still present.
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE t (v SYMBOLIC)", &cfg).unwrap();
    sql::run(
        &db,
        "INSERT INTO t VALUES (create_variable('Normal', 0, 1))",
        &cfg,
    )
    .unwrap();
    // Selectivity ~1e-9 — a sample-first engine would need billions of
    // worlds to see this row at all.
    let plan = PlanBuilder::scan("t")
        .select(ScalarExpr::col("v").gt(ScalarExpr::lit(6.0)))
        .unwrap()
        .build();
    let out = execute(&db, &plan, &cfg).unwrap();
    assert_eq!(out.len(), 1, "row survives symbolically");
    // Its confidence is the exact Normal tail.
    let p = pip::sampling::conf(&out.rows()[0].condition, &cfg, 0).unwrap();
    let truth = 1.0 - special::normal_cdf(6.0);
    assert!((p - truth).abs() < 1e-12, "{p} vs {truth}");
}

#[test]
fn union_and_difference_world_semantics() {
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE a (v INT)", &cfg).unwrap();
    sql::run(&db, "CREATE TABLE b (v INT)", &cfg).unwrap();
    sql::run(&db, "INSERT INTO a VALUES (1), (2), (3)", &cfg).unwrap();
    sql::run(&db, "INSERT INTO b VALUES (2)", &cfg).unwrap();
    let diff = execute(
        &db,
        &PlanBuilder::scan("a")
            .difference(PlanBuilder::scan("b"))
            .build(),
        &cfg,
    )
    .unwrap();
    let world = diff.instantiate(&Assignment::new()).unwrap();
    let mut vals: Vec<i64> = world
        .iter()
        .map(|t| t.get(0).unwrap().as_i64().unwrap())
        .collect();
    vals.sort();
    assert_eq!(vals, vec![1, 3]);
}

#[test]
fn expected_max_via_sql() {
    let (db, cfg) = setup();
    sql::run(&db, "CREATE TABLE t (v FLOAT)", &cfg).unwrap();
    sql::run(&db, "INSERT INTO t VALUES (5), (4), (1)", &cfg).unwrap();
    // All rows certain: E[max] = 5 exactly.
    let r = sql::run(&db, "SELECT expected_max(v) FROM t", &cfg).unwrap();
    assert_eq!(scalar_result(&r).unwrap(), 5.0);
}

#[test]
fn expected_max_over_symbolic_cells_is_clarks_closed_form() {
    // E[max(X₁, X₂)] for independent Normals (Clark 1961):
    // μ₁Φ(α) + μ₂Φ(−α) + θφ(α), θ = √(σ₁² + σ₂²), α = (μ₁ − μ₂)/θ.
    let (db, cfg) = setup();
    let (m1, s1, m2, s2): (f64, f64, f64, f64) = (1.0, 2.0, 0.5, 1.0);
    sql::run(&db, "CREATE TABLE n (x SYMBOLIC)", &cfg).unwrap();
    sql::run(
        &db,
        &format!(
            "INSERT INTO n VALUES (create_variable('Normal', {m1:?}, {s1:?})), \
             (create_variable('Normal', {m2:?}, {s2:?}))"
        ),
        &cfg,
    )
    .unwrap();
    let theta = (s1 * s1 + s2 * s2).sqrt();
    let alpha = (m1 - m2) / theta;
    let truth = m1 * special::normal_cdf(alpha)
        + m2 * special::normal_cdf(-alpha)
        + theta * special::normal_pdf(alpha);
    let r = sql::run(&db, "SELECT expected_max(x) FROM n", &cfg).unwrap();
    let got = scalar_result(&r).unwrap();
    // The mean of `worlds` per-world maxima; max is 1-Lipschitz in each
    // argument, so Var[max] ≤ σ₁² + σ₂² (Efron–Stein): five standard
    // errors.
    let worlds = cfg.probe_budget() as f64;
    let tolerance = 5.0 * ((s1 * s1 + s2 * s2) / worlds).sqrt();
    assert!(
        (got - truth).abs() < tolerance,
        "{got} vs {truth} (± {tolerance})"
    );
    // The per-world fallback has no early stop: a precision over
    // symbolic cells is refused, not ignored.
    let err = sql::run(&db, "SELECT expected_max(x, 0.1) FROM n", &cfg).unwrap_err();
    assert!(
        matches!(&err, PipError::Unsupported(m) if m.contains("precision")),
        "{err:?}"
    );
}
