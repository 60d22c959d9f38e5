//! The optimizer's plans for every query template of the end-to-end
//! benchmark (`pip-e2e`), on its three schemas at its sizes. The shapes
//! are pinned whole: a change to any optimizer pass that moves one of
//! these plans shows here, with the plan that moved.

use pip_engine::sql::{self, Statement};
use pip_engine::{optimize, Database};
use pip_sampling::SamplerConfig;

fn run(db: &Database, stmt: &str) {
    sql::run(db, stmt, &SamplerConfig::default()).unwrap();
}

/// The optimized logical plan of `query`, one operator per line,
/// indented by depth. A `Select` prints without its predicate, which
/// the query text already shows.
fn shape(db: &Database, query: &str) -> String {
    let Statement::Select(plan) = sql::parse(query).unwrap() else {
        panic!("not a select: {query}");
    };
    let text = optimize(db, plan).unwrap().explain();
    text.lines()
        .map(|l| match l.find("Select: ") {
            Some(i) => format!("{}Select", &l[..i]),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `sampling_heavy`: `t(g, k, x, y)`, 8 rows in 4 groups, no `ANALYZE`.
#[test]
fn sampling_templates_aggregate_a_filtered_scan() {
    let db = Database::new();
    run(
        &db,
        "CREATE TABLE t (g TEXT, k INT, x SYMBOLIC, y SYMBOLIC)",
    );
    let rows: Vec<String> = (0..8)
        .map(|i| {
            let mu = 10.0 + i as f64 / 8.0;
            format!(
                "('g{}', {i}, create_variable('Normal', {mu:?}, 2.0), \
                 create_variable('Normal', {mu:?}, 1.9))",
                i % 4
            )
        })
        .collect();
    run(&db, &format!("INSERT INTO t VALUES {}", rows.join(", ")));
    let grouped = "Aggregate: [expected_sum(x), conf()] group by [g]\n  Select\n    Scan: t";
    for query in [
        // s1
        "SELECT g, expected_sum(x), conf() FROM t WHERE x > 11.25 GROUP BY g",
        // s2
        "SELECT g, expected_sum(x), conf() FROM t WHERE k < 6 AND x + y > 20.5 GROUP BY g",
        // rare
        "SELECT g, expected_sum(x), conf() FROM t WHERE k < 6 AND x + y > 30.0 GROUP BY g",
    ] {
        assert_eq!(shape(&db, query), grouped, "{query}");
    }
}

/// `symbolic_join`: `customers` 500 × `deliveries` 125, six `pad`
/// columns each, then `ANALYZE`. The join is a hash join in written
/// order, and no projection narrows either scan.
#[test]
fn symbolic_join_is_a_hash_join_over_bare_scans() {
    let db = Database::new();
    let pads: String = (0..6).map(|i| format!(", pad{i} FLOAT")).collect();
    run(
        &db,
        &format!("CREATE TABLE customers (cust INT, spend FLOAT, incr SYMBOLIC, supp INT{pads})"),
    );
    run(
        &db,
        &format!("CREATE TABLE deliveries (supp_id INT, duration SYMBOLIC, thr FLOAT{pads})"),
    );
    let deliveries: Vec<String> = (0..125)
        .map(|i| {
            let mu = 5.0 + (i * 13 % 1000) as f64 * 0.015;
            let sd = 1.0 + (i * 29 % 1000) as f64 * 0.003;
            let thr = mu + 0.841_621_233_572_914_3 * sd;
            let pad: String = (0..6).map(|p| format!(", {}.0", i * 3 + p)).collect();
            format!("({i}, create_variable('Normal', {mu:?}, {sd:?}), {thr:?}{pad})")
        })
        .collect();
    let customers: Vec<String> = (0..500)
        .map(|i| {
            let spend = 20.0 + (i * 37 % 100) as f64 * 4.8;
            let rate = 0.5 + (i * 11 % 1000) as f64 * 0.0055;
            let pad: String = (0..6).map(|p| format!(", {}.0", i * 7 + p)).collect();
            format!(
                "({i}, {spend:?}, create_variable('Poisson', {rate:?}), {}{pad})",
                i % 125
            )
        })
        .collect();
    run(
        &db,
        &format!("INSERT INTO customers VALUES {}", customers.join(", ")),
    );
    run(
        &db,
        &format!("INSERT INTO deliveries VALUES {}", deliveries.join(", ")),
    );
    run(&db, "ANALYZE");
    let join = "Aggregate: [expected_sum(agg_arg0)] group by []\n  \
                Project: [agg_arg0]\n    \
                EquiJoin: supp=supp_id\n      \
                Select\n        Scan: customers\n      \
                Select\n        Scan: deliveries";
    for s in [20.0, 80.0, 139.9] {
        let query = format!(
            "SELECT expected_sum(spend * incr) FROM customers, deliveries \
             WHERE supp = supp_id AND duration > thr AND spend > {s:?}"
        );
        assert_eq!(shape(&db, &query), join, "{query}");
    }
}

/// `mixed_rw` and `ingest`: `acct` 20,000 rows over 5,000 regions,
/// `acct_region` indexed, then `ANALYZE`. The region read seeks the
/// index.
#[test]
fn region_read_is_an_index_scan() {
    let db = Database::new();
    run(&db, "CREATE TABLE acct (k INT, region INT, v SYMBOLIC)");
    for batch in 0..20 {
        let rows: Vec<String> = (batch * 1000..(batch + 1) * 1000)
            .map(|i| {
                let mu = 50.0 + (i * 7 % 20) as f64;
                format!(
                    "({i}, {}, create_variable('Normal', {mu:?}, 5.0))",
                    i % 5000
                )
            })
            .collect();
        run(&db, &format!("INSERT INTO acct VALUES {}", rows.join(", ")));
    }
    run(&db, "CREATE INDEX acct_region ON acct (region)");
    run(&db, "ANALYZE");
    let query = "SELECT expected_sum(v), conf() FROM acct WHERE region = 17 AND v > 60.0";
    assert_eq!(
        shape(&db, query),
        "Aggregate: [expected_sum(v), conf()] group by []\n  \
         IndexScan: acct via acct_region (Float(17.0) <= region <= Float(17.0))",
        "{query}"
    );
}
