//! `samplers_agree`-style determinism tests for the parallel runtime:
//! serial and parallel (2, 4, 8 threads) sampling must produce
//! *bit-identical* results — and the same errors — for the same seed,
//! through the aggregate operators, the `conf()` heads, and full SQL
//! queries.

mod common;

use pip::ctable::{CRow, CTable};
use pip::engine::{execute, execute_materialized, AggFunc, PlanBuilder};
use pip::expr::{atoms, Conjunction, Equation, RandomVar};
use pip::prelude::{scalar_result, sql, DataType, Database, Schema, Value};
use pip::sampling::{
    conf, expectation, expected_avg, expected_max_const, expected_sum, SamplerConfig,
};

fn normal(mu: f64, sigma: f64) -> RandomVar {
    RandomVar::create(pip::dist::prelude::builtin::normal(), &[mu, sigma]).unwrap()
}

/// A table mixing exact-path rows (unconditional normals) with rows
/// that force real sampling (cross-variable conditions).
fn mixed_table(rows: usize) -> CTable {
    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for i in 0..rows {
        let y = normal(i as f64, 1.0 + (i % 4) as f64 * 0.5);
        let z = normal(0.0, 1.0);
        let row = if i % 3 == 0 {
            CRow::unconditional(vec![Equation::from(y)])
        } else {
            // z² > y - i: no closed form (an affine `z > y - i` over two
            // Normals would have one), so `conf` has to sample.
            CRow::new(
                vec![Equation::from(y.clone())],
                Conjunction::single(atoms::gt(
                    Equation::from(z.clone()) * Equation::from(z),
                    Equation::from(y) - i as f64,
                )),
            )
        };
        t.push(row).unwrap();
    }
    t
}

#[test]
fn aggregates_identical_at_1_2_4_8_threads() {
    let t = mixed_table(17);
    let serial = SamplerConfig::fixed_samples(400);
    let sum1 = expected_sum(&t, "v", &serial).unwrap();
    let avg1 = expected_avg(&t, "v", &serial).unwrap();
    assert!(sum1.n_samples > 0, "workload must exercise the samplers");
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        assert_eq!(
            expected_sum(&t, "v", &par).unwrap(),
            sum1,
            "expected_sum diverged at {threads} threads"
        );
        assert_eq!(
            expected_avg(&t, "v", &par).unwrap(),
            avg1,
            "expected_avg diverged at {threads} threads"
        );
    }
}

#[test]
fn per_row_conf_sites_are_scheduling_free() {
    // The row fan-out reproduces the serial operator because each row's
    // stream is derived from its index, not from execution order: check
    // the per-row primitives directly.
    let t = mixed_table(9);
    let cfg = SamplerConfig::fixed_samples(600);
    for (i, row) in t.rows().iter().enumerate() {
        let a = conf(&row.condition, &cfg, i as u64).unwrap();
        let b = conf(&row.condition, &cfg, i as u64).unwrap();
        assert_eq!(a, b);
        let ra = expectation(&row.cells[0], &row.condition, true, &cfg, i as u64).unwrap();
        let rb = expectation(&row.cells[0], &row.condition, true, &cfg, i as u64).unwrap();
        assert_eq!(ra, rb);
    }
}

#[test]
fn sql_query_results_identical_at_1_2_4_8_threads() {
    let db = Database::new();
    let serial = SamplerConfig::default();
    sql::run(
        &db,
        "CREATE TABLE sales (region TEXT, amount SYMBOLIC)",
        &serial,
    )
    .unwrap();
    sql::run(
        &db,
        "INSERT INTO sales VALUES \
         ('east', create_variable('Normal', 100, 20)), \
         ('east', create_variable('Normal', 80, 10)), \
         ('west', create_variable('Normal', 60, 15)), \
         ('west', create_variable('Normal', 40, 5)), \
         ('north', create_variable('Exponential', 0.05))",
        &serial,
    )
    .unwrap();
    let q = "SELECT region, expected_sum(amount), expected_count(*), conf() \
             FROM sales WHERE amount > 70 GROUP BY region";
    let baseline = sql::run(&db, q, &serial).unwrap();
    assert_eq!(baseline.len(), 3);
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        let t = sql::run(&db, q, &par).unwrap();
        assert_eq!(
            t.rows(),
            baseline.rows(),
            "SQL results diverged at {threads} threads"
        );
    }
}

#[test]
fn grouped_conf_identical_at_1_2_4_8_threads() {
    // Multi-row groups: factorised, sampled-component and probe paths of
    // `aconf`, whose streams derive from (site, first disjunct) alone.
    let (t, disjoint_truth) = common::grouped_conf_table();
    let db = Database::new();
    db.register_table("t", t).unwrap();
    let plan = PlanBuilder::scan("t")
        .aggregate(vec!["g"], vec![AggFunc::Conf])
        .build();
    let serial = SamplerConfig::default();
    let baseline = execute(&db, &plan, &serial).unwrap();
    assert_eq!(baseline.len(), 3);
    let disjoint = baseline.rows()[0].cells[1].as_const().unwrap();
    assert!((disjoint.as_f64().unwrap() - disjoint_truth).abs() < 1e-12);
    for threads in [1usize, 2, 4, 8] {
        let cfg = serial.clone().with_threads(threads);
        for run in [execute, execute_materialized] {
            assert_eq!(
                run(&db, &plan, &cfg).unwrap().rows(),
                baseline.rows(),
                "grouped conf() diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn scalar_aggregate_identical_and_sane() {
    let db = Database::new();
    let serial = SamplerConfig::default();
    sql::run(&db, "CREATE TABLE t (x SYMBOLIC)", &serial).unwrap();
    sql::run(
        &db,
        "INSERT INTO t VALUES (create_variable('Normal', 10, 2)), \
         (create_variable('Uniform', 0, 4))",
        &serial,
    )
    .unwrap();
    let v1 =
        scalar_result(&sql::run(&db, "SELECT expected_sum(x) FROM t", &serial).unwrap()).unwrap();
    assert!((v1 - 12.0).abs() < 1e-9, "exact linear path: {v1}");
    for threads in [2usize, 4, 8] {
        let par = serial.clone().with_threads(threads);
        let v =
            scalar_result(&sql::run(&db, "SELECT expected_sum(x) FROM t", &par).unwrap()).unwrap();
        assert_eq!(v.to_bits(), v1.to_bits(), "threads={threads}");
    }
}

/// `'<tag>' + y`: evaluates to a type error naming `tag`, so a test can
/// tell *which* row's failure an operator reported.
fn poisoned(tag: &str, y: &RandomVar) -> Equation {
    Equation::val(Value::str(tag)) + Equation::from(y.clone())
}

#[test]
fn first_failing_row_is_the_error_at_every_thread_count() {
    // Cells 2 and 5 fail evaluation (expected_sum), conditions 3 and 6
    // do (conf heads); row order, not completion order, picks the error.
    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    for i in 0..8 {
        let (y, z) = (normal(i as f64, 1.0), normal(0.0, 1.0));
        let cell = match i {
            2 | 5 => poisoned(&format!("cell{i}"), &y),
            _ => Equation::from(y.clone()) * 2.0,
        };
        let lhs = match i {
            3 | 6 => poisoned(&format!("cond{i}"), &z),
            _ => Equation::from(z),
        };
        // Cross-variable atom: `conf` has to evaluate it per candidate.
        let cond = Conjunction::single(atoms::gt(lhs, Equation::from(y) - i as f64));
        t.push(CRow::new(vec![cell], cond)).unwrap();
    }
    let db = Database::new();
    db.register_table("t", t.clone()).unwrap();
    let conf_plan = PlanBuilder::scan("t").conf().build();

    for threads in [1usize, 2, 4] {
        let cfg = SamplerConfig::fixed_samples(200).with_threads(threads);
        let results = [
            ("cell2", expected_sum(&t, "v", &cfg).map(|_| ())),
            ("cond3", execute(&db, &conf_plan, &cfg).map(|_| ())),
            (
                "cond3",
                execute_materialized(&db, &conf_plan, &cfg).map(|_| ()),
            ),
        ];
        for (first_failure, r) in results {
            let msg = r.expect_err(first_failure).to_string();
            assert!(msg.contains(first_failure), "{threads} threads: '{msg}'");
        }
    }
}

#[test]
fn conf_failure_past_the_early_exit_never_fails_expected_max() {
    // Sorted scan: 10 (certain) then 9, 8, ... — the scan exits after the
    // first row (carry = 0), so the poisoned conf of the row valued 7 must
    // stay uncomputed or be discarded, whatever the wave size.
    let schema = Schema::of(&[("v", DataType::Symbolic)]);
    let mut t = CTable::empty(schema);
    t.push(CRow::unconditional(vec![Equation::val(10.0)]))
        .unwrap();
    for i in 1..8 {
        let (y, z) = (normal(0.0, 1.0), normal(0.0, 1.0));
        let lhs = if i == 3 {
            poisoned("late", &z)
        } else {
            Equation::from(z)
        };
        t.push(CRow::new(
            vec![Equation::val(10.0 - i as f64)],
            Conjunction::single(atoms::gt(lhs, Equation::from(y))),
        ))
        .unwrap();
    }
    let serial = SamplerConfig::fixed_samples(200);
    assert!(
        conf(&t.rows()[3].condition, &serial, 3).is_err(),
        "test setup: the late row's conf must fail when computed"
    );
    for threads in [1usize, 2, 4, 8] {
        let cfg = serial.clone().with_threads(threads);
        for precision in [0.0, 0.1] {
            let r = expected_max_const(&t, "v", &cfg, precision).unwrap();
            assert_eq!(r.value, 10.0, "threads={threads} precision={precision}");
        }
    }
    // Moved ahead of the exit point, the same failure is the result.
    let mut rows = t.rows().to_vec();
    rows[0].cells[0] = Equation::val(0.5);
    let t = CTable::new(t.schema().clone(), rows).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let cfg = serial.clone().with_threads(threads);
        let msg = expected_max_const(&t, "v", &cfg, 0.0)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("late"), "threads={threads}: {msg}");
    }
}
