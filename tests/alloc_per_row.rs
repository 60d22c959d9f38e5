//! Allocation gate for the paper's Fig. 6 selective join.
//!
//! Every result row of `SELECT expected_sum(spend * incr) FROM customers,
//! deliveries WHERE supp = supp_id AND duration > thr AND spend > s` is
//! answered in closed form (`E[spend·incr]·P[duration > thr]`), so what a
//! row costs is bookkeeping: the join's row copies, the projection and
//! the sampling phase's one analysis of the row's condition. Heap
//! allocations per result row count that work exactly, with no timing
//! noise, so a change that re-derives facts per row shows here first.
//!
//! A counting `#[global_allocator]` (this test binary only) counts the
//! allocations made on the measuring thread. The file holds a single
//! `#[test]`, so nothing else runs beside the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pip::engine::sql::{self, Statement};
use pip::engine::{execute, optimize, Database, Plan};
use pip::sampling::SamplerConfig;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const CUSTOMERS: usize = 500;
const DELIVERIES: usize = 125;
const PAD_COLS: usize = 6;
/// Inverse Normal CDF of 0.8: every delivery row passes `duration > thr`
/// with probability 0.2.
const SELECTIVITY_Z: f64 = 0.841_621_233_572_914_3;
const QUERY: &str = "SELECT expected_sum(spend * incr) FROM customers, deliveries \
                     WHERE supp = supp_id AND duration > thr AND spend > 56.0";

/// Deterministic values on a grid of `steps` points in `[lo, hi)`.
struct Grid(u64);

impl Grid {
    fn next(&mut self, lo: f64, hi: f64, steps: u64) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        lo + (hi - lo) * (self.0 % steps) as f64 / steps as f64
    }
}

/// The join's tables: 500 customers over 125 deliveries, six deterministic
/// pad columns per side.
fn join_db(cfg: &SamplerConfig) -> Database {
    let db = Database::new();
    let pads: String = (0..PAD_COLS).map(|i| format!(", pad{i} FLOAT")).collect();
    let mut data = Grid(0x9E37_79B9_7F4A_7C15);
    let deliveries: Vec<String> = (0..DELIVERIES)
        .map(|i| {
            let (mu, sd) = (data.next(5.0, 20.0, 1000), data.next(1.0, 4.0, 1000));
            let pad: String = (0..PAD_COLS)
                .map(|p| format!(", {}.0", i * 3 + p))
                .collect();
            let thr = mu + SELECTIVITY_Z * sd;
            format!("({i}, create_variable('Normal', {mu:?}, {sd:?}), {thr:?}{pad})")
        })
        .collect();
    let customers: Vec<String> = (0..CUSTOMERS)
        .map(|i| {
            let (spend, rate) = (data.next(20.0, 500.0, 100), data.next(0.5, 6.0, 1000));
            let pad: String = (0..PAD_COLS)
                .map(|p| format!(", {}.0", i * 7 + p))
                .collect();
            let supp = i % DELIVERIES;
            format!("({i}, {spend:?}, create_variable('Poisson', {rate:?}), {supp}{pad})")
        })
        .collect();
    for stmt in [
        format!("CREATE TABLE customers (cust INT, spend FLOAT, incr SYMBOLIC, supp INT{pads})"),
        format!("CREATE TABLE deliveries (supp_id INT, duration SYMBOLIC, thr FLOAT{pads})"),
        format!("INSERT INTO customers VALUES {}", customers.join(", ")),
        format!("INSERT INTO deliveries VALUES {}", deliveries.join(", ")),
        "ANALYZE".to_string(),
    ] {
        sql::run(&db, &stmt, cfg).unwrap();
    }
    db
}

/// Upper bounds on allocations per result row, warm. Analysing each
/// joined row once took them from 63.5 to 21 for the query and from 48 to
/// 13 for `expected_sum`. The query's bound is the 25 that analysis was
/// set to reach; `expected_sum`'s is its count plus a margin.
const MAX_QUERY_ALLOCS_PER_ROW: f64 = 25.0;
const MAX_SUM_ALLOCS_PER_ROW: f64 = 16.0;

#[test]
fn fig6_join_allocations_per_result_row() {
    let cfg = SamplerConfig::default().with_seed(1);
    let db = join_db(&cfg);

    // The symbolic result below the aggregate head, then the head alone.
    let Statement::Select(plan) = sql::parse(QUERY).unwrap() else {
        panic!("the join is a SELECT");
    };
    let Plan::Aggregate { input, .. } = optimize(&db, plan).unwrap() else {
        panic!("the join ends in an aggregate");
    };
    let symbolic = execute(&db, &input, &cfg).unwrap();
    let rows = symbolic.len();
    assert!((400..=500).contains(&rows), "{rows} result rows");
    let warm = pip::sampling::expected_sum(&symbolic, "agg_arg0", &cfg);
    let (sum, sum_allocs) =
        allocations(|| pip::sampling::expected_sum(&symbolic, "agg_arg0", &cfg).unwrap());
    assert_eq!(sum, warm.unwrap());
    assert_eq!(sum.n_samples, 0, "every row is a closed form");

    // The whole query, warm (statistics collected, plan shape settled).
    let first = sql::run(&db, QUERY, &cfg).unwrap();
    let (again, query_allocs) = allocations(|| sql::run(&db, QUERY, &cfg).unwrap());
    assert_eq!(first.rows()[0].cells, again.rows()[0].cells);

    let per_row = |n: u64| n as f64 / rows as f64;
    println!(
        "{rows} rows: query {:.1} allocations/row, expected_sum {:.1}",
        per_row(query_allocs),
        per_row(sum_allocs)
    );
    assert!(
        per_row(query_allocs) <= MAX_QUERY_ALLOCS_PER_ROW,
        "query: {:.1} allocations per result row",
        per_row(query_allocs)
    );
    assert!(
        per_row(sum_allocs) <= MAX_SUM_ALLOCS_PER_ROW,
        "expected_sum: {:.1} allocations per result row",
        per_row(sum_allocs)
    );
}
