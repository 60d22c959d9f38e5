//! Allocation gate for sampled rows: the two templates of the paper's
//! Fig. 7 deferred-sampling case over an 8-row table of Normals.
//!
//! * `s1` — `SELECT g, expected_sum(x), conf() FROM t WHERE x > c GROUP
//!   BY g`: one variable per condition, so `expected_sum` samples by
//!   CDF-bounded inversion;
//! * `s2` — the same over `k < 6 AND x + y > c`: a two-variable group,
//!   so rejection.
//!
//! `conf()` is exact on both, so every allocation past the query phase
//! belongs to the averaging loops and their kernels. Allocations per
//! query are deterministic at a fixed seed, so a change that allocates
//! per block fill or per sample shows here first. The count comes from
//! the counting allocator of `counting_alloc`.

mod counting_alloc;

use counting_alloc::allocations;
use pip::engine::{sql, Database};
use pip::sampling::SamplerConfig;

const ROWS: usize = 8;
/// `x > c` at tails of 20-60 % per row.
const S1_BAND: (f64, f64) = (10.0, 12.5);
/// `x + y > c` at acceptances of 35-65 % per row.
const S2_BAND: (f64, f64) = (19.5, 21.5);
/// Queries per template, each at its own constant and seed.
const QUERIES: u64 = 12;

/// Upper bounds on allocations per query. While a process-wide cache
/// memoized sample blocks, every block fill allocated a fresh buffer, a
/// counter snapshot, an `Arc` around the block, and a cache key's
/// signature and name vectors. A loop that owns one block and refills it
/// allocates its buffer once and none of the rest, and every sampled
/// row's loop fills at least once: the target is at least four fewer
/// allocations per sampled row, 8 rows at `s1` and 6 at `s2` (`k < 6`).
/// The bounds are the counts with the cache (573.8 and 712.1) less 32
/// and 24.
const MAX_S1_ALLOCS: f64 = 541.0;
const MAX_S2_ALLOCS: f64 = 688.0;

/// `t(g, k, x, y)`: rows over four groups, `x` and `y` Normals with
/// means in `[10, 11)` and deviations in `[1.8, 2.2)` on a fixed grid.
fn sampling_db(cfg: &SamplerConfig) -> Database {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut grid = |lo: f64, hi: f64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        lo + (hi - lo) * (state % 1000) as f64 / 1000.0
    };
    let values: Vec<String> = (0..ROWS)
        .map(|i| {
            let (mx, sx, my, sy) = (
                grid(10.0, 11.0),
                grid(1.8, 2.2),
                grid(10.0, 11.0),
                grid(1.8, 2.2),
            );
            format!(
                "('g{}', {i}, create_variable('Normal', {mx:?}, {sx:?}), \
                 create_variable('Normal', {my:?}, {sy:?}))",
                i % 4
            )
        })
        .collect();
    let db = Database::new();
    for stmt in [
        "CREATE TABLE t (g TEXT, k INT, x SYMBOLIC, y SYMBOLIC)".to_string(),
        format!("INSERT INTO t VALUES {}", values.join(", ")),
    ] {
        sql::run(&db, &stmt, cfg).unwrap();
    }
    db
}

/// Mean allocations per query of `template` over [`QUERIES`] constants
/// spread across `band`, each at its own seed, after one warm-up run.
fn allocations_per_query(db: &Database, template: &str, band: (f64, f64), seed: u64) -> f64 {
    let query = |i: u64| {
        let c = band.0 + (band.1 - band.0) * i as f64 / QUERIES as f64;
        template.replace("{c}", &format!("{c:?}"))
    };
    let cfg = |i: u64| SamplerConfig::default().with_seed(seed + i);
    sql::run(db, &query(0), &cfg(0)).unwrap();
    let mut total = 0;
    for i in 0..QUERIES {
        let (result, n) = allocations(|| sql::run(db, &query(i), &cfg(i)).unwrap());
        assert_eq!(result.len(), 4, "one row per group");
        total += n;
    }
    total as f64 / QUERIES as f64
}

#[test]
fn sampled_query_allocations() {
    let db = sampling_db(&SamplerConfig::default());
    let s1 = allocations_per_query(
        &db,
        "SELECT g, expected_sum(x), conf() FROM t WHERE x > {c} GROUP BY g",
        S1_BAND,
        100,
    );
    let s2 = allocations_per_query(
        &db,
        "SELECT g, expected_sum(x), conf() FROM t WHERE k < 6 AND x + y > {c} GROUP BY g",
        S2_BAND,
        200,
    );
    println!("allocations per query: s1 {s1:.1}, s2 {s2:.1}");
    assert!(
        s1 <= MAX_S1_ALLOCS && s2 <= MAX_S2_ALLOCS,
        "allocations per query: s1 {s1:.1} (at most {MAX_S1_ALLOCS}), \
         s2 {s2:.1} (at most {MAX_S2_ALLOCS})"
    );
}
