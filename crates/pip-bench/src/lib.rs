//! Shared helpers for the figure-regeneration binaries (`fig5`–`fig8`,
//! `fig6_queries`, `ablation`).
//!
//! Every binary prints a self-describing table of rows (TSV to stdout,
//! one JSON line per row to stderr when `PIP_BENCH_JSON=1`), so results
//! can be eyeballed or scraped. `PIP_BENCH_SCALE` scales workload sizes
//! (default 1.0 is laptop-friendly; the paper's hardware is long gone,
//! so shapes — not absolute seconds — are the reproduction target; see
//! the README's "Benchmarks" section). The server as a whole is measured
//! end to end by `pip-e2e`, not here.

use serde::Serialize;

/// Scale factor for workload sizes, from `PIP_BENCH_SCALE` (default 1).
pub fn scale() -> f64 {
    std::env::var("PIP_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Number of trials for error experiments, from `PIP_BENCH_TRIALS`
/// (default 10; the paper uses 30).
pub fn trials() -> usize {
    std::env::var("PIP_BENCH_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

/// Quick (CI smoke) mode, from `PIP_BENCH_QUICK=1`: binaries shrink
/// their workloads to finish in seconds while still exercising every
/// code path and determinism assertion.
pub fn quick() -> bool {
    std::env::var("PIP_BENCH_QUICK").as_deref() == Ok("1")
}

/// Print a header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
}

/// Print one result row, optionally mirroring it as JSON on stderr.
pub fn row<T: Serialize>(values: &[String], json: &T) {
    println!("{}", values.join("\t"));
    if std::env::var("PIP_BENCH_JSON").as_deref() == Ok("1") {
        if let Ok(s) = serde_json::to_string(json) {
            eprintln!("{s}");
        }
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Run `n_trials` seeded trials in parallel and collect results in order.
pub fn parallel_trials<F, T>(n_trials: usize, f: F) -> Vec<T>
where
    F: Fn(u64) -> T + Sync,
    T: Send,
{
    let mut out: Vec<Option<T>> = (0..n_trials).map(|_| None).collect();
    std::thread::scope(|s| {
        for (i, slot) in out.iter_mut().enumerate() {
            let f = &f;
            s.spawn(move || {
                *slot = Some(f(i as u64 + 1));
            });
        }
    });
    out.into_iter().map(|o| o.expect("trial ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!(mean(&[]).is_nan());
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn parallel_trials_preserve_order() {
        let r = parallel_trials(8, |seed| seed * 2);
        assert_eq!(r, vec![2, 4, 6, 8, 10, 12, 14, 16]);
    }
}
