//! Process-wide observability primitives for the PIP stack.
//!
//! Everything here is dependency-free and allocation-free on the hot path:
//! counters, gauges, and log₂-bucket latency histograms are plain atomics,
//! and recording into them never takes a lock. The [`Registry`] groups
//! metrics into named families and renders Prometheus text exposition
//! format for the `METRICS` verb and the `--metrics-addr` scrape endpoint.
//!
//! Per-query tracing lives in [`span`]: a [`span::QuerySpan`] captures
//! phase timings (parse / optimize / execute / sample), row counts, cache
//! hits, and admission wait, driven by an injectable [`span::Clock`]
//! so tests stay deterministic. Spans over a configurable threshold land in
//! the [`slowlog::SlowLog`] ring buffer, readable via the `SLOWLOG` verb.
//!
//! The global [`set_enabled`] switch turns every recording site into a
//! single relaxed atomic load + branch. It never changes a query's answer
//! (the root package's `tests/obs_switch.rs` checks this bit for bit).

pub mod log;
pub mod metrics;
pub mod slowlog;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use slowlog::SlowLog;
pub use span::{Clock, ManualClock, MonotonicClock, QuerySpan, SpanRecorder};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Global observability switch. Recording sites check this with a relaxed
/// load; when off they return before touching any metric atomics, so the
/// disabled cost is one predictable branch. Defaults to on.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable all metric recording process-wide. Reads (rendering,
/// quantiles, STATS) are unaffected — only new observations are dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static QUERY_IDS: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique query id for span tracking.
pub fn next_query_id() -> u64 {
    QUERY_IDS.fetch_add(1, Ordering::Relaxed)
}

fn start_anchor() -> &'static Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now)
}

/// Pin the process-start anchor used by [`uptime_secs`] and
/// [`MonotonicClock`]. Call once early in `main`; later calls are no-ops.
pub fn init_start_time() {
    let _ = start_anchor();
}

/// Seconds since the process-start anchor was first pinned.
pub fn uptime_secs() -> f64 {
    start_anchor().elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_ids_are_unique_and_increasing() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(b > a);
    }

    #[test]
    fn uptime_advances() {
        init_start_time();
        let a = uptime_secs();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(uptime_secs() > a);
    }
}
