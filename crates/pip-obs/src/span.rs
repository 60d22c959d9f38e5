//! Per-query span recording with an injectable clock.
//!
//! A [`QuerySpan`] captures everything an operator needs to explain one
//! query: phase timings (parse / optimize / execute / sample), row count,
//! cache hits, admission wait, and park duration. Spans are
//! assembled by the session layer through a [`SpanRecorder`], which takes
//! its notion of time from a [`Clock`] so tests can drive a [`ManualClock`]
//! and assert exact durations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Time source for span recording. `now_nanos` must be monotone.
pub trait Clock: Send + Sync {
    fn now_nanos(&self) -> u64;
}

/// Wall-clock-backed monotone time, anchored at the process start pinned by
/// [`crate::init_start_time`].
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        (crate::uptime_secs() * 1e9) as u64
    }
}

/// Hand-advanced clock for deterministic tests.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn advance_nanos(&self, n: u64) {
        self.nanos.fetch_add(n, Ordering::Relaxed);
    }

    pub fn advance_millis(&self, ms: u64) {
        self.advance_nanos(ms * 1_000_000);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// One query's execution record.
#[derive(Debug, Clone, Default)]
pub struct QuerySpan {
    pub query_id: u64,
    pub session: u64,
    pub sql: String,
    pub parse_nanos: u64,
    pub optimize_nanos: u64,
    pub execute_nanos: u64,
    pub sample_nanos: u64,
    pub total_nanos: u64,
    pub rows: u64,
    pub cache_hit: bool,
    pub admission_wait_nanos: u64,
    pub park_nanos: u64,
}

fn ms(n: u64) -> f64 {
    n as f64 / 1e6
}

impl QuerySpan {
    /// One-line slowlog rendering with the full phase breakdown.
    pub fn render(&self) -> String {
        format!(
            "#{} {:.3}ms session={} parse={:.3}ms optimize={:.3}ms execute={:.3}ms \
             sample={:.3}ms rows={} cache_hit={} admission_wait={:.3}ms \
             park={:.3}ms sql={}",
            self.query_id,
            ms(self.total_nanos),
            self.session,
            ms(self.parse_nanos),
            ms(self.optimize_nanos),
            ms(self.execute_nanos),
            ms(self.sample_nanos),
            self.rows,
            self.cache_hit,
            ms(self.admission_wait_nanos),
            ms(self.park_nanos),
            self.sql.replace(['\n', '\r'], " "),
        )
    }
}

/// Builds a [`QuerySpan`] as a query moves through its phases.
pub struct SpanRecorder {
    clock: Arc<dyn Clock>,
    started: u64,
    last: u64,
    pub span: QuerySpan,
}

impl SpanRecorder {
    pub fn start(clock: Arc<dyn Clock>, session: u64, sql: &str) -> Self {
        let now = clock.now_nanos();
        Self {
            clock,
            started: now,
            last: now,
            span: QuerySpan {
                query_id: crate::next_query_id(),
                session,
                sql: sql.to_string(),
                ..QuerySpan::default()
            },
        }
    }

    /// Nanoseconds since the previous lap (or since start), advancing the
    /// lap marker. Callers assign the result to the phase that just ended.
    pub fn lap(&mut self) -> u64 {
        let now = self.clock.now_nanos();
        let d = now.saturating_sub(self.last);
        self.last = now;
        d
    }

    /// Finalize: stamps `total_nanos` and returns the completed span.
    pub fn finish(mut self) -> QuerySpan {
        self.span.total_nanos = self.clock.now_nanos().saturating_sub(self.started);
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_drives_deterministic_spans() {
        let clock = Arc::new(ManualClock::new());
        let mut rec = SpanRecorder::start(clock.clone(), 7, "QUERY SELECT 1");
        clock.advance_millis(2);
        rec.span.parse_nanos = rec.lap();
        clock.advance_millis(3);
        rec.span.optimize_nanos = rec.lap();
        clock.advance_millis(10);
        rec.span.execute_nanos = rec.lap();
        rec.span.rows = 4;
        let span = rec.finish();
        assert_eq!(span.parse_nanos, 2_000_000);
        assert_eq!(span.optimize_nanos, 3_000_000);
        assert_eq!(span.execute_nanos, 10_000_000);
        assert_eq!(span.total_nanos, 15_000_000);
        assert_eq!(span.session, 7);
        let line = span.render();
        assert!(line.contains("parse=2.000ms"), "{line}");
        assert!(line.contains("execute=10.000ms"), "{line}");
        assert!(line.contains("rows=4"), "{line}");
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock;
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }
}
