//! Atomic metric primitives and the family registry.
//!
//! Counters and gauges are single relaxed atomics and are **never** gated by
//! the global enable switch: several of them double as control state (the
//! scheduler's admission accounting reads the same atomics STATS renders),
//! and a relaxed `fetch_add` costs the same as the load-and-branch that
//! would skip it. Histograms do a few more atomic ops plus bit math, so
//! [`Histogram::observe_nanos`] checks [`crate::enabled`] first.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value (queue depths, lags, sizes).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `i` (for `1 <= i < HIST_BUCKETS-1`)
/// holds observations in `[2^(i-1), 2^i)` nanoseconds; bucket 0 holds exact
/// zeros; the last bucket is the overflow bucket for everything at or above
/// `2^(HIST_BUCKETS-2)` ns (~275 s with 40 buckets).
pub const HIST_BUCKETS: usize = 40;

/// Fixed-bucket log₂-scale latency histogram over nanoseconds.
///
/// Recording is allocation-free: one bit-length computation plus three
/// relaxed atomic adds. Quantiles interpolate linearly within the landing
/// bucket; the overflow bucket clamps interpolation to one further octave.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index an observation of `v` nanoseconds lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let bits = (u64::BITS - v.leading_zeros()) as usize;
    bits.min(HIST_BUCKETS - 1)
}

fn bucket_lower_nanos(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

fn bucket_upper_nanos(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn observe_nanos(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        self.observe_nanos((secs.max(0.0) * 1e9) as u64);
    }

    #[inline]
    pub fn observe_since(&self, start: Instant) {
        self.observe_nanos(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Per-bucket counts (test and rendering support).
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Quantile in seconds (`q` in `[0, 1]`). Returns 0.0 when empty.
    /// Interpolates linearly between the landing bucket's bounds; the
    /// overflow bucket interpolates across one octave past its lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && cum + c >= target {
                let lower = bucket_lower_nanos(i) as f64;
                let upper = bucket_upper_nanos(i) as f64;
                let into = (target - cum) as f64 / c as f64;
                return (lower + into * (upper - lower)) * 1e-9;
            }
            cum += c;
        }
        bucket_upper_nanos(HIST_BUCKETS - 1) as f64 * 1e-9
    }
}

enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

impl Slot {
    fn type_str(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) | Slot::GaugeFn(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    slot: Slot,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.family_names())
            .finish()
    }
}

/// Named metric families with Prometheus text-format rendering.
///
/// Registration is idempotent on `(name, labels)`: re-registering returns
/// the existing handle, so constructors can run more than once per
/// registry. One registry typically belongs to one `Database`; counters of
/// code with no database handle (the sampling operators) live in
/// [`Registry::global`].
#[derive(Default)]
pub struct Registry {
    series: Mutex<Vec<Series>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global registry for metrics that are inherently
    /// process-wide (sampling caches, kernel compiles).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut series = self.series.lock().unwrap();
        if let Some(s) = find(&series, name, labels) {
            if let Slot::Counter(c) = &s.slot {
                return c.clone();
            }
        }
        let c = Arc::new(Counter::new());
        series.push(make(name, help, labels, Slot::Counter(c.clone())));
        c
    }

    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut series = self.series.lock().unwrap();
        if let Some(s) = find(&series, name, labels) {
            if let Slot::Gauge(g) = &s.slot {
                return g.clone();
            }
        }
        let g = Arc::new(Gauge::new());
        series.push(make(name, help, labels, Slot::Gauge(g.clone())));
        g
    }

    /// Gauge whose value is computed at render time. The closure must not
    /// capture anything that owns this registry (that would leak a cycle);
    /// capture leaf atomics or `Weak` handles instead.
    pub fn gauge_fn(&self, name: &str, help: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        let mut series = self.series.lock().unwrap();
        if find(&series, name, &[]).is_some() {
            return;
        }
        series.push(make(name, help, &[], Slot::GaugeFn(Box::new(f))));
    }

    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let mut series = self.series.lock().unwrap();
        if let Some(s) = find(&series, name, labels) {
            if let Slot::Histogram(h) = &s.slot {
                return h.clone();
            }
        }
        let h = Arc::new(Histogram::new());
        series.push(make(name, help, labels, Slot::Histogram(h.clone())));
        h
    }

    /// Family names in first-registration order.
    pub fn family_names(&self) -> Vec<String> {
        let series = self.series.lock().unwrap();
        let mut out: Vec<String> = Vec::new();
        for s in series.iter() {
            if out.last().map(String::as_str) != Some(s.name.as_str())
                && !out.iter().any(|n| n == &s.name)
            {
                out.push(s.name.clone());
            }
        }
        out
    }

    /// Render every family in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append this registry's families to `out` (used to merge a database
    /// registry with the global one into a single scrape body).
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        let series = self.series.lock().unwrap();
        let mut done: Vec<&str> = Vec::new();
        for s in series.iter() {
            if done.iter().any(|n| *n == s.name) {
                continue;
            }
            done.push(&s.name);
            let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
            let _ = writeln!(out, "# TYPE {} {}", s.name, s.slot.type_str());
            for t in series.iter().filter(|t| t.name == s.name) {
                render_series(out, t);
            }
        }
    }
}

fn find<'a>(series: &'a [Series], name: &str, labels: &[(&str, &str)]) -> Option<&'a Series> {
    series.iter().find(|s| {
        s.name == name
            && s.labels.len() == labels.len()
            && s.labels
                .iter()
                .zip(labels.iter())
                .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
    })
}

fn make(name: &str, help: &str, labels: &[(&str, &str)], slot: Slot) -> Series {
    Series {
        name: name.to_string(),
        help: help.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        slot,
    }
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{}=\"{}\"", k, escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{}", v)
    }
}

fn render_series(out: &mut String, s: &Series) {
    use std::fmt::Write;
    match &s.slot {
        Slot::Counter(c) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                s.name,
                label_block(&s.labels, None),
                c.get()
            );
        }
        Slot::Gauge(g) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                s.name,
                label_block(&s.labels, None),
                g.get()
            );
        }
        Slot::GaugeFn(f) => {
            let _ = writeln!(
                out,
                "{}{} {}",
                s.name,
                label_block(&s.labels, None),
                fmt_f64(f())
            );
        }
        Slot::Histogram(h) => {
            let counts = h.bucket_counts();
            let mut cum = 0u64;
            for (i, c) in counts.iter().enumerate() {
                cum += c;
                if *c == 0 && i != 0 {
                    continue;
                }
                let le = bucket_upper_nanos(i) as f64 * 1e-9;
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    s.name,
                    label_block(&s.labels, Some(("le", &format!("{:e}", le)))),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                s.name,
                label_block(&s.labels, Some(("le", "+Inf"))),
                h.count()
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                s.name,
                label_block(&s.labels, None),
                h.sum_secs()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                s.name,
                label_block(&s.labels, None),
                h.count()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable switch is process-global and tests run concurrently, so
    // every test that records observations serializes on this lock.
    fn enable_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.sub(2);
        g.add(1);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        // 0 lands in the zero bucket; 1 in bucket 1; each power of two
        // starts a new bucket; the top of u64 clamps to the overflow bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_bucket() {
        let _g = enable_guard();
        let h = Histogram::new();
        // 100 observations spread uniformly in [1024, 2048) — one bucket.
        for i in 0..100u64 {
            h.observe_nanos(1024 + i * 10);
        }
        let p50 = h.quantile(0.5);
        // Bucket is [1024, 2048) ns; the true p50 is ~1.5e-6 s and linear
        // interpolation within the bucket must land mid-bucket.
        assert!(p50 > 1.4e-6 && p50 < 1.6e-6, "p50={}", p50);
        let p999 = h.quantile(0.999);
        assert!(p999 <= 2048.0 * 1e-9 + 1e-12, "p999={}", p999);
        assert!(h.quantile(1.0) >= p999);
    }

    #[test]
    fn histogram_zero_samples_and_zero_values() {
        let _g = enable_guard();
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 0);
        h.observe_nanos(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn histogram_overflow_clamps() {
        let _g = enable_guard();
        let h = Histogram::new();
        h.observe_nanos(u64::MAX);
        h.observe_nanos(u64::MAX);
        let q = h.quantile(0.5);
        let lower = (1u64 << (HIST_BUCKETS - 2)) as f64 * 1e-9;
        let upper = (1u64 << (HIST_BUCKETS - 1)) as f64 * 1e-9;
        assert!(q >= lower && q <= upper, "q={}", q);
        assert_eq!(h.bucket_counts()[HIST_BUCKETS - 1], 2);
    }

    #[test]
    fn disabled_histograms_drop_observations() {
        let _g = enable_guard();
        let h = Histogram::new();
        crate::set_enabled(false);
        h.observe_nanos(100);
        crate::set_enabled(true);
        assert_eq!(h.count(), 0);
        h.observe_nanos(100);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let _g = enable_guard();
        let r = Registry::new();
        let c = r.counter("pip_test_events_total", "Test events.");
        c.add(3);
        let g = r.gauge_with("pip_test_depth", "Depth.", &[("lane", "a")]);
        g.set(-2);
        r.gauge_fn("pip_test_uptime", "Uptime.", || 1.5);
        let h = r.histogram("pip_test_latency_seconds", "Latency.");
        h.observe_nanos(1500);
        let text = r.render();
        assert!(text.contains("# TYPE pip_test_events_total counter"));
        assert!(text.contains("pip_test_events_total 3"));
        assert!(text.contains("pip_test_depth{lane=\"a\"} -2"));
        assert!(text.contains("pip_test_uptime 1.5"));
        assert!(text.contains("# TYPE pip_test_latency_seconds histogram"));
        assert!(text.contains("pip_test_latency_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
    }

    #[test]
    fn registry_registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("pip_test_total", "x");
        let b = r.counter("pip_test_total", "x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.family_names(), vec!["pip_test_total".to_string()]);
    }
}
