//! The sampling scheduler: a bounded worker fleet shared by every
//! connection, with per-query admission control.
//!
//! The reactor ([`crate::reactor`]) never executes a query itself — it
//! parses requests and appends them to the owning connection's command
//! queue, then marks the connection *runnable* here. A fixed pool of
//! scheduler workers pops runnable connections and executes their
//! queued commands one at a time (per-connection order is strict —
//! that is what makes pipelined `QUERY`/`EXEC` streams deterministic),
//! re-enqueueing the connection after each command so a long pipeline
//! cannot starve other sessions. Inside a command, sampling still fans
//! out over [`pip_sampling::parallel::ParallelSampler`]'s process-wide
//! pool (`SET THREADS`), so the two layers compose: the scheduler
//! bounds *how many queries* run at once, the sampler pool bounds *how
//! many threads* one query uses.
//!
//! Two mechanisms keep an overloaded server well-behaved:
//!
//! * **Admission control** ([`ServingCounters::try_admit`]): at most
//!   `capacity` expensive commands (`QUERY`/`EXEC`/`STREAM`) may be
//!   admitted-but-incomplete at once, server-wide. Excess requests are
//!   answered `ERR busy` *in pipeline order* instead of growing queues
//!   without bound.
//! * **Backpressure**: per-connection command queues are capped by the
//!   reactor (it simply stops reading a socket whose pipeline is full,
//!   letting TCP flow control push back on the client).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use pip_obs::{Counter, Gauge, Histogram, Registry};

// ---------------------------------------------------------------------
// Serving counters + admission control.
// ---------------------------------------------------------------------

/// Scheduler-wide serving counters, reported by `STATS` as
/// `inflight=`/`queued=`/`admitted=`/`rejected=` and scraped as the
/// `pip_server_*` metric families — one set of atomics backs both (the
/// pip-obs registry is the single source of truth).
///
/// `admitted`, `rejected`, `completed` and `cancelled` are monotonic
/// totals; `queued` and `inflight` are gauges
/// (`queued + inflight <= capacity` at all times — that inequality *is*
/// the admission bound, and `admitted == completed + cancelled +
/// inflight + queued` at every instant — the accounting invariant the
/// observability suite property-tests).
///
/// The admission decision itself rides on a separate private
/// `AtomicUsize` CAS, never on the registry handles, so the global
/// `pip_obs::set_enabled(false)` switch (which only gates histograms
/// and spans) cannot perturb admission control.
#[derive(Debug)]
pub struct ServingCounters {
    capacity: usize,
    /// Admitted-but-incomplete expensive commands (queued + inflight).
    load: AtomicUsize,
    queued: Arc<Gauge>,
    inflight: Arc<Gauge>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    cancelled: Arc<Counter>,
    /// Reactor-side event counters (accepted sockets, wire bytes, flow
    /// control and protocol kills). They live here because every layer
    /// that needs them — reactor, connections, sessions — already
    /// shares this struct.
    pub(crate) accepts: Arc<Counter>,
    pub(crate) read_bytes: Arc<Counter>,
    pub(crate) flushed_bytes: Arc<Counter>,
    pub(crate) backpressure_pauses: Arc<Counter>,
    pub(crate) slow_reader_evictions: Arc<Counter>,
    pub(crate) oversize_kills: Arc<Counter>,
    pub(crate) utf8_kills: Arc<Counter>,
    /// Session-cache hit totals (result cache keyed by SQL + sampling
    /// parameters + catalog version; prepared statements by name).
    pub(crate) result_cache_hits: Arc<Counter>,
    pub(crate) prepared_cache_hits: Arc<Counter>,
    /// Latency histograms: admit → start, one command slice, and the
    /// parked-reply duration of replication waits.
    pub(crate) admission_wait_seconds: Arc<Histogram>,
    pub(crate) slice_seconds: Arc<Histogram>,
    pub(crate) park_seconds: Arc<Histogram>,
}

/// One consistent-enough reading of the counters for `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingSnapshot {
    pub inflight: u64,
    pub queued: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub cancelled: u64,
    pub evictions: u64,
    pub oversize: u64,
    pub capacity: usize,
}

impl ServingCounters {
    /// Standalone counters (embedded sessions, unit tests): registered
    /// into a private registry nobody scrapes.
    pub fn new(capacity: usize) -> Self {
        Self::register(capacity, &Registry::new())
    }

    /// Build the counters as `pip_server_*` families in `registry`, so
    /// `METRICS` and `STATS` read the very same atomics. Registration is
    /// idempotent on family names.
    pub fn register(capacity: usize, r: &Registry) -> Self {
        ServingCounters {
            capacity: capacity.max(1),
            load: AtomicUsize::new(0),
            queued: r.gauge(
                "pip_server_queued",
                "Admitted commands waiting for a scheduler worker.",
            ),
            inflight: r.gauge(
                "pip_server_inflight",
                "Admitted commands currently executing.",
            ),
            admitted: r.counter(
                "pip_server_admitted_total",
                "Expensive commands admitted past admission control.",
            ),
            rejected: r.counter(
                "pip_server_rejected_total",
                "Expensive commands refused with ERR busy at capacity.",
            ),
            completed: r.counter(
                "pip_server_completed_total",
                "Admitted commands that finished executing.",
            ),
            cancelled: r.counter(
                "pip_server_cancelled_total",
                "Admitted commands dropped before execution (close, QUIT, shutdown).",
            ),
            accepts: r.counter(
                "pip_server_accepts_total",
                "Client connections accepted by the reactor.",
            ),
            read_bytes: r.counter(
                "pip_server_read_bytes_total",
                "Request bytes read off client sockets.",
            ),
            flushed_bytes: r.counter(
                "pip_server_flushed_bytes_total",
                "Reply bytes flushed to client sockets.",
            ),
            backpressure_pauses: r.counter(
                "pip_server_backpressure_pauses_total",
                "Times a connection's reads were paused by the pipeline cap.",
            ),
            slow_reader_evictions: r.counter(
                "pip_server_slow_reader_evictions_total",
                "Connections evicted for not draining their replies in time.",
            ),
            oversize_kills: r.counter(
                "pip_server_oversize_kills_total",
                "Request lines discarded for exceeding the size cap.",
            ),
            utf8_kills: r.counter(
                "pip_server_utf8_kills_total",
                "Connections dropped for sending non-UTF-8 request lines.",
            ),
            result_cache_hits: r.counter(
                "pip_server_result_cache_hits_total",
                "Queries answered from a session's sample-result cache.",
            ),
            prepared_cache_hits: r.counter(
                "pip_server_prepared_cache_hits_total",
                "EXECs that found their prepared plan cached.",
            ),
            admission_wait_seconds: r.histogram(
                "pip_server_admission_wait_seconds",
                "Time admitted commands waited between admission and execution.",
            ),
            slice_seconds: r.histogram(
                "pip_server_slice_seconds",
                "Execution time of one scheduler command slice.",
            ),
            park_seconds: r.histogram(
                "pip_server_park_seconds",
                "Time parked connections waited for replication to release a reply.",
            ),
        }
    }

    /// The admission bound `K`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Try to admit one expensive command. On success the command is
    /// accounted as queued; the caller must later pair this with
    /// [`ServingCounters::start`] + [`ServingCounters::finish`] (or
    /// [`ServingCounters::cancel_queued`] if it is dropped unrun).
    pub fn try_admit(&self) -> bool {
        let admitted = self
            .load
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |load| {
                (load < self.capacity).then_some(load + 1)
            })
            .is_ok();
        if admitted {
            self.queued.add(1);
            self.admitted.inc();
        } else {
            self.rejected.inc();
        }
        admitted
    }

    /// An admitted command starts executing: queued → inflight.
    pub fn start(&self) {
        self.queued.sub(1);
        self.inflight.add(1);
    }

    /// An executing command finished (successfully or not).
    pub fn finish(&self) {
        self.inflight.sub(1);
        self.completed.inc();
        self.load.fetch_sub(1, Ordering::AcqRel);
    }

    /// An admitted command was dropped before execution (connection
    /// closed, `QUIT` ahead of it in the pipeline, shutdown).
    pub fn cancel_queued(&self) {
        self.queued.sub(1);
        self.cancelled.inc();
        self.load.fetch_sub(1, Ordering::AcqRel);
    }

    pub fn snapshot(&self) -> ServingSnapshot {
        ServingSnapshot {
            inflight: self.inflight.get().max(0) as u64,
            queued: self.queued.get().max(0) as u64,
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            cancelled: self.cancelled.get(),
            evictions: self.slow_reader_evictions.get(),
            oversize: self.oversize_kills.get(),
            capacity: self.capacity,
        }
    }
}

// ---------------------------------------------------------------------
// The worker fleet.
// ---------------------------------------------------------------------

/// A schedulable unit: one runnable connection.
pub(crate) trait Work: Send + Sync {
    /// Execute one queued command. Return `true` to be re-enqueued
    /// (more commands pending), `false` when idle.
    fn run_slice(self: Arc<Self>) -> bool;
}

struct SchedShared {
    runnable: Mutex<VecDeque<Arc<dyn Work>>>,
    ready: Condvar,
    shutdown: Mutex<bool>,
}

/// The bounded worker fleet executing runnable connections.
pub(crate) struct Scheduler {
    shared: Arc<SchedShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    pub fn new(workers: usize) -> std::io::Result<Scheduler> {
        let workers = workers.max(1);
        let shared = Arc::new(SchedShared {
            runnable: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: Mutex::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("pip-sched-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Scheduler {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// Mark a connection runnable. The caller must guarantee a
    /// connection is enqueued at most once at a time (the reactor's
    /// `running` flag does).
    pub fn enqueue(&self, work: Arc<dyn Work>) {
        let mut q = self
            .shared
            .runnable
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        q.push_back(work);
        self.shared.ready.notify_one();
    }

    /// Stop the fleet: workers finish the slice they are executing,
    /// drain nothing further, and are joined. Call only after the
    /// reactor has stopped producing runnable connections.
    pub fn shutdown(&self) {
        *self
            .shared
            .shutdown
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = true;
        self.shared.ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for w in workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &SchedShared) {
    loop {
        let work = {
            let mut q = shared.runnable.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                if *shared.shutdown.lock().unwrap_or_else(|e| e.into_inner()) {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // A panicking command must not take the worker down with it —
        // the connection's slice returns not-runnable and the reactor
        // reaps the connection; other sessions are unaffected.
        let again = catch_unwind(AssertUnwindSafe(|| Arc::clone(&work).run_slice()));
        if let Ok(true) = again {
            let mut q = shared.runnable.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(work);
            shared.ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_bounds_load() {
        let c = ServingCounters::new(2);
        assert!(c.try_admit());
        assert!(c.try_admit());
        assert!(!c.try_admit(), "third admit must bounce off capacity 2");
        let s = c.snapshot();
        assert_eq!((s.admitted, s.rejected, s.queued), (2, 1, 2));
        c.start();
        assert_eq!(c.snapshot().inflight, 1);
        c.finish();
        // Capacity freed: admission works again.
        assert!(c.try_admit());
        c.cancel_queued();
        c.cancel_queued();
        let s = c.snapshot();
        assert_eq!((s.queued, s.inflight), (0, 0));
        assert!(c.try_admit() && c.try_admit(), "fully recovered");
    }

    #[test]
    fn scheduler_runs_and_requeues_work() {
        struct Countdown {
            left: Mutex<usize>,
            hits: AtomicUsize,
        }
        impl Work for Countdown {
            fn run_slice(self: Arc<Self>) -> bool {
                self.hits.fetch_add(1, Ordering::SeqCst);
                let mut left = self.left.lock().unwrap();
                *left -= 1;
                *left > 0
            }
        }
        let sched = Scheduler::new(2).unwrap();
        let work = Arc::new(Countdown {
            left: Mutex::new(5),
            hits: AtomicUsize::new(0),
        });
        sched.enqueue(Arc::clone(&work) as Arc<dyn Work>);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while work.hits.load(Ordering::SeqCst) < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(work.hits.load(Ordering::SeqCst), 5, "requeue chain ran dry");
        sched.shutdown();
    }
}
