//! Deterministic parallel Monte-Carlo runtime.
//!
//! Monte-Carlo integration of PIP's expectation/confidence operators is
//! embarrassingly parallel — every row, group and sampled world is
//! independent — but a naive fan-out would make results depend on
//! thread scheduling. This module keeps the paper's reproducibility
//! guarantee (Section III-B: seeds derive from identity, not execution
//! order) under parallelism:
//!
//! * [`ParallelSampler`] — a fixed pool of worker threads executing
//!   index-addressed work items. Output slot `i` is always produced by
//!   work item `i`, so the merged result is a pure function of the
//!   inputs regardless of which thread ran what.
//! * [`run_indexed`] — the one place that decides *where* a sampling
//!   head's per-item work runs. Every head (`expected_sum` et al., the
//!   `*_hist` world loop, the engine's group and `conf()` heads,
//!   [`crate::streaming::ConfStream`]) seeds item `i` from
//!   `(world_seed, i)`, submits its items here and folds the outputs in
//!   index order, so each head has one body that serves every thread
//!   count with bit-identical results — and the same error, the first
//!   failing item's in index order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use pip_core::Result;

use crate::config::SamplerConfig;

// ---------------------------------------------------------------------
// The fixed thread pool.
// ---------------------------------------------------------------------

/// An index-addressed unit of pool work: claim indices, run, mark done.
struct Job {
    /// Total number of work items.
    n: usize,
    /// Next unclaimed index (may overshoot `n`).
    claim: AtomicUsize,
    /// Maximum *helper* threads (the submitting thread always drives).
    helper_limit: usize,
    /// Helpers currently driving this job.
    helpers: AtomicUsize,
    /// The work closure. Lifetime-erased: the submitter keeps the real
    /// closure alive on its stack until `completed == n`, and indices
    /// `>= n` are never executed, so the reference is never dangling
    /// when dereferenced.
    run: &'static (dyn Fn(usize) + Sync),
    /// Completed item count, paired with `done` for the submitter wait.
    completed: Mutex<usize>,
    done: Condvar,
    /// First panic message observed while running items.
    panicked: Mutex<Option<String>>,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.claim.load(Ordering::Relaxed) >= self.n
    }

    /// Claim and run items until none remain.
    fn drive(&self) {
        loop {
            let i = self.claim.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.run)(i)));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "unknown panic".to_string());
                let mut p = self.panicked.lock().unwrap_or_else(|e| e.into_inner());
                p.get_or_insert(msg);
            }
            let mut c = self.completed.lock().unwrap_or_else(|e| e.into_inner());
            *c += 1;
            if *c == self.n {
                self.done.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A fixed pool of sampling worker threads.
///
/// Work is submitted as `n` indexed items; workers and the submitting
/// thread claim indices from a shared counter and each index writes its
/// own output slot, so results are position-stable. Submitting from
/// inside a worker (nested parallelism) is safe: the submitter always
/// participates, so progress never depends on free workers.
pub struct ParallelSampler {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ParallelSampler {
    /// A pool able to run `threads` work items concurrently (the
    /// submitting thread counts, so `threads - 1` workers are spawned).
    /// `threads <= 1` spawns no workers and runs everything inline.
    pub fn new(threads: usize) -> Self {
        Self::with_workers(threads.saturating_sub(1))
    }

    /// A pool with exactly `n_workers` background worker threads.
    pub fn with_workers(n_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pip-sampler-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn sampler worker")
            })
            .collect();
        ParallelSampler { shared, workers }
    }

    /// The process-wide shared pool used by the engine and server. Sized
    /// for the machine (at least 3 workers so multi-thread configs can
    /// be exercised even on small containers).
    pub fn global() -> &'static ParallelSampler {
        static GLOBAL: OnceLock<ParallelSampler> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ParallelSampler::with_workers(cores.max(4) - 1)
        })
    }

    /// Background worker threads in this pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Evaluate `f(0..n)` with up to `parallelism` concurrent executors
    /// (capped by pool size + 1) and return the outputs in index order.
    ///
    /// Output `i` is always `f(i)`; thread count and scheduling cannot
    /// change the result, only the wall-clock time. Panics in `f` are
    /// re-raised on the submitting thread after all items settle.
    pub fn run<T, F>(&self, parallelism: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let helper_limit = parallelism.max(1).saturating_sub(1).min(self.workers.len());
        if helper_limit == 0 || n == 1 {
            return (0..n).map(f).collect();
        }

        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let work = |i: usize| {
            let v = f(i);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
        };
        let work_ref: &(dyn Fn(usize) + Sync) = &work;
        // SAFETY: `run` outlives this call only inside queue entries that
        // are already exhausted (`claim >= n`) and therefore never invoke
        // it again; we block below until every claimed index completed.
        let work_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work_ref) };
        let job = Arc::new(Job {
            n,
            claim: AtomicUsize::new(0),
            helper_limit,
            helpers: AtomicUsize::new(0),
            run: work_static,
            completed: Mutex::new(0),
            done: Condvar::new(),
            panicked: Mutex::new(None),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(Arc::clone(&job));
        }
        self.shared.work_ready.notify_all();

        job.drive();

        let mut completed = job.completed.lock().unwrap_or_else(|e| e.into_inner());
        while *completed < n {
            completed = job.done.wait(completed).unwrap_or_else(|e| e.into_inner());
        }
        drop(completed);

        if let Some(msg) = job
            .panicked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            panic!("ParallelSampler work item panicked: {msg}");
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("all items completed")
            })
            .collect()
    }
}

impl Drop for ParallelSampler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q.retain(|j| !j.exhausted());
                let mut picked = None;
                for j in q.iter() {
                    let joined = j
                        .helpers
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                            (h < j.helper_limit).then_some(h + 1)
                        })
                        .is_ok();
                    if joined {
                        picked = Some(Arc::clone(j));
                        break;
                    }
                }
                if let Some(j) = picked {
                    break j;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.drive();
        job.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The heads' entry point.
// ---------------------------------------------------------------------

/// How many of one head's work items can run at once under `cfg`: 1
/// when `cfg.threads <= 1` — decided without consulting the global
/// pool, so a process that only ever samples serially never spawns it —
/// otherwise `cfg.threads` capped by the pool's workers plus the
/// submitting thread.
pub fn concurrency(cfg: &SamplerConfig) -> usize {
    if cfg.threads <= 1 {
        return 1;
    }
    cfg.threads
        .min(ParallelSampler::global().worker_count() + 1)
}

/// Evaluate `f(0..n)` and return the outputs in index order, or the
/// error of the lowest failing index: inline on the calling thread at
/// [`concurrency`] 1 (stopping at that first failure), fanned out over
/// the global pool otherwise. Output `i` is always `f(i)`, so a head
/// that derives item `i`'s seed from `i` alone gets the same numbers
/// and the same error either way.
pub fn run_indexed<T, F>(cfg: &SamplerConfig, n: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    match concurrency(cfg) {
        1 => (0..n).map(f).collect(),
        lanes => ParallelSampler::global()
            .run(lanes, n, f)
            .into_iter()
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_index_order() {
        let pool = ParallelSampler::new(4);
        let out = pool.run(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_inline_when_serial() {
        let pool = ParallelSampler::new(1);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.run(1, 5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn pool_supports_nested_submission() {
        let pool = ParallelSampler::new(4);
        let out = pool.run(4, 8, |i| pool.run(4, 4, move |j| i * 10 + j));
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(inner, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    #[should_panic(expected = "work item panicked")]
    fn pool_propagates_panics() {
        let pool = ParallelSampler::new(4);
        pool.run(4, 16, |i| {
            if i == 7 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    fn run_indexed_is_inline_when_serial_and_ordered_when_not() {
        let caller = std::thread::current().id();
        let serial = SamplerConfig::default();
        assert_eq!(concurrency(&serial), 1);
        let ran_on = run_indexed(&serial, 64, |_| Ok(std::thread::current().id())).unwrap();
        assert!(ran_on.iter().all(|&id| id == caller));
        for threads in [1usize, 2, 4, 8] {
            let cfg = serial.clone().with_threads(threads);
            assert!((threads.min(2)..=threads).contains(&concurrency(&cfg)));
            // Nested submission, as a group head running row heads does.
            let out =
                run_indexed(&cfg, 9, |i| run_indexed(&cfg, 5, move |j| Ok(i * 10 + j))).unwrap();
            for (i, inner) in out.iter().enumerate() {
                assert_eq!(inner, &(0..5).map(|j| i * 10 + j).collect::<Vec<_>>());
            }
            // The lowest failing index is the error, not the first to finish.
            let err = run_indexed(&cfg, 40, |i| match i {
                7 | 23 | 39 => Err(pip_core::PipError::Eval(format!("item {i}"))),
                _ => Ok(i),
            });
            assert_eq!(err, Err(pip_core::PipError::Eval("item 7".into())));
        }
    }
}
