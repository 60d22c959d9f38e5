//! The TCP front-end: one nonblocking reactor thread owns every socket
//! (`crate::reactor`), a bounded scheduler fleet runs every query
//! ([`crate::scheduler`]), one [`Session`](crate::session::Session) per
//! connection over the shared catalog. No connection gets an OS thread.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use pip_engine::Database;
use pip_obs::{MonotonicClock, SlowLog};
use pip_replica::Replication;
use pip_sampling::SamplerConfig;

use crate::reactor::{Limits, Reactor, ReactorShared};
use crate::scheduler::{Scheduler, ServingCounters, ServingSnapshot};
use crate::session::SessionManager;

pub use crate::reactor::MAX_REQUEST_BYTES;

/// Service configuration.
#[derive(Clone)]
pub struct ServerOptions {
    /// Default per-session sampler configuration (sessions override it
    /// with `SET ...`).
    pub default_config: SamplerConfig,
    /// Per-session prepared-statement LRU capacity.
    pub prepared_cache: usize,
    /// Per-session sample-result LRU capacity.
    pub result_cache: usize,
    /// Background-checkpoint trigger: when the catalog's WAL grows past
    /// this many bytes, the server checkpoints it. `0` disables the
    /// background checkpointer; it is also inert for catalogs without a
    /// data directory. Explicit `CHECKPOINT` commands work either way.
    pub checkpoint_wal_bytes: u64,
    /// How often the background checkpointer polls the WAL size.
    pub checkpoint_poll: std::time::Duration,
    /// The node's replication role (primary fan-out or follower apply
    /// loop), when it has one. Sessions report it in `STATS` and route
    /// `PROMOTE` to it; the server does not otherwise interfere with it.
    pub replication: Option<Arc<Replication>>,
    /// Scheduler worker threads executing queries (`0` = auto: the
    /// machine's available parallelism, at least 2). Session results
    /// never depend on this — the sampling runtime is bit-deterministic.
    pub workers: usize,
    /// Admission bound: at most this many expensive commands
    /// (`QUERY`/`EXEC`/`STREAM`) may be admitted-but-incomplete at
    /// once, server-wide; excess requests answer `ERR busy`.
    pub queue_capacity: usize,
    /// Parsed-but-unexecuted commands per connection before the reactor
    /// stops reading that socket (TCP backpressure on the pipeline).
    pub max_pipeline: usize,
    /// Staged reply bytes per connection before the producing worker
    /// blocks on the reader draining (slow readers stall only
    /// themselves, and are evicted if stuck too long).
    pub max_outbound_bytes: usize,
    /// How long a worker may sit blocked on one connection's full
    /// output buffer before the peer is evicted as a stuck reader.
    pub write_stall_timeout: std::time::Duration,
    /// Graceful-shutdown drain budget: queued commands get this long to
    /// finish and flush before remaining connections are force-closed.
    pub drain_timeout: std::time::Duration,
    /// Optional Prometheus scrape endpoint (e.g. `"127.0.0.1:9187"`):
    /// `GET /metrics` answers the same families as the `METRICS` verb,
    /// served by the reactor thread itself.
    pub metrics_addr: Option<String>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            default_config: SamplerConfig::default(),
            prepared_cache: 32,
            result_cache: 64,
            checkpoint_wal_bytes: 8 << 20,
            checkpoint_poll: std::time::Duration::from_millis(100),
            replication: None,
            workers: 0,
            queue_capacity: 256,
            max_pipeline: 128,
            max_outbound_bytes: 8 << 20,
            write_stall_timeout: crate::reactor::WRITE_STALL_TIMEOUT,
            drain_timeout: std::time::Duration::from_secs(5),
            metrics_addr: None,
        }
    }
}

/// A running server; dropping the handle shuts it down (listener
/// closed, queued work drained, connections closed, threads joined).
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<ReactorShared>,
    scheduler: Arc<Scheduler>,
    serving: Arc<ServingCounters>,
    active: Arc<AtomicUsize>,
    reactor_thread: Option<JoinHandle<()>>,
    checkpoint_thread: Option<JoinHandle<()>>,
    manager: Arc<SessionManager>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-scrape address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Sessions opened since startup.
    pub fn sessions_created(&self) -> u64 {
        self.manager.sessions_created()
    }

    /// The scheduler's serving counters, as also reported by `STATS`.
    pub fn serving(&self) -> ServingSnapshot {
        self.serving.snapshot()
    }

    /// Stop the service: the listener closes, established connections
    /// stop being read, already-queued commands run to completion and
    /// their replies flush (bounded by
    /// [`ServerOptions::drain_timeout`]), then every thread is joined
    /// before this returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        self.scheduler.shutdown();
        if let Some(t) = self.checkpoint_thread.take() {
            // Wake the poller out of its park_timeout so shutdown never
            // waits out a full poll interval.
            t.thread().unpark();
            let _ = t.join();
        }
        // Workers may have queued dirty notifications after the reactor
        // exited; clear them so no Conn ↔ ReactorShared cycle leaks.
        self.shared.clear_dirty();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor_thread.is_some() {
            self.stop();
        }
    }
}

/// Derived replication gauges, computed at scrape time. The closures
/// hold `Weak` references: the registry must not keep the replication
/// role (and its threads) alive after the server drops it — and the
/// very same series keep reporting after a `PROMOTE` swaps the role's
/// internal state, since registration is idempotent by family name.
fn register_replication_gauges(registry: &pip_obs::Registry, repl: &Arc<Replication>) {
    let w: Weak<Replication> = Arc::downgrade(repl);
    let r = w.clone();
    registry.gauge_fn(
        "pip_replica_role",
        "Replication role: 1 = primary, 0 = replica.",
        move || {
            r.upgrade()
                .map_or(0.0, |r| if r.role() == "primary" { 1.0 } else { 0.0 })
        },
    );
    let r = w.clone();
    registry.gauge_fn(
        "pip_replica_epoch",
        "Replication epoch (bumped by every PROMOTE).",
        move || r.upgrade().map_or(0.0, |r| r.epoch() as f64),
    );
    let r = w.clone();
    registry.gauge_fn(
        "pip_replica_lag",
        "Versions this node is behind (follower) or ahead of its slowest follower (primary).",
        move || r.upgrade().map_or(0.0, |r| r.replication_lag() as f64),
    );
    let r = w.clone();
    registry.gauge_fn(
        "pip_replica_applied_version",
        "Catalog version this node has applied.",
        move || r.upgrade().map_or(0.0, |r| r.applied_version() as f64),
    );
    let r = w;
    registry.gauge_fn(
        "pip_replica_followers",
        "Followers currently attached (primary only).",
        move || r.upgrade().map_or(0.0, |r| r.follower_count() as f64),
    );
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve the shared catalog.
pub fn serve(
    db: Arc<Database>,
    addr: impl ToSocketAddrs,
    options: ServerOptions,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let metrics_listener = match &options.metrics_addr {
        Some(a) => Some(TcpListener::bind(a)?),
        None => None,
    };
    let metrics_addr = match &metrics_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    // The serving counters live in the catalog's metric registry: STATS,
    // the METRICS verb, and the HTTP scrape all read the same atomics.
    let serving = Arc::new(ServingCounters::register(
        options.queue_capacity,
        db.obs_registry(),
    ));
    if let Some(repl) = &options.replication {
        register_replication_gauges(db.obs_registry(), repl);
    }
    let slowlog = Arc::new(SlowLog::new());
    let manager = Arc::new(
        SessionManager::new(db, options.default_config.clone())
            .with_cache_capacities(options.prepared_cache, options.result_cache)
            .with_replication(options.replication.clone())
            .with_serving(Arc::clone(&serving))
            .with_obs(Arc::new(MonotonicClock), slowlog),
    );
    let workers = match options.workers {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2),
        n => n,
    };
    let scheduler = Arc::new(Scheduler::new(workers)?);
    let shared = Arc::new(ReactorShared::new()?);
    let active = Arc::new(AtomicUsize::new(0));

    // Background checkpointer: bound WAL replay time by snapshotting
    // whenever the log outgrows the trigger. Only for durable catalogs.
    let shutdown = Arc::clone(&shared);
    let checkpoint_thread =
        if options.checkpoint_wal_bytes > 0 && manager.database().store().is_some() {
            let db = Arc::clone(manager.database());
            let trigger = options.checkpoint_wal_bytes;
            let poll = options.checkpoint_poll;
            Some(
                std::thread::Builder::new()
                    .name("pip-server-checkpoint".into())
                    .spawn(move || {
                        while !shutdown.shutdown.load(Ordering::Acquire) {
                            std::thread::park_timeout(poll);
                            if db.wal_bytes() >= trigger {
                                // Failure (e.g. disk full) is retried next
                                // poll; the WAL itself stays intact.
                                let _ = db.checkpoint();
                            }
                        }
                    })?,
            )
        } else {
            None
        };

    let reactor = Reactor::new(
        listener,
        metrics_listener,
        Arc::clone(&shared),
        Arc::clone(&scheduler),
        Arc::clone(&manager),
        Arc::clone(&serving),
        Arc::clone(&active),
        Limits {
            max_pipeline: options.max_pipeline.max(1),
            max_outbound: options.max_outbound_bytes.max(1),
            write_stall_timeout: options.write_stall_timeout,
            drain_timeout: options.drain_timeout,
        },
    )?;
    let reactor_thread = std::thread::Builder::new()
        .name("pip-server-reactor".into())
        .spawn(move || reactor.run())?;

    Ok(ServerHandle {
        addr,
        metrics_addr,
        shared,
        scheduler,
        serving,
        active,
        reactor_thread: Some(reactor_thread),
        checkpoint_thread,
        manager,
    })
}
