//! Query sessions over a shared catalog.
//!
//! Every client connection owns a [`Session`]: a view of the shared
//! [`Database`] (internally synchronized — concurrent sessions read and
//! write the catalog through its own reader–writer lock) plus
//! session-local state:
//!
//! * a per-session [`SamplerConfig`] (`SET THREADS/SEED/SAMPLES`),
//! * an LRU cache of prepared statements (`PREPARE` / `EXEC`),
//! * an LRU cache of sampled query results, keyed by the statement text,
//!   the sampling parameters that define the result, and the catalog
//!   version — a mutation anywhere invalidates by construction, and the
//!   thread count is deliberately *not* part of the key because the
//!   parallel runtime is bit-deterministic in it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pip_core::{PipError, Result};
use pip_ctable::CTable;
use pip_engine::sql::{self, Statement};
use pip_engine::{execute_with_stats, optimize, Database, Plan};
use pip_obs::{Clock, MonotonicClock, SlowLog, SpanRecorder};
use pip_replica::Replication;
use pip_sampling::SamplerConfig;

use crate::lru::Lru;
use crate::scheduler::ServingCounters;

/// A statement captured by `PREPARE`.
struct PreparedStatement {
    plan: Arc<Plan>,
    /// The statement text, recorded in the query span.
    sql: String,
    /// Distinguishes re-prepared statements with the same name in the
    /// result-cache key.
    generation: u64,
}

/// The session's synchronous-replication setting (`SET REPLICATION
/// WAIT ...`): how many follower ACKs a mutation's reply waits for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplWait {
    /// Asynchronous (the default): reply as soon as the write is local.
    #[default]
    Off,
    /// Wait for this many follower ACKs.
    Count(u32),
    /// Wait for a cluster majority, re-counted per write against the
    /// follower fleet attached at that moment.
    Majority,
}

impl std::fmt::Display for ReplWait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplWait::Off => write!(f, "0"),
            ReplWait::Count(n) => write!(f, "{n}"),
            ReplWait::Majority => write!(f, "majority"),
        }
    }
}

/// Default deadline for `SET REPLICATION WAIT` and `WAIT VERSION`.
pub const DEFAULT_REPL_WAIT_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters reported by the `STATS` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements executed (QUERY + EXEC, including cache hits).
    pub queries: u64,
    /// Executions served from the sample-result cache.
    pub cache_hits: u64,
    /// Statements currently prepared.
    pub prepared: usize,
}

/// Result of one session statement.
pub struct QueryReply {
    pub table: Arc<CTable>,
    /// Served from the sample-result cache.
    pub cached: bool,
}

/// A statement opened for streaming execution ([`Session::open_stream`]).
pub enum StreamQuery {
    /// Result-cache hit: the whole table, rows replayed to the sink.
    Cached(Arc<CTable>),
    /// Live pipelined execution: lower `plan` against the shared catalog
    /// (`pip_engine::lower`), drain it row by row, then hand the
    /// collected table back via [`Session::note_streamed`] under `key`
    /// so later identical queries hit the cache.
    Live {
        plan: Box<Plan>,
        cfg: SamplerConfig,
        key: String,
    },
    /// Non-SELECT statement, executed eagerly (DDL/DML/EXPLAIN).
    Table(Arc<CTable>),
}

/// One client's view of the service.
pub struct Session {
    id: u64,
    db: Arc<Database>,
    /// Session-local sampler configuration.
    pub cfg: SamplerConfig,
    /// Follower ACKs a mutation's reply waits for (`SET REPLICATION
    /// WAIT`); reported as `wait=` in STATS.
    pub repl_wait: ReplWait,
    /// Deadline for replication waits (`SET REPLICATION TIMEOUT`); past
    /// it the reply degrades to `ERR repl_timeout ...`.
    pub repl_wait_timeout: Duration,
    prepared: Lru<String, PreparedStatement>,
    results: Lru<String, Arc<CTable>>,
    next_generation: u64,
    stats: SessionStats,
    replication: Option<Arc<Replication>>,
    /// Scheduler-wide serving counters (when the session is served by
    /// the TCP front-end), reported by `STATS`.
    serving: Option<Arc<ServingCounters>>,
    /// Time source for query spans (injectable so tests can drive a
    /// `ManualClock`).
    clock: Arc<dyn Clock>,
    /// Server-wide slow-query ring (`SET SLOWLOG <ms>` / `SLOWLOG [n]`);
    /// `None` for embedded sessions.
    slowlog: Option<Arc<SlowLog>>,
    /// Admission wait of the command about to run, stamped by the
    /// reactor and consumed into the next query's span.
    pending_admission_wait_nanos: u64,
}

impl Session {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The node's replication role, when the server runs as a primary
    /// or follower (`None` on a standalone node).
    pub fn replication(&self) -> Option<&Arc<Replication>> {
        self.replication.as_ref()
    }

    /// The scheduler's serving counters, when this session is served by
    /// the TCP front-end (`None` for embedded sessions).
    pub fn serving(&self) -> Option<&Arc<ServingCounters>> {
        self.serving.as_ref()
    }

    pub fn stats(&self) -> SessionStats {
        SessionStats {
            prepared: self.prepared.len(),
            ..self.stats
        }
    }

    /// The server-wide slow-query log, when attached.
    pub fn slowlog(&self) -> Option<&Arc<SlowLog>> {
        self.slowlog.as_ref()
    }

    /// Stamp the admission wait of the command about to run; consumed
    /// into that command's span.
    pub fn note_admission_wait_nanos(&mut self, nanos: u64) {
        self.pending_admission_wait_nanos = nanos;
    }

    /// Open a span recorder when the slowlog is armed; `None` keeps the
    /// hot path allocation-free.
    fn span_recorder(&self, sql_text: &str) -> Option<SpanRecorder> {
        let log = self.slowlog.as_ref()?;
        if !pip_obs::enabled() || log.threshold_millis() == 0 {
            return None;
        }
        let mut rec = SpanRecorder::start(Arc::clone(&self.clock), self.id, sql_text);
        rec.span.admission_wait_nanos = self.pending_admission_wait_nanos;
        Some(rec)
    }

    /// Finalize a span and offer it to the slowlog ring.
    fn observe_span(&self, rec: SpanRecorder) {
        if let Some(log) = &self.slowlog {
            log.observe(&rec.finish());
        }
    }

    /// The portion of the result-cache key that pins the *numbers*: the
    /// sampling parameters a result depends on, plus the catalog
    /// version. Thread count is excluded — the parallel runtime returns
    /// bit-identical results for any `threads`, so a hit stays valid.
    fn cache_suffix(&self) -> String {
        format!(
            "|seed={}|min={}|max={}|eps={}|delta={}|v={}",
            self.cfg.world_seed,
            self.cfg.min_samples,
            self.cfg.max_samples,
            self.cfg.epsilon,
            self.cfg.delta,
            self.db.version()
        )
    }

    /// Optimize and execute an uncached `SELECT`, store the result under
    /// `cache_key` and close the span.
    fn run_plan(
        &mut self,
        cache_key: String,
        plan: Plan,
        mut rec: Option<SpanRecorder>,
    ) -> Result<QueryReply> {
        // Optimization is catalog-dependent (schema lookups), so it runs
        // per execution against the current catalog.
        let t0 = std::time::Instant::now();
        let optimized = optimize(&self.db, plan)?;
        let optimize_nanos = t0.elapsed().as_nanos() as u64;
        let (table, qs) = execute_with_stats(&self.db, &optimized, &self.cfg)?;
        let table = Arc::new(table);
        self.results.put(cache_key, Arc::clone(&table));
        if let Some(mut r) = rec.take() {
            r.span.optimize_nanos = optimize_nanos;
            r.span.execute_nanos = (qs.query_secs * 1e9) as u64;
            r.span.sample_nanos = (qs.sample_secs * 1e9) as u64;
            r.span.rows = table.len() as u64;
            self.observe_span(r);
        }
        Ok(QueryReply {
            table,
            cached: false,
        })
    }

    /// Parse and run one SQL statement, consulting the sample-result
    /// cache for `SELECT`s.
    pub fn query(&mut self, sql_text: &str) -> Result<QueryReply> {
        self.stats.queries += 1;
        let mut rec = self.span_recorder(sql_text);
        self.pending_admission_wait_nanos = 0;
        let stmt = sql::parse(sql_text)?;
        if let Some(r) = rec.as_mut() {
            r.span.parse_nanos = r.lap();
        }
        match stmt {
            Statement::Select(plan) => {
                let key = format!("Q:{}{}", sql_text.trim(), self.cache_suffix());
                if let Some(hit) = self.results.get(&key) {
                    self.stats.cache_hits += 1;
                    if let Some(s) = &self.serving {
                        s.result_cache_hits.inc();
                    }
                    let table = Arc::clone(hit);
                    if let Some(mut r) = rec.take() {
                        r.span.cache_hit = true;
                        r.span.rows = table.len() as u64;
                        self.observe_span(r);
                    }
                    return Ok(QueryReply {
                        table,
                        cached: true,
                    });
                }
                self.run_plan(key, plan, rec)
            }
            other => {
                // DDL/DML: the catalog version bump retires stale cache
                // keys on its own.
                let table = Arc::new(sql::run_statement(&self.db, other, &self.cfg)?);
                if let Some(mut r) = rec.take() {
                    r.span.execute_nanos = r.lap();
                    r.span.rows = table.len() as u64;
                    self.observe_span(r);
                }
                Ok(QueryReply {
                    table,
                    cached: false,
                })
            }
        }
    }

    /// Open one SQL statement for streaming execution: rows of a live
    /// `SELECT` leave through the physical operator tree as they are
    /// produced instead of waiting for the full result table. Cache
    /// consultation and statistics match [`Session::query`]; a live
    /// stream's result is cached by calling [`Session::note_streamed`]
    /// after the drain.
    pub fn open_stream(&mut self, sql_text: &str) -> Result<StreamQuery> {
        self.stats.queries += 1;
        let stmt = sql::parse(sql_text)?;
        match stmt {
            Statement::Select(plan) => {
                let key = format!("Q:{}{}", sql_text.trim(), self.cache_suffix());
                if let Some(hit) = self.results.get(&key) {
                    self.stats.cache_hits += 1;
                    if let Some(s) = &self.serving {
                        s.result_cache_hits.inc();
                    }
                    return Ok(StreamQuery::Cached(Arc::clone(hit)));
                }
                let optimized = optimize(&self.db, plan)?;
                Ok(StreamQuery::Live {
                    plan: Box::new(optimized),
                    cfg: self.cfg.clone(),
                    key,
                })
            }
            other => Ok(StreamQuery::Table(Arc::new(sql::run_statement(
                &self.db, other, &self.cfg,
            )?))),
        }
    }

    /// Store a drained stream's table in the sample-result cache.
    pub fn note_streamed(&mut self, key: String, table: Arc<CTable>) {
        self.results.put(key, table);
    }

    /// `PREPARE name AS SELECT ...` — parse and plan once.
    pub fn prepare(&mut self, name: &str, sql_text: &str) -> Result<()> {
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(PipError::Sql(format!(
                "invalid prepared-statement name '{name}'"
            )));
        }
        match sql::parse(sql_text)? {
            Statement::Select(plan) => {
                self.next_generation += 1;
                self.prepared.put(
                    name.to_string(),
                    PreparedStatement {
                        plan: Arc::new(plan),
                        sql: sql_text.trim().to_string(),
                        generation: self.next_generation,
                    },
                );
                Ok(())
            }
            _ => Err(PipError::Sql(
                "only SELECT statements can be prepared".into(),
            )),
        }
    }

    /// `EXEC name` — run a prepared statement through the result cache.
    pub fn exec_prepared(&mut self, name: &str) -> Result<QueryReply> {
        self.stats.queries += 1;
        let (plan, sql, generation) = match self.prepared.get(&name.to_string()) {
            Some(p) => {
                if let Some(s) = &self.serving {
                    s.prepared_cache_hits.inc();
                }
                (Arc::clone(&p.plan), p.sql.clone(), p.generation)
            }
            None => return Err(PipError::NotFound(format!("prepared statement '{name}'"))),
        };
        let mut rec = self.span_recorder(&sql);
        self.pending_admission_wait_nanos = 0;
        let key = format!("E:{name}#{generation}{}", self.cache_suffix());
        if let Some(hit) = self.results.get(&key) {
            self.stats.cache_hits += 1;
            if let Some(s) = &self.serving {
                s.result_cache_hits.inc();
            }
            let table = Arc::clone(hit);
            if let Some(mut r) = rec.take() {
                r.span.cache_hit = true;
                r.span.rows = table.len() as u64;
                self.observe_span(r);
            }
            return Ok(QueryReply {
                table,
                cached: true,
            });
        }
        self.run_plan(key, (*plan).clone(), rec)
    }

    /// Forget one prepared statement.
    pub fn deallocate(&mut self, name: &str) -> Result<()> {
        self.prepared
            .remove(&name.to_string())
            .map(|_| ())
            .ok_or_else(|| PipError::NotFound(format!("prepared statement '{name}'")))
    }
}

/// Factory for sessions sharing one catalog.
pub struct SessionManager {
    db: Arc<Database>,
    default_cfg: SamplerConfig,
    prepared_capacity: usize,
    result_capacity: usize,
    next_id: AtomicU64,
    replication: Option<Arc<Replication>>,
    serving: Option<Arc<ServingCounters>>,
    clock: Arc<dyn Clock>,
    slowlog: Option<Arc<SlowLog>>,
}

impl SessionManager {
    pub fn new(db: Arc<Database>, default_cfg: SamplerConfig) -> Self {
        SessionManager {
            db,
            default_cfg,
            prepared_capacity: 32,
            result_capacity: 64,
            next_id: AtomicU64::new(1),
            replication: None,
            serving: None,
            clock: Arc::new(MonotonicClock),
            slowlog: None,
        }
    }

    /// Override the per-session cache capacities.
    pub fn with_cache_capacities(mut self, prepared: usize, results: usize) -> Self {
        self.prepared_capacity = prepared;
        self.result_capacity = results;
        self
    }

    /// Attach the node's replication role: sessions report it in STATS
    /// and route PROMOTE to it.
    pub fn with_replication(mut self, replication: Option<Arc<Replication>>) -> Self {
        self.replication = replication;
        self
    }

    /// Attach the scheduler's serving counters: sessions report them in
    /// STATS.
    pub fn with_serving(mut self, serving: Arc<ServingCounters>) -> Self {
        self.serving = Some(serving);
        self
    }

    /// Attach the observability hooks: the span clock (injectable for
    /// deterministic tests) and the server-wide slow-query ring.
    pub fn with_obs(mut self, clock: Arc<dyn Clock>, slowlog: Arc<SlowLog>) -> Self {
        self.clock = clock;
        self.slowlog = Some(slowlog);
        self
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Sessions handed out so far.
    pub fn sessions_created(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }

    /// Open a new session.
    pub fn open(&self) -> Session {
        Session {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            db: Arc::clone(&self.db),
            cfg: self.default_cfg.clone(),
            repl_wait: ReplWait::default(),
            repl_wait_timeout: DEFAULT_REPL_WAIT_TIMEOUT,
            prepared: Lru::new(self.prepared_capacity),
            results: Lru::new(self.result_capacity),
            next_generation: 0,
            stats: SessionStats::default(),
            replication: self.replication.clone(),
            serving: self.serving.clone(),
            clock: Arc::clone(&self.clock),
            slowlog: self.slowlog.clone(),
            pending_admission_wait_nanos: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_engine::scalar_result;

    fn manager() -> SessionManager {
        let db = Arc::new(Database::new());
        let mgr = SessionManager::new(db, SamplerConfig::default());
        let mut s = mgr.open();
        s.query("CREATE TABLE t (x SYMBOLIC)").unwrap();
        s.query("INSERT INTO t VALUES (create_variable('Normal', 10, 2))")
            .unwrap();
        mgr
    }

    #[test]
    fn query_caches_selects_until_mutation() {
        let mgr = manager();
        let mut s = mgr.open();
        let q = "SELECT expected_sum(x) FROM t";
        let a = s.query(q).unwrap();
        assert!(!a.cached);
        let b = s.query(q).unwrap();
        assert!(b.cached);
        assert_eq!(
            scalar_result(&a.table).unwrap(),
            scalar_result(&b.table).unwrap()
        );
        // A catalog mutation retires the cached entry.
        s.query("INSERT INTO t VALUES (create_variable('Normal', 5, 1))")
            .unwrap();
        let c = s.query(q).unwrap();
        assert!(!c.cached);
        assert!(scalar_result(&c.table).unwrap() > scalar_result(&a.table).unwrap());
        let stats = s.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn seed_change_bypasses_cache() {
        let mgr = manager();
        let mut s = mgr.open();
        let q = "SELECT conf() FROM t WHERE x > 9";
        s.query(q).unwrap();
        s.cfg.world_seed ^= 1;
        assert!(!s.query(q).unwrap().cached);
    }

    #[test]
    fn prepared_statements_round_trip() {
        let mgr = manager();
        let mut s = mgr.open();
        s.prepare("total", "SELECT expected_sum(x) FROM t").unwrap();
        let a = s.exec_prepared("total").unwrap();
        assert!(!a.cached);
        let b = s.exec_prepared("total").unwrap();
        assert!(b.cached);
        assert!((scalar_result(&a.table).unwrap() - 10.0).abs() < 1e-9);
        assert!(s.exec_prepared("missing").is_err());
        s.deallocate("total").unwrap();
        assert!(s.exec_prepared("total").is_err());
        // Only SELECT may be prepared; names are validated.
        assert!(s.prepare("p", "CREATE TABLE u (a INT)").is_err());
        assert!(s.prepare("bad name", "SELECT * FROM t").is_err());
    }

    #[test]
    fn sessions_share_the_catalog() {
        let mgr = manager();
        let mut a = mgr.open();
        let mut b = mgr.open();
        assert_ne!(a.id(), b.id());
        a.query("CREATE TABLE shared (v FLOAT)").unwrap();
        a.query("INSERT INTO shared VALUES (1.5)").unwrap();
        let r = b.query("SELECT expected_sum(v) FROM shared").unwrap();
        assert_eq!(scalar_result(&r.table).unwrap(), 1.5);
        assert_eq!(mgr.sessions_created(), 3); // manager() opened one
    }

    #[test]
    fn thread_setting_reuses_cache() {
        let mgr = manager();
        let mut s = mgr.open();
        let q = "SELECT expected_sum(x) FROM t";
        let serial = s.query(q).unwrap();
        s.cfg = s.cfg.clone().with_threads(4);
        let parallel = s.query(q).unwrap();
        // Bit-determinism makes the cached serial result valid at any
        // thread count.
        assert!(parallel.cached);
        assert_eq!(
            scalar_result(&serial.table).unwrap(),
            scalar_result(&parallel.table).unwrap()
        );
    }
}
