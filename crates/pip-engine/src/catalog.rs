//! The database catalog: named c-tables plus the distribution registry.
//!
//! Plays the role Postgres plays for the paper's plugin — a place to
//! create tables, insert (possibly symbolic) rows, and allocate random
//! variables via `CREATE_VARIABLE(distribution, params)` (Section V-A).
//!
//! ## Durability
//!
//! A catalog may be *durable*: [`Database::open`] binds it to a
//! [`pip_store::Store`] data directory, after which every logical
//! mutation (create/register/drop/insert, variable allocation) is
//! appended to the write-ahead log **before** it is applied, under the
//! same write lock that serializes the mutation itself — so WAL order,
//! apply order and the version counter always agree. Recovery loads the
//! newest valid snapshot, replays the WAL suffix (torn tails truncated),
//! restores the catalog version counter (version-keyed caches can never
//! confuse pre- and post-restart state) and re-reserves every recovered
//! variable id, which is what makes recovered query results
//! *bit-identical*: sampling seeds derive from variable ids, and both
//! ids and `f64` parameters round-trip exactly.
//!
//! ## Snapshots and INSERT
//!
//! Readers take `Arc` snapshots of a table and its indexes
//! ([`Database::table`], [`Database::index`]) and never see a later
//! mutation. An INSERT appends to the catalog's own table and indexes
//! in place (`Arc::make_mut`): it copies one first only while some
//! reader still holds that snapshot, so an insert into an unshared
//! table is an amortised O(1) append (plus the index's merge), not a
//! copy of the table.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use pip_core::{DataType, PipError, Result, Schema, Tuple};
use pip_dist::DistributionRegistry;
use pip_expr::{RandomVar, VarId};
use pip_store::{
    CatalogRecord, Durability, Snapshot, SnapshotIndex, SnapshotTable, Store, WalCursor, WalEntry,
};

use pip_ctable::{CRow, CTable, OrderedIndex};

use crate::persist;
use crate::stats::TableStats;

/// What recovery found in a data directory ([`Database::recover`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Catalog version at the recovery point.
    pub version: u64,
    /// Snapshot generation recovery started from (0 = none, WAL only).
    pub snapshot_gen: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// True when a torn tail was truncated from the active WAL.
    pub torn_tail: bool,
}

/// A registered secondary index: its definition plus current contents.
///
/// The contents always reflect the owning table exactly — both are
/// updated under the same catalog write lock — so planners may take the
/// `(table, index)` pair from one catalog read and seek without
/// revalidation.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Table the index covers.
    pub table: String,
    /// Indexed column (by name; the [`OrderedIndex`] holds the position).
    pub column: String,
    /// The ordered `(key, row_id)` structure itself.
    pub index: Arc<OrderedIndex>,
}

/// An in-memory probabilistic database, optionally WAL-backed.
#[derive(Debug)]
pub struct Database {
    registry: DistributionRegistry,
    tables: RwLock<HashMap<String, Arc<CTable>>>,
    /// Secondary indexes by index name. Only the *definitions* are
    /// durable (WAL records, snapshot entries); contents are rebuilt
    /// from the owning table on recovery and snapshot install, and
    /// maintained incrementally on INSERT. Lock order: `tables` before
    /// `indexes`, always.
    indexes: RwLock<HashMap<String, IndexEntry>>,
    /// Monotonic catalog generation, bumped by every DDL/DML mutation.
    /// Cache layers (e.g. the server's sample-result cache) key on it so
    /// stale entries can never be served after a mutation — and it is
    /// persisted across checkpoint/recovery, so they can never be served
    /// across a restart either.
    version: AtomicU64,
    /// Optimizer statistics per table, keyed by the catalog version they
    /// were collected at — any mutation retires them (see
    /// [`Database::table_stats`]).
    stats: RwLock<HashMap<String, Arc<TableStats>>>,
    /// The durable store, when this catalog was opened from a data
    /// directory. Mutations append WAL records through it.
    store: OnceLock<Arc<Store>>,
    /// Read-only mode: every logical mutation (DDL/DML and variable
    /// allocation) is refused. A replication follower runs read-only —
    /// its catalog changes arrive exclusively through
    /// [`Database::apply_replicated`], which bypasses this flag —
    /// until a `PROMOTE` clears it.
    read_only: AtomicBool,
    /// When set, `SET DURABILITY OFF` is refused: a replicating primary
    /// feeds its followers from the WAL, and unlogged mutations would
    /// silently never reach them.
    durability_pinned: AtomicBool,
    /// Fenced mode: a deposed primary that heard a higher replication
    /// epoch. Like `read_only` it refuses every logical mutation, but
    /// with a distinguishable `fenced` error — a client write that
    /// raced a failover must learn it may have been lost, not just
    /// "this node is a follower". Reads keep working (stale is still
    /// useful); `apply_replicated` bypasses it so the node can rejoin
    /// the new primary's feed.
    fenced: AtomicBool,
    /// This database's observability registry: every layer that serves
    /// this catalog (store, replication, server) registers its metric
    /// families here, and the server's `METRICS` verb renders it.
    obs: Arc<pip_obs::Registry>,
    /// Engine-level metric handles registered in `obs`.
    metrics: crate::metrics::EngineMetrics,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A fresh database with the built-in distribution classes.
    pub fn new() -> Self {
        Self::with_registry(DistributionRegistry::with_builtins())
    }

    /// Build with a custom registry (user-defined distribution classes).
    pub fn with_registry(registry: DistributionRegistry) -> Self {
        let obs = Arc::new(pip_obs::Registry::new());
        let metrics = crate::metrics::EngineMetrics::register(&obs);
        Database {
            registry,
            tables: RwLock::new(HashMap::new()),
            indexes: RwLock::new(HashMap::new()),
            version: AtomicU64::new(0),
            stats: RwLock::new(HashMap::new()),
            store: OnceLock::new(),
            read_only: AtomicBool::new(false),
            durability_pinned: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
            obs,
            metrics,
        }
    }

    /// Open (creating if needed) a durable catalog in `dir`: recover
    /// whatever a previous process left there, then log every further
    /// mutation. See [`Database::recover`] for the recovery report.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Ok(Self::recover(dir)?.0)
    }

    /// [`Database::open`] plus the recovery report.
    pub fn recover(dir: impl AsRef<Path>) -> Result<(Database, RecoveryInfo)> {
        Self::recover_with(dir, DistributionRegistry::with_builtins())
    }

    /// Recover with a custom registry (stored variables referencing
    /// user-defined distribution classes need them present to decode).
    pub fn recover_with(
        dir: impl AsRef<Path>,
        registry: DistributionRegistry,
    ) -> Result<(Database, RecoveryInfo)> {
        let (store, recovered) = Store::open(dir.as_ref(), &registry)?;
        let db = Self::with_registry(registry);
        {
            let mut tables = db.tables.write();
            let mut stats = db.stats.write();
            for (name, table, stats_json) in recovered.tables {
                if let Some(blob) = &stats_json {
                    // Statistics are derived data: a blob that fails to
                    // decode (or mismatches the table) is dropped and
                    // recollected lazily, never an error. Surviving
                    // blobs are re-stamped at the recovered version —
                    // the store only hands back statistics for tables
                    // the WAL suffix never touched, so they describe
                    // the recovered contents exactly and would
                    // otherwise be discarded as stale by the
                    // version-freshness check in `table_stats`.
                    if let Ok(s) = persist::stats_from_json(blob) {
                        if s.table == name {
                            stats.insert(
                                name.clone(),
                                Arc::new(TableStats {
                                    version: recovered.version,
                                    ..s
                                }),
                            );
                        }
                    }
                }
                tables.insert(name, Arc::new(table));
            }
            // Index definitions recovered; contents are derived data,
            // rebuilt from the tables they cover. A definition whose
            // table or column no longer resolves means the log and the
            // catalog semantics disagree — corruption, never papered
            // over (the store already validated table existence).
            let mut indexes = db.indexes.write();
            for (name, table, column) in &recovered.indexes {
                let t = tables.get(table).ok_or_else(|| {
                    PipError::corrupt(format!("index '{name}' covers unknown table '{table}'"))
                })?;
                let entry = build_index_entry(name, table, column, t)
                    .map_err(|e| PipError::corrupt(format!("rebuilding index '{name}': {e}")))?;
                indexes.insert(name.clone(), entry);
            }
        }
        db.version.store(recovered.version, Ordering::Release);
        VarId::reserve_through(recovered.max_var_id);
        let info = RecoveryInfo {
            version: recovered.version,
            snapshot_gen: recovered.snapshot_gen,
            replayed: recovered.replayed,
            torn_tail: recovered.torn_tail,
        };
        let store = Arc::new(store);
        store.attach_metrics(&db.obs);
        {
            // Derived gauges read leaf state through a weak handle so the
            // registry (owned by this database) never keeps the store —
            // or transitively the database — alive.
            let weak = Arc::downgrade(&store);
            db.obs.gauge_fn(
                "pip_store_wal_bytes",
                "Record bytes in the active WAL generation.",
                move || weak.upgrade().map_or(0.0, |s| s.wal_bytes() as f64),
            );
        }
        db.store.set(store).expect("store attached exactly once");
        Ok((db, info))
    }

    /// The distribution registry (mutable access requires construction
    /// time registration via [`Database::with_registry`]).
    pub fn registry(&self) -> &DistributionRegistry {
        &self.registry
    }

    /// The durable store, if this catalog has one.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.get()
    }

    fn require_store(&self) -> Result<&Arc<Store>> {
        self.store.get().ok_or_else(|| {
            PipError::Unsupported("catalog has no data directory (open it with --data-dir)".into())
        })
    }

    /// Append one WAL record (no-op for memory-only catalogs; at
    /// durability OFF the store validates the record without writing
    /// it). Called with the tables write lock held, so log order always
    /// matches apply order.
    fn log(&self, version: u64, record: CatalogRecord) -> Result<()> {
        self.log_entry(&WalEntry { version, record })
    }

    /// [`Database::log`] for an entry built by the caller (which may
    /// take the entry's rows back afterwards).
    fn log_entry(&self, entry: &WalEntry) -> Result<()> {
        match self.store.get() {
            Some(store) => store.append(entry),
            None => Ok(()),
        }
    }

    /// True when mutations must be materialized as catalog records —
    /// appended to the WAL at durability `WAL`/`SYNC`, or merely
    /// validated against the store's write contract at `OFF` (a durable
    /// catalog must refuse state it could never log or snapshot, or
    /// every later checkpoint would fail while that state exists).
    /// False only for memory-only catalogs, which skip record
    /// construction entirely.
    fn durable(&self) -> bool {
        self.store.get().is_some()
    }

    /// Flip read-only mode (see the `read_only` field). Used by the
    /// replication wiring: set on a follower before it serves traffic,
    /// cleared by `PROMOTE`.
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::Release);
    }

    /// True when this catalog refuses mutations (replication follower).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Fence (or unfence) the catalog — see the `fenced` field. A
    /// fenced catalog refuses writes with [`PipError::Fenced`] even
    /// when not read-only.
    pub fn set_fenced(&self, fenced: bool) {
        self.fenced.store(fenced, Ordering::Release);
    }

    /// True when a higher replication epoch deposed this node.
    pub fn is_fenced(&self) -> bool {
        self.fenced.load(Ordering::Acquire)
    }

    fn check_writable(&self) -> Result<()> {
        if self.is_fenced() {
            return Err(PipError::fenced(
                "a newer replication epoch deposed this primary; \
                 writes go to the new primary",
            ));
        }
        if self.is_read_only() {
            return Err(PipError::Unsupported(
                "catalog is read-only (replication follower); writes go to the \
                 primary, or PROMOTE this node"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Refuse `SET DURABILITY OFF` from here on (replicating primary:
    /// followers are fed from the WAL, so unlogged mutations would
    /// silently never reach them).
    pub fn pin_durability(&self) {
        self.durability_pinned.store(true, Ordering::Release);
    }

    /// `CREATE VARIABLE(distribution, params)` — allocate a fresh random
    /// variable of a registered class.
    pub fn create_variable(&self, class: &str, params: &[f64]) -> Result<RandomVar> {
        self.check_writable()?;
        if self.store.get().is_none() {
            return RandomVar::create_named(&self.registry, class, params);
        }
        // Allocation and append happen under the tables read lock so a
        // concurrent checkpoint (which holds the write lock) cannot
        // interleave: either it runs first — and this record lands in
        // the fresh generation — or it runs after — and its snapshot's
        // `VarId::watermark` already covers this id. Without the lock,
        // the record could land in a generation the checkpoint deletes
        // while the snapshot's watermark predates the allocation, and a
        // post-recovery variable could reuse the id.
        let _ordered_with_checkpoints = self.tables.read();
        let var = RandomVar::create_named(&self.registry, class, params)?;
        if self.durable() {
            self.log(
                self.version(),
                CatalogRecord::CreateVariable {
                    id: var.key.id.0,
                    class: class.to_string(),
                    params: params.to_vec(),
                },
            )?;
        }
        Ok(var)
    }

    /// Current catalog generation. Changes on every successful mutation
    /// (create/register/drop/insert); equal versions guarantee the same
    /// table contents for cache-key purposes.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bump the catalog generation, returning the new version.
    fn bump_version(&self) -> u64 {
        self.metrics.mutations_total.inc();
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// This database's observability registry (see the `obs` field).
    pub fn obs_registry(&self) -> &Arc<pip_obs::Registry> {
        &self.obs
    }

    /// Engine-level metric handles.
    pub fn metrics(&self) -> &crate::metrics::EngineMetrics {
        &self.metrics
    }

    /// Create an empty table. Errors if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        self.check_writable()?;
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(PipError::Schema(format!("table '{name}' already exists")));
        }
        let version = self.bump_version();
        if self.durable() {
            self.log(
                version,
                CatalogRecord::CreateTable {
                    name: name.to_string(),
                    schema: schema.clone(),
                },
            )?;
        }
        tables.insert(name.to_string(), Arc::new(CTable::empty(schema)));
        Ok(())
    }

    /// Register (or replace) a table with existing contents. A
    /// replacement may change the schema out from under dependent
    /// indexes, so their definitions die with the old contents.
    pub fn register_table(&self, name: &str, table: CTable) -> Result<()> {
        self.check_writable()?;
        let mut tables = self.tables.write();
        let version = self.bump_version();
        if self.durable() {
            self.log(
                version,
                CatalogRecord::RegisterTable {
                    name: name.to_string(),
                    table: table.clone(),
                },
            )?;
        }
        tables.insert(name.to_string(), Arc::new(table));
        self.indexes.write().retain(|_, e| e.table != name);
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.check_writable()?;
        let mut tables = self.tables.write();
        if !tables.contains_key(name) {
            return Err(PipError::NotFound(format!("table '{name}'")));
        }
        let version = self.bump_version();
        if self.durable() {
            self.log(
                version,
                CatalogRecord::Drop {
                    name: name.to_string(),
                },
            )?;
        }
        tables.remove(name);
        self.indexes.write().retain(|_, e| e.table != name);
        Ok(())
    }

    /// `CREATE INDEX name ON table (column)` — build an ordered
    /// secondary index over a deterministic `Int`/`Float` column and
    /// register it. Errors if the name is taken or the table/column
    /// does not resolve.
    pub fn create_index(&self, name: &str, table: &str, column: &str) -> Result<()> {
        self.check_writable()?;
        let tables = self.tables.write();
        let t = tables
            .get(table)
            .ok_or_else(|| PipError::NotFound(format!("table '{table}'")))?;
        if self.indexes.read().contains_key(name) {
            return Err(PipError::Schema(format!("index '{name}' already exists")));
        }
        // Build (and thereby validate) before the WAL append — a logged
        // record must never fail to apply.
        let entry = build_index_entry(name, table, column, t)?;
        let version = self.bump_version();
        if self.durable() {
            self.log(
                version,
                CatalogRecord::CreateIndex {
                    name: name.to_string(),
                    table: table.to_string(),
                    column: column.to_string(),
                },
            )?;
        }
        self.indexes.write().insert(name.to_string(), entry);
        Ok(())
    }

    /// `DROP INDEX name`.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        self.check_writable()?;
        let _tables = self.tables.write();
        if !self.indexes.read().contains_key(name) {
            return Err(PipError::NotFound(format!("index '{name}'")));
        }
        let version = self.bump_version();
        if self.durable() {
            self.log(
                version,
                CatalogRecord::DropIndex {
                    name: name.to_string(),
                },
            )?;
        }
        self.indexes.write().remove(name);
        Ok(())
    }

    /// The named index, if registered.
    pub fn index(&self, name: &str) -> Option<IndexEntry> {
        self.indexes.read().get(name).cloned()
    }

    /// Every index covering `table`, as `(name, entry)` sorted by index
    /// name — the optimizer's access-path candidates.
    pub fn indexes_on(&self, table: &str) -> Vec<(String, IndexEntry)> {
        let mut out: Vec<(String, IndexEntry)> = self
            .indexes
            .read()
            .iter()
            .filter(|(_, e)| e.table == table)
            .map(|(n, e)| (n.clone(), e.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Names of all indexes, sorted.
    pub fn index_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.indexes.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Shared snapshot of a table.
    pub fn table(&self, name: &str) -> Result<Arc<CTable>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PipError::NotFound(format!("table '{name}'")))
    }

    /// Append symbolic rows to a table.
    ///
    /// The rows are validated (arity, dependent-index watermarks) and
    /// logged before they are applied, so a logged record never fails to
    /// apply; the log takes the rows by move and hands them back, so no
    /// row is cloned for it. They are then appended in place to the
    /// table and to every index on it: a table or index is copied first
    /// only while a reader still holds that snapshot (a running query, a
    /// checkpoint capture, `ANALYZE`), and that reader keeps the rows it
    /// saw. `pip_engine_insert_copies_total` counts those copies.
    ///
    /// Optimizer statistics get cheap delta maintenance instead of
    /// retirement: the cached [`TableStats`] entry (if it was fresh at
    /// the pre-insert version) has its row counts bumped in place and is
    /// re-stamped at the new version, so an insert does not force a full
    /// rescan. Column-level statistics drift until `ANALYZE` or the
    /// staleness threshold triggers a recollection (see
    /// [`Database::table_stats`]).
    pub fn insert_rows(&self, name: &str, rows: Vec<CRow>) -> Result<()> {
        self.check_writable()?;
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(name)
            .ok_or_else(|| PipError::NotFound(format!("table '{name}'")))?;
        let mut indexes = self.indexes.write();
        check_append(table, &indexes, name, &rows)?;
        let old_len = table.len();
        let post_insert = self.bump_version();
        // At durability OFF the record is built but only validated, never
        // written; a memory-only catalog builds none.
        let rows = if self.durable() {
            let entry = WalEntry {
                version: post_insert,
                record: CatalogRecord::Insert {
                    name: name.to_string(),
                    rows,
                },
            };
            self.log_entry(&entry)?;
            let CatalogRecord::Insert { rows, .. } = entry.record else {
                unreachable!("built as an Insert record")
            };
            rows
        } else {
            rows
        };
        self.append_in_place(table, &mut indexes, name, rows);
        drop(indexes);
        // The bump's fetch_add pins this insert's exact (pre, post)
        // version pair — no separate load can interleave with another
        // mutation. The delta only applies when the cached entry was
        // fresh at exactly `pre`; any concurrent mutation breaks that
        // equality (either here or for the other inserter), and the
        // loser's entry simply goes stale and recollects on next use.
        let pre_insert = post_insert - 1;
        let mut stats = self.stats.write();
        if let Some(entry) = stats.get_mut(name) {
            if entry.version == pre_insert {
                *entry = Arc::new(entry.apply_insert(&table.rows()[old_len..], post_insert));
            }
        }
        Ok(())
    }

    /// Append rows that [`check_append`] accepted to `table` and to the
    /// indexes on it, in place. `Arc::make_mut` copies a table or index
    /// only while something else still holds it; such inserts are
    /// counted in `pip_engine_insert_copies_total`.
    fn append_in_place(
        &self,
        table: &mut Arc<CTable>,
        indexes: &mut HashMap<String, IndexEntry>,
        name: &str,
        rows: Vec<CRow>,
    ) {
        let old_len = table.len();
        let mut copied = Arc::get_mut(table).is_none();
        Arc::make_mut(table).rows_mut().extend(rows);
        let appended = &table.rows()[old_len..];
        for e in indexes.values_mut().filter(|e| e.table == name) {
            copied |= Arc::get_mut(&mut e.index).is_none();
            Arc::make_mut(&mut e.index).append(appended);
        }
        if copied {
            self.metrics.insert_copies_total.inc();
        }
    }

    /// Append deterministic tuples to a table.
    pub fn insert_tuples(&self, name: &str, tuples: &[Tuple]) -> Result<()> {
        self.insert_rows(name, tuples.iter().map(CRow::from_tuple).collect())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Write a checkpoint: serialize the entire catalog (fresh table
    /// statistics riding along) into a new snapshot generation and start
    /// a fresh WAL. Mutations are blocked only for the cheap part —
    /// capturing `Arc`s of every table and rotating to the fresh WAL
    /// generation; the snapshot itself (full-catalog serialization,
    /// fsync, rename) is written after the lock is released, with
    /// queries and mutations flowing. A crash (or write failure) before
    /// the snapshot lands is benign: recovery falls back to the previous
    /// snapshot and replays both WAL generations. Returns the new
    /// generation.
    pub fn checkpoint(&self) -> Result<u64> {
        let store = Arc::clone(self.require_store()?);
        let tables = self.tables.write();
        let captured = self.capture_checkpoint(&tables);
        let generation = store.begin_checkpoint()?;
        drop(tables);
        store.finish_checkpoint(generation, &captured.into_snapshot())?;
        Ok(generation)
    }

    /// Capture everything a checkpoint persists, under the tables write
    /// lock: version, variable-id watermark, and per-table `Arc` handles
    /// (contents and fresh statistics). Cheap — no serialization; that
    /// happens in [`CheckpointCapture::into_snapshot`] after the lock is
    /// gone.
    fn capture_checkpoint(&self, tables: &HashMap<String, Arc<CTable>>) -> CheckpointCapture {
        let version = self.version();
        let stats = self.stats.read();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        let indexes = self.indexes.read();
        let mut inames: Vec<&String> = indexes.keys().collect();
        inames.sort();
        CheckpointCapture {
            version,
            next_var_id: VarId::watermark(),
            tables: names
                .into_iter()
                .map(|name| {
                    (
                        name.clone(),
                        Arc::clone(&tables[name]),
                        stats
                            .get(name)
                            .filter(|s| s.version == version && !s.columns_stale())
                            .cloned(),
                    )
                })
                .collect(),
            indexes: inames
                .into_iter()
                .map(|name| SnapshotIndex {
                    name: name.clone(),
                    table: indexes[name].table.clone(),
                    column: indexes[name].column.clone(),
                })
                .collect(),
        }
    }

    /// Apply one entry from a replication feed, bypassing the read-only
    /// gate: the follower-side half of WAL shipping.
    ///
    /// The feed is the primary's WAL in log order, and log order ==
    /// apply order == version order is the replication invariant: entry
    /// versions must be non-decreasing (`CREATE_VARIABLE` records are
    /// stamped at the version they were allocated under, without a bump,
    /// so consecutive entries may share a version). An entry behind the
    /// catalog version means the feed re-sent history or skipped ahead —
    /// corruption, never papered over.
    ///
    /// On a durable follower the entry is appended to the *local* WAL
    /// with the primary's version stamp before the in-memory commit
    /// (same ordering as primary mutations), so a restart recovers to an
    /// exact prefix of the primary's history and can resume the feed
    /// from its applied version.
    pub fn apply_replicated(&self, entry: &WalEntry) -> Result<()> {
        let mut tables = self.tables.write();
        let current = self.version();
        if entry.version < current {
            return Err(PipError::corrupt(format!(
                "replication feed out of order: entry version {} behind catalog version {current}",
                entry.version
            )));
        }
        // Stage the apply fully — including arity validation — before
        // logging: a locally logged record must never fail to apply
        // (recovery replays it verbatim). Variable ids embedded in
        // shipped rows are reserved so a later PROMOTE can never hand
        // out a colliding fresh id.
        let mut staged: Option<(String, Arc<CTable>)> = None;
        let mut dropped: Option<String> = None;
        let mut staged_index: Option<(String, IndexEntry)> = None;
        let mut dropped_index: Option<String> = None;
        let mut retire_indexes_of: Option<String> = None;
        let mut appended: Option<(&String, &Vec<CRow>)> = None;
        match &entry.record {
            CatalogRecord::CreateVariable { id, .. } => {
                VarId::reserve_through(*id);
            }
            CatalogRecord::CreateTable { name, schema } => {
                if tables.contains_key(name) {
                    return Err(PipError::corrupt(format!(
                        "replication feed creates table '{name}' twice"
                    )));
                }
                staged = Some((name.clone(), Arc::new(CTable::empty(schema.clone()))));
            }
            CatalogRecord::RegisterTable { name, table } => {
                for v in table.variables() {
                    VarId::reserve_through(v.key.id.0);
                }
                staged = Some((name.clone(), Arc::new(table.clone())));
                retire_indexes_of = Some(name.clone());
            }
            CatalogRecord::Insert { name, rows } => {
                let table = tables.get(name).ok_or_else(|| {
                    PipError::corrupt(format!(
                        "replication feed inserts into unknown table '{name}'"
                    ))
                })?;
                check_append(table, &self.indexes.read(), name, rows)?;
                for r in rows {
                    for v in r.variables() {
                        VarId::reserve_through(v.key.id.0);
                    }
                }
                appended = Some((name, rows));
            }
            CatalogRecord::Drop { name } => {
                if !tables.contains_key(name) {
                    return Err(PipError::corrupt(format!(
                        "replication feed drops unknown table '{name}'"
                    )));
                }
                dropped = Some(name.clone());
                retire_indexes_of = Some(name.clone());
            }
            CatalogRecord::CreateIndex {
                name,
                table,
                column,
            } => {
                if self.indexes.read().contains_key(name) {
                    return Err(PipError::corrupt(format!(
                        "replication feed creates index '{name}' twice"
                    )));
                }
                let t = tables.get(table).ok_or_else(|| {
                    PipError::corrupt(format!(
                        "replication feed creates index '{name}' on unknown table '{table}'"
                    ))
                })?;
                let e = build_index_entry(name, table, column, t).map_err(|e| {
                    PipError::corrupt(format!("replication feed index '{name}': {e}"))
                })?;
                staged_index = Some((name.clone(), e));
            }
            CatalogRecord::DropIndex { name } => {
                if !self.indexes.read().contains_key(name) {
                    return Err(PipError::corrupt(format!(
                        "replication feed drops unknown index '{name}'"
                    )));
                }
                dropped_index = Some(name.clone());
            }
        }
        self.log_entry(entry)?;
        if let Some((name, table)) = staged {
            tables.insert(name, table);
        }
        if let Some((name, rows)) = appended {
            let table = tables.get_mut(name).expect("checked above");
            self.append_in_place(table, &mut self.indexes.write(), name, rows.clone());
        }
        if let Some(name) = dropped {
            tables.remove(&name);
        }
        if staged_index.is_some() || dropped_index.is_some() || retire_indexes_of.is_some() {
            let mut indexes = self.indexes.write();
            if let Some(table) = retire_indexes_of {
                indexes.retain(|_, e| e.table != table);
            }
            if let Some((name, e)) = staged_index {
                indexes.insert(name, e);
            }
            if let Some(name) = dropped_index {
                indexes.remove(&name);
            }
        }
        // Adopt the primary's stamp verbatim — version-keyed caches on
        // this node then agree with the primary's at the same version.
        self.version.store(entry.version, Ordering::Release);
        Ok(())
    }

    /// Replace the entire catalog with a replication snapshot (follower
    /// catch-up when the primary's retained WAL chain no longer reaches
    /// back to this node's applied version — including the empty-data-dir
    /// first attach). On a durable follower the snapshot is persisted as
    /// a local checkpoint, so a restart resumes from here instead of
    /// needing another bulk transfer.
    pub fn install_snapshot(&self, snapshot: Snapshot) -> Result<()> {
        let mut tables = self.tables.write();
        let mut stats = self.stats.write();
        tables.clear();
        stats.clear();
        self.indexes.write().clear();
        for t in &snapshot.tables {
            if let Some(blob) = &t.stats {
                // Same derived-data rules as recovery: undecodable or
                // mismatched statistics are dropped, never an error.
                if let Ok(s) = persist::stats_from_json(blob) {
                    if s.table == t.name {
                        stats.insert(
                            t.name.clone(),
                            Arc::new(TableStats {
                                version: snapshot.version,
                                ..s
                            }),
                        );
                    }
                }
            }
            tables.insert(t.name.clone(), Arc::clone(&t.table));
        }
        // Index contents are derived data, rebuilt from the shipped
        // tables — same resolution rules as recovery.
        {
            let mut indexes = self.indexes.write();
            for i in &snapshot.indexes {
                let t = tables.get(&i.table).ok_or_else(|| {
                    PipError::corrupt(format!(
                        "snapshot index '{}' covers unknown table '{}'",
                        i.name, i.table
                    ))
                })?;
                let entry = build_index_entry(&i.name, &i.table, &i.column, t).map_err(|e| {
                    PipError::corrupt(format!("rebuilding snapshot index '{}': {e}", i.name))
                })?;
                indexes.insert(i.name.clone(), entry);
            }
        }
        self.version.store(snapshot.version, Ordering::Release);
        VarId::reserve_through(snapshot.next_var_id.saturating_sub(1));
        // Belt and braces, exactly like recovery: ids embedded in rows
        // also pin the allocator floor.
        for t in tables.values() {
            for v in t.variables() {
                VarId::reserve_through(v.key.id.0);
            }
        }
        let local_checkpoint = match self.store.get() {
            Some(store) => Some((Arc::clone(store), store.begin_checkpoint()?)),
            None => None,
        };
        drop(stats);
        drop(tables);
        if let Some((store, gen)) = local_checkpoint {
            store.finish_checkpoint(gen, &snapshot)?;
        }
        Ok(())
    }

    /// Capture a consistent `(snapshot, WAL cursor)` pair for a follower
    /// that needs bulk catch-up: every mutation up to the snapshot's
    /// version is in the snapshot, every later one is readable from the
    /// cursor on.
    ///
    /// Runs under the tables *read* lock — enough, because every
    /// version-bumping mutation holds the write lock, and the one
    /// mutation legal under a concurrent read lock (`CREATE_VARIABLE`)
    /// commutes with the capture: the cursor is read *before* the
    /// variable-id watermark, so an allocation whose WAL frame lands
    /// before the cursor is already covered by the watermark, and one
    /// landing after the cursor is shipped as a frame (its stamp equals
    /// the snapshot version, which the follower's non-decreasing check
    /// accepts).
    pub fn capture_replication_snapshot(&self) -> Result<(Snapshot, WalCursor)> {
        let store = Arc::clone(self.require_store()?);
        let tables = self.tables.read();
        let cursor = store.wal_position();
        let captured = self.capture_checkpoint(&tables);
        drop(tables);
        Ok((captured.into_snapshot(), cursor))
    }

    /// Bytes in the active WAL generation (0 for memory-only catalogs);
    /// the server's background checkpointer polls this.
    pub fn wal_bytes(&self) -> u64 {
        self.store.get().map_or(0, |s| s.wal_bytes())
    }

    /// Current durability level (`None` for memory-only catalogs).
    pub fn durability(&self) -> Option<Durability> {
        self.store.get().map(|s| s.durability())
    }

    /// Switch the durability level (`SET DURABILITY OFF|WAL|SYNC`).
    ///
    /// Turning logging back on after `OFF` first checkpoints, because
    /// mutations made while off exist only in memory — the snapshot
    /// folds them in before the fresh WAL starts. Unlike
    /// [`Database::checkpoint`], this transition keeps *both* checkpoint
    /// phases under the catalog write lock: no mutation may slip between
    /// the snapshot and the level change, and the level must not flip on
    /// until the snapshot is durably down (a fresh-WAL record replayed
    /// on top of a base missing the OFF-period state would corrupt
    /// recovery).
    pub fn set_durability(&self, level: Durability) -> Result<()> {
        if level == Durability::Off && self.durability_pinned.load(Ordering::Acquire) {
            return Err(PipError::Unsupported(
                "SET DURABILITY OFF is unavailable while replication is active: \
                 followers are fed from the write-ahead log"
                    .into(),
            ));
        }
        let store = Arc::clone(self.require_store()?);
        let tables = self.tables.write();
        if store.durability() == Durability::Off && level != Durability::Off {
            let captured = self.capture_checkpoint(&tables);
            store.checkpoint(&captured.into_snapshot())?;
        }
        store.set_durability(level);
        Ok(())
    }

    /// Force-collect fresh optimizer statistics for one table (the
    /// `ANALYZE <table>` command).
    pub fn analyze_table(&self, name: &str) -> Result<Arc<TableStats>> {
        let version = self.version();
        let table = self.table(name)?;
        let stats = Arc::new(TableStats::analyze(name, &table, version));
        self.stats
            .write()
            .insert(name.to_string(), Arc::clone(&stats));
        Ok(stats)
    }

    /// Refresh statistics for every table (bare `ANALYZE`), sorted by
    /// table name.
    pub fn analyze_all(&self) -> Result<Vec<Arc<TableStats>>> {
        self.table_names()
            .iter()
            .map(|n| self.analyze_table(n))
            .collect()
    }

    /// Statistics for a table, auto-collected on first use and after any
    /// catalog mutation. An entry is fresh only if its recorded catalog
    /// version matches the current one — coarse for DDL (any such
    /// mutation retires every table's entry), but inserts keep entries
    /// alive through delta maintenance (see [`Database::insert_rows`])
    /// until their column statistics drift past
    /// [`TableStats::COLUMN_STALENESS`], at which point a full
    /// recollection runs here. Never serves statistics older than the
    /// catalog state at the time of this call (the version is read
    /// *after* the cache hit, so a concurrent mutation between the two
    /// reads forces a recollect instead of a stale hit).
    pub fn table_stats(&self, name: &str) -> Result<Arc<TableStats>> {
        if let Some(hit) = self.stats.read().get(name) {
            if hit.version == self.version() && !hit.columns_stale() {
                return Ok(Arc::clone(hit));
            }
        }
        self.analyze_table(name)
    }
}

/// Checkpoint state captured under the catalog write lock — `Arc`
/// handles only, so the lock is held for O(tables) pointer clones, not
/// for serialization or I/O.
struct CheckpointCapture {
    version: u64,
    next_var_id: u64,
    tables: Vec<(String, Arc<CTable>, Option<Arc<TableStats>>)>,
    indexes: Vec<SnapshotIndex>,
}

impl CheckpointCapture {
    /// Materialize the [`Snapshot`] to persist (statistics serialized
    /// here, after the lock is released).
    fn into_snapshot(self) -> Snapshot {
        Snapshot {
            version: self.version,
            next_var_id: self.next_var_id,
            tables: self
                .tables
                .into_iter()
                .map(|(name, table, stats)| SnapshotTable {
                    name,
                    table,
                    stats: stats.map(|s| persist::stats_to_json(&s)),
                })
                .collect(),
            indexes: self.indexes,
        }
    }
}

/// Refuse an append that could not apply: a row whose arity differs
/// from the table's, or an index on the table that does not cover
/// exactly its rows. Checked before the WAL append — a logged record
/// must never fail to apply.
fn check_append(
    table: &CTable,
    indexes: &HashMap<String, IndexEntry>,
    name: &str,
    rows: &[CRow],
) -> Result<()> {
    let arity = table.schema().len();
    if let Some(r) = rows.iter().find(|r| r.cells.len() != arity) {
        return Err(PipError::Schema(format!(
            "row has {} cells, schema has {arity} columns",
            r.cells.len()
        )));
    }
    for (iname, e) in indexes.iter().filter(|(_, e)| e.table == name) {
        if e.index.covered_rows() as usize != table.len() {
            return Err(PipError::Schema(format!(
                "index '{iname}' covers {} rows but table '{name}' has {}",
                e.index.covered_rows(),
                table.len()
            )));
        }
    }
    Ok(())
}

/// Validate an index definition against its table and build the
/// contents. The column must resolve and be `Int` or `Float`: ordered
/// deterministic keys (symbolic cells are tracked separately inside the
/// [`OrderedIndex`]; an index over a `Symbolic` column would degenerate
/// to a full-scan candidate list).
fn build_index_entry(
    name: &str,
    table_name: &str,
    column: &str,
    table: &CTable,
) -> Result<IndexEntry> {
    let pos = table.schema().index_of(column).map_err(|_| {
        PipError::Schema(format!(
            "index '{name}': table '{table_name}' has no column '{column}'"
        ))
    })?;
    let dtype = table.schema().columns()[pos].dtype;
    if !matches!(dtype, DataType::Int | DataType::Float) {
        return Err(PipError::Schema(format!(
            "index '{name}': column '{column}' has type {dtype:?}; \
             CREATE INDEX supports Int and Float columns"
        )));
    }
    Ok(IndexEntry {
        table: table_name.to_string(),
        column: column.to_string(),
        index: Arc::new(OrderedIndex::build(table, pos)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pip_core::{tuple, DataType};

    #[test]
    fn create_insert_read() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        assert!(db.create_table("t", Schema::empty()).is_err());
        db.insert_tuples("t", &[tuple![1i64], tuple![2i64]])
            .unwrap();
        assert_eq!(db.table("t").unwrap().len(), 2);
        assert!(db.table("missing").is_err());
        assert_eq!(db.table_names(), vec!["t"]);
        db.drop_table("t").unwrap();
        assert!(db.drop_table("t").is_err());
    }

    #[test]
    fn create_variable_through_registry() {
        let db = Database::new();
        let v = db.create_variable("Normal", &[0.0, 1.0]).unwrap();
        assert_eq!(v.class.name(), "Normal");
        assert!(db.create_variable("Normal", &[0.0, -1.0]).is_err());
        assert!(db.create_variable("NoSuch", &[]).is_err());
    }

    #[test]
    fn snapshots_are_immutable() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        let before = db.table("t").unwrap();
        db.insert_tuples("t", &[tuple![1i64]]).unwrap();
        assert_eq!(before.len(), 0, "snapshot unaffected by later insert");
        assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn version_tracks_mutations() {
        let db = Database::new();
        let v0 = db.version();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        let v1 = db.version();
        assert!(v1 > v0);
        db.insert_tuples("t", &[tuple![1i64]]).unwrap();
        let v2 = db.version();
        assert!(v2 > v1);
        // Failed mutations leave the version unchanged.
        assert!(db.drop_table("nope").is_err());
        assert_eq!(db.version(), v2);
        db.drop_table("t").unwrap();
        assert!(db.version() > v2);
    }

    #[test]
    fn memory_only_catalog_has_no_store() {
        let db = Database::new();
        assert!(db.store().is_none());
        assert_eq!(db.wal_bytes(), 0);
        assert!(db.durability().is_none());
        assert!(db.checkpoint().is_err());
        assert!(db.set_durability(Durability::Wal).is_err());
    }

    #[test]
    fn insert_maintains_stats_incrementally() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        db.insert_tuples("t", &(0..10i64).map(|i| tuple![i]).collect::<Vec<_>>())
            .unwrap();
        let full = db.table_stats("t").unwrap();
        assert_eq!((full.rows, full.analyzed_rows), (10, 10));

        // A small insert bumps rows in place: same collection (analyzed
        // rows unchanged), fresh version stamp, and the per-column
        // min/max and histogram buckets absorb the new values without a
        // rescan (NDV stays as collected — drift is what staleness
        // tracks).
        db.insert_tuples("t", &[tuple![99i64]]).unwrap();
        let delta = db.table_stats("t").unwrap();
        assert_eq!(delta.rows, 11, "row count delta-maintained");
        assert_eq!(delta.analyzed_rows, 10, "no rescan happened");
        assert_eq!(delta.version, db.version());
        let a = delta.column("a").unwrap();
        assert_eq!(a.n_deterministic, 11, "cell split delta-maintained");
        assert_eq!(a.max, Some(99.0), "max widened by the insert");
        assert_eq!(a.n_distinct, 10.0, "NDV stays as collected");
        let h = a.histogram.as_ref().unwrap();
        assert_eq!(h.total(), 11, "histogram counted the new value");
        assert_eq!(
            full.column("a")
                .unwrap()
                .histogram
                .as_ref()
                .unwrap()
                .total(),
            10,
            "the cached pre-insert entry is untouched"
        );
        assert!(!delta.columns_stale());

        // ANALYZE forces the full recollection.
        let analyzed = db.analyze_table("t").unwrap();
        assert_eq!((analyzed.rows, analyzed.analyzed_rows), (11, 11));
        assert_eq!(analyzed.column("a").unwrap().n_distinct, 11.0);

        // Enough growth trips column-level staleness and recollects.
        db.insert_tuples("t", &(0..5i64).map(|i| tuple![100 + i]).collect::<Vec<_>>())
            .unwrap();
        let grown = db.table_stats("t").unwrap();
        assert_eq!(grown.analyzed_rows, 16, "staleness forced a rescan");
        assert_eq!(grown.column("a").unwrap().n_distinct, 16.0);

        // Non-insert mutations still retire the entry wholesale.
        db.create_table("other", Schema::empty()).unwrap();
        let after_ddl = db.table_stats("t").unwrap();
        assert_eq!(after_ddl.version, db.version());
        assert_eq!(after_ddl.analyzed_rows, 16);
    }

    #[test]
    fn insert_delta_counts_conditional_rows() {
        use pip_expr::{atoms, Conjunction, Equation};
        let db = Database::new();
        db.create_table("t", Schema::of(&[("v", DataType::Symbolic)]))
            .unwrap();
        db.insert_tuples("t", &[tuple![1.0]]).unwrap();
        let s0 = db.table_stats("t").unwrap();
        assert_eq!(s0.conditional_rows, 0);
        let y = db.create_variable("Normal", &[0.0, 1.0]).unwrap();
        db.insert_rows(
            "t",
            vec![CRow::new(
                vec![Equation::from(y.clone())],
                Conjunction::single(atoms::gt(Equation::from(y), 0.0)),
            )],
        )
        .unwrap();
        let s1 = db.table_stats("t").unwrap();
        assert_eq!(s1.rows, 2);
        // 2 rows vs 1 analyzed exceeds the 1.2x threshold → recollected.
        assert_eq!(s1.analyzed_rows, 2);
        assert_eq!(s1.conditional_rows, 1);
    }

    #[test]
    fn index_lifecycle_and_incremental_maintenance() {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]),
        )
        .unwrap();
        db.insert_tuples("t", &(0..10i64).map(|i| tuple![i, "x"]).collect::<Vec<_>>())
            .unwrap();
        db.create_index("idx_k", "t", "k").unwrap();
        // Validation paths.
        assert!(db.create_index("idx_k", "t", "k").is_err(), "duplicate");
        assert!(db.create_index("i2", "zzz", "k").is_err(), "no table");
        assert!(db.create_index("i2", "t", "zzz").is_err(), "no column");
        assert!(db.create_index("i2", "t", "s").is_err(), "non-numeric");
        let entry = db.index("idx_k").unwrap();
        assert_eq!((entry.table.as_str(), entry.column.as_str()), ("t", "k"));
        assert_eq!(entry.index.covered_rows(), 10);
        // Inserts extend the index in place.
        db.insert_tuples("t", &[tuple![42i64, "y"]]).unwrap();
        let entry = db.index("idx_k").unwrap();
        assert_eq!(entry.index.covered_rows(), 11);
        assert_eq!(
            entry.index.equal_candidates(&pip_core::Value::Int(42)),
            vec![10]
        );
        assert_eq!(db.indexes_on("t").len(), 1);
        assert_eq!(db.index_names(), vec!["idx_k"]);
        // Dropping the table takes its indexes with it.
        db.drop_table("t").unwrap();
        assert!(db.index("idx_k").is_none());
        assert!(db.drop_index("idx_k").is_err());
    }

    #[test]
    fn register_table_retires_dependent_indexes() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("k", DataType::Int)]))
            .unwrap();
        db.create_index("idx", "t", "k").unwrap();
        db.register_table("t", CTable::empty(Schema::of(&[("other", DataType::Str)])))
            .unwrap();
        assert!(db.index("idx").is_none(), "stale definition retired");
    }

    #[test]
    fn insert_arity_checked() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        assert!(db.insert_tuples("t", &[tuple![1i64, 2i64]]).is_err());
        assert!(db.insert_tuples("zzz", &[tuple![1i64]]).is_err());
    }

    #[test]
    fn insert_copies_only_a_held_snapshot() {
        let db = Database::new();
        db.create_table("t", Schema::of(&[("a", DataType::Int)]))
            .unwrap();
        let copies = || db.metrics().insert_copies_total.get();
        db.insert_tuples("t", &[tuple![1i64]]).unwrap();
        assert_eq!(copies(), 0, "nothing held: appended in place");
        let held = db.table("t").unwrap();
        db.insert_tuples("t", &[tuple![2i64]]).unwrap();
        assert_eq!(copies(), 1, "a held snapshot is copied first");
        assert_eq!(
            *held,
            CTable::from_tuples(held.schema().clone(), &[tuple![1i64]]).unwrap()
        );
        drop(held);
        db.insert_tuples("t", &[tuple![3i64]]).unwrap();
        assert_eq!(copies(), 1);
        assert_eq!(db.table("t").unwrap().len(), 3);
    }

    mod durable {
        use super::*;
        use pip_expr::{atoms, Conjunction, Equation};
        use std::path::PathBuf;

        fn tmp_dir(tag: &str) -> PathBuf {
            let dir = std::env::temp_dir()
                .join(format!("pip-engine-catalog-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        fn keys(ks: &[i64]) -> Vec<CRow> {
            ks.iter().map(|k| CRow::from_tuple(&tuple![*k])).collect()
        }

        #[test]
        fn held_snapshots_survive_in_place_inserts_and_recovery() {
            let dir = tmp_dir("in-place");
            let db = Database::open(&dir).unwrap();
            db.create_table("t", Schema::of(&[("k", DataType::Int)]))
                .unwrap();
            db.insert_rows("t", keys(&[5, 1, 3])).unwrap();
            db.create_index("idx_k", "t", "k").unwrap();
            let (t0, i0) = (db.table("t").unwrap(), db.index("idx_k").unwrap().index);
            let copies = db.metrics().insert_copies_total.get();
            db.insert_rows("t", keys(&[2, 5, 0])).unwrap();
            db.insert_rows("t", keys(&[4])).unwrap();
            assert_eq!(db.metrics().insert_copies_total.get(), copies + 1);
            // The old handles still see the catalog they were taken from.
            assert_eq!(t0.len(), 3);
            assert_eq!(i0.covered_rows(), 3);
            assert_eq!(*i0, OrderedIndex::build(&t0, 0).unwrap());
            // The new ones see every row.
            let (t1, i1) = (db.table("t").unwrap(), db.index("idx_k").unwrap().index);
            assert_eq!(t1.len(), 7);
            assert_eq!(*i1, OrderedIndex::build(&t1, 0).unwrap());
            assert_eq!(i1.equal_candidates(&pip_core::Value::Int(5)), vec![0, 4]);
            drop(db);
            let (db, _) = Database::recover(&dir).unwrap();
            assert_eq!(*db.table("t").unwrap(), *t1);
            assert_eq!(db.index("idx_k").unwrap().index, i1);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn refused_insert_changes_nothing() {
            let dir = tmp_dir("refused");
            let db = Database::open(&dir).unwrap();
            db.create_table("t", Schema::of(&[("k", DataType::Int)]))
                .unwrap();
            db.create_index("idx_k", "t", "k").unwrap();
            db.insert_rows("t", keys(&[1, 2])).unwrap();
            let (version, wal_bytes) = (db.version(), db.wal_bytes());
            let (table, index) = (
                (*db.table("t").unwrap()).clone(),
                db.index("idx_k").unwrap(),
            );
            let mut rows = keys(&[3]);
            rows.push(CRow::from_tuple(&tuple![4i64, 4i64]));
            assert!(db.insert_rows("t", rows).is_err());
            assert_eq!(db.version(), version);
            assert_eq!(db.wal_bytes(), wal_bytes, "nothing logged");
            assert_eq!(*db.table("t").unwrap(), table);
            assert_eq!(db.index("idx_k").unwrap().index, index.index);
            // An index that does not cover exactly the table's rows (a
            // broken invariant) refuses the insert before the log too.
            let stale = OrderedIndex::build(&CTable::empty(table.schema().clone()), 0).unwrap();
            db.indexes.write().get_mut("idx_k").unwrap().index = Arc::new(stale);
            assert!(db.insert_rows("t", keys(&[3])).is_err());
            assert_eq!((db.version(), db.wal_bytes()), (version, wal_bytes));
            assert_eq!(*db.table("t").unwrap(), table);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn apply_replicated_appends_beside_a_held_snapshot() {
            let dir = tmp_dir("repl-held");
            let follower = Database::open(&dir).unwrap();
            follower.set_read_only(true);
            let records = [
                CatalogRecord::CreateTable {
                    name: "t".into(),
                    schema: Schema::of(&[("k", DataType::Int)]),
                },
                CatalogRecord::CreateIndex {
                    name: "idx_k".into(),
                    table: "t".into(),
                    column: "k".into(),
                },
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: keys(&[3, 1]),
                },
            ];
            for (v, record) in (1..).zip(records) {
                follower
                    .apply_replicated(&WalEntry { version: v, record })
                    .unwrap();
            }
            let (t0, i0) = (
                follower.table("t").unwrap(),
                follower.index("idx_k").unwrap().index,
            );
            let copies = follower.metrics().insert_copies_total.get();
            let insert = |version, rows| {
                follower.apply_replicated(&WalEntry {
                    version,
                    record: CatalogRecord::Insert {
                        name: "t".into(),
                        rows,
                    },
                })
            };
            insert(4, keys(&[2, 0])).unwrap();
            assert_eq!(follower.metrics().insert_copies_total.get(), copies + 1);
            assert_eq!((t0.len(), i0.covered_rows()), (2, 2));
            let t1 = follower.table("t").unwrap();
            assert_eq!(t1.len(), 4);
            assert_eq!(
                *follower.index("idx_k").unwrap().index,
                OrderedIndex::build(&t1, 0).unwrap()
            );
            // A shipped row of the wrong arity is refused before the log.
            let wal_bytes = follower.wal_bytes();
            assert!(insert(5, vec![CRow::from_tuple(&tuple![1i64, 1i64])]).is_err());
            assert_eq!((follower.version(), follower.wal_bytes()), (4, wal_bytes));
            assert_eq!(*follower.table("t").unwrap(), *t1);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn reopen_restores_tables_version_and_variables() {
            let dir = tmp_dir("reopen");
            let (v_key, version_before);
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("t", Schema::of(&[("x", DataType::Symbolic)]))
                    .unwrap();
                let y = db.create_variable("Normal", &[10.0, 2.0]).unwrap();
                v_key = y.key;
                db.insert_rows(
                    "t",
                    vec![CRow::new(
                        vec![Equation::from(y.clone())],
                        Conjunction::single(atoms::gt(Equation::from(y), 8.0)),
                    )],
                )
                .unwrap();
                db.insert_tuples("t", &[tuple![5.0]]).unwrap();
                version_before = db.version();
                assert!(db.wal_bytes() > 0);
            }
            let (db, info) = Database::recover(&dir).unwrap();
            assert_eq!(info.version, version_before);
            assert_eq!(info.replayed, 4, "create + create_variable + 2 inserts");
            assert!(!info.torn_tail);
            assert_eq!(db.version(), version_before, "version survives restart");
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 2);
            let vars = t.variables();
            assert_eq!(vars.len(), 1);
            assert_eq!(vars[0].key, v_key, "variable identity round-trips");
            assert_eq!(&vars[0].params[..], &[10.0, 2.0]);
            // Fresh variables never collide with recovered ones.
            let fresh = db.create_variable("Normal", &[0.0, 1.0]).unwrap();
            assert!(fresh.key.id > v_key.id);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn indexes_survive_recovery_checkpoint_and_replication() {
            let dir = tmp_dir("idx");
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("t", Schema::of(&[("k", DataType::Int)]))
                    .unwrap();
                db.insert_tuples("t", &(0..6i64).map(|i| tuple![i % 3]).collect::<Vec<_>>())
                    .unwrap();
                db.create_index("idx_k", "t", "k").unwrap();
                db.insert_tuples("t", &[tuple![7i64]]).unwrap();
            }
            // WAL replay rebuilds both definition and contents.
            let (db, _) = Database::recover(&dir).unwrap();
            let entry = db.index("idx_k").unwrap();
            assert_eq!(entry.index.covered_rows(), 7);
            assert_eq!(
                entry.index.equal_candidates(&pip_core::Value::Int(7)),
                vec![6]
            );
            // ...and so does a snapshot after the WAL is compacted away.
            db.checkpoint().unwrap();
            drop(db);
            let (db, info) = Database::recover(&dir).unwrap();
            assert_eq!(info.replayed, 0);
            let entry = db.index("idx_k").unwrap();
            assert_eq!(entry.index.covered_rows(), 7);

            // A follower applying the shipped WAL builds the same index.
            let follower_dir = tmp_dir("idx-follower");
            let store = db.store().unwrap();
            let (snapshot, _cursor) = db.capture_replication_snapshot().unwrap();
            let _ = store; // frames are compacted away; ship the snapshot
            let follower = Database::open(&follower_dir).unwrap();
            follower.set_read_only(true);
            follower.install_snapshot(snapshot).unwrap();
            let fe = follower.index("idx_k").unwrap();
            assert_eq!(fe.index, db.index("idx_k").unwrap().index);
            // Replicated inserts and index DDL keep the follower in step.
            let v = follower.version();
            follower
                .apply_replicated(&WalEntry {
                    version: v + 1,
                    record: CatalogRecord::Insert {
                        name: "t".into(),
                        rows: vec![CRow::from_tuple(&tuple![9i64])],
                    },
                })
                .unwrap();
            assert_eq!(follower.index("idx_k").unwrap().index.covered_rows(), 8);
            follower
                .apply_replicated(&WalEntry {
                    version: v + 2,
                    record: CatalogRecord::DropIndex {
                        name: "idx_k".into(),
                    },
                })
                .unwrap();
            assert!(follower.index("idx_k").is_none());
            std::fs::remove_dir_all(&dir).unwrap();
            std::fs::remove_dir_all(&follower_dir).unwrap();
        }

        #[test]
        fn checkpoint_persists_stats_and_compacts_wal() {
            let dir = tmp_dir("ckpt");
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("t", Schema::of(&[("a", DataType::Int)]))
                    .unwrap();
                db.insert_tuples("t", &(0..20i64).map(|i| tuple![i]).collect::<Vec<_>>())
                    .unwrap();
                let _ = db.table_stats("t").unwrap(); // collect fresh stats
                let generation = db.checkpoint().unwrap();
                assert_eq!(generation, 1);
                assert_eq!(db.wal_bytes(), 0);
            }
            let (db, info) = Database::recover(&dir).unwrap();
            assert_eq!(info.snapshot_gen, 1);
            assert_eq!(info.replayed, 0);
            // Persisted statistics are served without a rescan: the
            // entry is fresh at the recovered version.
            let s = db.table_stats("t").unwrap();
            assert_eq!(s.rows, 20);
            assert_eq!(s.version, db.version());

            // A WAL suffix that mutates *another* table must not retire
            // t's persisted statistics: recovery re-stamps surviving
            // blobs at the recovered version.
            db.create_table("other", Schema::of(&[("b", DataType::Int)]))
                .unwrap();
            db.insert_tuples("other", &[tuple![1i64]]).unwrap();
            drop(db);
            let (db, info) = Database::recover(&dir).unwrap();
            assert_eq!(info.replayed, 2, "the create + insert suffix");
            let s = db.table_stats("t").unwrap();
            assert_eq!(s.analyzed_rows, 20, "no rescan of the untouched table");
            assert_eq!(s.version, db.version(), "re-stamped at recovery");
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn durability_off_then_on_checkpoints_the_gap() {
            let dir = tmp_dir("offon");
            {
                let db = Database::open(&dir).unwrap();
                assert_eq!(db.durability(), Some(Durability::Wal));
                db.set_durability(Durability::Off).unwrap();
                // Mutations while off are not logged...
                db.create_table("t", Schema::of(&[("a", DataType::Int)]))
                    .unwrap();
                db.insert_tuples("t", &[tuple![1i64]]).unwrap();
                assert_eq!(db.wal_bytes(), 0);
                // ...but turning logging back on folds them into a
                // snapshot first, so nothing is lost.
                db.set_durability(Durability::Sync).unwrap();
                db.insert_tuples("t", &[tuple![2i64]]).unwrap();
            }
            let (db, _) = Database::recover(&dir).unwrap();
            assert_eq!(db.table("t").unwrap().len(), 2);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn over_deep_symbolic_rows_fail_the_mutation_not_recovery() {
            let dir = tmp_dir("deep");
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("t", Schema::of(&[("x", DataType::Symbolic)]))
                    .unwrap();
                db.insert_tuples("t", &[tuple![1.0]]).unwrap();
                // ~80 chained ops nest past the WAL payload's JSON depth
                // cap: the insert must be refused up front — were it
                // acknowledged, recovery would misread the frame and
                // silently truncate it and everything after it.
                let mut eq = Equation::val(1.0);
                for _ in 0..80 {
                    eq = eq + Equation::val(1.0);
                }
                assert!(db
                    .insert_rows("t", vec![CRow::unconditional(vec![eq])])
                    .is_err());
                assert_eq!(db.table("t").unwrap().len(), 1, "memory unchanged");
                // The log is still append-clean after the refusal.
                db.insert_tuples("t", &[tuple![2.0]]).unwrap();
            }
            let (db, info) = Database::recover(&dir).unwrap();
            assert!(!info.torn_tail);
            assert_eq!(db.table("t").unwrap().len(), 2);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn durability_off_still_refuses_unpersistable_rows() {
            let dir = tmp_dir("deepoff");
            {
                let db = Database::open(&dir).unwrap();
                db.set_durability(Durability::Off).unwrap();
                db.create_table("t", Schema::of(&[("x", DataType::Symbolic)]))
                    .unwrap();
                // Unlogged, but the store's write contract still holds:
                // accepting this row would make every later checkpoint —
                // including this OFF→ON transition — fail while it
                // exists.
                let mut eq = Equation::val(1.0);
                for _ in 0..80 {
                    eq = eq + Equation::val(1.0);
                }
                assert!(db
                    .insert_rows("t", vec![CRow::unconditional(vec![eq])])
                    .is_err());
                db.insert_tuples("t", &[tuple![1.0]]).unwrap();
                db.set_durability(Durability::Sync).unwrap();
            }
            let (db, _) = Database::recover(&dir).unwrap();
            assert_eq!(db.table("t").unwrap().len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn read_only_refuses_every_mutation_but_not_reads() {
            let db = Database::new();
            db.create_table("t", Schema::of(&[("a", DataType::Int)]))
                .unwrap();
            db.insert_tuples("t", &[tuple![1i64]]).unwrap();
            db.set_read_only(true);
            assert!(db.is_read_only());
            assert!(db.create_table("u", Schema::empty()).is_err());
            assert!(db
                .register_table("u", CTable::empty(Schema::empty()))
                .is_err());
            assert!(db.drop_table("t").is_err());
            assert!(db.insert_tuples("t", &[tuple![2i64]]).is_err());
            assert!(db.create_variable("Normal", &[0.0, 1.0]).is_err());
            // Reads — and statistics collection — still work.
            assert_eq!(db.table("t").unwrap().len(), 1);
            assert!(db.table_stats("t").is_ok());
            // PROMOTE semantics: clearing the flag restores writes.
            db.set_read_only(false);
            db.insert_tuples("t", &[tuple![2i64]]).unwrap();
        }

        #[test]
        fn pinned_durability_refuses_off_but_not_other_levels() {
            let dir = tmp_dir("pin");
            let db = Database::open(&dir).unwrap();
            db.pin_durability();
            assert!(db.set_durability(Durability::Off).is_err());
            db.set_durability(Durability::Sync).unwrap();
            db.set_durability(Durability::Wal).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn apply_replicated_mirrors_the_primary_and_persists_locally() {
            let primary_dir = tmp_dir("repl-primary");
            let follower_dir = tmp_dir("repl-follower");
            let primary = Database::open(&primary_dir).unwrap();
            primary
                .create_table("t", Schema::of(&[("x", DataType::Symbolic)]))
                .unwrap();
            let y = primary.create_variable("Normal", &[3.0, 1.0]).unwrap();
            primary
                .insert_rows(
                    "t",
                    vec![CRow::new(
                        vec![Equation::from(y.clone())],
                        Conjunction::single(atoms::gt(Equation::from(y.clone()), 2.0)),
                    )],
                )
                .unwrap();
            primary.insert_tuples("t", &[tuple![5.0]]).unwrap();

            // Ship the primary's WAL to a durable follower, frame by
            // frame, through the apply path.
            let store = primary.store().unwrap();
            let frames = match store
                .read_wal_frames(pip_store::WalCursor::start(0), 64)
                .unwrap()
            {
                pip_store::TailRead::Frames { frames, .. } => frames,
                pip_store::TailRead::Gap => panic!("chain retired"),
            };
            assert_eq!(frames.len(), 4);
            let follower = Database::open(&follower_dir).unwrap();
            follower.set_read_only(true);
            for f in &frames {
                let entry = pip_store::codec::decode_entry(
                    &serde_json::from_str(std::str::from_utf8(&f.payload).unwrap()).unwrap(),
                    follower.registry(),
                )
                .unwrap();
                follower.apply_replicated(&entry).unwrap();
            }
            assert_eq!(follower.version(), primary.version());
            let (pt, ft) = (primary.table("t").unwrap(), follower.table("t").unwrap());
            assert_eq!(*pt, *ft, "tables bit-identical");
            assert_eq!(
                pt.variables()[0].key,
                ft.variables()[0].key,
                "variable identity preserved"
            );
            // An entry behind the applied version is a corrupt feed.
            let stale = WalEntry {
                version: 0,
                record: CatalogRecord::Drop { name: "t".into() },
            };
            assert!(matches!(
                follower.apply_replicated(&stale),
                Err(PipError::Corrupt(_))
            ));
            // The follower's local WAL holds the same history: a restart
            // recovers the same catalog at the same version.
            drop(follower);
            let (recovered, info) = Database::recover(&follower_dir).unwrap();
            assert_eq!(info.version, primary.version());
            assert_eq!(*recovered.table("t").unwrap(), *pt);
            // And fresh ids after recovery never collide with shipped
            // ones.
            recovered.set_read_only(false);
            let fresh = recovered.create_variable("Normal", &[0.0, 1.0]).unwrap();
            assert!(fresh.key.id > pt.variables()[0].key.id);
            std::fs::remove_dir_all(&primary_dir).unwrap();
            std::fs::remove_dir_all(&follower_dir).unwrap();
        }

        #[test]
        fn install_snapshot_replaces_the_catalog_and_checkpoints() {
            let primary_dir = tmp_dir("snap-primary");
            let follower_dir = tmp_dir("snap-follower");
            let primary = Database::open(&primary_dir).unwrap();
            primary
                .create_table("t", Schema::of(&[("a", DataType::Int)]))
                .unwrap();
            primary
                .insert_tuples("t", &(0..8i64).map(|i| tuple![i]).collect::<Vec<_>>())
                .unwrap();
            let _ = primary.table_stats("t").unwrap();
            let (snapshot, cursor) = primary.capture_replication_snapshot().unwrap();
            assert_eq!(snapshot.version, primary.version());
            assert_eq!(cursor, primary.store().unwrap().wal_position());

            let follower = Database::open(&follower_dir).unwrap();
            follower.set_read_only(true);
            // Pre-existing junk on the follower is replaced wholesale.
            follower.set_read_only(false);
            follower.create_table("junk", Schema::empty()).unwrap();
            follower.set_read_only(true);
            follower.install_snapshot(snapshot).unwrap();
            assert_eq!(follower.table_names(), vec!["t"]);
            assert_eq!(follower.version(), primary.version());
            assert_eq!(*follower.table("t").unwrap(), *primary.table("t").unwrap());
            // Shipped statistics serve without a rescan.
            let s = follower.table_stats("t").unwrap();
            assert_eq!(s.analyzed_rows, 8);
            // The install checkpointed locally: a restart recovers the
            // snapshot state with nothing to replay.
            drop(follower);
            let (recovered, info) = Database::recover(&follower_dir).unwrap();
            assert_eq!(info.replayed, 0, "snapshot persisted as a checkpoint");
            assert_eq!(recovered.version(), primary.version());
            assert_eq!(*recovered.table("t").unwrap(), *primary.table("t").unwrap());
            std::fs::remove_dir_all(&primary_dir).unwrap();
            std::fs::remove_dir_all(&follower_dir).unwrap();
        }

        #[test]
        fn failed_mutations_are_not_logged() {
            let dir = tmp_dir("failed");
            {
                let db = Database::open(&dir).unwrap();
                db.create_table("t", Schema::of(&[("a", DataType::Int)]))
                    .unwrap();
                assert!(db.create_table("t", Schema::empty()).is_err());
                assert!(db.insert_tuples("t", &[tuple![1i64, 2i64]]).is_err());
                assert!(db.drop_table("ghost").is_err());
            }
            let (db, info) = Database::recover(&dir).unwrap();
            assert_eq!(info.replayed, 1, "only the successful create");
            assert_eq!(db.table("t").unwrap().len(), 0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
