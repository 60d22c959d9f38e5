//! The data-directory manager: generations of snapshot + WAL pairs, the
//! recovery protocol, and the append/checkpoint API the engine's catalog
//! drives.
//!
//! A data directory holds, per **generation** `g`:
//!
//! * `snapshot-<g>.pipsnap` — the full catalog at the instant generation
//!   `g` began (generation 0 has no snapshot: the empty catalog);
//! * `wal-<g>.pipwal` — every logical mutation since that instant.
//!
//! **Recovery** picks the newest snapshot that passes verification,
//! then replays every WAL generation ≥ it in ascending order, torn tails
//! truncated (see [`crate::wal`]). Replaying older WAL generations under
//! a newer snapshot is never allowed — their records are already folded
//! into the snapshot. **Checkpoint** runs in two phases: first seal
//! `wal-<g>` and switch appends to `wal-<g+1>` (under the caller's
//! mutation lock), then — with mutations flowing again — write snapshot
//! `g+1` (temp file + rename, so a crash mid-checkpoint leaves
//! generation `g` as the recovery base with the `g`/`g+1` WAL chain
//! intact) and delete generation ≤ `g` files best-effort; leftover old
//! files are ignored (and re-deleted) by the next recovery.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pip_core::{PipError, Result};
use pip_ctable::CTable;
use pip_dist::DistributionRegistry;
use serde_json::Value as Json;

use crate::codec::{CatalogRecord, WalEntry};
use crate::snapshot::{read_snapshot, snapshot_path, write_snapshot, Snapshot};
use crate::wal::{replay_wal, wal_path, WalWriter};

/// How hard an append pushes each record toward stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No logging at all — the in-memory fast path. Re-enabling logging
    /// requires a checkpoint first (the engine does this automatically).
    Off,
    /// Append + OS write on every record; fsync only at checkpoints.
    /// Survives process crashes; an OS crash may lose the last records.
    Wal,
    /// Append + fsync on every record. Survives power loss.
    Sync,
}

impl Durability {
    fn as_u8(self) -> u8 {
        match self {
            Durability::Off => 0,
            Durability::Wal => 1,
            Durability::Sync => 2,
        }
    }

    fn from_u8(b: u8) -> Durability {
        match b {
            0 => Durability::Off,
            2 => Durability::Sync,
            _ => Durability::Wal,
        }
    }

    /// Parse the `SET DURABILITY` argument.
    pub fn parse(s: &str) -> Option<Durability> {
        match s.to_ascii_uppercase().as_str() {
            "OFF" => Some(Durability::Off),
            "WAL" => Some(Durability::Wal),
            "SYNC" => Some(Durability::Sync),
            _ => None,
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Durability::Off => "OFF",
            Durability::Wal => "WAL",
            Durability::Sync => "SYNC",
        })
    }
}

/// Where inside a WAL append an injected fault fires. Used by the
/// replication chaos suite to make storage fail deterministically at the
/// two points a real disk can: before any bytes land ([`FaultPoint::Append`],
/// the clean-refusal path) and after the frame is written but before it is
/// stable ([`FaultPoint::Sync`], the rollback path — the writer truncates
/// the unacknowledged frame back off so log and catalog agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The `write_all` of a framed record.
    Append,
    /// The `sync_data` after a successful write (only reached at
    /// [`Durability::Sync`]).
    Sync,
}

/// A fault-injection hook consulted on every durable append. Returning
/// `true` makes the store behave as if the corresponding I/O operation
/// failed. Production code never installs one.
pub type FaultHook = Arc<dyn Fn(FaultPoint) -> bool + Send + Sync>;

/// The catalog state reconstructed by [`Store::open`].
#[derive(Debug)]
pub struct Recovered {
    /// Tables sorted by name, each with the optimizer-statistics blob
    /// persisted at the last checkpoint (absent when the WAL suffix
    /// mutated the table — those statistics would be stale).
    pub tables: Vec<(String, CTable, Option<Json>)>,
    /// Secondary-index definitions as `(name, table, column)` tuples,
    /// sorted by index name. Only the *definitions* are durable; index
    /// contents are rebuilt from the recovered tables by the engine.
    pub indexes: Vec<(String, String, String)>,
    /// Catalog version at the recovery point (highest stamp seen).
    pub version: u64,
    /// Highest variable id in use anywhere in the recovered catalog;
    /// the id allocator must be reserved through it.
    pub max_var_id: u64,
    /// Snapshot generation recovery started from.
    pub snapshot_gen: u64,
    /// WAL entries replayed on top of the snapshot.
    pub replayed: usize,
    /// True when a torn tail was truncated from the active WAL.
    pub torn_tail: bool,
}

/// WAL and checkpoint metric handles, registered into the owning
/// database's [`pip_obs::Registry`] by [`Store::attach_metrics`]. Until
/// attachment (bare stores in unit tests) nothing is recorded.
#[derive(Debug)]
pub struct StoreMetrics {
    /// Full durable-append latency (lock + frame write + optional fsync).
    pub wal_append_seconds: Arc<pip_obs::Histogram>,
    /// Latency of the per-record `sync_data` at `Durability::Sync`.
    pub wal_fsync_seconds: Arc<pip_obs::Histogram>,
    /// Framed bytes appended to the WAL.
    pub wal_appended_bytes_total: Arc<pip_obs::Counter>,
    /// Completed checkpoints (both phases).
    pub checkpoints_total: Arc<pip_obs::Counter>,
    /// Checkpoint phase 1: seal the old generation, rotate to the new one
    /// (runs under the engine's mutation lock).
    pub checkpoint_seal_seconds: Arc<pip_obs::Histogram>,
    /// Checkpoint phase 2: snapshot write + old-generation retirement.
    pub checkpoint_snapshot_seconds: Arc<pip_obs::Histogram>,
    /// Bytes of snapshot files written by checkpoints.
    pub checkpoint_bytes_total: Arc<pip_obs::Counter>,
}

impl StoreMetrics {
    fn register(r: &pip_obs::Registry) -> StoreMetrics {
        StoreMetrics {
            wal_append_seconds: r.histogram(
                "pip_store_wal_append_seconds",
                "Durable WAL append latency (write + fsync at SYNC).",
            ),
            wal_fsync_seconds: r.histogram(
                "pip_store_wal_fsync_seconds",
                "Per-record fsync latency at SYNC durability.",
            ),
            wal_appended_bytes_total: r.counter(
                "pip_store_wal_appended_bytes_total",
                "Framed bytes appended to the write-ahead log.",
            ),
            checkpoints_total: r.counter(
                "pip_store_checkpoints_total",
                "Completed checkpoints (seal + snapshot phases).",
            ),
            checkpoint_seal_seconds: r.histogram(
                "pip_store_checkpoint_seal_seconds",
                "Checkpoint phase 1 latency: seal old WAL generation and rotate.",
            ),
            checkpoint_snapshot_seconds: r.histogram(
                "pip_store_checkpoint_snapshot_seconds",
                "Checkpoint phase 2 latency: snapshot write and retirement.",
            ),
            checkpoint_bytes_total: r.counter(
                "pip_store_checkpoint_bytes_total",
                "Bytes of checkpoint snapshot files written.",
            ),
        }
    }
}

/// A durable catalog store bound to one data directory.
pub struct Store {
    dir: PathBuf,
    durability: AtomicU8,
    wal: Mutex<WalWriter>,
    /// Base of the retained WAL chain: the newest snapshot's generation
    /// and the catalog version it captured (`(0, 0)` when recovery found
    /// no snapshot — the chain reaches back to the empty catalog). The
    /// replication primary compares a follower's applied version against
    /// this to decide frame catch-up vs snapshot catch-up; see
    /// [`Store::oldest_retained`].
    retained: Mutex<(u64, u64)>,
    /// Replication epoch this data directory last served under (see
    /// [`Store::epoch`]). Persisted in the `epoch` file; `0` until a
    /// promotion ever minted one.
    epoch: AtomicU64,
    /// Optional fault-injection hook (see [`FaultHook`]).
    fault_hook: Mutex<Option<FaultHook>>,
    /// Metric handles, set once by [`Store::attach_metrics`].
    metrics: OnceLock<StoreMetrics>,
}

/// Path of the replication-epoch file.
fn epoch_path(dir: &Path) -> PathBuf {
    dir.join("epoch")
}

/// Read the persisted replication epoch, `0` when the file is absent.
fn read_epoch(dir: &Path) -> Result<u64> {
    match std::fs::read_to_string(epoch_path(dir)) {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| PipError::corrupt(format!("epoch file holds non-numeric data: {s:?}"))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e.into()),
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("durability", &self.durability())
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// Generations present in a data directory, from its file names.
fn scan_generations(dir: &Path) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut snaps = Vec::new();
    let mut wals = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let parse = |prefix: &str, suffix: &str| -> Option<u64> {
            name.strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()
        };
        if let Some(g) = parse("snapshot-", ".pipsnap") {
            snaps.push(g);
        }
        if let Some(g) = parse("wal-", ".pipwal") {
            wals.push(g);
        }
    }
    snaps.sort_unstable();
    wals.sort_unstable();
    Ok((snaps, wals))
}

/// Apply one replayed record to the reconstruction. Impossible applies
/// (insert into a missing table, …) mean the log and the catalog
/// semantics disagree — surfaced as corruption, never papered over.
fn apply(
    tables: &mut std::collections::BTreeMap<String, (CTable, Option<Json>)>,
    indexes: &mut std::collections::BTreeMap<String, (String, String)>,
    record: CatalogRecord,
) -> Result<()> {
    match record {
        CatalogRecord::CreateVariable { .. } => {}
        CatalogRecord::CreateTable { name, schema } => {
            if tables
                .insert(name.clone(), (CTable::empty(schema), None))
                .is_some()
            {
                return Err(PipError::corrupt(format!(
                    "WAL creates table '{name}' twice"
                )));
            }
        }
        CatalogRecord::RegisterTable { name, table } => {
            // A wholesale replacement may change the schema out from
            // under dependent indexes; their definitions die with the
            // old contents (mirrors the engine's register_table).
            indexes.retain(|_, (t, _)| t != &name);
            tables.insert(name, (table, None));
        }
        CatalogRecord::Insert { name, rows } => {
            let (table, stats) = tables.get_mut(&name).ok_or_else(|| {
                PipError::corrupt(format!("WAL inserts into unknown table '{name}'"))
            })?;
            *stats = None;
            for r in rows {
                table.push(r)?;
            }
        }
        CatalogRecord::Drop { name } => {
            if tables.remove(&name).is_none() {
                return Err(PipError::corrupt(format!(
                    "WAL drops unknown table '{name}'"
                )));
            }
            indexes.retain(|_, (table, _)| table != &name);
        }
        CatalogRecord::CreateIndex {
            name,
            table,
            column,
        } => {
            if !tables.contains_key(&table) {
                return Err(PipError::corrupt(format!(
                    "WAL creates index '{name}' on unknown table '{table}'"
                )));
            }
            if indexes.insert(name.clone(), (table, column)).is_some() {
                return Err(PipError::corrupt(format!(
                    "WAL creates index '{name}' twice"
                )));
            }
        }
        CatalogRecord::DropIndex { name } => {
            if indexes.remove(&name).is_none() {
                return Err(PipError::corrupt(format!(
                    "WAL drops unknown index '{name}'"
                )));
            }
        }
    }
    Ok(())
}

impl Store {
    /// Open (creating if needed) a data directory, run recovery, and
    /// return the store with the reconstructed catalog state.
    pub fn open(
        dir: impl Into<PathBuf>,
        registry: &DistributionRegistry,
    ) -> Result<(Store, Recovered)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (snap_gens, wal_gens) = scan_generations(&dir)?;

        // Newest verifiable snapshot wins; a corrupt one falls back to
        // the generation before it (whose WAL chain still reaches the
        // same state when the old files were not yet cleaned up).
        let mut base: Option<(u64, Snapshot)> = None;
        for &g in snap_gens.iter().rev() {
            match read_snapshot(&dir, g, registry) {
                Ok(s) => {
                    base = Some((g, s));
                    break;
                }
                Err(_) => continue,
            }
        }
        let (base_gen, base_snapshot) = match base {
            Some((g, s)) => (g, Some(s)),
            None => (0, None),
        };

        // A fallback (or WAL-only recovery) is only sound when the WAL
        // chain from the chosen base through the newest on-disk artifact
        // is complete — otherwise mutations folded into a now-unreadable
        // snapshot are simply gone, and "recovering" an empty or partial
        // catalog would masquerade as success. The one permissible gap is
        // the base generation's own missing WAL when nothing newer exists
        // (a checkpoint that crashed right after its snapshot rename).
        let newest_artifact = snap_gens
            .iter()
            .chain(wal_gens.iter())
            .copied()
            .max()
            .unwrap_or(base_gen)
            .max(base_gen);
        for g in base_gen..=newest_artifact {
            let missing_base_only = g == base_gen && newest_artifact == base_gen;
            if !wal_gens.contains(&g) && !missing_base_only {
                return Err(PipError::corrupt(format!(
                    "generation {newest_artifact} exists but the WAL chain from \
                     generation {base_gen} is incomplete (wal generation {g} is \
                     missing) — the newest snapshot is unreadable and older \
                     generations were already cleaned up"
                )));
            }
        }

        let mut tables: std::collections::BTreeMap<String, (CTable, Option<Json>)> =
            std::collections::BTreeMap::new();
        let mut indexes: std::collections::BTreeMap<String, (String, String)> =
            std::collections::BTreeMap::new();
        let mut version = 0;
        let mut max_var_id = 0;
        if let Some(snap) = base_snapshot {
            version = snap.version;
            max_var_id = snap.next_var_id.saturating_sub(1);
            for t in snap.tables {
                let table = std::sync::Arc::try_unwrap(t.table).unwrap_or_else(|a| (*a).clone());
                tables.insert(t.name, (table, t.stats));
            }
            for i in snap.indexes {
                indexes.insert(i.name, (i.table, i.column));
            }
        }
        // The retained WAL chain starts at the base snapshot: a follower
        // whose applied version is at or past the snapshot's can catch up
        // from frames alone.
        let retained = (base_gen, version);

        // Replay WAL generations ≥ the snapshot generation, in order. A
        // torn tail is only tolerable when no *later* generation holds
        // records — a hole in the middle of the record stream would
        // silently drop mutations that later records build on. (A torn
        // generation followed by *empty* later files is fine, and the
        // store produces exactly that: a checkpoint whose snapshot write
        // failed leaves an empty next-generation WAL behind while
        // appends — and a later crash — continue on the current one.)
        let replay_gens: Vec<u64> = wal_gens
            .iter()
            .copied()
            .filter(|&g| g >= base_gen)
            .chain(std::iter::once(base_gen))
            .collect::<std::collections::BTreeSet<u64>>()
            .into_iter()
            .collect();
        let replays: Vec<(u64, crate::wal::WalReplay)> = replay_gens
            .iter()
            .map(|&g| Ok((g, replay_wal(&dir, g, registry)?)))
            .collect::<Result<_>>()?;
        for (i, (g, r)) in replays.iter().enumerate() {
            let later_has_records = replays[i + 1..].iter().any(|(_, l)| !l.entries.is_empty());
            if r.torn_tail && later_has_records {
                return Err(PipError::corrupt(format!(
                    "wal generation {g} has a torn tail but later generations hold records"
                )));
            }
            if r.torn_tail && i + 1 != replays.len() {
                // Tolerated torn tail on a non-final generation: drop it
                // now, or the next recovery — by which time the active
                // generation may hold records — would refuse to start.
                // (The final generation is truncated by the reopen below.)
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(wal_path(&dir, *g))?
                    .set_len(r.valid_bytes)?;
            }
        }
        let mut replayed = 0;
        let mut torn_tail = false;
        let mut active = None;
        for (g, r) in replays {
            torn_tail |= r.torn_tail;
            for entry in r.entries {
                version = version.max(entry.version);
                if let CatalogRecord::CreateVariable { id, .. } = &entry.record {
                    max_var_id = max_var_id.max(*id);
                }
                apply(&mut tables, &mut indexes, entry.record)?;
                replayed += 1;
            }
            active = Some((g, r.valid_bytes));
        }
        // Variables embedded in recovered cells (allocated during INSERT
        // evaluation, never through CREATE_VARIABLE) also pin the id
        // allocator floor.
        for (table, _) in tables.values() {
            for v in table.variables() {
                max_var_id = max_var_id.max(v.key.id.0);
            }
        }

        let (active_gen, valid_bytes) = active.expect("at least the base generation");
        let wal = if wal_path(&dir, active_gen).exists() {
            WalWriter::reopen(&dir, active_gen, valid_bytes)?
        } else {
            WalWriter::create(&dir, active_gen)?
        };

        let epoch = read_epoch(&dir)?;
        let store = Store {
            dir,
            durability: AtomicU8::new(Durability::Wal.as_u8()),
            wal: Mutex::new(wal),
            retained: Mutex::new(retained),
            epoch: AtomicU64::new(epoch),
            fault_hook: Mutex::new(None),
            metrics: OnceLock::new(),
        };
        let recovered = Recovered {
            tables: tables
                .into_iter()
                .map(|(name, (table, stats))| (name, table, stats))
                .collect(),
            indexes: indexes
                .into_iter()
                .map(|(name, (table, column))| (name, table, column))
                .collect(),
            version,
            max_var_id,
            snapshot_gen: base_gen,
            replayed,
            torn_tail,
        };
        Ok((store, recovered))
    }

    /// The data directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn durability(&self) -> Durability {
        Durability::from_u8(self.durability.load(Ordering::Acquire))
    }

    /// Switch the durability level. Transitions *out of* [`Durability::Off`]
    /// must be preceded by a checkpoint (unlogged mutations are only in
    /// memory) — [the engine's catalog] owns that protocol.
    pub fn set_durability(&self, d: Durability) {
        self.durability.store(d.as_u8(), Ordering::Release);
    }

    /// Append one mutation record; fsyncs per record at
    /// [`Durability::Sync`]. At [`Durability::Off`] nothing is written —
    /// no lock, no I/O, no serialization — but the record is still
    /// *validated* against the write contract (JSON nesting): a
    /// mutation the store could never snapshot must be refused even
    /// while unlogged, or the catalog would accept state that makes
    /// every later checkpoint — including the `OFF`→`ON` transition —
    /// fail for as long as it exists.
    pub fn append(&self, entry: &WalEntry) -> Result<()> {
        let durability = self.durability();
        if durability == Durability::Off {
            return crate::wal::validate_entry(entry);
        }
        let hook = self
            .fault_hook
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Some(h) = &hook {
            if h(FaultPoint::Append) {
                return Err(PipError::Io("injected WAL append failure".into()));
            }
        }
        let inject_sync = hook.map(|h| h(FaultPoint::Sync)).unwrap_or(false);
        let start = Instant::now();
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let (bytes, fsync_nanos) =
            wal.append_faulty(entry, durability == Durability::Sync, inject_sync)?;
        if let Some(m) = self.metrics.get() {
            m.wal_append_seconds.observe_since(start);
            m.wal_appended_bytes_total.add(bytes);
            if fsync_nanos > 0 {
                m.wal_fsync_seconds.observe_nanos(fsync_nanos);
            }
        }
        Ok(())
    }

    /// Register this store's WAL/checkpoint metrics into `registry`.
    /// Idempotent; later calls are no-ops. The engine's `Database` calls
    /// this with its own registry right after recovery.
    pub fn attach_metrics(&self, registry: &pip_obs::Registry) {
        let _ = self.metrics.set(StoreMetrics::register(registry));
    }

    /// Install (or with `None`, remove) the fault-injection hook
    /// consulted by [`Store::append`]. Test-harness machinery — see
    /// [`FaultHook`].
    pub fn set_fault_hook(&self, hook: Option<FaultHook>) {
        *self.fault_hook.lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Replication epoch this data directory last served under. `0`
    /// means no promotion ever minted one; a follower adopts its
    /// primary's epoch, and `PROMOTE` mints `epoch + 1`. Persisted so a
    /// restarted deposed primary still refuses feeds from its past.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Raise the persisted replication epoch to `epoch` (monotonic:
    /// lower values are ignored). Temp-file + rename, so a crash leaves
    /// either the old or the new value, never a torn file.
    pub fn set_epoch(&self, epoch: u64) -> Result<()> {
        if epoch <= self.epoch.load(Ordering::Acquire) {
            return Ok(());
        }
        let tmp = self.dir.join("epoch.tmp");
        std::fs::write(&tmp, format!("{epoch}\n"))?;
        std::fs::rename(&tmp, epoch_path(&self.dir))?;
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        Ok(())
    }

    /// Bytes of records in the active WAL generation (the background
    /// checkpoint trigger).
    pub fn wal_bytes(&self) -> u64 {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record_bytes
    }

    /// Active generation number.
    pub fn generation(&self) -> u64 {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).gen
    }

    /// Base of the retained WAL chain as `(generation, version)`: the
    /// newest snapshot's generation and the catalog version it captured.
    /// A replication follower whose applied version is `>=` that version
    /// can catch up from WAL frames alone (starting at that generation's
    /// first frame); anything older needs a snapshot transfer — the
    /// frames that would bring it forward were deleted with the
    /// pre-snapshot generations.
    pub fn oldest_retained(&self) -> (u64, u64) {
        *self.retained.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The acknowledged end of the WAL chain: active generation plus the
    /// offset just past its last acknowledged frame. Frames at or beyond
    /// this position either do not exist yet or are unacknowledged
    /// in-flight writes a tailer must not ship.
    pub(crate) fn acknowledged_end(&self) -> (u64, u64) {
        let wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        (wal.gen, crate::wal::HEADER_LEN + wal.record_bytes)
    }

    /// Current tail position of the WAL chain as a [`WalCursor`](crate::WalCursor) — where
    /// a replication feed that is fully caught up would stand.
    pub fn wal_position(&self) -> crate::tail::WalCursor {
        let (gen, offset) = self.acknowledged_end();
        crate::tail::WalCursor { gen, offset }
    }

    /// Checkpoint phase 1: seal the current WAL generation and switch
    /// appends to a fresh one. Returns the new generation, whose
    /// snapshot the caller must then produce with
    /// [`Store::finish_checkpoint`].
    ///
    /// The caller must hold its mutation lock across this call and
    /// capture the snapshot state inside the same critical section, so
    /// that the snapshot reflects exactly the records in generations
    /// `< new_gen` — every later mutation lands in the new generation's
    /// WAL. The snapshot *write* needs no such exclusion: until it
    /// lands, recovery starts from the previous snapshot and replays the
    /// old generation's (synced, complete) WAL plus the new one.
    pub fn begin_checkpoint(&self) -> Result<u64> {
        let start = Instant::now();
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        // A generation must not be sealed with garbage from a failed
        // append at its tail (were the snapshot write then to fail or
        // crash, recovery would find a torn generation followed by one
        // holding acknowledged records, and refuse to start), nor with
        // zeroed preallocation padding (readers take a sealed file's
        // length as the end of its record stream). And everything the
        // snapshot will supersede must be durable before the old
        // generation becomes eligible for deletion. `seal` does all
        // three: clean tail, trim, sync.
        wal.seal()?;
        let new_gen = wal.gen + 1;
        // Rotation order is load-bearing: the new generation's (empty)
        // WAL is created *before* its snapshot can exist, so once the
        // snapshot rename makes recovery start at `new_gen`, the file
        // appends go to is guaranteed to be part of the replay chain.
        // If creation fails, the writer stays on the old generation —
        // still the recovery base — and no acknowledged append can land
        // in a generation recovery ignores.
        let new_writer = WalWriter::create(&self.dir, new_gen)?;
        *wal = new_writer;
        if let Some(m) = self.metrics.get() {
            m.checkpoint_seal_seconds.observe_since(start);
        }
        Ok(new_gen)
    }

    /// Checkpoint phase 2: write generation `gen`'s snapshot and retire
    /// the generations it supersedes. Runs without blocking appends. On
    /// failure the store keeps operating on `gen`'s WAL with the
    /// previous snapshot as recovery base — nothing was deleted.
    pub fn finish_checkpoint(&self, gen: u64, snapshot: &Snapshot) -> Result<()> {
        let start = Instant::now();
        write_snapshot(&self.dir, gen, snapshot)?;
        // The retained chain now starts here. Advance *before* deleting:
        // a tailer that consults the stale (smaller) base merely takes an
        // unnecessary snapshot path, while the reverse order would let it
        // commit to reading files about to disappear.
        *self.retained.lock().unwrap_or_else(|e| e.into_inner()) = (gen, snapshot.version);
        // Older generations are now redundant; removal is best-effort
        // (recovery ignores generations older than the newest snapshot).
        if let Ok((snaps, wals)) = scan_generations(&self.dir) {
            for g in snaps.into_iter().filter(|&g| g < gen) {
                let _ = std::fs::remove_file(snapshot_path(&self.dir, g));
            }
            for g in wals.into_iter().filter(|&g| g < gen) {
                let _ = std::fs::remove_file(wal_path(&self.dir, g));
            }
        }
        if let Some(m) = self.metrics.get() {
            m.checkpoint_snapshot_seconds.observe_since(start);
            m.checkpoints_total.inc();
            if let Ok(meta) = std::fs::metadata(snapshot_path(&self.dir, gen)) {
                m.checkpoint_bytes_total.add(meta.len());
            }
        }
        Ok(())
    }

    /// Write a checkpoint and switch to a fresh WAL generation — both
    /// phases back to back ([`Store::begin_checkpoint`] +
    /// [`Store::finish_checkpoint`]).
    ///
    /// The caller must guarantee `snapshot` reflects every record
    /// appended so far and that no append races this call (the engine
    /// holds its catalog write lock across it). Returns the new
    /// generation.
    pub fn checkpoint(&self, snapshot: &Snapshot) -> Result<u64> {
        let new_gen = self.begin_checkpoint()?;
        self.finish_checkpoint(new_gen, snapshot)?;
        Ok(new_gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotTable;
    use pip_core::{DataType, Schema, Value};
    use pip_ctable::CRow;
    use pip_expr::Equation;
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pip-store-storetest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reg() -> DistributionRegistry {
        DistributionRegistry::with_builtins()
    }

    fn row(i: i64) -> CRow {
        CRow::unconditional(vec![Equation::val(Value::Int(i))])
    }

    fn entry(version: u64, record: CatalogRecord) -> WalEntry {
        WalEntry { version, record }
    }

    #[test]
    fn wal_only_recovery_reconstructs_tables() {
        let dir = tmp_dir("walonly");
        let registry = reg();
        {
            let (store, recovered) = Store::open(&dir, &registry).unwrap();
            assert_eq!(recovered.tables.len(), 0);
            store
                .append(&entry(
                    1,
                    CatalogRecord::CreateTable {
                        name: "t".into(),
                        schema: Schema::of(&[("a", DataType::Int)]),
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    2,
                    CatalogRecord::Insert {
                        name: "t".into(),
                        rows: vec![row(1), row(2)],
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    3,
                    CatalogRecord::CreateTable {
                        name: "gone".into(),
                        schema: Schema::empty(),
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    4,
                    CatalogRecord::Drop {
                        name: "gone".into(),
                    },
                ))
                .unwrap();
        }
        let (store, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.version, 4);
        assert_eq!(recovered.replayed, 4);
        assert_eq!(recovered.tables.len(), 1);
        let (name, table, stats) = &recovered.tables[0];
        assert_eq!(name, "t");
        assert_eq!(table.len(), 2);
        assert!(stats.is_none());
        assert!(!recovered.torn_tail);
        // Appends continue on the recovered log.
        store
            .append(&entry(
                5,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row(3)],
                },
            ))
            .unwrap();
        drop(store);
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.tables[0].1.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_rotates() {
        let dir = tmp_dir("ckpt");
        let registry = reg();
        let (store, _) = Store::open(&dir, &registry).unwrap();
        store
            .append(&entry(
                1,
                CatalogRecord::CreateTable {
                    name: "t".into(),
                    schema: Schema::of(&[("a", DataType::Int)]),
                },
            ))
            .unwrap();
        let mut t = CTable::empty(Schema::of(&[("a", DataType::Int)]));
        t.push(row(10)).unwrap();
        let gen = store
            .checkpoint(&Snapshot {
                version: 7,
                next_var_id: 42,
                tables: vec![SnapshotTable {
                    name: "t".into(),
                    table: Arc::new(t),
                    stats: None,
                }],
                indexes: vec![],
            })
            .unwrap();
        assert_eq!(gen, 1);
        assert_eq!(store.wal_bytes(), 0, "fresh generation after checkpoint");
        assert!(!wal_path(&dir, 0).exists(), "old generation cleaned up");
        store
            .append(&entry(
                8,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row(11)],
                },
            ))
            .unwrap();
        drop(store);
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.snapshot_gen, 1);
        assert_eq!(recovered.version, 8);
        assert_eq!(recovered.replayed, 1, "only the post-checkpoint suffix");
        assert_eq!(recovered.tables[0].1.len(), 2);
        assert_eq!(recovered.max_var_id, 41, "allocator watermark restored");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_between_checkpoint_phases_land_in_the_new_generation() {
        let dir = tmp_dir("phases");
        let registry = reg();
        let (store, _) = Store::open(&dir, &registry).unwrap();
        let schema = Schema::of(&[("a", DataType::Int)]);
        store
            .append(&entry(
                1,
                CatalogRecord::CreateTable {
                    name: "t".into(),
                    schema: schema.clone(),
                },
            ))
            .unwrap();
        // Phase 1 under the (simulated) catalog lock: capture = empty
        // table t, rotate. Phase 2 runs with mutations flowing again.
        let gen = store.begin_checkpoint().unwrap();
        store
            .append(&entry(
                2,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row(1)],
                },
            ))
            .unwrap();
        store
            .finish_checkpoint(
                gen,
                &Snapshot {
                    version: 1,
                    next_var_id: 1,
                    tables: vec![SnapshotTable {
                        name: "t".into(),
                        table: Arc::new(CTable::empty(schema)),
                        stats: None,
                    }],
                    indexes: vec![],
                },
            )
            .unwrap();
        assert!(!wal_path(&dir, 0).exists(), "old generation cleaned up");
        drop(store);
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.snapshot_gen, 1);
        assert_eq!(recovered.replayed, 1, "the insert landed in wal-1");
        assert_eq!(recovered.tables[0].1.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_checkpoint_phases_recovers_from_the_wal_chain() {
        let dir = tmp_dir("halfckpt");
        let registry = reg();
        {
            let (store, _) = Store::open(&dir, &registry).unwrap();
            store
                .append(&entry(
                    1,
                    CatalogRecord::CreateTable {
                        name: "t".into(),
                        schema: Schema::of(&[("a", DataType::Int)]),
                    },
                ))
                .unwrap();
            let _gen = store.begin_checkpoint().unwrap();
            // The snapshot write never happens (crash / write failure);
            // acknowledged appends meanwhile went to the new generation.
            store
                .append(&entry(
                    2,
                    CatalogRecord::Insert {
                        name: "t".into(),
                        rows: vec![row(7)],
                    },
                ))
                .unwrap();
        }
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.snapshot_gen, 0, "previous base still rules");
        assert_eq!(recovered.replayed, 2, "both generations replayed");
        assert_eq!(recovered.tables[0].1.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_off_appends_nothing_but_still_validates() {
        let dir = tmp_dir("off");
        let registry = reg();
        let (store, _) = Store::open(&dir, &registry).unwrap();
        store.set_durability(Durability::Off);
        store
            .append(&entry(
                1,
                CatalogRecord::CreateTable {
                    name: "t".into(),
                    schema: Schema::empty(),
                },
            ))
            .unwrap();
        assert_eq!(store.wal_bytes(), 0);
        assert_eq!(store.durability(), Durability::Off);
        // Unlogged mutations still honour the write contract: a record
        // the store could never log or snapshot is refused up front —
        // otherwise the OFF→ON checkpoint would fail for as long as the
        // offending state existed.
        let mut eq = pip_expr::Equation::val(Value::Float(1.0));
        for _ in 0..80 {
            eq = eq + pip_expr::Equation::val(Value::Float(1.0));
        }
        assert!(store
            .append(&entry(
                2,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![CRow::unconditional(vec![eq])],
                },
            ))
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let dir = tmp_dir("fallback");
        let registry = reg();
        let (store, _) = Store::open(&dir, &registry).unwrap();
        store
            .append(&entry(
                1,
                CatalogRecord::CreateTable {
                    name: "t".into(),
                    schema: Schema::of(&[("a", DataType::Int)]),
                },
            ))
            .unwrap();
        store
            .append(&entry(
                2,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row(1)],
                },
            ))
            .unwrap();
        drop(store);
        // Forge a corrupt generation-1 snapshot *with* its WAL present
        // (a checkpoint whose cleanup never ran, then bit rot): the
        // chain from generation 0 is complete, so recovery falls back
        // and rebuilds the same state from wal-0 + wal-1.
        std::fs::write(snapshot_path(&dir, 1), b"PIPSNAP1garbage").unwrap();
        WalWriter::create(&dir, 1).unwrap();
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.snapshot_gen, 0);
        assert_eq!(recovered.tables.len(), 1);
        assert_eq!(recovered.tables[0].1.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_tolerated_and_truncated_when_later_generations_are_empty() {
        // A failed checkpoint leaves an empty next-generation WAL while
        // appends continue on the current one; a later crash then tears
        // the *non-final* generation. Recovery must accept (nothing
        // after the tear exists) and truncate the tear away so the next
        // recovery — active generation now holding records — accepts too.
        let dir = tmp_dir("stray");
        let registry = reg();
        {
            let (store, _) = Store::open(&dir, &registry).unwrap();
            store
                .append(&entry(
                    1,
                    CatalogRecord::CreateTable {
                        name: "t".into(),
                        schema: Schema::of(&[("a", DataType::Int)]),
                    },
                ))
                .unwrap();
        }
        WalWriter::create(&dir, 1).unwrap(); // the stray empty generation
        let wal0 = wal_path(&dir, 0);
        // The tear sits at the write cursor — the end of the acknowledged
        // frames, before any preallocation padding.
        let clean = replay_wal(&dir, 0, &registry).unwrap();
        let mut bytes = std::fs::read(&wal0).unwrap();
        bytes.truncate(clean.valid_bytes as usize);
        bytes.extend_from_slice(&[0x13, 0x37, 0x00]);
        std::fs::write(&wal0, &bytes).unwrap();

        let (store, recovered) = Store::open(&dir, &registry).unwrap();
        assert!(recovered.torn_tail);
        assert_eq!(recovered.tables.len(), 1);
        // New records land in the active (stray) generation...
        store
            .append(&entry(
                2,
                CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![row(5)],
                },
            ))
            .unwrap();
        drop(store);
        // ...and the truncated generation 0 no longer reads as torn, so
        // the now-populated later generation is not refused.
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.tables[0].1.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_without_a_wal_chain_is_a_hard_error() {
        let dir = tmp_dir("nochain");
        let registry = reg();
        {
            let (store, _) = Store::open(&dir, &registry).unwrap();
            store
                .append(&entry(
                    1,
                    CatalogRecord::CreateTable {
                        name: "t".into(),
                        schema: Schema::empty(),
                    },
                ))
                .unwrap();
        }
        // The steady state after a checkpoint is one snapshot + one WAL;
        // if that snapshot rots, no older generation can reconstruct the
        // catalog. Recovery must refuse — silently "recovering" an empty
        // catalog would be data loss dressed up as success.
        std::fs::write(snapshot_path(&dir, 5), b"PIPSNAP1garbage").unwrap();
        assert!(matches!(
            Store::open(&dir, &registry),
            Err(PipError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_definitions_survive_wal_replay_and_checkpoint() {
        let dir = tmp_dir("idxdefs");
        let registry = reg();
        let schema = Schema::of(&[("a", DataType::Int)]);
        {
            let (store, _) = Store::open(&dir, &registry).unwrap();
            store
                .append(&entry(
                    1,
                    CatalogRecord::CreateTable {
                        name: "t".into(),
                        schema: schema.clone(),
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    2,
                    CatalogRecord::CreateIndex {
                        name: "idx_a".into(),
                        table: "t".into(),
                        column: "a".into(),
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    3,
                    CatalogRecord::CreateIndex {
                        name: "idx_gone".into(),
                        table: "t".into(),
                        column: "a".into(),
                    },
                ))
                .unwrap();
            store
                .append(&entry(
                    4,
                    CatalogRecord::DropIndex {
                        name: "idx_gone".into(),
                    },
                ))
                .unwrap();
        }
        // WAL-only recovery replays the definitions.
        let (store, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(
            recovered.indexes,
            vec![("idx_a".into(), "t".into(), "a".into())]
        );
        // ...and a checkpoint carries them in the snapshot once the old
        // WAL generations are gone.
        store
            .checkpoint(&Snapshot {
                version: 4,
                next_var_id: 1,
                tables: vec![SnapshotTable {
                    name: "t".into(),
                    table: Arc::new(CTable::empty(schema)),
                    stats: None,
                }],
                indexes: vec![crate::snapshot::SnapshotIndex {
                    name: "idx_a".into(),
                    table: "t".into(),
                    column: "a".into(),
                }],
            })
            .unwrap();
        drop(store);
        let (store, recovered) = Store::open(&dir, &registry).unwrap();
        assert_eq!(recovered.snapshot_gen, 1);
        assert_eq!(
            recovered.indexes,
            vec![("idx_a".into(), "t".into(), "a".into())]
        );
        // Dropping the table takes its dependent definitions with it.
        store
            .append(&entry(5, CatalogRecord::Drop { name: "t".into() }))
            .unwrap();
        drop(store);
        let (_, recovered) = Store::open(&dir, &registry).unwrap();
        assert!(recovered.indexes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_are_rejected_before_they_reach_the_log() {
        // The append-side guard mirrors the replay-side acceptance
        // bound exactly: anything the reader would classify as a torn
        // length field must fail the mutation instead of being written.
        use crate::wal::frame_too_large;
        assert!(!frame_too_large(0));
        assert!(!frame_too_large(1 << 30));
        assert!(frame_too_large((1 << 30) + 1));
        assert!(frame_too_large(u32::MAX as usize + 1));
    }
}
