//! The write-ahead log: an append-only file of length+checksum framed
//! catalog mutations.
//!
//! ```text
//! wal-<gen>.pipwal :=  MAGIC(8) gen(u64 LE)  frame*
//! frame            :=  len(u32 LE) crc32(u32 LE) payload(len bytes)
//! ```
//!
//! `payload` is one [`WalEntry`] JSON document.
//! Replay distinguishes two failure classes:
//!
//! * **frame integrity** (file ends mid-frame, length overruns the file,
//!   CRC mismatch) — the classic torn tail of a crash mid-append. Replay
//!   stops at the last intact frame and the file is truncated there, so
//!   the log is append-clean again;
//! * **payload decode** (an intact, checksummed frame whose payload is
//!   not valid UTF-8/JSON or whose record does not decode — e.g. a
//!   distribution class missing from the recovering registry). The CRC
//!   already vouches the bytes are exactly what was written, so this is
//!   *committed* data the store cannot honour — it surfaces as a hard
//!   [`PipError::Corrupt`] instead of being dropped as a torn tail.
//!
//! Append enforces the reader's acceptance bounds up front — both the
//! frame-size cap (`frame_too_large`) and the JSON nesting cap
//! (`json_too_deep`) — so a record the reader would refuse can never
//! be acknowledged as durable in the first place.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pip_core::{PipError, Result};
use pip_dist::DistributionRegistry;

use crate::codec::{decode_entry, encode_entry, WalEntry};

pub(crate) const WAL_MAGIC: &[u8; 8] = b"PIPWAL01";
pub(crate) const HEADER_LEN: u64 = 16;

/// Appends grow the file in chunks of this size instead of per frame, so
/// a per-record `fdatasync` ([`Durability::Sync`](crate::Durability)) no
/// longer pays the file-growth metadata cost on every append — the size
/// change (and its metadata flush) happens once per chunk. The padding
/// past the last frame is zero bytes, which replay recognises as the
/// clean end of the log (a frame header can never be all-zero: an empty
/// payload is impossible, the shortest JSON document is two bytes).
const PREALLOC_CHUNK: u64 = 256 * 1024;

/// Upper bound on one frame's payload; anything larger on disk is
/// treated as a torn/corrupt length field rather than allocated, so
/// appends reject such payloads up front (see [`frame_too_large`]).
pub(crate) const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Would a payload of `len` bytes exceed what replay accepts as a
/// legitimate frame? Checked before writing — a frame the reader would
/// refuse must never reach the log (and past `u32::MAX` the length
/// field itself would wrap and corrupt everything after it).
pub(crate) fn frame_too_large(len: usize) -> bool {
    len > MAX_FRAME_BYTES as usize
}

/// The shim `serde_json` parser refuses documents whose nodes nest
/// deeper than 128 levels (its `MAX_DEPTH`; the real `serde_json` has
/// the same default recursion limit). A payload the parser would refuse
/// must never be written — see [`json_too_deep`].
pub(crate) const MAX_JSON_DEPTH: usize = 128;

/// Depth headroom the mutation-side guard keeps below the parser cap:
/// an `Insert` row sits one JSON level deeper in a snapshot document
/// (`tables` array → entry → `table` → rows) than in its WAL frame
/// (`op` → body → rows), so every accepted record must stay readable
/// one level below the cap — otherwise the catalog could hold rows that
/// log fine but make every later checkpoint fail.
pub(crate) const SNAPSHOT_DEPTH_HEADROOM: usize = 1;

/// Does any node of `v` sit at depth ≥ `budget` (root at depth 0)? With
/// `budget = MAX_JSON_DEPTH` this is an exact mirror of the parser's
/// refusal. Recursion stops at the budget, so it probes at most
/// `budget` frames deep.
pub(crate) fn json_deeper_than(v: &serde_json::Value, budget: usize) -> bool {
    if budget == 0 {
        return true;
    }
    match v {
        serde_json::Value::Array(items) => items.iter().any(|i| json_deeper_than(i, budget - 1)),
        serde_json::Value::Object(fields) => {
            fields.iter().any(|(_, f)| json_deeper_than(f, budget - 1))
        }
        _ => false,
    }
}

/// Would the parser refuse `v` for nesting too deeply? Checked at
/// encode time (see [`encode_payload`] and snapshot writes), so a
/// record that could not be read back fails loudly instead of being
/// acknowledged and then misread as a torn tail (truncating it — and
/// everything after it — on recovery).
pub(crate) fn json_too_deep(v: &serde_json::Value) -> bool {
    json_deeper_than(v, MAX_JSON_DEPTH)
}

/// The mutation-side depth guard: refuse any record whose encoding —
/// or whose one-level-deeper snapshot re-encoding — the parser would
/// not read back. A CRC-valid frame nested past the cap would fail
/// recovery outright as committed-but-unreadable.
fn check_depth(encoded: &serde_json::Value) -> Result<()> {
    if json_deeper_than(encoded, MAX_JSON_DEPTH - SNAPSHOT_DEPTH_HEADROOM) {
        return Err(PipError::io(format!(
            "catalog mutation serializes to JSON nested deeper than the \
             {}-level WAL payload limit",
            MAX_JSON_DEPTH - SNAPSHOT_DEPTH_HEADROOM
        )));
    }
    Ok(())
}

/// Enforce the write contract on `entry` without serializing it: the
/// durability-`OFF` path, where nothing is written but state the store
/// could never snapshot must still be refused up front — or the next
/// checkpoint (e.g. the `OFF`→`ON` transition) would keep failing for
/// as long as that state exists. Per-frame size is moot here: unlogged
/// state only ever reaches disk through a snapshot, which carries its
/// own size guard.
pub(crate) fn validate_entry(entry: &WalEntry) -> Result<()> {
    check_depth(&encode_entry(entry))
}

/// Encode one entry and enforce the write contract — the JSON nesting
/// cap (with snapshot headroom) and the frame-size cap. A record the
/// reader would refuse must fail the *mutation*, not be written: replay
/// would classify an oversized frame (or, past u32, a lying length
/// field) as a torn tail and silently truncate a record the caller was
/// told is durable.
pub(crate) fn encode_payload(entry: &WalEntry) -> Result<String> {
    let encoded = encode_entry(entry);
    check_depth(&encoded)?;
    let payload =
        serde_json::to_string(&encoded).map_err(|e| PipError::io(format!("WAL encode: {e}")))?;
    if frame_too_large(payload.len()) {
        return Err(PipError::io(format!(
            "catalog mutation serializes to {} bytes, over the {} byte WAL frame limit",
            payload.len(),
            MAX_FRAME_BYTES
        )));
    }
    Ok(payload)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame one payload (length + checksum + bytes).
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Path of generation `gen`'s WAL file.
pub(crate) fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:06}.pipwal"))
}

/// An open, append-position WAL file.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    pub(crate) gen: u64,
    /// Bytes of framed records past the header (the checkpoint trigger).
    /// Together with the header this is the expected end-of-log offset —
    /// the authority on where the next frame belongs, independent of the
    /// file cursor a failed write may have left mid-frame.
    pub(crate) record_bytes: u64,
    /// Current on-disk file length, `>= HEADER_LEN + record_bytes`; the
    /// surplus is zeroed preallocation the next appends overwrite.
    allocated: u64,
    /// Set when a failed append left bytes of unknown content at the
    /// tail *and* truncating them back off also failed. Every further
    /// append is refused: a successful frame landing after garbage would
    /// replay as a torn tail and be silently dropped along with it.
    poisoned: bool,
}

impl WalWriter {
    /// Create generation `gen`'s log (fresh file, header written).
    pub(crate) fn create(dir: &Path, gen: u64) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(wal_path(dir, gen))?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&gen.to_le_bytes())?;
        file.sync_data()?;
        Ok(WalWriter {
            file,
            gen,
            record_bytes: 0,
            allocated: HEADER_LEN,
            poisoned: false,
        })
    }

    /// Reopen generation `gen`'s log for appending, truncating to
    /// `valid_bytes` first (dropping any torn tail — and any zeroed
    /// preallocation — found by replay).
    pub(crate) fn reopen(dir: &Path, gen: u64, valid_bytes: u64) -> Result<WalWriter> {
        let file = OpenOptions::new().write(true).open(wal_path(dir, gen))?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            gen,
            record_bytes: valid_bytes.saturating_sub(HEADER_LEN),
            allocated: valid_bytes,
            poisoned: false,
        })
    }

    /// Make room for `need` more bytes at the tail, extending the file in
    /// [`PREALLOC_CHUNK`] steps. The extension does not move the write
    /// cursor — the padding bytes are zeros until frames overwrite them —
    /// so the subsequent `write_all`/`sync_data` of a frame no longer
    /// changes the file's size (the metadata cost lands here, once per
    /// chunk). Failure is benign: the writer state is untouched and the
    /// zeros past the tail replay as a clean end of log.
    fn ensure_capacity(&mut self, need: u64) -> Result<()> {
        let end = HEADER_LEN + self.record_bytes + need;
        if end > self.allocated {
            let target = end.div_ceil(PREALLOC_CHUNK) * PREALLOC_CHUNK;
            self.file.set_len(target)?;
            self.allocated = target;
        }
        Ok(())
    }

    /// Append one entry. `sync` additionally forces the frame to stable
    /// storage before returning (the `SYNC` durability level).
    #[cfg(test)]
    pub(crate) fn append(&mut self, entry: &WalEntry, sync: bool) -> Result<()> {
        self.append_faulty(entry, sync, false).map(|_| ())
    }

    /// [`WalWriter::append`] with an injectable sync failure: when
    /// `inject_sync_failure` is set and `sync` is requested, the frame is
    /// written and then rolled back exactly as a real failed `sync_data`
    /// would be — the chaos suite's way of exercising the rollback path
    /// on a healthy disk. Returns the appended frame size and the
    /// nanoseconds the fsync took (0 when not syncing), which the store
    /// feeds into its WAL metrics.
    pub(crate) fn append_faulty(
        &mut self,
        entry: &WalEntry,
        sync: bool,
        inject_sync_failure: bool,
    ) -> Result<(u64, u64)> {
        self.ensure_clean_tail()?;
        let payload = encode_payload(entry)?;
        let framed = frame(payload.as_bytes());
        self.ensure_capacity(framed.len() as u64)?;
        if let Err(e) = self.file.write_all(&framed) {
            // A partial write (ENOSPC mid-frame, …) leaves garbage after
            // the last good frame. Roll the tail back before anything
            // else may append: a later acknowledged frame landing after
            // the garbage would replay as part of a torn tail and be
            // silently dropped with it.
            self.truncate_to_tail();
            return Err(e.into());
        }
        let mut fsync_nanos = 0u64;
        if sync {
            if inject_sync_failure {
                self.truncate_to_tail();
                return Err(PipError::Io("injected WAL sync failure".into()));
            }
            let fsync_start = std::time::Instant::now();
            if let Err(e) = self.file.sync_data() {
                // The frame's bytes are complete but their durability is
                // unknown and the caller will abort the mutation — drop
                // the unacknowledged frame so log and catalog agree.
                self.truncate_to_tail();
                return Err(e.into());
            }
            fsync_nanos = fsync_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        }
        self.record_bytes += framed.len() as u64;
        Ok((framed.len() as u64, fsync_nanos))
    }

    /// Restore the file to the last acknowledged frame boundary
    /// (`record_bytes` past the header), discarding whatever a failed
    /// append left behind. Poisons the writer if that itself fails —
    /// and clears the poison when a retry succeeds (e.g. space freed
    /// after a transient ENOSPC).
    fn truncate_to_tail(&mut self) {
        let end = HEADER_LEN + self.record_bytes;
        let restored = self
            .file
            .set_len(end)
            .and_then(|()| self.file.seek(SeekFrom::Start(end)).map(|_| ()));
        if restored.is_ok() {
            // Preallocation was dropped along with the garbage; the next
            // append re-extends.
            self.allocated = end;
        }
        self.poisoned = restored.is_err();
    }

    /// Seal this generation: clean tail enforced, zeroed preallocation
    /// trimmed off, everything synced. After this the file is exactly its
    /// frames — readers (recovery, the replication tailer) can take its
    /// length as the end of the record stream.
    pub(crate) fn seal(&mut self) -> Result<()> {
        self.ensure_clean_tail()?;
        let end = HEADER_LEN + self.record_bytes;
        if self.allocated > end {
            self.file.set_len(end)?;
            self.allocated = end;
        }
        self.sync()
    }

    /// Make sure the file ends exactly at the last acknowledged frame —
    /// re-attempting the rollback a failed append could not complete.
    /// Both appends and checkpoint rotation ([`crate::store::Store`])
    /// go through this: sealing a generation whose tail holds garbage
    /// would let acknowledged frames land after it (in this or the next
    /// generation) and replay as a droppable torn tail.
    pub(crate) fn ensure_clean_tail(&mut self) -> Result<()> {
        if self.poisoned {
            self.truncate_to_tail();
        }
        if self.poisoned {
            return Err(PipError::io(
                "WAL writer is poisoned: a failed append left unknown bytes at the \
                 tail and truncating them failed; reopen the data directory to recover",
            ));
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// One replayed WAL file: its intact entries, the byte offset up to
/// which frames were intact, and whether a torn tail was dropped.
#[derive(Debug)]
pub(crate) struct WalReplay {
    pub(crate) entries: Vec<WalEntry>,
    pub(crate) valid_bytes: u64,
    pub(crate) torn_tail: bool,
}

/// Read and verify one WAL file (see the module docs for the failure
/// taxonomy). A missing file replays as empty.
pub(crate) fn replay_wal(
    dir: &Path,
    gen: u64,
    registry: &DistributionRegistry,
) -> Result<WalReplay> {
    let path = wal_path(dir, gen);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                entries: Vec::new(),
                valid_bytes: HEADER_LEN,
                torn_tail: false,
            })
        }
        Err(e) => return Err(e.into()),
    };
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        return Err(PipError::corrupt(format!(
            "{} has no valid WAL header",
            path.display()
        )));
    }
    let header_gen = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_gen != gen {
        return Err(PipError::corrupt(format!(
            "{} claims generation {header_gen}, expected {gen}",
            path.display()
        )));
    }
    let mut entries = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn_tail = false;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            torn_tail = true;
            break;
        };
        if header.iter().all(|&b| b == 0) {
            // Zeroed bytes where a frame header would start: the file's
            // preallocated (or crash-abandoned, nothing-yet-written)
            // region past the last frame — the clean end of the log, not
            // a tear. A real frame header can never be all-zero: the
            // shortest payload is two bytes.
            break;
        }
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_FRAME_BYTES {
            torn_tail = true;
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            torn_tail = true;
            break;
        };
        if crc32(payload) != crc {
            torn_tail = true;
            break;
        }
        // The CRC vouches these are exactly the bytes that were written,
        // so from here on any failure is committed-but-unreadable data —
        // a hard error, never a torn tail to be silently truncated.
        let text = std::str::from_utf8(payload).map_err(|_| {
            PipError::corrupt(format!(
                "{}: checksummed frame at byte {pos} is not UTF-8",
                path.display()
            ))
        })?;
        let json = serde_json::from_str(text).map_err(|e| {
            PipError::corrupt(format!(
                "{}: checksummed frame at byte {pos} is not valid JSON: {e}",
                path.display()
            ))
        })?;
        entries.push(decode_entry(&json, registry)?);
        pos += 8 + len as usize;
    }
    Ok(WalReplay {
        entries,
        valid_bytes: pos as u64,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CatalogRecord;
    use pip_core::Schema;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pip-store-waltest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(version: u64) -> WalEntry {
        WalEntry {
            version,
            record: CatalogRecord::CreateTable {
                name: format!("t{version}"),
                schema: Schema::empty(),
            },
        }
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_replay() {
        let dir = tmp_dir("append");
        let reg = DistributionRegistry::with_builtins();
        let mut w = WalWriter::create(&dir, 0).unwrap();
        for v in 1..=5 {
            w.append(&entry(v), v % 2 == 0).unwrap();
        }
        w.sync().unwrap();
        let r = replay_wal(&dir, 0, &reg).unwrap();
        assert_eq!(r.entries.len(), 5);
        assert!(!r.torn_tail);
        assert_eq!(r.entries[4], entry(5));
        // Reopen at the valid offset and keep appending.
        let mut w = WalWriter::reopen(&dir, 0, r.valid_bytes).unwrap();
        w.append(&entry(6), true).unwrap();
        let r = replay_wal(&dir, 0, &reg).unwrap();
        assert_eq!(r.entries.len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        let reg = DistributionRegistry::with_builtins();
        let mut w = WalWriter::create(&dir, 3).unwrap();
        for v in 1..=3 {
            w.append(&entry(v), false).unwrap();
        }
        w.sync().unwrap();
        let clean = replay_wal(&dir, 3, &reg).unwrap();
        let path = wal_path(&dir, 3);

        // A crash mid-append: half a frame of garbage at the write
        // cursor (the end of the acknowledged frames — any preallocation
        // padding sits *after* the tear).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(clean.valid_bytes as usize);
        bytes.extend_from_slice(&[0x99, 0x12, 0x00, 0x00, 0xAB]);
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_wal(&dir, 3, &reg).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.entries.len(), 3, "intact prefix survives");
        assert_eq!(r.valid_bytes, clean.valid_bytes);

        // A flipped bit inside the last frame: CRC rejects that frame,
        // earlier frames stand.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(clean.valid_bytes as usize); // drop the garbage tail
        let inside_last_frame = bytes.len() - 12;
        bytes[inside_last_frame] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay_wal(&dir, 3, &reg).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.entries.len(), 2);

        // Reopening for append truncates the bad tail away.
        let w = WalWriter::reopen(&dir, 3, r.valid_bytes).unwrap();
        drop(w);
        let r2 = replay_wal(&dir, 3, &reg).unwrap();
        assert!(!r2.torn_tail);
        assert_eq!(r2.entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn depth_cap_mirrors_the_parser() {
        use serde_json::Value as Json;
        // `n` containers around a scalar put the scalar at depth `n`.
        fn nested(n: usize) -> Json {
            let mut v = Json::Number("1".into());
            for _ in 0..n {
                v = Json::Array(vec![v]);
            }
            v
        }
        for n in [0, 1, 64, MAX_JSON_DEPTH - 1] {
            let v = nested(n);
            assert!(!json_too_deep(&v), "checker refuses depth {n}");
            let text = serde_json::to_string(&v).unwrap();
            assert!(
                serde_json::from_str(&text).is_ok(),
                "parser refuses depth {n}"
            );
        }
        for n in [MAX_JSON_DEPTH, MAX_JSON_DEPTH + 1, 300] {
            let v = nested(n);
            assert!(json_too_deep(&v), "checker accepts depth {n}");
            let text = serde_json::to_string(&v).unwrap();
            assert!(
                serde_json::from_str(&text).is_err(),
                "parser accepts depth {n} the checker refuses"
            );
        }
    }

    #[test]
    fn too_deep_records_fail_the_append_loudly() {
        use pip_core::Value;
        use pip_ctable::CRow;
        use pip_expr::Equation;

        let dir = tmp_dir("deep");
        let reg = DistributionRegistry::with_builtins();
        let deep_insert = |ops: usize| {
            let mut eq = Equation::val(Value::Float(1.0));
            for _ in 0..ops {
                eq = eq + Equation::val(Value::Float(1.0));
            }
            WalEntry {
                version: 1,
                record: CatalogRecord::Insert {
                    name: "t".into(),
                    rows: vec![CRow::unconditional(vec![eq])],
                },
            }
        };
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append(&entry(1), false).unwrap();
        // Each chained binary op adds two JSON levels (object + array);
        // ~80 of them sail past the parser's cap. The reviewer's trap was
        // that this frame *wrote* fine, CRC-verified on replay, then
        // failed the parse and was truncated as a "torn tail" along with
        // every record after it.
        assert!(matches!(
            w.append(&deep_insert(80), false),
            Err(PipError::Io(_))
        ));
        // A deep-but-legal record still fits: the guard mirrors the
        // parser, it does not undercut it.
        w.append(&deep_insert(40), false).unwrap();
        // The refused record reached neither the file nor the counter;
        // the log stays append-clean and replays in full.
        w.append(&entry(2), true).unwrap();
        let r = replay_wal(&dir, 0, &reg).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.entries.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksummed_garbage_is_corrupt_not_torn() {
        let dir = tmp_dir("garbage");
        let reg = DistributionRegistry::with_builtins();
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append(&entry(1), true).unwrap();
        // A CRC-valid frame whose payload is not JSON: the checksum
        // vouches these bytes are exactly what was written, so this is
        // committed-but-unreadable data — a hard error, not a torn tail
        // that silently truncates the record (and everything after it).
        let path = wal_path(&dir, 0);
        let clean = replay_wal(&dir, 0, &reg).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(clean.valid_bytes as usize);
        bytes.extend_from_slice(&frame(b"not json"));
        bytes.extend_from_slice(&frame(b"\xff\xfe"));
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay_wal(&dir, 0, &reg),
            Err(PipError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_the_tail_back() {
        let dir = tmp_dir("rollback");
        let reg = DistributionRegistry::with_builtins();
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append(&entry(1), false).unwrap();
        // Simulate ENOSPC mid-frame: a failed write_all leaves part of a
        // frame after the last good one, with the cursor past it.
        w.file.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        w.truncate_to_tail();
        // Appends continue at the good boundary — were the garbage left
        // in place, this acknowledged record would land after it and
        // replay would drop both as a torn tail.
        w.append(&entry(2), true).unwrap();
        let r = replay_wal(&dir, 0, &reg).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[1], entry(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_writer_heals_once_truncation_succeeds() {
        let dir = tmp_dir("heal");
        let reg = DistributionRegistry::with_builtins();
        let mut w = WalWriter::create(&dir, 0).unwrap();
        w.append(&entry(1), false).unwrap();
        // A failed append left garbage *and* the rollback failed too
        // (e.g. ENOSPC for both); the poison sticks until a rollback
        // lands.
        w.file.write_all(&[0xBA, 0xD0]).unwrap();
        w.poisoned = true;
        // The next append re-attempts the rollback, heals, and appends
        // cleanly — checkpoint rotation goes through the same gate.
        w.append(&entry(2), true).unwrap();
        w.ensure_clean_tail().unwrap();
        let r = replay_wal(&dir, 0, &reg).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.entries.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_replays_empty_but_bad_header_is_corrupt() {
        let dir = tmp_dir("header");
        let reg = DistributionRegistry::with_builtins();
        let r = replay_wal(&dir, 9, &reg).unwrap();
        assert!(r.entries.is_empty());
        std::fs::write(wal_path(&dir, 9), b"not a wal").unwrap();
        assert!(matches!(
            replay_wal(&dir, 9, &reg),
            Err(PipError::Corrupt(_))
        ));
        // Wrong generation stamp in an otherwise valid header.
        let mut hdr = WAL_MAGIC.to_vec();
        hdr.extend_from_slice(&7u64.to_le_bytes());
        std::fs::write(wal_path(&dir, 9), &hdr).unwrap();
        assert!(matches!(
            replay_wal(&dir, 9, &reg),
            Err(PipError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
