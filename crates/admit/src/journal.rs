//! Write-ahead journal: CRC-framed event records and engine snapshots.
//!
//! The admission engine's durability layer. Every successfully applied
//! event is appended to the journal — *before* the serving layer
//! acknowledges the decision — as a CRC-framed record; periodically the
//! engine embeds a snapshot of its deterministic state in the same file:
//! a *complete* one the first time a process writes to the file, and from
//! then on *deltas* that carry the bounded state in full but only the
//! history (departed ids, decisions) added since the previous snapshot, so
//! the file grows linearly with the session. Recovery is then `last
//! complete snapshot + the deltas after it, folded in order +
//! deterministic replay of the event tail after the last of them`, which
//! reproduces the decision log bit-for-bit (the engine's determinism
//! contract, extended across a crash boundary).
//!
//! ## Frame format
//!
//! Each record is one frame, fields little-endian:
//!
//! ```text
//! [magic 0xA6: u8][kind: u8][len: u32][crc32: u32][payload: len bytes]
//! ```
//!
//! `kind` is `E` (applied event), `O` (decision outcome), `S` (engine
//! snapshot), `B` (epoch begin), `X` (domain export), or `I` (domain
//! import); the CRC (IEEE 802.3) covers the kind
//! byte and the payload, so a bit flip anywhere in a frame's content is
//! detected. Payloads are UTF-8 text:
//!
//! * `E` — `n <event line>` or `f <event line>`, where the flag records
//!   whether the event was applied on the normal or the degraded
//!   (backpressure fast) path and the event line is the single-event
//!   trace format of `rt_model::io::format_event` (shortest round-trip
//!   float formatting, so replay sees bit-identical parameters).
//! * `O` — `<at:bits-hex> <task> <A|R|S|M> <domain|->`: the decision
//!   audit trail. Recovery *ignores* outcome records — decisions are
//!   reconstructed by replaying `E` records — they exist so external
//!   tooling can audit what was decided without an engine.
//! * `S` — the engine snapshot text (see
//!   [`AdmissionEngine::encode_snapshot`](crate::AdmissionEngine::encode_snapshot)).
//!   Its second line, `base <departed> <decisions>`, states how much
//!   history the record *extends*: `base 0 0` is complete and anchors a
//!   recovery by itself; anything else is a delta on the `S` record
//!   before it and is refused on any other state. The first `S` after a
//!   journal is attached (fresh file, recovery, promotion) is complete, so
//!   a writer never has to reconstruct what an earlier process covered.
//! * `B` — the decimal epoch number under which every following record
//!   was written. A server stamps one when it begins (or resumes) serving
//!   as primary; replication followers use it to fence off late writes
//!   from a deposed primary (see the `replication` module).
//! * `X` — `<local> <payload>`: the domain at local index `local` was
//!   exported (live resharding); the payload is the migration payload of
//!   [`AdmissionEngine::export_domain`](crate::AdmissionEngine::export_domain).
//!   Replay re-fences and re-clears the domain so a recovered source
//!   shard cannot resurrect migrated state.
//! * `I` — `<key> <payload>`: a migrated domain was imported under the
//!   given idempotency key. Replay re-imports it, so the target shard's
//!   recovery rebuilds the post-migration shape.
//!
//! ## Torn-tail tolerance
//!
//! [`scan`] walks frames until the first invalid one (bad magic, short
//! frame, CRC mismatch, or non-UTF-8 payload) and reports the valid
//! prefix plus how much was lost. A crash can tear at most the final
//! record (the file is append-only and written frame-at-a-time), but the
//! scanner also survives grosser corruption — anything after the first
//! invalid byte is counted as lost and truncated away when the journal
//! reopens for append.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use rt_model::io::EventRecord;

use crate::engine::Decision;

/// First byte of every frame; resynchronisation anchor for loss counting.
pub const FRAME_MAGIC: u8 = 0xA6;

/// Frame header length: magic + kind + len + crc.
const HEADER_LEN: usize = 10;

/// Upper bound on a sane payload length (64 MiB); anything larger in a
/// length field is treated as corruption rather than attempted.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 over `kind` followed by `payload` — the checksum stored in
/// each frame header.
#[must_use]
pub fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let state = crc32_update(0xFFFF_FFFF, &[kind]);
    crc32_update(state, payload) ^ 0xFFFF_FFFF
}

/// Journal record kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// An applied event (`E`): the replayable log.
    Event,
    /// A decision outcome (`O`): audit-only, skipped by recovery.
    Outcome,
    /// An embedded engine snapshot (`S`), complete or a delta on the one
    /// before it: together, the replay starting point.
    Snapshot,
    /// An epoch-begin marker (`B`): fencing for replicated failover.
    Epoch,
    /// A domain-export record (`X`): the domain left this engine, carrying
    /// its migration payload. Recovery re-applies the fence and clear.
    Export,
    /// A domain-import record (`I`): a migrated domain landed on this
    /// engine under an idempotency key. Recovery re-applies the import.
    Import,
}

impl RecordKind {
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            b'E' => Some(RecordKind::Event),
            b'O' => Some(RecordKind::Outcome),
            b'S' => Some(RecordKind::Snapshot),
            b'B' => Some(RecordKind::Epoch),
            b'X' => Some(RecordKind::Export),
            b'I' => Some(RecordKind::Import),
            _ => None,
        }
    }

    fn byte(self) -> u8 {
        match self {
            RecordKind::Event => b'E',
            RecordKind::Outcome => b'O',
            RecordKind::Snapshot => b'S',
            RecordKind::Epoch => b'B',
            RecordKind::Export => b'X',
            RecordKind::Import => b'I',
        }
    }
}

/// Error raised by journal recovery.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The journal file could not be read or written.
    Io(std::io::Error),
    /// A snapshot record failed to restore.
    Snapshot {
        /// 1-based line within the snapshot payload.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A journaled event record failed to parse or re-apply during
    /// recovery replay (it applied cleanly when first journaled, so this
    /// indicates external tampering or a config mismatch).
    Replay {
        /// 0-based index of the record within the valid prefix.
        record: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Snapshot { line, reason } => {
                write!(f, "snapshot line {line}: {reason}")
            }
            JournalError::Replay { record, reason } => {
                write!(f, "replaying journal record {record}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// When the journal calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` on snapshots and explicit [`Journal::sync`] (drain) only.
    /// Appends still reach the OS page cache before the decision is
    /// acknowledged, so they survive a process kill; only a whole-machine
    /// power loss can drop the post-snapshot tail.
    #[default]
    OnSnapshot,
    /// `fsync` after every flushed append batch: full power-loss
    /// durability at a per-event syscall cost.
    Always,
}

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Embed a snapshot after this many event records (0 disables
    /// periodic snapshots; one is still written on graceful drain).
    pub snapshot_every: u64,
    /// Fsync policy.
    pub fsync: FsyncPolicy,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            snapshot_every: 256,
            fsync: FsyncPolicy::OnSnapshot,
        }
    }
}

/// An append-only CRC-framed journal file.
///
/// Appends are buffered in memory; [`Journal::flush`] writes the pending
/// frames with one `write` call. The engine flushes once per applied
/// event, after the event and its outcomes are framed, so a record is
/// never acknowledged before it is handed to the OS.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    config: JournalConfig,
    buf: Vec<u8>,
    records: u64,
    events_since_snapshot: u64,
}

impl Journal {
    /// Creates (truncating) a journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P, config: JournalConfig) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Journal {
            file,
            path,
            config,
            buf: Vec::new(),
            records: 0,
            events_since_snapshot: 0,
        })
    }

    /// Reopens a scanned journal for appending: truncates the file to the
    /// valid prefix `scan` found (discarding any torn tail) and positions
    /// at its end. `records` continues from the prefix count.
    ///
    /// # Errors
    ///
    /// Propagates open/truncate errors.
    pub fn append_to<P: AsRef<Path>>(
        path: P,
        config: JournalConfig,
        scan: &JournalScan,
    ) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(scan.valid_len)?;
        let mut journal = Journal {
            file,
            path,
            config,
            buf: Vec::new(),
            records: scan.records.len() as u64,
            events_since_snapshot: scan.events_since_last_snapshot(),
        };
        journal.file.seek(SeekFrom::End(0))?;
        Ok(journal)
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total valid records in the file (including any recovered prefix
    /// and frames still buffered for the next flush).
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Frames one record straight into `buf`: header placeholder, the
    /// payload as `write` produces it, then length and CRC back-patched.
    fn frame_with(&mut self, kind: RecordKind, write: impl FnOnce(&mut Vec<u8>)) {
        let k = kind.byte();
        let start = self.buf.len();
        self.buf
            .extend_from_slice(&[FRAME_MAGIC, k, 0, 0, 0, 0, 0, 0, 0, 0]);
        write(&mut self.buf);
        let payload = &self.buf[start + HEADER_LEN..];
        let len = (payload.len() as u32).to_le_bytes();
        let crc = frame_crc(k, payload).to_le_bytes();
        self.buf[start + 2..start + 6].copy_from_slice(&len);
        self.buf[start + 6..start + HEADER_LEN].copy_from_slice(&crc);
        self.records += 1;
    }

    fn frame(&mut self, kind: RecordKind, payload: &[u8]) {
        self.frame_with(kind, |buf| buf.extend_from_slice(payload));
    }

    /// Appends an applied-event record (`fast` = degraded backpressure
    /// path). Buffered until [`Journal::flush`].
    pub fn append_event(&mut self, event: &EventRecord, fast: bool) {
        let flag = if fast { 'f' } else { 'n' };
        // Writing into a `Vec` cannot fail.
        self.frame_with(RecordKind::Event, |buf| {
            let _ = write!(buf, "{flag} {event}");
        });
        self.events_since_snapshot += 1;
    }

    /// Appends a decision-outcome record (audit trail; recovery ignores
    /// it). The timestamp is stored as raw `f64` bits so audits can be
    /// compared bit-exactly.
    pub fn append_outcome(&mut self, decision: &Decision) {
        self.frame_with(RecordKind::Outcome, |buf| {
            let _ = write!(buf, "{}", decision.coded());
        });
    }

    /// Appends an epoch-begin record: every record after it was written
    /// under `epoch`. Buffered until [`Journal::flush`]; callers that
    /// need the fence durable before serving (promotion) follow with
    /// [`Journal::sync`].
    pub fn append_epoch(&mut self, epoch: u64) {
        self.frame(RecordKind::Epoch, epoch.to_string().as_bytes());
    }

    /// Appends a domain-export record: `<local> <payload>`. Recovery
    /// replays the fence/clear so a recovered source shard cannot
    /// resurrect a migrated domain.
    pub fn append_export(&mut self, local: usize, payload: &str) {
        let text = format!("{local} {payload}");
        self.frame(RecordKind::Export, text.as_bytes());
    }

    /// Appends a domain-import record: `<key> <payload>`, where `key` is
    /// the migration idempotency key (no whitespace). Recovery replays
    /// the import, reconstructing the domain on the target shard.
    pub fn append_import(&mut self, key: &str, payload: &str) {
        let text = format!("{key} {payload}");
        self.frame(RecordKind::Import, text.as_bytes());
    }

    /// Appends a snapshot record, flushes, and fsyncs (snapshots are the
    /// recovery anchors, so they are always made durable). Resets the
    /// periodic-snapshot countdown.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append_snapshot(&mut self, snapshot: &str) -> std::io::Result<()> {
        self.frame(RecordKind::Snapshot, snapshot.as_bytes());
        self.events_since_snapshot = 0;
        self.write_pending()?;
        self.file.sync_data()
    }

    /// Whether the periodic-snapshot cadence is due.
    #[must_use]
    pub fn want_snapshot(&self) -> bool {
        self.config.snapshot_every > 0 && self.events_since_snapshot >= self.config.snapshot_every
    }

    fn write_pending(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes all buffered frames to the file (one `write` syscall),
    /// fsyncing as well under [`FsyncPolicy::Always`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.write_pending()?;
        if self.config.fsync == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Flushes and fsyncs regardless of policy (graceful-drain path).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.write_pending()?;
        self.file.sync_data()
    }
}

/// One record recovered by [`scan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedRecord {
    /// Record kind.
    pub kind: RecordKind,
    /// UTF-8 payload.
    pub payload: String,
}

/// The result of scanning a journal file: the valid record prefix and an
/// accounting of whatever follows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalScan {
    /// Every record of the valid prefix, in file order.
    pub records: Vec<ScannedRecord>,
    /// Byte length of the valid prefix ([`Journal::append_to`] truncates
    /// the file to this).
    pub valid_len: u64,
    /// Total file length as found.
    pub file_len: u64,
    /// Records lost after the valid prefix: one for any torn/corrupt
    /// frame, plus every structurally valid frame stranded behind it
    /// (unreachable for replay because the log has a gap).
    pub records_lost: u64,
}

impl JournalScan {
    /// Bytes past the valid prefix (0 for a clean file).
    #[must_use]
    pub fn bytes_lost(&self) -> u64 {
        self.file_len - self.valid_len
    }

    /// Index of the last snapshot record in the prefix, if any.
    #[must_use]
    pub fn last_snapshot(&self) -> Option<usize> {
        self.records
            .iter()
            .rposition(|r| r.kind == RecordKind::Snapshot)
    }

    /// Event records after the last snapshot (drives the reopened
    /// journal's periodic-snapshot countdown).
    #[must_use]
    pub fn events_since_last_snapshot(&self) -> u64 {
        let start = self.last_snapshot().map_or(0, |i| i + 1);
        self.records[start..]
            .iter()
            .filter(|r| r.kind == RecordKind::Event)
            .count() as u64
    }
}

/// The state of the frame starting at some offset of a byte stream.
///
/// Distinguishes *incomplete* (a valid frame whose tail bytes have not
/// arrived yet — wait for more) from *invalid* (bad magic/kind, an insane
/// length, or a CRC mismatch — corruption). The replication stream uses
/// this to forward only whole frames and to classify torn tails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck<'a> {
    /// A complete, CRC-valid frame: everything a reader needs, so no
    /// caller validates or decodes it a second time.
    Complete {
        /// Record kind.
        kind: RecordKind,
        /// The payload, borrowed from the checked bytes.
        payload: &'a str,
        /// Offset just past the frame (exclusive).
        end: usize,
    },
    /// The bytes so far are a consistent frame prefix; more are needed.
    Incomplete,
    /// The bytes cannot be a frame: corruption starts here.
    Invalid,
}

/// Classifies the frame starting at `offset` — see [`FrameCheck`].
#[must_use]
pub fn check_frame(data: &[u8], offset: usize) -> FrameCheck<'_> {
    let avail = data.len().saturating_sub(offset);
    if avail == 0 {
        return FrameCheck::Incomplete;
    }
    if data[offset] != FRAME_MAGIC {
        return FrameCheck::Invalid;
    }
    let Some(&kind_byte) = data.get(offset + 1) else {
        return FrameCheck::Incomplete;
    };
    let Some(kind) = RecordKind::from_byte(kind_byte) else {
        return FrameCheck::Invalid;
    };
    let Some(header) = data.get(offset..offset + HEADER_LEN) else {
        return FrameCheck::Incomplete;
    };
    let len = u32::from_le_bytes([header[2], header[3], header[4], header[5]]);
    if len > MAX_PAYLOAD {
        return FrameCheck::Invalid;
    }
    let crc = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    let start = offset + HEADER_LEN;
    let end = start + len as usize;
    let Some(payload) = data.get(start..end) else {
        return FrameCheck::Incomplete;
    };
    if frame_crc(kind_byte, payload) != crc {
        return FrameCheck::Invalid;
    }
    match std::str::from_utf8(payload) {
        Ok(payload) => FrameCheck::Complete { kind, payload, end },
        Err(_) => FrameCheck::Invalid,
    }
}

/// Scans a journal file, returning the valid record prefix and counting
/// whatever was lost to a torn or corrupted tail. Never fails on
/// corruption — only on I/O errors reading the file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn scan<P: AsRef<Path>>(path: P) -> std::io::Result<JournalScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    Ok(scan_bytes(&data))
}

/// [`scan`] over an in-memory byte slice — the same torn-tail-tolerant
/// walk, used directly by the replication layer to resynchronise a
/// follower's mirror after a mid-frame disconnect.
#[must_use]
pub fn scan_bytes(data: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let FrameCheck::Complete { kind, payload, end } = check_frame(data, offset) {
        records.push(ScannedRecord {
            kind,
            payload: payload.to_string(),
        });
        offset = end;
    }
    let valid_len = offset as u64;
    // Loss accounting: resynchronise on the magic byte and count any
    // structurally valid frames stranded past the corruption (they cannot
    // be replayed — the log has a gap before them), plus one for the
    // torn/corrupt region itself.
    let mut records_lost = 0u64;
    let mut saw_garbage = false;
    let mut i = offset;
    while i < data.len() {
        match check_frame(data, i) {
            FrameCheck::Complete { end, .. } => {
                records_lost += 1;
                i = end;
            }
            _ => {
                saw_garbage = true;
                i += 1;
            }
        }
    }
    records_lost += u64::from(saw_garbage);
    JournalScan {
        records,
        valid_len,
        file_len: data.len() as u64,
        records_lost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;
    use rt_model::io::EventKind;
    use rt_model::Task;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dvs_admit_journal_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_event(at: f64) -> EventRecord {
        EventRecord::new(
            at,
            EventKind::Arrive(Task::new(3, 123.456, 1000).unwrap().with_penalty(7.5)),
        )
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // Standard check value for CRC-32/ISO-HDLC over "123456789".
        let state = crc32_update(0xFFFF_FFFF, b"123456789") ^ 0xFFFF_FFFF;
        assert_eq!(state, 0xCBF4_3926);
    }

    #[test]
    fn append_flush_scan_round_trips() {
        let path = tmp("round_trip.wal");
        let mut j = Journal::create(&path, JournalConfig::default()).unwrap();
        j.append_event(&sample_event(1.5), false);
        j.append_event(&EventRecord::new(2.0, EventKind::Tick), true);
        j.append_snapshot("snapshot-text\nline2").unwrap();
        j.flush().unwrap();
        assert_eq!(j.records(), 3);

        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records_lost, 0);
        assert_eq!(scan.bytes_lost(), 0);
        assert_eq!(scan.records[0].kind, RecordKind::Event);
        assert!(scan.records[0].payload.starts_with("n 1.5 arrive 3 "));
        assert!(scan.records[1].payload.starts_with("f 2 tick"));
        assert_eq!(scan.records[2].kind, RecordKind::Snapshot);
        assert_eq!(scan.last_snapshot(), Some(2));
        assert_eq!(scan.events_since_last_snapshot(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_counted() {
        let path = tmp("torn.wal");
        let mut j = Journal::create(&path, JournalConfig::default()).unwrap();
        for i in 0..4 {
            j.append_event(&sample_event(f64::from(i)), false);
        }
        j.flush().unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear 3 bytes off the final record.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        assert_eq!(s.records_lost, 1);
        assert!(s.bytes_lost() > 0);

        // Reopening for append truncates the tear away.
        let j2 = Journal::append_to(&path, JournalConfig::default(), &s).unwrap();
        assert_eq!(j2.records(), 3);
        drop(j2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), s.valid_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_strands_later_records() {
        let path = tmp("midflip.wal");
        let mut j = Journal::create(&path, JournalConfig::default()).unwrap();
        j.append_event(&sample_event(0.0), false);
        let first_len = {
            j.flush().unwrap();
            std::fs::metadata(&path).unwrap().len() as usize
        };
        j.append_event(&sample_event(1.0), false);
        j.append_event(&sample_event(2.0), false);
        j.flush().unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload byte of the SECOND record: it fails its CRC, and
        // the (valid) third record behind it is stranded.
        data[first_len + HEADER_LEN + 3] ^= 0x40;
        std::fs::write(&path, &data).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records_lost, 2, "corrupt frame + stranded record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshot_cadence_counts_events() {
        let path = tmp("cadence.wal");
        let mut j = Journal::create(
            &path,
            JournalConfig {
                snapshot_every: 2,
                fsync: FsyncPolicy::OnSnapshot,
            },
        )
        .unwrap();
        assert!(!j.want_snapshot());
        j.append_event(&sample_event(0.0), false);
        assert!(!j.want_snapshot());
        j.append_event(&sample_event(1.0), false);
        assert!(j.want_snapshot());
        j.append_snapshot("s").unwrap();
        assert!(!j.want_snapshot());
        // Outcome records do not advance the cadence.
        j.append_outcome(&Decision {
            at: 1.0,
            task: rt_model::TaskId::new(9),
            verdict: Verdict::Rejected,
        });
        assert!(!j.want_snapshot());
        j.flush().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn outcome_payloads_are_bit_exact() {
        let path = tmp("outcome.wal");
        let mut j = Journal::create(&path, JournalConfig::default()).unwrap();
        let at = 0.1 + 0.2; // not exactly 0.3
        j.append_outcome(&Decision {
            at,
            task: rt_model::TaskId::new(4),
            verdict: Verdict::Accepted { domain: 1 },
        });
        j.flush().unwrap();
        let s = scan(&path).unwrap();
        let payload = &s.records[0].payload;
        let bits_hex = payload.split_whitespace().next().unwrap();
        assert_eq!(u64::from_str_radix(bits_hex, 16).unwrap(), at.to_bits());
        assert!(payload.ends_with("4 A 1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_of_garbage_only_file_loses_one_record() {
        let path = tmp("garbage.wal");
        std::fs::write(&path, b"not a journal at all").unwrap();
        let s = scan(&path).unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.valid_len, 0);
        assert_eq!(s.records_lost, 1);
        std::fs::remove_file(&path).unwrap();
    }
}
