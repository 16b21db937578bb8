//! Hot-standby replication and epoch-fenced failover for the admission
//! server.
//!
//! ## Topology and protocol
//!
//! The **primary** is an ordinary journaled [`AdmissionEngine`]: every
//! applied event is CRC-framed into its write-ahead journal before the
//! decision is acknowledged. Replication simply ships that same byte
//! stream: a follower connects to the primary's replication listener,
//! sends a one-line handshake, and receives the journal's frames from its
//! resume cursor onward —
//!
//! ```text
//! follower → primary   DVS-REPL v1 <cursor-bytes> <fence-epoch>\n
//! primary → follower   OK <primary-epoch>\n            (then raw frames)
//! primary → follower   ERR <kind> <detail>\n           (then close)
//! ```
//!
//! The follower appends every received byte to a local **mirror** file —
//! byte-identical to the primary's journal prefix — and applies each
//! complete `E` frame to its own engine. Because the engine is
//! deterministic, replaying the same event bytes reproduces the primary's
//! decision log bit-for-bit: the standby *is* a recovery, streamed
//! continuously instead of run after a crash.
//!
//! When the journal is idle the primary emits a single [`HEARTBEAT_BYTE`]
//! between frames so the follower can distinguish "quiet primary" from
//! "dead primary". Heartbeats are stripped before the mirror is written
//! (they are liveness signals, not journal content).
//!
//! ## Torn frames and resynchronisation
//!
//! A connection can die mid-frame; the follower's mirror then ends in a
//! partial frame. On every (re)connect the follower re-runs the journal's
//! torn-tail scan ([`journal::scan_bytes`]) over its mirror: the valid
//! prefix becomes the resume cursor, the torn tail is truncated and
//! counted ([`Metrics::repl_torn_tails`](crate::Metrics)), and the
//! handshake re-requests the stream from exactly that byte — nothing is
//! lost, because the primary still holds the full journal.
//!
//! ## Epoch fencing and the failover state machine
//!
//! Every journal carries **epoch-begin** (`B`) records; the handshake
//! carries each side's epoch too. The fence is monotone: a follower that
//! has observed epoch *n* refuses streams and records from any epoch
//! < *n* (`stale-epoch`), so a deposed primary that limps back cannot
//! overwrite a promoted follower's history.
//!
//! ```text
//!            stream / heartbeats             promote (epoch n+1)
//! FOLLOWER ────────────────────── FOLLOWER ───────────────────── PRIMARY
//!    │   lease expiry / explicit {"op":"promote"}: park the        │
//!    │   replica loop, drain the mirror tail into the engine,      │
//!    │   attach the mirror as the live journal, fsync a `B n+1`    │
//!    │   record, then accept writes.                               │
//!    └── old primary reconnecting with epoch ≤ n is fenced off ────┘
//! ```
//!
//! Promotion ([`promote`]) resumes serving from the replay cursor: the
//! `events` counter in `stats` tells clients how much of their stream
//! survived, and the engine's validate-before-mutate idempotency makes
//! at-least-once resend safe (see the `client` module).

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rt_model::io::parse_event_line;

use crate::engine::AdmissionEngine;
use crate::journal::{self, check_frame, FrameCheck, JournalConfig, JournalError, RecordKind};
use crate::{AdmitError, Journal};

/// Liveness byte the primary sends between frames when the journal is
/// idle. Distinct from the frame magic, and only ever emitted at a frame
/// boundary, so a follower can strip it unambiguously.
pub const HEARTBEAT_BYTE: u8 = 0xA9;

/// Handshake protocol tag.
const HELLO_PREFIX: &str = "DVS-REPL v1 ";

/// How long [`promote`] waits for the replica loop to park before giving
/// up (the loop checks its flags every socket-read timeout).
const PARK_TIMEOUT: Duration = Duration::from_secs(5);

fn io_err(e: std::io::Error) -> AdmitError {
    AdmitError::Journal(JournalError::Io(e))
}

// ---------------------------------------------------------------------------
// Primary side: the replication hub
// ---------------------------------------------------------------------------

/// Shared state of the primary's replication hub.
#[derive(Debug, Default)]
pub struct ReplicationHub {
    /// The primary's current epoch, read into every handshake reply.
    epoch: AtomicU64,
    /// Set to stop the hub's accept and streaming loops.
    shutdown: AtomicBool,
    /// Set when a follower with a *higher* epoch connected: this primary
    /// has been deposed and its late writes are being fenced off.
    deposed: AtomicBool,
    /// Frame bytes streamed to followers (all connections).
    bytes_sent: AtomicU64,
    /// Heartbeat bytes sent.
    heartbeats_sent: AtomicU64,
    /// Follower connections accepted.
    followers_seen: AtomicU64,
    /// Handshakes rejected for carrying a stale epoch.
    stale_rejects: AtomicU64,
}

impl ReplicationHub {
    /// Creates a hub serving the given epoch.
    #[must_use]
    pub fn new(epoch: u64) -> Self {
        let hub = ReplicationHub::default();
        hub.epoch.store(epoch, Ordering::SeqCst);
        hub
    }

    /// Updates the epoch advertised to connecting followers.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Asks the hub's loops to stop.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a follower with a higher epoch has fenced this primary off.
    #[must_use]
    pub fn deposed(&self) -> bool {
        self.deposed.load(Ordering::SeqCst)
    }

    /// Frame bytes streamed to followers so far.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Heartbeats sent so far.
    #[must_use]
    pub fn heartbeats_sent(&self) -> u64 {
        self.heartbeats_sent.load(Ordering::Relaxed)
    }

    /// Follower connections accepted so far.
    #[must_use]
    pub fn followers_seen(&self) -> u64 {
        self.followers_seen.load(Ordering::Relaxed)
    }

    /// Handshakes rejected for a stale (or fencing) epoch.
    #[must_use]
    pub fn stale_rejects(&self) -> u64 {
        self.stale_rejects.load(Ordering::Relaxed)
    }
}

/// Tuning knobs for the primary's streaming loops.
#[derive(Debug, Clone, Copy)]
pub struct HubOptions {
    /// Journal-file poll interval while idle.
    pub poll: Duration,
    /// Idle interval after which a heartbeat byte is sent.
    pub heartbeat_every: Duration,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            poll: Duration::from_millis(2),
            heartbeat_every: Duration::from_millis(50),
        }
    }
}

/// Accept loop of the primary's replication listener: one streaming
/// thread per follower, until [`ReplicationHub::shutdown`].
///
/// # Errors
///
/// Propagates listener errors (per-connection errors only end that
/// connection).
pub fn serve_hub(
    listener: &TcpListener,
    journal_path: &Path,
    hub: &Arc<ReplicationHub>,
    opts: HubOptions,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut workers = Vec::new();
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                hub.followers_seen.fetch_add(1, Ordering::Relaxed);
                let hub = Arc::clone(hub);
                let path = journal_path.to_path_buf();
                workers.push(std::thread::spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let _ = stream_to_follower(stream, &path, &hub, opts);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Handles one follower connection: handshake, then forward the journal's
/// complete frames from the requested cursor, heartbeating while idle.
fn stream_to_follower(
    stream: TcpStream,
    journal_path: &Path,
    hub: &ReplicationHub,
    opts: HubOptions,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut hello = String::new();
    reader.read_line(&mut hello)?;
    let (cursor, fence) = match parse_hello(&hello) {
        Some(v) => v,
        None => {
            let _ = writeln!(stream, "ERR bad-handshake {}", hello.trim().len());
            return Ok(());
        }
    };
    let epoch = hub.epoch.load(Ordering::SeqCst);
    if fence > epoch {
        // A follower from a later term: this primary is deposed. Refuse
        // to stream (its late writes must not propagate) and flag it.
        hub.deposed.store(true, Ordering::SeqCst);
        hub.stale_rejects.fetch_add(1, Ordering::Relaxed);
        let _ = writeln!(
            stream,
            "ERR stale-epoch {epoch} behind follower fence {fence}"
        );
        return Ok(());
    }
    let mut file = File::open(journal_path)?;
    let len = file.seek(SeekFrom::End(0))?;
    if cursor > len {
        let _ = writeln!(
            stream,
            "ERR cursor follower at {cursor} ahead of journal {len}"
        );
        return Ok(());
    }
    file.seek(SeekFrom::Start(cursor))?;
    writeln!(stream, "OK {epoch}")?;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut last_sent = Instant::now();
    loop {
        if hub.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let n = file.read(&mut chunk)?;
        if n > 0 {
            pending.extend_from_slice(&chunk[..n]);
        }
        // Forward only complete, CRC-valid frames: heartbeats then always
        // land at frame boundaries, and local tail corruption stops here
        // instead of propagating to the standby.
        let mut fwd = 0usize;
        loop {
            match check_frame(&pending, fwd) {
                FrameCheck::Complete { end, .. } => fwd = end,
                FrameCheck::Incomplete => break,
                FrameCheck::Invalid => return Ok(()),
            }
        }
        if fwd > 0 {
            stream.write_all(&pending[..fwd])?;
            pending.drain(..fwd);
            hub.bytes_sent.fetch_add(fwd as u64, Ordering::Relaxed);
            last_sent = Instant::now();
        } else if n == 0 {
            if last_sent.elapsed() >= opts.heartbeat_every {
                stream.write_all(&[HEARTBEAT_BYTE])?;
                hub.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
                last_sent = Instant::now();
            }
            std::thread::sleep(opts.poll);
        }
    }
}

fn parse_hello(line: &str) -> Option<(u64, u64)> {
    let rest = line.trim().strip_prefix(HELLO_PREFIX)?;
    let (cursor, fence) = rest.split_once(' ')?;
    Some((cursor.parse().ok()?, fence.parse().ok()?))
}

// ---------------------------------------------------------------------------
// Role: the failover state machine shared between server and replica loop
// ---------------------------------------------------------------------------

/// The serving role of a process, shared between the request-serving
/// sessions (which gate writes and execute promotions) and the replica
/// loop (which parks when a promotion is requested).
#[derive(Debug)]
pub struct Role {
    primary: AtomicBool,
    promote_requested: AtomicBool,
    parked: AtomicBool,
    stop: AtomicBool,
    /// Construction instant, the zero point for [`Role::stale_by_ms`].
    born: Instant,
    /// Milliseconds after `born` at which the replica loop last heard
    /// from its primary (applied a record, completed a handshake, or saw
    /// a heartbeat).
    heard_ms: AtomicU64,
}

impl Role {
    /// A primary role (writes accepted; no replica loop).
    #[must_use]
    pub fn primary() -> Self {
        Role {
            primary: AtomicBool::new(true),
            promote_requested: AtomicBool::new(false),
            parked: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            born: Instant::now(),
            heard_ms: AtomicU64::new(0),
        }
    }

    /// A follower role (writes rejected until promotion).
    #[must_use]
    pub fn follower() -> Self {
        Role {
            primary: AtomicBool::new(false),
            promote_requested: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            born: Instant::now(),
            heard_ms: AtomicU64::new(0),
        }
    }

    /// Records contact with the primary: the replica loop calls this
    /// whenever it applies a record, completes a handshake, or receives
    /// a heartbeat, resetting the staleness clock read by
    /// [`Role::stale_by_ms`].
    pub fn note_heard(&self) {
        self.heard_ms
            .store(self.born.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    /// Milliseconds since the replica loop last heard from the primary —
    /// the `stale_by` bound a follower attaches to read responses
    /// (`stats`/`log`) so clients hedging reads to a standby know how far
    /// behind the answer may be. A primary is never stale (returns 0).
    #[must_use]
    pub fn stale_by_ms(&self) -> u64 {
        if self.is_primary() {
            return 0;
        }
        (self.born.elapsed().as_millis() as u64)
            .saturating_sub(self.heard_ms.load(Ordering::Relaxed))
    }

    /// Whether this process currently accepts writes.
    #[must_use]
    pub fn is_primary(&self) -> bool {
        self.primary.load(Ordering::SeqCst)
    }

    /// Asks the replica loop to park for promotion.
    pub fn request_promote(&self) {
        self.promote_requested.store(true, Ordering::SeqCst);
    }

    /// Whether a promotion has been requested.
    #[must_use]
    pub fn promote_requested(&self) -> bool {
        self.promote_requested.load(Ordering::SeqCst)
    }

    /// Asks the replica loop to stop (process shutdown). The request is
    /// consumed by the next [`run_follower`] start, so a stopped standby
    /// can be restarted with the same [`Role`].
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Whether the replica loop has parked (or never ran).
    #[must_use]
    pub fn parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    fn set_primary(&self) {
        self.primary.store(true, Ordering::SeqCst);
    }

    fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    fn unpark(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Everything a serving session needs to gate writes by role and execute
/// an `{"op":"promote"}` request: the shared [`Role`], the mirror path
/// that becomes the live journal, and the journal config to reopen it
/// with.
#[derive(Debug)]
pub struct RoleContext {
    /// The shared role cell.
    pub role: Role,
    /// The follower's mirror file (the promoted node's journal).
    pub mirror: PathBuf,
    /// Journal config for the promoted journal.
    pub jconfig: JournalConfig,
}

impl RoleContext {
    /// A follower context mirroring into `mirror`.
    #[must_use]
    pub fn follower<P: Into<PathBuf>>(mirror: P, jconfig: JournalConfig) -> Self {
        RoleContext {
            role: Role::follower(),
            mirror: mirror.into(),
            jconfig,
        }
    }
}

// ---------------------------------------------------------------------------
// Follower side: mirror, apply, lease
// ---------------------------------------------------------------------------

/// Follower tuning knobs.
#[derive(Debug, Clone)]
pub struct FollowerOptions {
    /// Primary's replication address (`host:port`).
    pub primary: String,
    /// Path of the local mirror file (byte-identical journal prefix).
    pub mirror: PathBuf,
    /// Socket read timeout — also the granularity at which the loop
    /// checks its stop/promote flags.
    pub read_timeout: Duration,
    /// Silence (no frames, no heartbeats) after which a heartbeat miss is
    /// counted and the lease is considered expired.
    pub heartbeat_timeout: Duration,
    /// Reconnect backoff base (doubled per consecutive failure, jittered).
    pub backoff_base: Duration,
    /// Reconnect backoff cap.
    pub backoff_cap: Duration,
    /// Jitter seed (deterministic backoff in tests).
    pub seed: u64,
    /// Return [`FollowEnd::LeaseExpired`] when the lease lapses instead
    /// of reconnecting forever — the auto-promotion trigger.
    pub exit_on_lease_expiry: bool,
}

impl Default for FollowerOptions {
    fn default() -> Self {
        FollowerOptions {
            primary: String::new(),
            mirror: PathBuf::new(),
            read_timeout: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(500),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            seed: 0x5EED_CAFE,
            exit_on_lease_expiry: false,
        }
    }
}

/// Why [`run_follower`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowEnd {
    /// [`Role::request_stop`] was seen.
    Stopped,
    /// [`Role::request_promote`] was seen: the loop parked so
    /// [`promote`] can take over the mirror.
    PromoteRequested,
    /// The lease expired with `exit_on_lease_expiry` set.
    LeaseExpired,
    /// The primary is from an older term than our fence (it was deposed);
    /// following it would roll history back.
    StaleSource,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential backoff with deterministic jitter: `base·2^attempt` capped
/// at `cap`, plus a jitter draw in `[0, base)`.
#[must_use]
pub fn backoff_delay(base: Duration, cap: Duration, attempt: u32, rng: &mut u64) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let capped = exp.min(cap);
    let jitter_nanos = if base.as_nanos() == 0 {
        0
    } else {
        splitmix(rng) % base.as_nanos().min(u128::from(u64::MAX)) as u64
    };
    capped + Duration::from_nanos(jitter_nanos)
}

/// Applies one scanned/streamed journal record to a follower engine.
/// `E` frames replay the event, `B` frames advance the fence (stale ones
/// are the fenced-off late writes), `X`/`I` frames replay live-resharding
/// domain moves, `O`/`S` frames are mirror-only.
fn apply_record(
    engine: &mut AdmissionEngine,
    kind: RecordKind,
    payload: &str,
) -> Result<(), AdmitError> {
    match kind {
        RecordKind::Event => {
            let (flag, line) = payload.split_once(' ').ok_or_else(|| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: "missing fast-path flag".to_string(),
                })
            })?;
            let fast = flag == "f";
            let event = parse_event_line(line).map_err(|e| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: e.to_string(),
                })
            })?;
            engine.apply_opts(&event, fast)?;
        }
        RecordKind::Epoch => {
            let epoch = payload.trim().parse::<u64>().map_err(|e| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: format!("bad epoch payload: {e}"),
                })
            })?;
            engine.observe_epoch(epoch)?;
        }
        RecordKind::Export => {
            let (local, _) = payload.split_once(' ').ok_or_else(|| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: "malformed export record".to_string(),
                })
            })?;
            let local: usize = local.parse().map_err(|_| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: format!("bad export index {local:?}"),
                })
            })?;
            engine.export_domain(local)?;
        }
        RecordKind::Import => {
            let (key, body) = payload.split_once(' ').ok_or_else(|| {
                AdmitError::Journal(JournalError::Replay {
                    record: 0,
                    reason: "malformed import record".to_string(),
                })
            })?;
            engine.import_domain(key, body)?;
        }
        RecordKind::Outcome | RecordKind::Snapshot => {}
    }
    engine.metrics_mut().repl_records += 1;
    Ok(())
}

/// Resynchronises the follower engine with its mirror file: torn-tail
/// scan, replay of any records past the engine's applied cursor, torn
/// tail truncated and counted. Returns the byte cursor to resume the
/// stream from. Creates the mirror if it does not exist.
fn resync_mirror(engine: &Mutex<AdmissionEngine>, mirror: &Path) -> Result<u64, AdmitError> {
    if !mirror.exists() {
        File::create(mirror).map_err(io_err)?;
        return Ok(0);
    }
    let mut data = Vec::new();
    File::open(mirror)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(io_err)?;
    let scan = journal::scan_bytes(&data);
    let mut g = engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let applied = g.metrics().repl_records as usize;
    for rec in scan.records.iter().skip(applied) {
        apply_record(&mut g, rec.kind, &rec.payload)?;
    }
    if scan.bytes_lost() > 0 {
        g.metrics_mut().repl_torn_tails += 1;
        OpenOptions::new()
            .write(true)
            .open(mirror)
            .and_then(|f| f.set_len(scan.valid_len))
            .map_err(io_err)?;
    }
    g.metrics_mut().repl_bytes = scan.valid_len;
    Ok(scan.valid_len)
}

/// The follower loop: resync the mirror, connect to the primary, stream
/// frames into the mirror and the engine, maintain the heartbeat lease,
/// and reconnect (from the torn-tail-scanned cursor) when the connection
/// drops. Returns when stopped, parked for promotion, fenced off by a
/// stale source, or — with `exit_on_lease_expiry` — when the primary's
/// lease lapses.
///
/// The engine must not have a journal attached while following (the
/// mirror file *is* the journal; [`promote`] attaches it on failover).
///
/// # Errors
///
/// Mirror I/O failures and replay errors propagate; connection failures
/// are retried with backoff.
pub fn run_follower(
    engine: &Mutex<AdmissionEngine>,
    role: &Role,
    opts: &FollowerOptions,
) -> Result<FollowEnd, AdmitError> {
    // A stop request addressed the *previous* loop; starting consumes it.
    role.stop.store(false, Ordering::SeqCst);
    role.unpark();
    let result = follow_inner(engine, role, opts);
    role.park();
    result
}

fn follow_inner(
    engine: &Mutex<AdmissionEngine>,
    role: &Role,
    opts: &FollowerOptions,
) -> Result<FollowEnd, AdmitError> {
    let mut rng = opts.seed;
    let mut attempt: u32 = 0;
    let mut last_heard = Instant::now();
    let mut connected_once = false;
    loop {
        if role.stopping() {
            return Ok(FollowEnd::Stopped);
        }
        if role.promote_requested() {
            return Ok(FollowEnd::PromoteRequested);
        }
        let cursor = resync_mirror(engine, &opts.mirror)?;
        let fence = {
            let g = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.epoch()
        };
        match TcpStream::connect(&opts.primary) {
            Ok(stream) => {
                if connected_once {
                    let mut g = engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g.metrics_mut().repl_reconnects += 1;
                }
                connected_once = true;
                attempt = 0;
                last_heard = Instant::now();
                role.note_heard();
                match stream_session(engine, role, opts, stream, cursor, fence, &mut last_heard)? {
                    SessionOutcome::Disconnected => {}
                    SessionOutcome::End(end) => return Ok(end),
                }
            }
            Err(_) => {
                let delay = backoff_delay(opts.backoff_base, opts.backoff_cap, attempt, &mut rng);
                attempt = attempt.saturating_add(1);
                sleep_checked(role, delay);
            }
        }
        if last_heard.elapsed() >= opts.heartbeat_timeout {
            let mut g = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.metrics_mut().heartbeat_misses += 1;
            drop(g);
            last_heard = Instant::now();
            if opts.exit_on_lease_expiry {
                return Ok(FollowEnd::LeaseExpired);
            }
        }
    }
}

/// Sleeps in small slices so stop/promote flags stay responsive.
fn sleep_checked(role: &Role, total: Duration) {
    let slice = Duration::from_millis(5);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if role.stopping() || role.promote_requested() {
            return;
        }
        std::thread::sleep(slice.min(deadline.saturating_duration_since(Instant::now())));
    }
}

enum SessionOutcome {
    /// Connection lost; reconnect from a rescanned cursor.
    Disconnected,
    /// The loop should return with this end.
    End(FollowEnd),
}

fn stream_session(
    engine: &Mutex<AdmissionEngine>,
    role: &Role,
    opts: &FollowerOptions,
    stream: TcpStream,
    cursor: u64,
    fence: u64,
    last_heard: &mut Instant,
) -> Result<SessionOutcome, AdmitError> {
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(opts.read_timeout))
        .map_err(io_err)?;
    let mut stream = stream;
    if writeln!(stream, "{HELLO_PREFIX}{cursor} {fence}").is_err() {
        return Ok(SessionOutcome::Disconnected);
    }
    // Read the one-line handshake reply byte-at-a-time so the frame bytes
    // after it are not swallowed by a buffered reader.
    let reply = match read_reply_line(&mut stream, opts.heartbeat_timeout) {
        Some(r) => r,
        None => return Ok(SessionOutcome::Disconnected),
    };
    if let Some(epoch) = reply.strip_prefix("OK ") {
        let epoch: u64 = epoch.trim().parse().map_err(|_| {
            AdmitError::Journal(JournalError::Replay {
                record: 0,
                reason: format!("bad handshake reply {reply:?}"),
            })
        })?;
        let mut g = engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if epoch < fence {
            g.metrics_mut().epoch_rejects += 1;
            return Ok(SessionOutcome::End(FollowEnd::StaleSource));
        }
        g.observe_epoch(epoch)?;
    } else if reply.starts_with("ERR stale-epoch") {
        // The primary itself detected it is behind our fence.
        let mut g = engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.metrics_mut().epoch_rejects += 1;
        return Ok(SessionOutcome::End(FollowEnd::StaleSource));
    } else {
        return Ok(SessionOutcome::Disconnected);
    }
    *last_heard = Instant::now();
    role.note_heard();
    let mut mirror = OpenOptions::new()
        .append(true)
        .open(&opts.mirror)
        .map_err(io_err)?;
    // `buf` holds the unconsumed suffix of the stream (always starting at
    // a frame boundary); its first `mirrored` bytes are already on disk —
    // partial frames are flushed eagerly so a kill here leaves exactly
    // the torn tail the next resync's scan expects.
    let mut buf: Vec<u8> = Vec::new();
    let mut mirrored = 0usize;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if role.stopping() {
            return Ok(SessionOutcome::End(FollowEnd::Stopped));
        }
        if role.promote_requested() {
            return Ok(SessionOutcome::End(FollowEnd::PromoteRequested));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Ok(SessionOutcome::Disconnected),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_heard.elapsed() >= opts.heartbeat_timeout {
                    let mut g = engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g.metrics_mut().heartbeat_misses += 1;
                    drop(g);
                    *last_heard = Instant::now();
                    if opts.exit_on_lease_expiry {
                        return Ok(SessionOutcome::End(FollowEnd::LeaseExpired));
                    }
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(SessionOutcome::Disconnected),
        };
        *last_heard = Instant::now();
        role.note_heard();
        buf.extend_from_slice(&chunk[..n]);
        // Walk the chunk's frames by offset — each is checked and decoded
        // exactly once, applied straight from `buf` — and drop the
        // consumed prefix once at the end.
        let mut pos = 0usize;
        loop {
            if mirrored == pos && buf.get(pos) == Some(&HEARTBEAT_BYTE) {
                pos += 1;
                mirrored = pos;
                continue;
            }
            match check_frame(&buf, pos) {
                FrameCheck::Complete { kind, payload, end } => {
                    mirror.write_all(&buf[mirrored..end]).map_err(io_err)?;
                    let mut g = engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    let res = apply_record(&mut g, kind, payload);
                    g.metrics_mut().repl_bytes += (end - pos) as u64;
                    let stale = matches!(res, Err(AdmitError::StaleEpoch { .. }));
                    if stale {
                        g.metrics_mut().epoch_rejects += 1;
                        drop(g);
                        return Ok(SessionOutcome::End(FollowEnd::StaleSource));
                    }
                    drop(g);
                    res?;
                    pos = end;
                    mirrored = end;
                }
                FrameCheck::Incomplete => {
                    mirror.write_all(&buf[mirrored..]).map_err(io_err)?;
                    mirrored = buf.len();
                    break;
                }
                FrameCheck::Invalid => {
                    // Corrupted in flight: drop the connection and let the
                    // resync scan truncate whatever reached the mirror.
                    return Ok(SessionOutcome::Disconnected);
                }
            }
        }
        buf.drain(..pos);
        mirrored -= pos;
    }
}

fn read_reply_line(stream: &mut TcpStream, deadline: Duration) -> Option<String> {
    let start = Instant::now();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => {
                if byte[0] == b'\n' {
                    return String::from_utf8(line).ok();
                }
                line.push(byte[0]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if start.elapsed() > deadline {
                    return None;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

/// Promotes a parked follower to primary: waits for the replica loop to
/// park, drains any mirror tail into the engine (torn bytes truncated and
/// counted), attaches the mirror as the live journal, fsyncs an
/// epoch-begin record one past the highest epoch observed, and flips the
/// role. Idempotent: promoting a primary returns its current epoch.
///
/// Returns the new epoch.
///
/// # Errors
///
/// * [`AdmitError::Journal`] for mirror I/O or replay failures, or if the
///   replica loop failed to park within the timeout.
/// * [`AdmitError::StaleEpoch`] cannot occur here (the epoch is derived
///   from the fence), but replay errors propagate.
pub fn promote(engine: &Mutex<AdmissionEngine>, ctx: &RoleContext) -> Result<u64, AdmitError> {
    if ctx.role.is_primary() {
        let g = engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        return Ok(g.epoch());
    }
    ctx.role.request_promote();
    let deadline = Instant::now() + PARK_TIMEOUT;
    while !ctx.role.parked() {
        if Instant::now() > deadline {
            return Err(AdmitError::Journal(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "replica loop did not park for promotion",
            ))));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if !ctx.mirror.exists() {
        File::create(&ctx.mirror).map_err(io_err)?;
    }
    let mut data = Vec::new();
    File::open(&ctx.mirror)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(io_err)?;
    let scan = journal::scan_bytes(&data);
    let mut g = engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let applied = g.metrics().repl_records as usize;
    for rec in scan.records.iter().skip(applied) {
        apply_record(&mut g, rec.kind, &rec.payload)?;
    }
    if scan.bytes_lost() > 0 {
        g.metrics_mut().repl_torn_tails += 1;
    }
    g.metrics_mut().repl_bytes = scan.valid_len;
    let journal = Journal::append_to(&ctx.mirror, ctx.jconfig, &scan).map_err(io_err)?;
    g.attach_journal(journal);
    let new_epoch = g.epoch() + 1;
    g.begin_epoch(new_epoch)?;
    ctx.role.set_primary();
    Ok(new_epoch)
}
