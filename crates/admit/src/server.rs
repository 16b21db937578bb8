//! The serving loops behind `dvs_admitd`, and the engine's side of the
//! newline-delimited JSON protocol.
//!
//! One request per line, one response per line; the requests, replies
//! and error kinds are the [`wire`](crate::wire) schema (DESIGN §12 has the table).
//! `stats`/`shutdown` return the full metrics registry (see
//! [`AdmissionEngine::stats_json`]) and `log` dumps the engine's decision
//! log (the determinism suite's bit-compared artifact). Invalid lines
//! yield a structured [`Refusal`] and never terminate the session: an
//! erroring request leaves the engine untouched (see
//! [`AdmissionEngine::apply_opts`]) and is safe to retry.
//!
//! The same handler serves stdin/stdout ([`serve_session`]) and TCP
//! connections ([`serve_tcp`], one thread per connection over a shared
//! engine). The engine core itself stays deterministic — concurrency only
//! affects the interleaving of *independent sessions'* requests, never the
//! outcome of a given event sequence.
//!
//! ## Robustness controls
//!
//! [`ServeOptions`] and [`ServerControl`] layer the overload/drain policy
//! on top:
//!
//! * **Read timeouts** (`read_timeout`) bound how long a connection may
//!   sit idle mid-request, reaping slow-loris clients; a timed-out session
//!   ends with [`SessionEnd::TimedOut`] instead of blocking a worker
//!   forever.
//! * **Backpressure** (`overload_threshold`): when more requests than the
//!   threshold are in flight across sessions, excess events are applied on
//!   the engine's degraded myopic fast path — admission verdicts are
//!   unchanged (pricing is reservation-based and myopic-identical), only
//!   re-solve passes are skipped, so the server sheds *optimization* work,
//!   never availability. Counted in `backpressure_sheds`.
//! * **Graceful drain** ([`ServerControl::request_drain`], wired to
//!   SIGTERM by the binary): the accept loop stops, each session finishes
//!   the requests it has already buffered and ends with
//!   [`SessionEnd::Drained`], and the binary then fsyncs and snapshots the
//!   journal.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use rt_model::io::EventKind;

use crate::engine::{AdmissionEngine, Verdict};
use crate::json;
use crate::replication::{self, RoleContext};
use crate::wire::{shed_ids, Refusal, Reply, Request};

/// Outcome of handling one request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The response line (no trailing newline).
    pub response: String,
    /// Whether the request asked the server to shut down.
    pub shutdown: bool,
}

/// Parses and executes one request line against the engine.
///
/// Never panics and never returns `Err`: protocol and engine errors are
/// encoded in the response so a misbehaving client cannot take the server
/// down.
pub fn handle_line(engine: &mut AdmissionEngine, line: &str) -> Handled {
    handle_line_with(engine, line, &mut json::Scratch::default())
}

/// [`handle_line`], but parsing into a caller-provided [`json::Scratch`]
/// so a long-lived session reuses its request buffers instead of
/// allocating per line. The serving loops keep one scratch per session.
pub fn handle_line_with(
    engine: &mut AdmissionEngine,
    line: &str,
    scratch: &mut json::Scratch,
) -> Handled {
    match Request::parse(line, scratch) {
        Ok(request) => handle_request(engine, request, false),
        Err(refusal) => refused(&refusal),
    }
}

fn refused(refusal: &Refusal) -> Handled {
    Handled {
        response: refusal.to_string(),
        shutdown: false,
    }
}

/// Executes one parsed request against the engine.
fn handle_request(engine: &mut AdmissionEngine, request: Request<'_>, fast: bool) -> Handled {
    let shutdown = matches!(request, Request::Shutdown);
    Handled {
        response: execute(engine, request, fast).unwrap_or_else(|refusal| refusal.to_string()),
        shutdown,
    }
}

fn execute(
    engine: &mut AdmissionEngine,
    request: Request<'_>,
    fast: bool,
) -> Result<String, Refusal> {
    Ok(match request {
        Request::Event { event, dlog } => {
            let decisions = engine.apply_opts(&event, fast)?;
            match event.kind {
                EventKind::Arrive(task) => {
                    let verdict = decisions
                        .iter()
                        .find(|d| d.task == task.id())
                        .map(|d| d.verdict)
                        .ok_or_else(|| Refusal::bad_request("engine returned no verdict"))?;
                    Reply::Verdict {
                        id: task.id().index(),
                        domain: match verdict {
                            Verdict::Accepted { domain } => Some(domain),
                            _ => None,
                        },
                        dlog: dlog.then_some(decisions),
                    }
                }
                EventKind::Depart(id) => Reply::Depart {
                    id: id.index(),
                    shed: shed_ids(&decisions),
                    dlog: dlog.then_some(decisions),
                },
                EventKind::Tick => Reply::Tick {
                    shed: shed_ids(&decisions),
                    resolves: engine.metrics().resolves,
                    dlog: dlog.then_some(decisions),
                },
            }
            .line()
        }
        Request::Export { domain } => Reply::Export {
            domain,
            payload: &engine.export_domain(domain)?,
        }
        .line(),
        Request::Import { key, payload } => Reply::Import {
            local: engine.import_domain(key, payload)?,
        }
        .line(),
        Request::Layout => Reply::Layout(engine.domain_layout()).line(),
        Request::Present => Reply::Present {
            tasks: engine
                .present_tasks()
                .into_iter()
                .map(|(id, pin)| (id.index(), pin))
                .collect(),
            departed: engine.departed_ids().map(|id| id.index()).collect(),
        }
        .line(),
        Request::Stats | Request::Shutdown => {
            format!("{{\"ok\":true,{}", &engine.stats_json()[1..])
        }
        // Role-less servers are plain primaries; failover deployments
        // intercept these two ops in `handle_line_role` before the lock.
        Request::Role | Request::Promote => Reply::Role {
            primary: true,
            epoch: engine.epoch(),
        }
        .line(),
        Request::Log => Reply::Log {
            decisions: engine.decision_log().len() as u64,
            log: &engine.format_decision_log(),
        }
        .line(),
        Request::Map | Request::ReshardAdd(_) | Request::ReshardRemove(_) => {
            return Err(request.unknown_op())
        }
    })
}

/// Role-aware request dispatch for failover deployments: the line is
/// parsed once, and the parsed request decides what happens.
///
/// Two request classes must be decided **before** taking the engine lock:
///
/// * `{"op":"promote"}` executes [`replication::promote`], which waits
///   for the replica loop to park — and the replica loop only checks its
///   park flag between lock acquisitions, so promoting from inside the
///   lock would deadlock.
/// * Write ops (`arrive`/`depart`/`tick`/`export`/`import`) on a
///   **follower** are refused with the structured kind `not-primary` — a
///   follower's engine state is owned by the replication stream, and
///   interleaving client writes would fork it from the primary's history.
///   Reads (`stats`, `log`) are served from the mirror state, which is
///   exactly what a failover drill wants to inspect.
///
/// `{"op":"role"}` reports `{"role":"follower"|"primary","epoch":N}`.
/// With `role = None` (a plain primary, no failover deployment) every op
/// is executed under the lock. A malformed line is refused as such on
/// every node. `fast = true` applies events on the engine's degraded
/// myopic path (the backpressure response — see
/// [`AdmissionEngine::apply_opts`]).
fn handle_line_role(
    engine: &Mutex<AdmissionEngine>,
    line: &str,
    scratch: &mut json::Scratch,
    fast: bool,
    role: Option<&RoleContext>,
) -> Handled {
    let request = match Request::parse(line, scratch) {
        Ok(request) => request,
        Err(refusal) => return refused(&refusal),
    };
    let lock = || engine.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(ctx) = role else {
        return handle_request(&mut lock(), request, fast);
    };
    let primary = ctx.role.is_primary();
    let response = match request {
        Request::Promote => match replication::promote(engine, ctx) {
            Ok(epoch) => Reply::Role {
                primary: true,
                epoch,
            }
            .line(),
            Err(e) => Refusal::from(e).to_string(),
        },
        Request::Role => Reply::Role {
            primary,
            epoch: lock().epoch(),
        }
        .line(),
        Request::Event { .. } | Request::Export { .. } | Request::Import { .. } if !primary => {
            Refusal::new(
                "not-primary",
                None,
                "this node is a follower; promote it or address the primary",
            )
            .to_string()
        }
        Request::Stats | Request::Log if !primary => {
            // Follower read-serving: answer from the mirror state and
            // stamp how stale the answer may be (milliseconds since the
            // replica loop last heard from the primary), so a router
            // hedging reads to this standby can bound the lag.
            let mut handled = handle_request(&mut lock(), request, fast);
            if let Some(stripped) = handled.response.strip_suffix('}') {
                handled.response = format!("{stripped},\"stale_by\":{}}}", ctx.role.stale_by_ms());
            }
            return handled;
        }
        _ => return handle_request(&mut lock(), request, fast),
    };
    Handled {
        response,
        shutdown: false,
    }
}

/// How a serving session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client closed the stream.
    Eof,
    /// The client requested shutdown.
    Shutdown,
    /// The server was draining and the session stopped at a batch
    /// boundary.
    Drained,
    /// The connection idled past its read timeout (slow-loris reaping).
    TimedOut,
}

/// Per-session serving knobs.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Socket read timeout applied to TCP connections by [`serve_tcp`]
    /// (`None` = block forever, the right choice for stdin).
    pub read_timeout: Option<Duration>,
    /// Degrade to the myopic fast path when more than this many requests
    /// are in flight across sessions (`None` disables backpressure).
    pub overload_threshold: Option<usize>,
    /// The failover role shared by every session of a failover
    /// deployment, so any connection may promote and follower
    /// write-gating is uniform (see `handle_line_role`). `None` serves
    /// a plain primary.
    pub role: Option<Arc<RoleContext>>,
}

/// Shared control/observability block for the serving loops: drain
/// signalling, the in-flight request gauge that drives backpressure, and
/// the idle-timeout counter.
#[derive(Debug, Default)]
pub struct ServerControl {
    drain: AtomicBool,
    pending: AtomicUsize,
    timeouts: AtomicU64,
    /// Where a loopback connect wakes the accept loop out of its blocking
    /// `accept`. Set once, by the accept loop: a control block belongs to
    /// one listener.
    wake: OnceLock<SocketAddr>,
}

impl ServerControl {
    /// Creates a control block (not draining, nothing in flight).
    #[must_use]
    pub fn new() -> Self {
        ServerControl::default()
    }

    /// Asks every serving loop to drain: the accept loop stops taking
    /// connections and each session ends at its next batch boundary.
    ///
    /// The first request also wakes the accept loop, which blocks in
    /// `accept`, by connecting to its listener. That is an atomic swap, a
    /// lock-free read and socket system calls — no allocation, no lock —
    /// so a signal handler may call this.
    pub fn request_drain(&self) {
        if self.drain.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.wake.get() {
            let _ = TcpStream::connect_timeout(addr, WAKE_TIMEOUT);
        }
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.drain.load(Ordering::SeqCst)
    }

    /// Requests currently being handled across sessions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Connections reaped by the read timeout so far.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// Bound on the accept loop's wake-up connect. It only bites when the
/// listener's backlog is full, and then pending connections wake the
/// loop anyway.
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// Read-buffer size of a session, and so the most request bytes one
/// batch can hold. A handler that forwards a batch downstream before
/// reading any reply (the router) relies on this being small against a
/// socket buffer.
const READ_BUFFER: usize = 8 * 1024;

/// The one serving loop: reads newline-delimited requests from `reader`
/// and writes one response line each to `writer`, both buffered.
///
/// `handle` is given **every complete request already buffered** — what
/// the client has sent so far, never waiting for more — with blank lines
/// dropped and whitespace trimmed, and a sink that takes one [`Handled`]
/// per request, in order; it stops early only after a request that asks
/// for shutdown. A client that sends one request and waits sees batches
/// of one; a pipelining client lets the handler overlap the work of a
/// burst.
///
/// Responses are flushed when no complete request is left in the read
/// buffer — i.e. just before the next read could block — so pipelined
/// clients get one syscall per burst while interactive clients still see
/// every response before the server waits on them.
///
/// A drain request is honoured at batch boundaries: buffered requests are
/// finished first, then the session ends with [`SessionEnd::Drained`]. A
/// read that fails with `WouldBlock`/`TimedOut` (the socket read timeout)
/// ends the session with [`SessionEnd::TimedOut`].
///
/// # Errors
///
/// Propagates I/O errors on the transport, invalid UTF-8 included
/// (protocol errors are reported in-band).
pub fn serve_batches<R: Read, W: Write>(
    reader: R,
    writer: W,
    ctl: &ServerControl,
    mut handle: impl FnMut(&[&str], &mut dyn FnMut(Handled)),
) -> std::io::Result<SessionEnd> {
    let mut reader = BufReader::with_capacity(READ_BUFFER, reader);
    let mut writer = BufWriter::new(writer);
    let mut long_line = String::new();
    // How much of the read buffer is complete requests.
    let complete_in = |buffer: &[u8]| {
        buffer
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1)
    };
    loop {
        let mut complete = complete_in(reader.buffer());
        if complete == 0 {
            writer.flush()?;
            if reader.buffer().is_empty() && ctl.draining() {
                return Ok(SessionEnd::Drained);
            }
            // Blocks for more input: the rest of a partial line, or —
            // past the end of a full buffer — a line longer than it.
            long_line.clear();
            match reader.read_line(&mut long_line) {
                Ok(0) => return Ok(SessionEnd::Eof),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    ctl.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Ok(SessionEnd::TimedOut);
                }
                Err(e) => return Err(e),
            }
            // Whatever arrived behind that line joins its batch.
            complete = complete_in(reader.buffer());
        }
        let buffered = std::str::from_utf8(&reader.buffer()[..complete])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let requests: Vec<&str> = std::iter::once(long_line.as_str())
            .chain(buffered.split('\n'))
            .map(str::trim)
            .filter(|request| !request.is_empty())
            .collect();
        let mut written = Ok(());
        let mut shutdown = false;
        handle(&requests, &mut |handled| {
            if written.is_ok() {
                written = writer
                    .write_all(handled.response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"));
            }
            shutdown |= handled.shutdown;
        });
        written?;
        if shutdown {
            writer.flush()?;
            return Ok(SessionEnd::Shutdown);
        }
        reader.consume(complete);
        long_line.clear();
    }
}

/// Serves a newline-delimited session from `reader` to `writer` under the
/// given options and control block: [`serve_batches`] with the engine as
/// the handler, one request at a time under its lock, dispatched through
/// `handle_line_role` with the options' role. (The engine's write-ahead
/// journal, when attached, is flushed per *event* inside `apply` — a
/// decision is journaled before its response is even formatted,
/// regardless of response batching.) The stdin/stdout serving path is
/// this with default options.
///
/// # Errors
///
/// Propagates I/O errors on the transport (protocol errors are reported
/// in-band).
pub fn serve_session<R: Read, W: Write>(
    engine: &Mutex<AdmissionEngine>,
    reader: R,
    writer: W,
    opts: &ServeOptions,
    ctl: &ServerControl,
) -> std::io::Result<SessionEnd> {
    let mut scratch = json::Scratch::default();
    let role = opts.role.as_deref();
    serve_batches(reader, writer, ctl, |requests, reply| {
        for request in requests {
            ctl.pending.fetch_add(1, Ordering::SeqCst);
            let fast = opts
                .overload_threshold
                .is_some_and(|th| ctl.pending.load(Ordering::SeqCst) > th);
            let handled = handle_line_role(engine, request, &mut scratch, fast, role);
            ctl.pending.fetch_sub(1, Ordering::SeqCst);
            let shutdown = handled.shutdown;
            reply(handled);
            if shutdown {
                break;
            }
        }
    })
}

/// Accept loop: serves every connection on `listener` (one thread per
/// connection, each a [`serve_session`] under `opts`) over the shared
/// engine until a session requests shutdown or a drain is signalled.
///
/// The loop blocks in `accept`; [`ServerControl::request_drain`] — called
/// by whoever wants the server gone, and by the session that saw a
/// `shutdown` request — wakes it with a loopback connect. `drain_signal`,
/// when given, is a flag checked before every `accept` and promoted into
/// a drain: a `SIGTERM` handler that sets it must also call
/// `request_drain` (or otherwise wake the loop), because `accept`
/// restarts after a signal. On shutdown or drain the loop stops
/// accepting, asks every live session to drain, and joins the workers
/// (sessions end at their next batch boundary or read timeout).
///
/// # Errors
///
/// Propagates listener errors (per-connection I/O errors only end that
/// connection).
pub fn serve_tcp(
    listener: &TcpListener,
    engine: &Arc<Mutex<AdmissionEngine>>,
    opts: ServeOptions,
    ctl: &Arc<ServerControl>,
    drain_signal: Option<&AtomicBool>,
) -> std::io::Result<()> {
    serve_connections(listener, ctl, drain_signal, |stream| {
        let engine = Arc::clone(engine);
        let ctl = Arc::clone(ctl);
        let opts = opts.clone();
        Some(std::thread::spawn(move || {
            if let Some(t) = opts.read_timeout {
                let _ = stream.set_read_timeout(Some(t));
            }
            let reader = stream.try_clone().expect("clone stream");
            if let Ok(SessionEnd::Shutdown) = serve_session(&engine, reader, stream, &opts, &ctl) {
                ctl.request_drain();
            }
        }))
    })
}

/// The blocking accept loop under [`serve_tcp`] (and `dvs_routerd`, which
/// serves its connections one at a time on the accepting thread): hands
/// every connection to `session` until `ctl` drains, then joins whatever
/// threads `session` returned.
///
/// # Errors
///
/// Propagates listener errors.
pub fn serve_connections(
    listener: &TcpListener,
    ctl: &ServerControl,
    drain_signal: Option<&AtomicBool>,
    mut session: impl FnMut(TcpStream) -> Option<std::thread::JoinHandle<()>>,
) -> std::io::Result<()> {
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = ctl.wake.set(wake);
    let mut workers = Vec::new();
    loop {
        if drain_signal.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            ctl.request_drain();
        }
        if ctl.draining() {
            break;
        }
        let (stream, _peer) = listener.accept()?;
        if ctl.draining() {
            // The wake-up connect, or a client that lost the race with
            // the drain: either way it is not served.
            break;
        }
        // Responses are small and latency-sensitive; batching is handled
        // by the session's BufWriter, so Nagle only adds delay on the
        // final partial segment of each flush.
        let _ = stream.set_nodelay(true);
        workers.extend(session(stream));
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::json::{parse_object, JsonValue};
    use dvs_power::presets::cubic_ideal;
    use reject_sched::online::OnlineGreedy;

    fn engine() -> AdmissionEngine {
        AdmissionEngine::new(
            vec![cubic_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn arrive_depart_tick_round_trip() {
        let mut e = engine();
        let r = handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        assert!(!r.shutdown);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            json::get(&kv, "decision").unwrap().as_str(),
            Some("accepted")
        );
        let r = handle_line(&mut e, r#"{"op":"tick","at":10}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "shed"), Some(&JsonValue::Arr(vec![])));
        let r = handle_line(&mut e, r#"{"op":"depart","at":20,"id":1}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn malformed_lines_do_not_kill_the_session() {
        let mut e = engine();
        for bad in [
            "not json",
            "{}",
            r#"{"op":"arrive","at":0}"#,
            r#"{"op":"warp","at":0}"#,
            r#"{"op":"depart","at":0,"id":99}"#,
        ] {
            let r = handle_line(&mut e, bad);
            assert!(!r.shutdown);
            let kv = parse_object(&r.response).unwrap();
            assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(false)), "{bad}");
        }
        // The session still works afterwards.
        let r = handle_line(&mut e, r#"{"op":"stats"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn errors_are_structured_with_kind_and_id() {
        let mut e = engine();
        // Unknown departure names the task and the kind.
        let r = handle_line(&mut e, r#"{"op":"depart","at":0,"id":99}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "ok"), Some(&JsonValue::Bool(false)));
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("unknown-task")
        );
        assert_eq!(json::get(&kv, "id").unwrap().as_f64(), Some(99.0));
        // Protocol errors use the bad-request kind, without an id.
        let r = handle_line(&mut e, "not json");
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("bad-request")
        );
        assert!(json::get(&kv, "id").is_none());
    }

    #[test]
    fn duplicate_and_stale_ids_yield_typed_errors_not_hangs() {
        let mut e = engine();
        let arrive = r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#;
        assert!(handle_line(&mut e, arrive).response.contains("\"ok\":true"));
        // Duplicate while present.
        let r = handle_line(&mut e, arrive);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("duplicate-task")
        );
        // Departed: both re-arrival and re-departure are stale.
        handle_line(&mut e, r#"{"op":"depart","at":1,"id":1}"#);
        let r = handle_line(
            &mut e,
            r#"{"op":"arrive","at":2,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("already-departed")
        );
        let r = handle_line(&mut e, r#"{"op":"depart","at":3,"id":1}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(
            json::get(&kv, "kind").unwrap().as_str(),
            Some("already-departed")
        );
        // None of the errors perturbed the engine: balance still holds.
        let m = e.metrics();
        assert_eq!(m.arrivals, 1);
        assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
    }

    #[test]
    fn integer_fields_must_be_whole_numbers_that_fit() {
        let mut e = engine();
        let arrive = |fields: &str| {
            format!(r#"{{"op":"arrive","at":0,"cycles":30.0,"penalty":2.5,{fields}}}"#)
        };
        for (line, error) in [
            (arrive(r#""id":-3,"period":1000"#), "invalid id -3"),
            (arrive(r#""id":1.5,"period":1000"#), "invalid id 1.5"),
            (
                arrive(r#""id":1e20,"period":1000"#),
                "invalid id 100000000000000000000",
            ),
            (arrive(r#""id":1,"period":100.7"#), "invalid period 100.7"),
            (arrive(r#""id":1,"period":-1000"#), "invalid period -1000"),
            (
                arrive(r#""id":1,"period":1000,"deadline":2.5"#),
                "invalid deadline 2.5",
            ),
            (
                arrive(r#""id":1,"period":1000,"deadline":-5"#),
                "invalid deadline -5",
            ),
            (
                r#"{"op":"depart","at":0,"id":-3}"#.to_string(),
                "invalid id -3",
            ),
            (
                r#"{"op":"export","domain":-1}"#.to_string(),
                "invalid domain -1",
            ),
            (
                r#"{"op":"export","domain":0.5}"#.to_string(),
                "invalid domain 0.5",
            ),
        ] {
            let r = handle_line(&mut e, &line);
            let kv = parse_object(&r.response).unwrap();
            assert_eq!(
                json::get(&kv, "kind").unwrap().as_str(),
                Some("bad-request"),
                "{line}"
            );
            assert_eq!(
                json::get(&kv, "error").unwrap().as_str(),
                Some(error),
                "{line}"
            );
        }
        // Nothing was admitted and domain 0 was not fenced.
        assert_eq!(e.metrics().arrivals, 0);
        assert_eq!(e.domain_layout(), [(false, None)]);
        let r = handle_line(&mut e, &arrive(r#""id":1,"period":1000,"deadline":1000"#));
        assert!(
            r.response.contains("\"decision\":\"accepted\""),
            "{}",
            r.response
        );
    }

    #[test]
    fn stats_and_shutdown_dump_the_registry() {
        let mut e = engine();
        handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":900.0,"period":1000,"penalty":0.001}"#,
        );
        let r = handle_line(&mut e, r#"{"op":"stats"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "arrivals").unwrap().as_f64(), Some(1.0));
        let r = handle_line(&mut e, r#"{"op":"shutdown"}"#);
        assert!(r.shutdown);
        let kv = parse_object(&r.response).unwrap();
        let arrivals = json::get(&kv, "arrivals").unwrap().as_f64().unwrap();
        let accepted = json::get(&kv, "accepted").unwrap().as_f64().unwrap();
        let rejected = json::get(&kv, "rejected").unwrap().as_f64().unwrap();
        let shed = json::get(&kv, "shed").unwrap().as_f64().unwrap();
        assert_eq!(accepted + rejected + shed, arrivals);
    }

    #[test]
    fn log_op_dumps_the_decision_log() {
        let mut e = engine();
        handle_line(
            &mut e,
            r#"{"op":"arrive","at":0,"id":1,"cycles":30.0,"period":1000,"penalty":2.5}"#,
        );
        let r = handle_line(&mut e, r#"{"op":"log"}"#);
        let kv = parse_object(&r.response).unwrap();
        assert_eq!(json::get(&kv, "decisions").unwrap().as_f64(), Some(1.0));
        let log = json::get(&kv, "log").unwrap().as_str().unwrap().to_string();
        assert_eq!(log, e.format_decision_log());
        assert!(log.contains("accepted@0"));
    }

    #[test]
    fn serve_lines_over_buffers() {
        let e = Mutex::new(engine());
        let input = b"{\"op\":\"arrive\",\"at\":0,\"id\":7,\"cycles\":10.0,\"period\":100,\"penalty\":9.0}\n\n{\"op\":\"shutdown\"}\n".to_vec();
        let mut out = Vec::new();
        let (opts, ctl) = (ServeOptions::default(), ServerControl::new());
        let end = serve_session(&e, &input[..], &mut out, &opts, &ctl).unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"decision\""));
        assert!(lines[1].contains("\"op\":\"stats\""));
    }

    #[test]
    fn drain_request_stops_the_session_at_a_batch_boundary() {
        let e = Mutex::new(engine());
        let ctl = ServerControl::new();
        ctl.request_drain();
        let input =
            b"{\"op\":\"arrive\",\"at\":0,\"id\":7,\"cycles\":10.0,\"period\":100,\"penalty\":9.0}\n"
                .to_vec();
        let mut out = Vec::new();
        let end = serve_session(&e, &input[..], &mut out, &ServeOptions::default(), &ctl).unwrap();
        // Drain honoured before any read: nothing was handled.
        assert_eq!(end, SessionEnd::Drained);
        assert!(out.is_empty());
    }

    #[test]
    fn a_batch_is_every_complete_request_already_buffered() {
        // 3 requests, a blank line, one request longer than the read
        // buffer, one more, and an unterminated last one.
        let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(3 * READ_BUFFER));
        let input = format!("a\n b \n\nc\n{long}\nd\ne");
        let mut batches: Vec<Vec<String>> = Vec::new();
        let mut out = Vec::new();
        let end = serve_batches(
            input.as_bytes(),
            &mut out,
            &ServerControl::new(),
            |reqs, reply| {
                batches.push(reqs.iter().map(|r| (*r).to_string()).collect());
                for r in reqs {
                    reply(Handled {
                        response: format!("<{}>", r.len()),
                        shutdown: false,
                    });
                }
            },
        )
        .unwrap();
        assert_eq!(end, SessionEnd::Eof);
        let flat: Vec<String> = batches.concat();
        assert_eq!(flat, ["a", "b", "c", long.as_str(), "d", "e"]);
        // Everything in front of the long line arrived in one read, so it
        // is one batch; nothing is ever split into single requests.
        assert_eq!(batches[0], ["a", "b", "c"]);
        assert!(batches.len() <= 4, "{} batches", batches.len());
        let replies = String::from_utf8(out).unwrap();
        assert_eq!(
            replies,
            format!("<1>\n<1>\n<1>\n<{}>\n<1>\n<1>\n", long.len())
        );
    }

    #[test]
    fn a_batch_stops_at_the_request_that_shuts_down() {
        let mut out = Vec::new();
        let end = serve_batches(
            &b"a\nstop\nnever\n"[..],
            &mut out,
            &ServerControl::new(),
            |reqs, reply| {
                for r in reqs {
                    let shutdown = *r == "stop";
                    reply(Handled {
                        response: (*r).to_string(),
                        shutdown,
                    });
                    if shutdown {
                        break;
                    }
                }
            },
        )
        .unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        assert_eq!(out, b"a\nstop\n");
    }

    fn tcp_server() -> (
        String,
        Arc<ServerControl>,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let ctl = Arc::new(ServerControl::new());
        let engine = Arc::new(Mutex::new(engine()));
        let served = Arc::clone(&ctl);
        let server = std::thread::spawn(move || {
            serve_tcp(&listener, &engine, ServeOptions::default(), &served, None)
        });
        (addr, ctl, server)
    }

    #[test]
    fn a_drain_request_wakes_the_blocked_accept_loop() {
        let (addr, ctl, server) = tcp_server();
        // A served round trip first: the loop is back in `accept`, with
        // its wake address set, when the drain arrives.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"op\":\"role\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        drop(stream);
        let started = std::time::Instant::now();
        ctl.request_drain();
        server.join().unwrap().unwrap();
        // No accept poll to wait out.
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn a_shutdown_request_ends_the_accept_loop() {
        let (addr, ctl, server) = tcp_server();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"op\":\"stats\""), "{reply}");
        server.join().unwrap().unwrap();
        assert!(ctl.draining());
    }

    #[test]
    fn overload_threshold_degrades_ticks_to_the_fast_path() {
        let e = Mutex::new(engine());
        let ctl = ServerControl::new();
        let opts = ServeOptions {
            // pending is 1 while each request is handled, so every event
            // exceeds the threshold: permanent overload.
            overload_threshold: Some(0),
            ..ServeOptions::default()
        };
        let input = b"{\"op\":\"arrive\",\"at\":0,\"id\":1,\"cycles\":30.0,\"period\":1000,\"penalty\":2.5}\n{\"op\":\"tick\",\"at\":10}\n{\"op\":\"tick\",\"at\":20}\n".to_vec();
        let mut out = Vec::new();
        let end = serve_session(&e, &input[..], &mut out, &opts, &ctl).unwrap();
        assert_eq!(end, SessionEnd::Eof);
        let g = e.lock().unwrap();
        let m = g.metrics();
        assert_eq!(m.backpressure_sheds, 3, "every event took the fast path");
        assert_eq!(m.resolves, 0, "fast-path ticks skip re-solve passes");
        assert_eq!(m.ticks, 2);
        assert_eq!(m.admitted, 1, "admission verdicts are not degraded");
    }
}
