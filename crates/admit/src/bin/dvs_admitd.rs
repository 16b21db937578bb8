//! `dvs_admitd` — the admission-control server.
//!
//! ```text
//! dvs_admitd (--stdin | --listen ADDR | --replay FILE)
//!            [--policy greedy|threshold=θ|watermark=HI,LO,θ]
//!            [--power xscale|cubic|xscale-table] [--domains N]
//!            [--horizon H] [--resolve-every K] [--regret R] [--budget N]
//!            [--journal FILE] [--recover] [--snapshot-every N]
//!            [--fsync snapshot|always]
//!            [--read-timeout-ms MS] [--overload N]
//!            [--repl-listen ADDR] [--follow ADDR] [--auto-promote-ms MS]
//!
//!   --stdin          serve newline-delimited JSON on stdin/stdout (default)
//!   --listen ADDR    serve TCP connections on ADDR (e.g. 127.0.0.1:7070);
//!                    prints "listening on ADDR" once bound
//!   --replay FILE    replay an event-trace file (rt_model::io format) and
//!                    print the final stats line
//!   --policy         admission rule (default greedy); threshold=θ hedges
//!                    admissions by θ ≥ 1; watermark=HI,LO,θ adds hysteresis
//!   --power          power model per domain (default xscale)
//!   --domains N      number of identical power domains (default 1; 0 starts
//!                    an empty reshard target that grows via `import` ops)
//!   --horizon H      billing horizon in ticks (default 1000)
//!   --resolve-every K  re-solve every K-th tick (0 disables; default 1)
//!   --regret R       also re-solve when shedding profit exceeds R
//!   --budget N       re-solve node budget (default 20000)
//!   --journal FILE   write-ahead journal: every applied event is CRC-framed
//!                    and flushed before its decision is acknowledged
//!   --recover        reconstruct engine state from the journal before
//!                    serving (last complete snapshot + the deltas after it
//!                    + deterministic replay of the tail; a missing journal
//!                    file starts fresh)
//!   --snapshot-every N  embed an engine snapshot every N journaled events
//!                    (default 256; 0 = only on drain/shutdown)
//!   --fsync          snapshot (default): fsync on snapshots and drain only;
//!                    always: fsync every event (power-loss durable)
//!   --read-timeout-ms MS  reap TCP connections idle longer than MS
//!                    (default 30000; 0 disables)
//!   --overload N     degrade to the myopic fast path (skip re-solves, never
//!                    block) when more than N requests are in flight
//!   --repl-listen ADDR  stream the journal to hot-standby followers on ADDR
//!                    (requires --journal); prints "replicating on ADDR"
//!   --follow ADDR    run as a hot-standby follower of the primary whose
//!                    --repl-listen is ADDR: --journal names the local
//!                    *mirror* file (it becomes the live journal on
//!                    promotion). Write requests are refused with
//!                    kind "not-primary" until `{"op":"promote"}` (or the
//!                    auto-promotion below) fails the node over.
//!   --auto-promote-ms MS  while following, self-promote after MS ms
//!                    without a frame or heartbeat from the primary
//! ```
//!
//! The protocol is documented in `dvs_admit::server`. On EOF or a
//! `shutdown` request the final stats line is printed (to stdout in
//! `--stdin`/`--replay` mode, to stderr in `--listen` mode). `SIGTERM`
//! triggers a graceful drain in `--listen` mode: stop accepting, finish
//! buffered requests, fsync, snapshot. Whenever a journal is attached, the
//! server also snapshots on every clean exit path.

use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use dvs_admit::replication::{self, serve_hub, FollowEnd, HubOptions};
use dvs_admit::server::{serve_lines, serve_tcp_role, ServeOptions, ServerControl};
use dvs_admit::{
    AdmissionEngine, EngineConfig, EnginePolicy, FollowerOptions, FsyncPolicy, Journal,
    JournalConfig, ReplicationHub, RoleContext, WatermarkPolicy,
};
use dvs_power::presets::{cubic_ideal, xscale_ideal, xscale_measured};
use dvs_power::Processor;
use reject_sched::online::{OnlineGreedy, ThresholdPolicy};
use rt_model::io::load_event_trace;

enum Mode {
    Stdin,
    Listen(String),
    Replay(String),
}

/// Set by the SIGTERM handler; the TCP accept loop promotes it into a
/// serving-layer drain.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// The `--listen` server's control block, for the SIGTERM handler: the
/// accept loop blocks in `accept`, which restarts after a signal, so the
/// flag alone would go unseen until the next connection.
static CONTROL: OnceLock<Arc<ServerControl>> = OnceLock::new();

extern "C" fn on_sigterm(_sig: i32) {
    DRAIN.store(true, Ordering::SeqCst);
    if let Some(ctl) = CONTROL.get() {
        ctl.request_drain();
    }
}

#[cfg(unix)]
fn install_sigterm() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: the handler stores to a static atomic, reads a `OnceLock`
    // (one atomic load) and calls `ServerControl::request_drain` — an
    // atomic swap, another `OnceLock` read and the socket / connect /
    // poll / close system calls, all async-signal-safe; it takes no lock
    // and does not allocate. The library crate forbids unsafe code; this
    // binary-local registration is the sole exception.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

#[cfg(not(unix))]
fn install_sigterm() {}

fn parse_policy(spec: &str) -> Result<Box<dyn EnginePolicy>, String> {
    if spec == "greedy" {
        return Ok(Box::new(OnlineGreedy));
    }
    if let Some(theta) = spec.strip_prefix("threshold=") {
        let theta: f64 = theta.parse().map_err(|e| format!("bad θ: {e}"))?;
        return Ok(Box::new(
            ThresholdPolicy::new(theta).map_err(|e| e.to_string())?,
        ));
    }
    if let Some(params) = spec.strip_prefix("watermark=") {
        let parts: Vec<&str> = params.split(',').collect();
        if parts.len() != 3 {
            return Err("watermark needs HI,LO,θ".to_string());
        }
        let high: f64 = parts[0].parse().map_err(|e| format!("bad HI: {e}"))?;
        let low: f64 = parts[1].parse().map_err(|e| format!("bad LO: {e}"))?;
        let theta: f64 = parts[2].parse().map_err(|e| format!("bad θ: {e}"))?;
        return Ok(Box::new(
            WatermarkPolicy::new(high, low, theta).map_err(|e| e.to_string())?,
        ));
    }
    Err(format!("unknown policy {spec} (see --help)"))
}

fn parse_power(model: &str) -> Result<Processor, String> {
    Ok(match model {
        "xscale" => xscale_ideal(),
        "cubic" => cubic_ideal(),
        "xscale-table" => xscale_measured(),
        _ => return Err(format!("unknown power model {model} (see --help)")),
    })
}

/// Snapshot + fsync the journal on a clean exit path (no-op without one).
fn drain_journal(engine: &mut AdmissionEngine) -> Result<(), String> {
    engine.snapshot_now().map_err(|e| e.to_string())
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Stdin;
    let mut policy = "greedy".to_string();
    let mut model = "xscale".to_string();
    let mut domains = 1usize;
    let mut config = EngineConfig::default();
    let mut journal_path: Option<String> = None;
    let mut recover = false;
    let mut jconfig = JournalConfig::default();
    let mut read_timeout_ms: u64 = 30_000;
    let mut overload: Option<usize> = None;
    let mut repl_listen: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut auto_promote_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdin" => mode = Mode::Stdin,
            "--listen" => {
                mode = Mode::Listen(it.next().ok_or("--listen needs an address")?.clone());
            }
            "--replay" => {
                mode = Mode::Replay(it.next().ok_or("--replay needs a file")?.clone());
            }
            "--policy" => policy = it.next().ok_or("--policy needs a value")?.clone(),
            "--power" => model = it.next().ok_or("--power needs a value")?.clone(),
            "--domains" => {
                domains = it
                    .next()
                    .ok_or("--domains needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --domains: {e}"))?;
            }
            "--horizon" => {
                config = config.horizon(
                    it.next()
                        .ok_or("--horizon needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --horizon: {e}"))?,
                );
            }
            "--resolve-every" => {
                config = config.resolve_every(
                    it.next()
                        .ok_or("--resolve-every needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --resolve-every: {e}"))?,
                );
            }
            "--regret" => {
                config = config.regret_threshold(
                    it.next()
                        .ok_or("--regret needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --regret: {e}"))?,
                );
            }
            "--budget" => {
                config = config.resolve_budget(
                    it.next()
                        .ok_or("--budget needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                );
            }
            "--journal" => {
                journal_path = Some(it.next().ok_or("--journal needs a file")?.clone());
            }
            "--recover" => recover = true,
            "--snapshot-every" => {
                jconfig.snapshot_every = it
                    .next()
                    .ok_or("--snapshot-every needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --snapshot-every: {e}"))?;
            }
            "--fsync" => {
                jconfig.fsync = match it.next().ok_or("--fsync needs a value")?.as_str() {
                    "snapshot" => FsyncPolicy::OnSnapshot,
                    "always" => FsyncPolicy::Always,
                    other => return Err(format!("bad --fsync {other} (want snapshot|always)")),
                };
            }
            "--read-timeout-ms" => {
                read_timeout_ms = it
                    .next()
                    .ok_or("--read-timeout-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --read-timeout-ms: {e}"))?;
            }
            "--overload" => {
                overload = Some(
                    it.next()
                        .ok_or("--overload needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --overload: {e}"))?,
                );
            }
            "--repl-listen" => {
                repl_listen = Some(it.next().ok_or("--repl-listen needs an address")?.clone());
            }
            "--follow" => {
                follow = Some(it.next().ok_or("--follow needs an address")?.clone());
            }
            "--auto-promote-ms" => {
                auto_promote_ms = Some(
                    it.next()
                        .ok_or("--auto-promote-ms needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --auto-promote-ms: {e}"))?,
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: dvs_admitd (--stdin | --listen ADDR | --replay FILE) \
                     [--policy greedy|threshold=T|watermark=HI,LO,T] \
                     [--power xscale|cubic|xscale-table] [--domains N] [--horizon H] \
                     [--resolve-every K] [--regret R] [--budget N] \
                     [--journal FILE] [--recover] [--snapshot-every N] \
                     [--fsync snapshot|always] [--read-timeout-ms MS] [--overload N] \
                     [--repl-listen ADDR] [--follow ADDR] [--auto-promote-ms MS]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if recover && journal_path.is_none() {
        return Err("--recover requires --journal".to_string());
    }
    if repl_listen.is_some() && journal_path.is_none() {
        return Err("--repl-listen requires --journal (the stream is the journal)".to_string());
    }
    if follow.is_some() {
        if journal_path.is_none() {
            return Err("--follow requires --journal (the mirror file)".to_string());
        }
        if recover {
            return Err(
                "--recover conflicts with --follow (the mirror is replayed on connect)".to_string(),
            );
        }
        if !matches!(mode, Mode::Listen(_)) {
            return Err("--follow requires --listen (the standby serves reads)".to_string());
        }
    }
    let cpus: Vec<Processor> = (0..domains)
        .map(|_| parse_power(&model))
        .collect::<Result<_, _>>()?;
    // A follower's engine is fed by the replication stream; the mirror
    // file is written by the replica loop and only attached as the live
    // journal on promotion — creating a journal here would truncate it.
    let engine = if follow.is_some() {
        AdmissionEngine::with_domains(cpus, parse_policy(&policy)?, config)
            .map_err(|e| e.to_string())?
    } else if let Some(path) = &journal_path {
        if recover {
            let recovered =
                AdmissionEngine::recover(path, cpus, parse_policy(&policy)?, config, jconfig)
                    .map_err(|e| e.to_string())?;
            eprintln!(
                "recovered from {path}: snapshot={} replayed={} lost_records={} lost_bytes={}",
                recovered.had_snapshot,
                recovered.replayed,
                recovered.records_lost,
                recovered.bytes_lost
            );
            recovered.engine
        } else {
            let mut engine = AdmissionEngine::with_domains(cpus, parse_policy(&policy)?, config)
                .map_err(|e| e.to_string())?;
            let journal =
                Journal::create(path, jconfig).map_err(|e| format!("journal {path}: {e}"))?;
            engine.attach_journal(journal);
            engine
        }
    } else {
        AdmissionEngine::with_domains(cpus, parse_policy(&policy)?, config)
            .map_err(|e| e.to_string())?
    };
    let mut engine = engine;
    // A journaled primary stamps its current epoch at serving start so the
    // journal (and therefore every replication stream) is self-describing:
    // a follower learns the primary's term from the stream alone.
    if journal_path.is_some() && follow.is_none() {
        engine.stamp_epoch().map_err(|e| e.to_string())?;
    }
    let engine = engine;

    install_sigterm();
    match mode {
        Mode::Stdin => {
            let engine = Mutex::new(engine);
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let shutdown =
                serve_lines(&engine, stdin.lock(), stdout.lock()).map_err(|e| e.to_string())?;
            let mut guard = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drain_journal(&mut guard)?;
            // On plain EOF the shutdown dump has not been written yet. A
            // closed pipe (e.g. `| head`) is not an error at this point.
            if !shutdown {
                let _ = writeln!(std::io::stdout(), "{}", guard.stats_json());
            }
        }
        Mode::Replay(file) => {
            let trace = load_event_trace(&file).map_err(|e| e.to_string())?;
            let mut engine = engine;
            dvs_admit::trace::replay(&mut engine, &trace).map_err(|e| e.to_string())?;
            drain_journal(&mut engine)?;
            println!("{}", engine.stats_json());
        }
        Mode::Listen(addr) => {
            let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            println!("listening on {local}");
            std::io::stdout().flush().ok();
            let engine = Arc::new(Mutex::new(engine));
            let ctl = Arc::new(ServerControl::new());
            let _ = CONTROL.set(Arc::clone(&ctl));
            let opts = ServeOptions {
                read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
                overload_threshold: overload,
            };
            let mut hub: Option<Arc<ReplicationHub>> = None;
            let mut hub_thread = None;
            let mut role_ctx: Option<Arc<RoleContext>> = None;
            let mut follower_thread = None;
            if let Some(primary_addr) = follow {
                // Hot-standby follower: replica loop in a side thread, the
                // serving loop answers reads and the promote op.
                let mirror = journal_path.clone().expect("validated above");
                let ctx = Arc::new(RoleContext::follower(&mirror, jconfig));
                let mut fopts = FollowerOptions {
                    primary: primary_addr.clone(),
                    mirror: mirror.into(),
                    ..FollowerOptions::default()
                };
                if let Some(ms) = auto_promote_ms {
                    fopts.heartbeat_timeout = Duration::from_millis(ms);
                    fopts.exit_on_lease_expiry = true;
                }
                println!("following {primary_addr}");
                std::io::stdout().flush().ok();
                let fengine = Arc::clone(&engine);
                let fctx = Arc::clone(&ctx);
                follower_thread = Some(std::thread::spawn(
                    move || match replication::run_follower(&fengine, &fctx.role, &fopts) {
                        Ok(FollowEnd::LeaseExpired) => {
                            match replication::promote(&fengine, &fctx) {
                                Ok(epoch) => eprintln!("lease expired; promoted to epoch {epoch}"),
                                Err(e) => eprintln!("auto-promotion failed: {e}"),
                            }
                        }
                        Ok(FollowEnd::StaleSource) => {
                            eprintln!("primary is from a deposed term; parked unpromoted");
                        }
                        Ok(FollowEnd::Stopped | FollowEnd::PromoteRequested) => {}
                        Err(e) => eprintln!("replica loop failed: {e}"),
                    },
                ));
                role_ctx = Some(ctx);
            } else if let Some(repl_addr) = repl_listen {
                let repl_listener =
                    TcpListener::bind(&repl_addr).map_err(|e| format!("bind {repl_addr}: {e}"))?;
                let repl_local = repl_listener.local_addr().map_err(|e| e.to_string())?;
                println!("replicating on {repl_local}");
                std::io::stdout().flush().ok();
                let epoch = {
                    let g = engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    g.epoch()
                };
                let h = Arc::new(ReplicationHub::new(epoch));
                let hh = Arc::clone(&h);
                let jpath = std::path::PathBuf::from(journal_path.clone().expect("validated"));
                hub_thread = Some(std::thread::spawn(move || {
                    let _ = serve_hub(&repl_listener, &jpath, &hh, HubOptions::default());
                }));
                hub = Some(h);
            }
            serve_tcp_role(
                &listener,
                &engine,
                opts,
                &ctl,
                Some(&DRAIN),
                role_ctx.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            if let Some(ctx) = &role_ctx {
                ctx.role.request_stop();
            }
            if let Some(h) = &hub {
                h.shutdown();
            }
            if let Some(t) = follower_thread {
                let _ = t.join();
            }
            if let Some(t) = hub_thread {
                let _ = t.join();
            }
            let mut guard = engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            drain_journal(&mut guard)?;
            if ctl.timeouts() > 0 {
                eprintln!("reaped {} idle connection(s)", ctl.timeouts());
            }
            eprintln!("{}", guard.stats_json());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
