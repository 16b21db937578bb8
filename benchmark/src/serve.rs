//! The serving workloads: every repetition brings up a fresh stack, sends
//! the same session through it — a count-boxed stream phase with at most
//! 64 requests in flight, then a sync phase one request at a time — and
//! checks replies, counters and the decision log against the oracle.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dvs_admit::EngineConfig;

use crate::oracle::{self, check_log, parse_log, Counters, Oracle};
use crate::session::{Session, SessionSpec};
use crate::stack::{at_nominal_speed, Bins, LineClient, Lines, Meter, Proc, ReplyCheck, TmpDir};
use crate::workloads::{Serve, Stack, SHARDS, SNAPSHOT_EVERY, SYNC_SECONDS};

const LOOPBACK: &str = "127.0.0.1:0";
/// A multi-megabyte `log` reply or a follower catching up may take longer
/// than one request; still bounded.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a server gets to exit once it has answered `shutdown`.
const TEARDOWN_WAIT: Duration = Duration::from_secs(5);

pub struct Ctx<'a> {
    pub bins: &'a Bins,
    pub tmp: &'a TmpDir,
}

/// The session, what the oracle says about it, and how long they took.
pub struct Inputs {
    pub lines: Lines,
    pub oracle: Oracle,
    /// `total_cost` of a myopic engine after the stream phase — the
    /// denominator of `cost_ratio`.
    pub myopic_cost: f64,
    pub prepare_s: f64,
}

pub fn session_spec(w: &Serve, seed: u64) -> SessionSpec {
    SessionSpec {
        standing: w.standing,
        load: w.load,
        tick_every: w.tick_every,
        domains: w.domains,
        seed,
    }
}

pub fn engine_config(w: &Serve) -> EngineConfig {
    EngineConfig::default()
        .resolve_every(w.resolve_every)
        .resolve_budget(w.budget)
}

/// Generates `stream_len + sync_len` lines from `seed` and replays them
/// through the oracle engines.
pub fn prepare(w: &Serve, seed: u64, stream_len: usize, sync_len: usize) -> Inputs {
    let ((lines, oracle, myopic_cost), prepare_s, _) = at_nominal_speed(|| {
        let lines = Lines::new(
            Session::new(session_spec(w, seed))
                .take(stream_len + sync_len)
                .map(|e| e.line()),
        );
        let domains = w.domains.max(1);
        let oracle = Oracle::replay(
            oracle::engine(domains, engine_config(w)),
            &lines,
            stream_len,
        );
        let myopic_cost = if w.resolve_every == 0 {
            oracle.at_stream_end.total_cost
        } else {
            let mut myopic = oracle::engine(domains, engine_config(w).resolve_every(0));
            let mut scratch = dvs_admit::json::Scratch::default();
            for i in 0..stream_len {
                dvs_admit::server::handle_line_with(&mut myopic, lines.line(i), &mut scratch);
            }
            myopic.metrics().total_cost()
        };
        (lines, oracle, myopic_cost)
    });
    Inputs {
        lines,
        oracle,
        myopic_cost,
        prepare_s,
    }
}

/// A running stack and the client connected to its front.
pub struct Running {
    pub front: Proc,
    pub follower: Option<Proc>,
    pub client: LineClient,
    pub journal: Option<PathBuf>,
}

impl Running {
    /// Every server process of the stack.
    pub fn servers(&self) -> Vec<&Proc> {
        std::iter::once(&self.front)
            .chain(self.follower.as_ref())
            .collect()
    }
}

pub fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

/// Spawns one `dvs_admitd --listen` with `extra` flags; `banners` start-up
/// lines are read before it counts as started.
pub fn spawn_admitd(
    ctx: &Ctx<'_>,
    w: &Serve,
    domains: usize,
    extra: &[String],
    banners: usize,
) -> Result<Proc, String> {
    let (domains, every, budget) = (
        domains.to_string(),
        w.resolve_every.to_string(),
        w.budget.to_string(),
    );
    let mut args = strings(&[
        "--listen",
        LOOPBACK,
        "--domains",
        &domains,
        "--resolve-every",
        &every,
        "--budget",
        &budget,
    ]);
    args.extend_from_slice(extra);
    Proc::spawn(&ctx.bins.admitd, &args, banners, false)
}

pub fn journal_flags(path: &std::path::Path) -> Vec<String> {
    strings(&[
        "--journal",
        &path.display().to_string(),
        "--snapshot-every",
        &SNAPSHOT_EVERY.to_string(),
        "--fsync",
        "snapshot",
    ])
}

fn connect_ready(addr: &str) -> Result<LineClient, String> {
    let mut client = LineClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stats = client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("first stats: {e}"))?;
    let counters = Counters::parse(&stats)?;
    if counters.arrivals != 0 || !counters.balanced() {
        return Err(format!("a fresh stack is not empty: {stats}"));
    }
    Ok(client)
}

/// Polls `probe` every millisecond until it returns `true`.
fn wait_until(what: &str, mut probe: impl FnMut() -> Result<bool, String>) -> Result<(), String> {
    let deadline = Instant::now() + CONTROL_TIMEOUT;
    while !probe()? {
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn stat_u64(reply: &str, key: &str) -> Result<u64, String> {
    let pairs = dvs_admit::json::parse_object(reply).map_err(|e| format!("bad reply: {e}"))?;
    dvs_admit::json::get(&pairs, key)
        .and_then(dvs_admit::json::JsonValue::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("reply lacks {key:?}: {reply}"))
}

/// Brings up the workload's stack and connects the client. `tag` keeps
/// the journal files of successive repetitions apart.
pub fn start(ctx: &Ctx<'_>, w: &Serve, tag: &str) -> Result<Running, String> {
    let (front, follower, journal) = match w.stack {
        Stack::Plain => (spawn_admitd(ctx, w, w.domains.max(1), &[], 1)?, None, None),
        Stack::Durable => {
            let journal = ctx.tmp.file(&format!("{tag}-primary.wal"));
            let mirror = ctx.tmp.file(&format!("{tag}-follower.wal"));
            let mut flags = journal_flags(&journal);
            flags.extend(strings(&["--repl-listen", LOOPBACK]));
            let front = spawn_admitd(ctx, w, 1, &flags, 2)?;
            let mut flags = journal_flags(&mirror);
            flags.extend(strings(&[
                "--follow",
                &front.banner_addr("replicating on ")?,
            ]));
            (
                front,
                Some(spawn_admitd(ctx, w, 1, &flags, 2)?),
                Some(journal),
            )
        }
        Stack::Routed => {
            let (shards, domains) = (SHARDS.to_string(), w.domains.to_string());
            let args = strings(&[
                "--spawn",
                &shards,
                "--domains",
                &domains,
                "--listen",
                LOOPBACK,
            ]);
            (Proc::spawn(&ctx.bins.routerd, &args, 1, false)?, None, None)
        }
    };
    let client = connect_ready(&front.banner_addr("listening on ")?)?;
    if let Some(follower) = &follower {
        // The primary stamped its epoch into the journal at start, so a
        // connected follower has mirrored at least that record.
        let mut probe = LineClient::connect(&follower.banner_addr("listening on ")?)
            .map_err(|e| format!("connect follower: {e}"))?;
        wait_until("the follower to connect", || {
            let stats = probe
                .request("{\"op\":\"stats\"}")
                .map_err(|e| e.to_string())?;
            Ok(stat_u64(&stats, "repl_records")? >= 1)
        })?;
    }
    Ok(Running {
        front,
        follower,
        client,
        journal,
    })
}

/// Asks a server to shut down and gives it a moment to exit. The reply
/// is an operation like any other; how long the process then takes to go
/// away is teardown — every measurement and check of the repetition is
/// done by then — so a slow exit is reported on stderr and the process is
/// killed when its `Proc` drops.
fn shutdown(client: &mut LineClient, proc: &mut Proc) -> Result<(), String> {
    client
        .request("{\"op\":\"shutdown\"}")
        .map_err(|e| format!("shutdown: {e}"))?;
    if let Err(e) = proc.wait_exit(TEARDOWN_WAIT) {
        eprintln!("dvs-bench: note: after shutdown {e}");
    }
    Ok(())
}

/// Starts the (stateless) stack, waits for its first reply, shuts it down
/// again, and returns start → first reply in milliseconds.
pub fn cold_start(ctx: &Ctx<'_>, w: &Serve) -> Result<f64, String> {
    let meter = Meter::start(&[]);
    let mut run = start(ctx, w, "cold")?;
    let ready = meter.stop(&[&run.front]);
    shutdown(&mut run.client, &mut run.front)?;
    Ok(ready.nominal_s * 1e3)
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub events_per_s: f64,
    /// `events_per_s` before scaling to nominal machine speed.
    pub raw_events_per_s: f64,
    /// Servers' CPU speed during the stream phase, as a share of nominal.
    pub machine_speed: f64,
    /// Sync-phase latencies, ascending.
    pub latencies_us: Vec<f64>,
    pub restart_ms: f64,
    pub peak_rss_mb: f64,
    pub cost_ratio: f64,
    pub journal_bytes_per_event: Option<f64>,
    /// Counters after the stream phase: identical on every repetition.
    pub counters: Option<Counters>,
    pub attempted: u64,
    pub failed: u64,
    pub error: Option<String>,
}

fn fetch_log(client: &mut LineClient) -> Result<String, String> {
    client.set_timeout(CONTROL_TIMEOUT);
    let reply = client
        .request("{\"op\":\"log\"}")
        .map_err(|e| format!("log: {e}"))?;
    client.set_timeout(crate::stack::REQUEST_TIMEOUT);
    parse_log(&reply)
}

/// `serve_durable`'s ending: follower catch-up, promotion, `SIGKILL` of
/// the primary, and a timed `--recover` on a copy of its journal. Returns
/// `restart_ms`.
fn fail_over_and_recover(
    ctx: &Ctx<'_>,
    w: &Serve,
    run: &mut Running,
    expected_log: &str,
    sent: u64,
    tag: &str,
) -> Result<f64, String> {
    let follower = run
        .follower
        .as_mut()
        .expect("durable stacks have a follower");
    let mut fc = LineClient::connect(&follower.banner_addr("listening on ")?)
        .map_err(|e| format!("connect follower: {e}"))?;
    wait_until("the follower to catch up", || {
        let stats = fc
            .request("{\"op\":\"stats\"}")
            .map_err(|e| e.to_string())?;
        Ok(stat_u64(&stats, "events")? >= sent)
    })?;
    let promoted = fc
        .request("{\"op\":\"promote\"}")
        .map_err(|e| format!("promote: {e}"))?;
    if !promoted.contains("\"role\":\"primary\"") {
        return Err(format!("promotion refused: {promoted}"));
    }
    check_log(expected_log, &fetch_log(&mut fc)?).map_err(|e| format!("promoted follower: {e}"))?;
    run.front.kill();
    let journal = run.journal.as_ref().expect("durable stacks have a journal");
    let copy = ctx.tmp.file(&format!("{tag}-recover.wal"));
    std::fs::copy(journal, &copy).map_err(|e| format!("copy journal: {e}"))?;
    let mut flags = journal_flags(&copy);
    flags.push("--recover".to_string());
    let meter = Meter::start(&[]);
    let mut recovered = spawn_admitd(ctx, w, 1, &flags, 1)?;
    let mut rc = LineClient::connect(&recovered.banner_addr("listening on ")?)
        .map_err(|e| format!("connect recovered: {e}"))?;
    rc.set_timeout(CONTROL_TIMEOUT);
    let stats = rc
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("recovered stats: {e}"))?;
    let restart_ms = meter.stop(&[&recovered]).nominal_s * 1e3;
    let counters = Counters::parse(&stats)?;
    if counters.events != sent || !counters.balanced() {
        return Err(format!(
            "recovered {} of {sent} events: {stats}",
            counters.events
        ));
    }
    check_log(expected_log, &fetch_log(&mut rc)?).map_err(|e| format!("recovered server: {e}"))?;
    shutdown(&mut rc, &mut recovered)?;
    shutdown(&mut fc, follower)?;
    for file in [
        journal.clone(),
        copy,
        ctx.tmp.file(&format!("{tag}-follower.wal")),
    ] {
        let _ = std::fs::remove_file(file);
    }
    Ok(restart_ms)
}

fn run_repetition(
    ctx: &Ctx<'_>,
    w: &Serve,
    inputs: &Inputs,
    stream_len: usize,
    sync_len: usize,
    tag: &str,
    rep: &mut Rep,
) -> Result<(), String> {
    let meter = Meter::start(&[]);
    let mut run = start(ctx, w, tag)?;
    let ready = meter.stop(&run.servers());
    rep.setup_s = ready.nominal_s;

    // Stream phase: count-boxed, because state grows with the session.
    let mut check = ReplyCheck::new(&inputs.oracle.ok[..stream_len]);
    let meter = Meter::start(&run.servers());
    let streamed = run
        .client
        .stream(&inputs.lines, 0, stream_len, &mut check, |_| {});
    let stream = meter.stop(&run.servers());
    rep.failed += check.finish();
    streamed.map_err(|e| format!("stream phase: {e}"))?;
    rep.events_per_s = stream_len as f64 / stream.nominal_s;
    rep.raw_events_per_s = stream_len as f64 / stream.wall_s;
    rep.machine_speed = stream.speed;

    let stats = run
        .client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    let counters = Counters::parse(&stats)?;
    inputs
        .oracle
        .at_stream_end
        .check(&counters, w.stack == Stack::Routed)?;
    rep.cost_ratio = counters.total_cost / inputs.myopic_cost;
    rep.counters = Some(counters);
    let rss_kb: u64 = run.servers().iter().map(|p| p.peak_rss_kb()).sum();
    rep.peak_rss_mb = rss_kb as f64 / 1024.0;
    if let Some(journal) = &run.journal {
        let bytes = std::fs::metadata(journal)
            .map_err(|e| format!("journal size: {e}"))?
            .len();
        rep.journal_bytes_per_event = Some(bytes as f64 / stream_len as f64);
    }

    // Sync phase: the session continues one request at a time.
    let mut reply = String::new();
    let mut sent = stream_len;
    let meter = Meter::start(&run.servers());
    let sync_started = Instant::now();
    while sent < stream_len + sync_len && sync_started.elapsed().as_secs_f64() < SYNC_SECONDS {
        let t0 = Instant::now();
        let answered = run
            .client
            .request_wire(inputs.lines.wire(sent, sent + 1), &mut reply);
        let latency = t0.elapsed();
        sent += 1;
        answered.map_err(|e| format!("sync phase request {sent}: {e}"))?;
        if reply.starts_with("{\"ok\":true") == inputs.oracle.ok[sent - 1] {
            rep.latencies_us.push(latency.as_secs_f64() * 1e6);
        } else {
            rep.failed += 1;
        }
    }
    let scale = meter.stop(&run.servers()).scale();
    rep.latencies_us.iter_mut().for_each(|us| *us *= scale);
    rep.latencies_us
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are not NaN"));
    rep.attempted = sent as u64 + 1;

    let expected_log = inputs.oracle.log_after(sent);
    check_log(expected_log, &fetch_log(&mut run.client)?)?;
    let stats = run
        .client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| format!("stats: {e}"))?;
    if !Counters::parse(&stats)?.balanced() {
        return Err(format!(
            "counters do not balance after the sync phase: {stats}"
        ));
    }

    rep.restart_ms = match w.stack {
        Stack::Durable => fail_over_and_recover(ctx, w, &mut run, expected_log, sent as u64, tag)?,
        // A stateless stack restarts the way it started.
        Stack::Plain | Stack::Routed => {
            shutdown(&mut run.client, &mut run.front)?;
            ready.nominal_s * 1e3
        }
    };
    Ok(())
}

/// One repetition: fresh stack, the same session. Any check that fails —
/// a transport error, a timeout, counters or a decision log that differ
/// from the oracle's — fails every operation of the repetition.
pub fn repetition(
    ctx: &Ctx<'_>,
    w: &Serve,
    inputs: &Inputs,
    stream_len: usize,
    sync_len: usize,
    tag: &str,
) -> Rep {
    let mut rep = Rep::default();
    if let Err(e) = run_repetition(ctx, w, inputs, stream_len, sync_len, tag, &mut rep) {
        rep.attempted = (stream_len + sync_len) as u64 + 1;
        rep.failed = rep.attempted;
        rep.error = Some(e);
    }
    rep
}
