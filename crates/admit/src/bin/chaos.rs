//! `chaos` — a seeded crash and failover harness for `dvs_admitd`.
//!
//! ```text
//! chaos [--seed N] [--kills K] [--tasks N] [--load U] [--torn BYTES]
//!       [--admitd PATH] [--failover] [--reshard] [--seeds N]
//!       [--session FILE]
//! ```
//!
//! One run drives a real `dvs_admitd --listen` process through a
//! generated event trace over TCP and tries to break it:
//!
//! * **Seeded kills** — the server is SIGKILLed `--kills` times at
//!   seed-derived points mid-stream and restarted with `--recover`.
//! * **Partial writes** — after one seeded kill the journal tail is
//!   truncated by up to `--torn` bytes, simulating a torn sector; the
//!   client resumes from the server's recovered `events` counter, so
//!   at-least-once resend covers the loss.
//! * **Slow-loris clients** — a connection that sends half a request and
//!   stalls is held open the whole run; the server's read timeout must
//!   reap it without stalling the real session.
//!
//! With `--failover` the run instead exercises the replication layer: a
//! primary (`--repl-listen`) with a hot-standby follower (`--follow`),
//! both real processes. At a seeded point the **follower** is SIGKILLed
//! and restarted (a partition — it must resync its mirror and re-follow);
//! at a second seeded point the **primary** is SIGKILLed mid-stream, the
//! follower is promoted with `{"op":"promote"}`, and the resilient client
//! (`dvs_admit::client`) resumes the remaining events against the new
//! primary from the server's `events` cursor. `--seeds N` repeats the
//! whole drill over N consecutive seeds; `--session FILE` replays a
//! recorded JSONL session (e.g. `examples/e8_session.jsonl`) instead of
//! a generated trace, with fixed cuts — follower bounced at a quarter,
//! primary killed at half — which is what the `failover-smoke` CI job
//! runs.
//!
//! With `--reshard` the run exercises live resharding under fire: a
//! `dvs_routerd --spawn 2 --shard-journals` fleet streams a domain-pinned
//! trace, then a `{"op":"reshard","add":"shard2"}` join is fired with
//! `DVS_RESHARD_PAUSE_MS` stretching the per-domain migration window, and
//! both source shards are SIGKILLed **mid-migration**. The interrupted
//! reshard must fail in-band (the map version never bumped, so routing is
//! untouched), and a retried reshard must respawn the dead shards from
//! their journals (`--recover`), skip the domains that already landed,
//! and complete. The rest of the trace then streams over the new layout.
//!
//! The verdict is the same in every mode: the final `log` dump must be
//! **bit-identical** to an uninterrupted server fed the same trace (for
//! `--reshard`, an unresharded `--spawn 1` router). Exit status 0 =
//! identical, 1 = diverged.
//!
//! The harness finds `dvs_admitd` next to its own executable by default
//! (both live in the same cargo target directory); override with
//! `--admitd`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

use dvs_admit::json;
use dvs_admit::wire::Request;
use dvs_admit::{AdmitClient, ClientConfig, TraceSpec};

struct Config {
    seed: u64,
    kills: u32,
    tasks: usize,
    load: f64,
    torn: u64,
    admitd: PathBuf,
    failover: bool,
    reshard: bool,
    seeds: u64,
    session: Option<PathBuf>,
}

/// splitmix64 — the harness's own seeded stream, independent of the
/// engine's determinism machinery.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn trace_requests(tasks: usize, load: f64, seed: u64) -> Vec<String> {
    let trace = TraceSpec::new(tasks, load, seed).generate().expect("trace");
    trace.iter().map(|e| Request::from(e).to_string()).collect()
}

struct Server {
    child: Child,
    addr: String,
}

fn spawn_server(cfg: &Config, wal: &Path, recover: bool) -> Result<Server, String> {
    let mut cmd = Command::new(&cfg.admitd);
    cmd.args([
        "--listen",
        "127.0.0.1:0",
        "--journal",
        wal.to_str().unwrap(),
        "--read-timeout-ms",
        "300",
        "--snapshot-every",
        "16",
    ]);
    if recover {
        cmd.arg("--recover");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", cfg.admitd.display()))?;
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected banner {line:?}"))?
        .trim()
        .to_string();
    Ok(Server { child, addr })
}

struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> Result<Session, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    Ok(Session {
        reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
        writer: stream,
    })
}

impl Session {
    fn request(&mut self, line: &str) -> Result<String, String> {
        writeln!(self.writer, "{line}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        if resp.is_empty() {
            return Err(format!("connection closed on request {line:?}"));
        }
        Ok(resp.trim_end().to_string())
    }
}

/// A whole-number field of a reply.
fn json_u64(resp: &str, key: &str) -> Result<u64, String> {
    let doc = json::parse_document(resp).map_err(|e| format!("bad reply {resp}: {e}"))?;
    doc.as_obj()
        .and_then(|pairs| json::get(pairs, key)?.as_f64())
        .map(|v| v as u64)
        .ok_or_else(|| format!("no {key:?} in {resp}"))
}

/// Feed requests `from..` on a fresh session, returning how many were
/// acknowledged before `stop_after`.
fn feed(
    session: &mut Session,
    requests: &[String],
    from: usize,
    stop_after: usize,
) -> Result<usize, String> {
    let mut sent = from;
    while sent < requests.len() && sent < stop_after {
        let resp = session.request(&requests[sent])?;
        if !resp.contains("\"ok\":true") {
            return Err(format!("request {} failed: {resp}", requests[sent]));
        }
        sent += 1;
    }
    Ok(sent)
}

fn run(cfg: &Config) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("dvs_admit_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let requests = trace_requests(cfg.tasks, cfg.load, cfg.seed);
    eprintln!(
        "chaos: seed={} kills={} events={} torn<={}B",
        cfg.seed,
        cfg.kills,
        requests.len(),
        cfg.torn
    );

    // Reference: one uninterrupted server over the same trace.
    let ref_wal = dir.join(format!("ref_{}.wal", cfg.seed));
    let _ = std::fs::remove_file(&ref_wal);
    let mut server = spawn_server(cfg, &ref_wal, false)?;
    let mut session = connect(&server.addr)?;
    feed(&mut session, &requests, 0, requests.len())?;
    let ref_log = session.request("{\"op\":\"log\"}")?;
    drop(session);
    server.child.kill().ok();
    server.child.wait().ok();

    // Chaos run: seeded kills, one torn tail, a slow-loris passenger.
    let wal = dir.join(format!("chaos_{}.wal", cfg.seed));
    let _ = std::fs::remove_file(&wal);
    let mut rng = cfg.seed ^ 0xC4A0_5C4A_05C4_A05C;
    let torn_at = if cfg.kills > 0 {
        (mix(&mut rng) % u64::from(cfg.kills)) as u32
    } else {
        0
    };
    let mut server = spawn_server(cfg, &wal, false)?;
    let mut loris = TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
    loris
        .write_all(b"{\"op\":\"tick\",\"at\":")
        .map_err(|e| e.to_string())?; // half a request, then silence
    let mut done = 0usize;
    for kill in 0..cfg.kills {
        let remaining = requests.len().saturating_sub(done);
        if remaining <= 1 {
            break;
        }
        let cut = done + 1 + (mix(&mut rng) as usize) % (remaining - 1);
        let mut session = connect(&server.addr)?;
        done = feed(&mut session, &requests, done, cut)?;
        drop(session);
        server.child.kill().map_err(|e| e.to_string())?; // SIGKILL
        server.child.wait().ok();

        if kill == torn_at && cfg.torn > 0 {
            let len = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
            let tear = 1 + mix(&mut rng) % cfg.torn;
            let new_len = len.saturating_sub(tear);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal)
                .and_then(|f| f.set_len(new_len))
                .map_err(|e| e.to_string())?;
            eprintln!("chaos: kill {kill}: tore {tear} bytes off the journal tail");
        } else {
            eprintln!("chaos: kill {kill}: SIGKILL after {done} events");
        }

        server = spawn_server(cfg, &wal, true)?;
        // The journal is the ground truth for how much survived; resend
        // from there (at-least-once delivery).
        let mut session = connect(&server.addr)?;
        let stats = session.request("{\"op\":\"stats\"}")?;
        let survived = json_u64(&stats, "events")? as usize;
        if survived < done {
            eprintln!(
                "chaos: kill {kill}: journal lost {} acknowledged event(s); resending",
                done - survived
            );
        }
        done = survived;
        drop(session);
        // Fresh loris against the restarted server too.
        loris = TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
        loris
            .write_all(b"{\"op\":\"stats\"")
            .map_err(|e| e.to_string())?;
    }
    let mut session = connect(&server.addr)?;
    feed(&mut session, &requests, done, requests.len())?;
    let log = session.request("{\"op\":\"log\"}")?;
    let stats = session.request("{\"op\":\"stats\"}")?;
    drop(session);
    drop(loris);
    server.child.kill().ok();
    server.child.wait().ok();

    let recoveries = json_u64(&stats, "recoveries")?;
    let lost = json_u64(&stats, "records_lost")?;
    eprintln!("chaos: final stats: recoveries={recoveries} records_lost={lost}");
    if log == ref_log {
        eprintln!("chaos: OK — recovered log is bit-identical to the uninterrupted run");
        Ok(())
    } else {
        eprintln!("chaos: FAIL — decision logs diverged\nref: {ref_log}\ngot: {log}");
        Err("divergence".to_string())
    }
}

/// Spawns `dvs_admitd` with arbitrary extra flags, reading `banners`
/// stdout banner lines (e.g. "listening on …", "replicating on …").
fn spawn_with_banners(
    admitd: &Path,
    args: &[&str],
    banners: usize,
) -> Result<(Child, Vec<String>), String> {
    let mut child = Command::new(admitd)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", admitd.display()))?;
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut lines = Vec::new();
    for _ in 0..banners {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.is_empty() {
            return Err("server exited before printing its banner".to_string());
        }
        lines.push(line.trim_end().to_string());
    }
    Ok((child, lines))
}

fn banner_suffix<'a>(lines: &'a [String], prefix: &str) -> Result<&'a str, String> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(prefix))
        .ok_or_else(|| format!("no {prefix:?} banner in {lines:?}"))
}

/// A client wired for the failover drill: few attempts, fast backoff, no
/// local fallback (the drill wants server answers only).
fn drill_client(addr: &str, seed: u64) -> AdmitClient {
    AdmitClient::new(ClientConfig {
        addr: addr.to_string(),
        request_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_millis(200),
        max_attempts: 3,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        breaker_threshold: u32::MAX, // never trip: the drill switches addresses itself
        breaker_cooldown: Duration::from_millis(1),
        seed,
    })
}

/// Polls a standby's `events` counter until it reaches `target` — used to
/// let the replication stream catch up before the next seeded fault, so
/// the kill exercises resync over a populated mirror rather than an
/// empty one.
fn wait_events(addr: &str, target: u64) -> Result<(), String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let mut session = connect(addr)?;
        let stats = session.request("{\"op\":\"stats\"}")?;
        if json_u64(&stats, "events")? >= target {
            return Ok(());
        }
        if std::time::Instant::now() > deadline {
            return Err(format!("standby stuck below {target} events: {stats}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls the follower's `events` counter until it stops changing (the
/// dead primary can push nothing more; in-flight frames settle fast).
fn settled_events(addr: &str) -> Result<u64, String> {
    let mut last = None;
    loop {
        let mut session = connect(addr)?;
        let stats = session.request("{\"op\":\"stats\"}")?;
        let events = json_u64(&stats, "events")?;
        if last == Some(events) {
            return Ok(events);
        }
        last = Some(events);
        std::thread::sleep(Duration::from_millis(80));
    }
}

/// Reads a recorded JSONL session as the drill's request stream.
/// Read-only probes are dropped: the drill inserts its own `log`/`stats`
/// requests at the points the protocol needs them.
fn session_requests(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let requests: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter(|l| !l.contains("\"op\":\"stats\"") && !l.contains("\"op\":\"log\""))
        .map(String::from)
        .collect();
    if requests.len() < 8 {
        return Err(format!(
            "{}: {} events is too short for a failover drill",
            path.display(),
            requests.len()
        ));
    }
    Ok(requests)
}

/// One failover drill over one seed. See the module docs.
fn run_failover_once(cfg: &Config, seed: u64, dir: &Path) -> Result<(), String> {
    let requests = match &cfg.session {
        Some(path) => session_requests(path)?,
        None => trace_requests(cfg.tasks, cfg.load, seed),
    };
    let mut rng = seed ^ 0xFA11_0FA1_10FA_110F;
    let n = requests.len();
    // Two cuts: partition the follower at cut1, kill the primary at
    // cut2. A recorded session uses fixed cuts (the follower bounces at a
    // quarter, the primary dies at half and the client replays the
    // remainder); generated traces draw seeded cuts.
    let (cut1, cut2) = match cfg.session {
        Some(_) => (n / 4, n / 2),
        None => {
            let c1 = 1 + (mix(&mut rng) as usize) % (n / 2);
            (c1, c1 + 1 + (mix(&mut rng) as usize) % (n - c1 - 1))
        }
    };
    eprintln!("chaos: failover seed={seed} events={n} partition@{cut1} kill-primary@{cut2}");

    // Reference: one uninterrupted server.
    let ref_wal = dir.join(format!("fo_ref_{seed}.wal"));
    let _ = std::fs::remove_file(&ref_wal);
    let (mut ref_child, banners) = spawn_with_banners(
        &cfg.admitd,
        &[
            "--listen",
            "127.0.0.1:0",
            "--journal",
            ref_wal.to_str().unwrap(),
        ],
        1,
    )?;
    let ref_addr = banner_suffix(&banners, "listening on ")?.to_string();
    let mut session = connect(&ref_addr)?;
    feed(&mut session, &requests, 0, requests.len())?;
    let ref_log = session.request("{\"op\":\"log\"}")?;
    drop(session);
    ref_child.kill().ok();
    ref_child.wait().ok();

    // Primary with a replication listener.
    let p_wal = dir.join(format!("fo_primary_{seed}.wal"));
    let _ = std::fs::remove_file(&p_wal);
    let (mut primary, banners) = spawn_with_banners(
        &cfg.admitd,
        &[
            "--listen",
            "127.0.0.1:0",
            "--journal",
            p_wal.to_str().unwrap(),
            "--repl-listen",
            "127.0.0.1:0",
        ],
        2,
    )?;
    let p_addr = banner_suffix(&banners, "listening on ")?.to_string();
    let repl_addr = banner_suffix(&banners, "replicating on ")?.to_string();

    // Hot-standby follower.
    let mirror = dir.join(format!("fo_mirror_{seed}.wal"));
    let _ = std::fs::remove_file(&mirror);
    let fargs = [
        "--listen",
        "127.0.0.1:0",
        "--journal",
        mirror.to_str().unwrap(),
        "--follow",
        &repl_addr,
    ];
    let (mut follower, banners) = spawn_with_banners(&cfg.admitd, &fargs, 2)?;
    let f0_addr = banner_suffix(&banners, "listening on ")?.to_string();

    // Phase 1: stream to the primary until the partition point, and let
    // the standby catch up so the partition hits a populated mirror.
    let mut client = drill_client(&p_addr, seed);
    let report = client
        .replay(&requests[..cut1], 0)
        .map_err(|e| format!("phase 1: {e}"))?;
    assert_ok_responses(&report.responses, &requests[..cut1])?;
    wait_events(&f0_addr, cut1 as u64)?;

    // Partition: SIGKILL the follower, restart it on the same mirror (it
    // must resync the torn tail and re-follow from its cursor).
    follower.kill().map_err(|e| e.to_string())?;
    follower.wait().ok();
    eprintln!("chaos: failover seed={seed}: follower partitioned after {cut1} events");
    let (mut follower2, banners) = spawn_with_banners(&cfg.admitd, &fargs, 2)?;
    let f_addr = banner_suffix(&banners, "listening on ")?.to_string();
    // The restart must resync the mirror back to the partition point
    // before the next fault lands.
    wait_events(&f_addr, cut1 as u64)?;

    // Phase 2: stream on until the primary-kill point, then SIGKILL the
    // primary mid-stream.
    let report = client
        .replay(&requests[cut1..cut2], cut1 as u64)
        .map_err(|e| format!("phase 2: {e}"))?;
    assert_ok_responses(&report.responses, &requests[cut1..cut2])?;
    primary.kill().map_err(|e| e.to_string())?;
    primary.wait().ok();
    eprintln!("chaos: failover seed={seed}: primary SIGKILLed after {cut2} events");

    // Let the in-flight frames settle, then promote the follower.
    let survived = settled_events(&f_addr)?;
    let mut session = connect(&f_addr)?;
    let promoted = session.request("{\"op\":\"promote\"}")?;
    if !promoted.contains("\"role\":\"primary\"") {
        return Err(format!("promotion failed: {promoted}"));
    }
    let epoch = json_u64(&promoted, "epoch")?;
    if survived < cut2 as u64 {
        eprintln!(
            "chaos: failover seed={seed}: {} acknowledged event(s) never reached the \
             standby; the client resends them",
            cut2 as u64 - survived
        );
    }
    eprintln!("chaos: failover seed={seed}: promoted to epoch {epoch} at {survived} events");
    drop(session);

    // Phase 3: the resilient client resumes against the new primary from
    // the server-side cursor (exactly-once across the failover).
    let mut client = drill_client(&f_addr, seed ^ 1);
    let resume = client.cursor().map_err(|e| e.to_string())? as usize;
    let report = client
        .replay(&requests[resume..], resume as u64)
        .map_err(|e| format!("phase 3: {e}"))?;
    assert_ok_responses(&report.responses, &requests[resume..])?;

    let mut session = connect(&f_addr)?;
    let log = session.request("{\"op\":\"log\"}")?;
    let stats = session.request("{\"op\":\"stats\"}")?;
    drop(session);
    follower2.kill().ok();
    follower2.wait().ok();

    // Cross-failover balance invariant: every arrival is accounted for.
    let arrivals = json_u64(&stats, "arrivals")?;
    let accepted = json_u64(&stats, "accepted")?;
    let rejected = json_u64(&stats, "rejected")?;
    let standing = json_u64(&stats, "shed")?;
    if accepted + rejected + standing != arrivals {
        return Err(format!(
            "balance broken after failover: {accepted}+{rejected}+{standing} != {arrivals}"
        ));
    }
    if log == ref_log {
        eprintln!("chaos: failover seed={seed}: OK — failed-over log is bit-identical");
        Ok(())
    } else {
        eprintln!(
            "chaos: failover seed={seed}: FAIL — decision logs diverged\nref: {ref_log}\ngot: {log}"
        );
        Err("divergence".to_string())
    }
}

fn assert_ok_responses(responses: &[String], requests: &[String]) -> Result<(), String> {
    for (resp, req) in responses.iter().zip(requests) {
        // Benign duplicate rejections are the idempotency backstop for
        // at-least-once resend; anything else failing is a real error.
        let benign = resp.contains("\"kind\":\"duplicate-task\"")
            || resp.contains("\"kind\":\"already-departed\"");
        if !resp.contains("\"ok\":true") && !benign {
            return Err(format!("request {req} failed: {resp}"));
        }
    }
    Ok(())
}

fn run_failover(cfg: &Config) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("dvs_admit_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for seed in cfg.seed..cfg.seed + cfg.seeds {
        run_failover_once(cfg, seed, &dir)?;
    }
    Ok(())
}

/// Global power-domain count for the reshard drill: enough that a 2→3
/// membership change always moves a handful of domains.
const RESHARD_DOMAINS: usize = 12;

/// Renders a **domain-pinned** trace as router request lines: tasks
/// carry their domain explicitly, so any shard layout replays one
/// cluster history.
fn router_requests(tasks: usize, load: f64, seed: u64) -> Vec<String> {
    let trace = TraceSpec::new(tasks, load, seed)
        .domains(RESHARD_DOMAINS)
        .generate()
        .expect("trace");
    trace.iter().map(|e| Request::from(e).to_string()).collect()
}

/// A spawned `dvs_routerd --spawn K` fleet: the router process, its bound
/// address, and the (name, pid) of each shard child parsed from the
/// spawn banners — the drill's kill targets.
struct RouterdFleet {
    child: Child,
    addr: String,
    pids: Vec<(String, u32)>,
}

/// Parses a routerd spawn banner `shardN on ADDR (pid P, D domain(s))`.
fn parse_pid_banner(line: &str) -> Result<(String, u32), String> {
    let name = line
        .split(" on ")
        .next()
        .ok_or_else(|| format!("bad spawn banner {line:?}"))?
        .to_string();
    let pid = line
        .split("(pid ")
        .nth(1)
        .and_then(|rest| rest.split([',', ')']).next())
        .and_then(|digits| digits.trim().parse().ok())
        .ok_or_else(|| format!("no pid in spawn banner {line:?}"))?;
    Ok((name, pid))
}

/// Spawns `dvs_routerd --spawn shards --listen` and reads its banners:
/// one spawn banner per shard on stderr, then `listening on ADDR` on
/// stdout. Both pipes are drained by reaper threads afterwards.
fn spawn_routerd(
    routerd: &Path,
    shards: usize,
    journals: Option<&Path>,
    pause_ms: u64,
) -> Result<RouterdFleet, String> {
    let mut cmd = Command::new(routerd);
    cmd.args([
        "--spawn",
        &shards.to_string(),
        "--listen",
        "127.0.0.1:0",
        "--domains",
        &RESHARD_DOMAINS.to_string(),
    ]);
    if let Some(dir) = journals {
        cmd.args(["--shard-journals", dir.to_str().unwrap()]);
    }
    if pause_ms > 0 {
        cmd.env("DVS_RESHARD_PAUSE_MS", pause_ms.to_string());
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", routerd.display()))?;
    let mut err_reader = BufReader::new(child.stderr.take().unwrap());
    let mut pids = Vec::new();
    for _ in 0..shards {
        let mut line = String::new();
        err_reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if line.is_empty() {
            return Err("routerd exited before spawning its shards".to_string());
        }
        pids.push(parse_pid_banner(line.trim_end())?);
    }
    std::thread::spawn(move || {
        // Respawn banners keep arriving during the drill; never let the
        // pipe back up.
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut err_reader, &mut sink);
    });
    let mut out_reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    out_reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected routerd banner {line:?}"))?
        .to_string();
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = std::io::Read::read_to_string(&mut out_reader, &mut sink);
    });
    Ok(RouterdFleet { child, addr, pids })
}

/// The reshard drill. See the module docs.
#[allow(clippy::too_many_lines)]
fn run_reshard(cfg: &Config) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("dvs_admit_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let routerd = cfg.admitd.with_file_name("dvs_routerd");
    if !routerd.exists() {
        return Err(format!(
            "dvs_routerd not found at {} (build the router crate)",
            routerd.display()
        ));
    }
    let requests = router_requests(cfg.tasks, cfg.load, cfg.seed);
    let n = requests.len();
    let mut rng = cfg.seed ^ 0x2E5A_12D0_2E5A_12D0;
    let cut = 1 + (mix(&mut rng) as usize) % (n / 2);
    eprintln!(
        "chaos: reshard seed={} events={n} domains={RESHARD_DOMAINS} join@{cut}",
        cfg.seed
    );

    // Reference: an unresharded single-shard router over the same trace.
    let mut reference = spawn_routerd(&routerd, 1, None, 0)?;
    let mut session = connect(&reference.addr)?;
    feed(&mut session, &requests, 0, n)?;
    let ref_log = session.request("{\"op\":\"log\"}")?;
    session.request("{\"op\":\"shutdown\"}")?;
    drop(session);
    reference.child.wait().ok();

    // The chaos fleet: two journaled shards, migration slowed down so the
    // kill window below is wide open.
    let journals = dir.join(format!("reshard_{}", cfg.seed));
    let _ = std::fs::remove_dir_all(&journals);
    let mut fleet = spawn_routerd(&routerd, 2, Some(&journals), 200)?;
    let mut session = connect(&fleet.addr)?;
    feed(&mut session, &requests, 0, cut)?;

    // Fire the join, then SIGKILL both source shards while the paused
    // migration is in flight.
    let reshard = "{\"op\":\"reshard\",\"add\":\"shard2\"}";
    writeln!(session.writer, "{reshard}").map_err(|e| e.to_string())?;
    session.writer.flush().map_err(|e| e.to_string())?;
    std::thread::sleep(Duration::from_millis(300));
    for (name, pid) in &fleet.pids {
        let status = Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .map_err(|e| format!("kill {name}: {e}"))?;
        if !status.success() {
            return Err(format!("kill -9 {pid} ({name}) failed"));
        }
        eprintln!("chaos: reshard: SIGKILLed {name} (pid {pid}) mid-migration");
    }
    let mut resp = String::new();
    session
        .reader
        .read_line(&mut resp)
        .map_err(|e| e.to_string())?;
    let mut resp = resp.trim_end().to_string();
    eprintln!("chaos: reshard: interrupted attempt: {resp}");

    // Retry until the router respawns the dead shards from their journals
    // and the migration completes past the domains that already landed.
    let mut attempts = 0u32;
    while !resp.contains("\"ok\":true") {
        attempts += 1;
        if attempts > 6 {
            return Err(format!("reshard never completed: {resp}"));
        }
        // Let the shard clients' circuit breakers cool down first.
        std::thread::sleep(Duration::from_millis(600));
        resp = session.request(reshard)?;
        eprintln!("chaos: reshard: retry {attempts}: {resp}");
    }
    if attempts == 0 {
        eprintln!("chaos: reshard: note — the kill lost the race; migration never broke");
    }

    // The rest of the trace streams over the post-cutover layout.
    feed(&mut session, &requests, cut, n)?;
    let log = session.request("{\"op\":\"log\"}")?;
    let stats = session.request("{\"op\":\"stats\"}")?;
    let map_resp = session.request("{\"op\":\"map\"}")?;
    session.request("{\"op\":\"shutdown\"}").ok();
    drop(session);
    fleet.child.wait().ok();

    let version = json_u64(&map_resp, "version")?;
    if version != 2 {
        return Err(format!("expected map version 2 after the join: {map_resp}"));
    }
    let arrivals = json_u64(&stats, "arrivals")?;
    let accepted = json_u64(&stats, "accepted")?;
    let rejected = json_u64(&stats, "rejected")?;
    let standing = json_u64(&stats, "shed")?;
    if accepted + rejected + standing != arrivals {
        return Err(format!(
            "balance broken after reshard: {accepted}+{rejected}+{standing} != {arrivals}"
        ));
    }
    if log == ref_log {
        eprintln!("chaos: reshard: OK — resharded log is bit-identical to the unresharded run");
        Ok(())
    } else {
        eprintln!("chaos: reshard: FAIL — decision logs diverged\nref: {ref_log}\ngot: {log}");
        Err("divergence".to_string())
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        seed: 1,
        kills: 3,
        tasks: 12,
        load: 2.2,
        torn: 24,
        admitd: PathBuf::new(),
        failover: false,
        reshard: false,
        seeds: 1,
        session: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                cfg.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--kills" => {
                cfg.kills = val("--kills")?
                    .parse()
                    .map_err(|e| format!("bad --kills: {e}"))?;
            }
            "--tasks" => {
                cfg.tasks = val("--tasks")?
                    .parse()
                    .map_err(|e| format!("bad --tasks: {e}"))?;
            }
            "--load" => {
                cfg.load = val("--load")?
                    .parse()
                    .map_err(|e| format!("bad --load: {e}"))?
            }
            "--torn" => {
                cfg.torn = val("--torn")?
                    .parse()
                    .map_err(|e| format!("bad --torn: {e}"))?
            }
            "--admitd" => cfg.admitd = PathBuf::from(val("--admitd")?),
            "--session" => cfg.session = Some(PathBuf::from(val("--session")?)),
            "--failover" => cfg.failover = true,
            "--reshard" => cfg.reshard = true,
            "--seeds" => {
                cfg.seeds = val("--seeds")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: chaos [--seed N] [--kills K] [--tasks N] [--load U] \
                     [--torn BYTES] [--admitd PATH] [--reshard] \
                     [--failover [--seeds N] [--session FILE]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if cfg.admitd.as_os_str().is_empty() {
        let me = std::env::current_exe().map_err(|e| e.to_string())?;
        cfg.admitd = me.with_file_name("dvs_admitd");
        if !cfg.admitd.exists() {
            return Err(format!(
                "dvs_admitd not found at {}; pass --admitd",
                cfg.admitd.display()
            ));
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|cfg| {
        if cfg.failover {
            run_failover(&cfg)
        } else if cfg.reshard {
            run_reshard(&cfg)
        } else {
            run(&cfg)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
