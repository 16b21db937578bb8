//! `dvs_routerd` — the domain-sharded admission cluster front-end.
//!
//! ```text
//! dvs_routerd (--shards ADDR[~REPLICA],... | --spawn K)
//!             [--stdin | --listen ADDR]
//!             [--domains D] [--journal FILE]
//!             [--policy SPEC] [--power MODEL] [--shard-journals DIR]
//!             (the last three: spawn mode only)
//!
//!   --shards LIST   comma-separated shard endpoints; ADDR~REPLICA names a
//!                   read replica used to hedge stats reads when the
//!                   primary is down
//!   --spawn K       spawn K dvs_admitd shard processes (binary located
//!                   next to this one) on ephemeral ports and route over
//!                   them; each child gets exactly its owned domain count
//!   --stdin         serve newline-delimited JSON on stdin/stdout (default)
//!   --listen ADDR   serve TCP sessions on ADDR (one session at a time —
//!                   the merged decision log is a single serialized
//!                   stream); prints "listening on ADDR" once bound
//!   --domains D     global power-domain count (default: shard count)
//!   --journal FILE  journal the shard map (version + membership history).
//!                   An existing journal is **replayed**, not truncated:
//!                   the router resumes the journaled membership and
//!                   version and reconciles its routing tables against
//!                   the shards' actual domain layouts
//!   --policy SPEC   forwarded to spawned shards (default greedy)
//!   --power MODEL   forwarded to spawned shards (default xscale)
//!   --shard-journals DIR  give each spawned shard a write-ahead journal
//!                   at DIR/<name>.wal, so a killed shard can be respawned
//!                   with --recover and a reshard retried against its
//!                   recovered state
//! ```
//!
//! The protocol is the `dvs_admitd` protocol (see `dvs_admit::server`)
//! plus `{"op":"map"}` for the domain→shard assignment and
//! `{"op":"reshard",…}` for live membership changes. `stats` responds
//! with cluster aggregates under the balance invariant, `log` with the
//! deterministic merged decision log, and `shutdown` shuts every shard
//! down and responds with the final cluster aggregates.
//!
//! In spawn mode the router front-end also *manages* the fleet across
//! reshards: `{"op":"reshard","add":"NAME"}` (a bare name, no `=ADDR`)
//! spawns a fresh `dvs_admitd --domains 0` child and rewrites the
//! request to `NAME=ADDR` before routing, and any journaled child found
//! dead at reshard time is respawned at its old address with `--recover`
//! so an interrupted migration can be retried. A dead child *without* a
//! journal fails the reshard with a state-lost error instead of being
//! silently replaced by an empty engine. Restarting spawn mode against
//! an existing `--journal` likewise requires `--shard-journals`: the
//! fleet's state lives in the children, and only their journals can
//! carry it across the restart. On resume the journaled membership is
//! authoritative — a reshard may have grown the fleet past the original
//! `--spawn K`, and restarting with the same flags respawns every
//! journaled member, not K of them.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::{serve_batches, serve_connections, Handled, ServerControl, SessionEnd};
use dvs_admit::ClientConfig;
use dvs_router::{Router, ShardMap, ShardSpec};

enum Mode {
    Stdin,
    Listen(String),
}

/// A spawned shard child: process handle, the address it bound, and
/// everything needed to respawn it in place after a crash.
struct SpawnedShard {
    name: String,
    child: Child,
    addr: String,
    domains: usize,
}

/// Spawn-mode fleet configuration, shared by initial spawns, reshard
/// joins, and crash respawns.
struct SpawnCtx {
    admitd: PathBuf,
    policy: String,
    power: String,
    shard_journals: Option<PathBuf>,
}

impl SpawnCtx {
    fn journal_for(&self, name: &str) -> Option<PathBuf> {
        self.shard_journals
            .as_ref()
            .map(|d| d.join(format!("{name}.wal")))
    }
}

/// The number of domains `member` was constructed with: its dense
/// version-1 assignment if it is an initial member, zero if it joined
/// later (joiners grow purely via imports). This is the `--domains`
/// a recovering respawn must pass so journal replay starts from the
/// same construction the original process had.
fn birth_count(map: &ShardMap, member: &str) -> usize {
    let initial = map.initial_members();
    initial.iter().position(|m| m == member).map_or(0, |idx| {
        ShardMap::new(initial.to_vec(), map.domains(), None)
            .expect("the initial membership was validated when the map was journaled")
            .owned(idx)
            .len()
    })
}

/// Locates `dvs_admitd` next to the running binary.
fn admitd_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "current_exe has no parent directory".to_string())?;
    let candidate = dir.join("dvs_admitd");
    if candidate.exists() {
        return Ok(candidate);
    }
    Err(format!("dvs_admitd not found at {}", candidate.display()))
}

/// Spawns a `dvs_admitd` child and reads the bound address from its
/// `listening on ADDR` line. The rest of the child's stdout is drained
/// by a reaper thread so the pipe can never block it.
fn spawn_admitd(admitd: &Path, args: &[String]) -> Result<(Child, String), String> {
    let mut child = Command::new(admitd)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", admitd.display()))?;
    let stdout = child.stdout.take().ok_or("child stdout not captured")?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("reading child banner: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("unexpected child banner {line:?}"))?
        .to_string();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = reader.read_to_end(&mut sink);
    });
    Ok((child, addr))
}

/// Spawns one shard (ephemeral port unless `listen` pins an address).
fn spawn_shard(
    ctx: &SpawnCtx,
    name: &str,
    domains: usize,
    listen: Option<&str>,
    recover: bool,
) -> Result<SpawnedShard, String> {
    let journal = ctx.journal_for(name);
    let mut args: Vec<String> = vec![
        "--listen".into(),
        listen.unwrap_or("127.0.0.1:0").into(),
        "--domains".into(),
        domains.to_string(),
        "--policy".into(),
        ctx.policy.clone(),
        "--power".into(),
        ctx.power.clone(),
    ];
    if let Some(j) = &journal {
        args.push("--journal".into());
        args.push(j.display().to_string());
        if recover && j.exists() {
            args.push("--recover".into());
        }
    }
    let (child, addr) = spawn_admitd(&ctx.admitd, &args)?;
    Ok(SpawnedShard {
        name: name.to_string(),
        child,
        addr,
        domains,
    })
}

/// Fleet work a reshard request needs before it reaches the router
/// (spawn mode only): respawn any dead child at its old address so the
/// migration can retry against recovered state, and resolve a bare
/// `"add":"NAME"` by spawning a fresh empty shard and rewriting the
/// request to `NAME=ADDR`. Returns the request line to route.
fn prepare_reshard(
    request: &str,
    children: &mut Vec<SpawnedShard>,
    ctx: &SpawnCtx,
) -> Result<String, String> {
    let Ok(pairs) = json::parse_object(request) else {
        return Ok(request.to_string()); // let the router report the parse error
    };
    if json::get(&pairs, "op").and_then(JsonValue::as_str) != Some("reshard") {
        return Ok(request.to_string());
    }
    for shard in children.iter_mut() {
        let dead = shard
            .child
            .try_wait()
            .map_err(|e| format!("{}: {e}", shard.name))?
            .is_some();
        if dead {
            // Without a journal there is nothing to recover: respawning
            // an empty engine at the old address would let the reshard
            // "succeed" by exporting freshly constructed, empty domains.
            if !ctx.journal_for(&shard.name).is_some_and(|j| j.exists()) {
                return Err(format!(
                    "shard {} is dead and has no journal to recover from — its state \
                     is lost (run with --shard-journals to make reshards crash-safe)",
                    shard.name
                ));
            }
            eprintln!("respawning {} on {}", shard.name, shard.addr);
            // SO_REUSEADDR (set by the listener) lets the old address
            // rebind immediately; --recover replays the shard journal.
            *shard = spawn_shard(ctx, &shard.name, shard.domains, Some(&shard.addr), true)?;
            eprintln!(
                "{} on {} (pid {}, recovered)",
                shard.name,
                shard.addr,
                shard.child.id()
            );
        }
    }
    match json::get(&pairs, "add").and_then(JsonValue::as_str) {
        Some(name) if !name.contains('=') => {
            let addr = match children.iter().find(|c| c.name == name) {
                Some(existing) => existing.addr.clone(),
                None => {
                    // A joining shard starts with zero domains; every
                    // domain it serves arrives through an import.
                    let shard = spawn_shard(ctx, name, 0, None, false)?;
                    eprintln!(
                        "{} on {} (pid {}, 0 domain(s), joining)",
                        shard.name,
                        shard.addr,
                        shard.child.id()
                    );
                    let addr = shard.addr.clone();
                    children.push(shard);
                    addr
                }
            };
            Ok(format!(
                "{{\"op\":\"reshard\",\"add\":\"{}={}\"}}",
                json::escape(name),
                json::escape(&addr)
            ))
        }
        _ => Ok(request.to_string()),
    }
}

/// The router's spawned fleet, when it manages one.
type Fleet<'a> = Option<(&'a mut Vec<SpawnedShard>, &'a SpawnCtx)>;

/// Serves one session through the shared serving loop: every batch the
/// loop hands over goes to [`Router::handle_batch`] whole, except that a
/// managed fleet's reshards split it — their fleet work (respawns, the
/// joiner's spawn) happens when the reshard's turn comes, after
/// everything in front of it has been answered.
fn serve<R: Read, W: Write>(
    router: &mut Router,
    reader: R,
    writer: W,
    ctl: &ServerControl,
    mut fleet: Fleet<'_>,
) -> std::io::Result<SessionEnd> {
    serve_batches(reader, writer, ctl, |requests, reply| {
        let mut rest = requests;
        if let Some((children, ctx)) = fleet.as_mut() {
            while let Some(at) = rest.iter().position(|r| r.contains("\"reshard\"")) {
                let before = router.handle_batch(&rest[..at]);
                let stop = before.last().is_some_and(|h| h.shutdown);
                before.into_iter().for_each(&mut *reply);
                if stop {
                    return;
                }
                reply(match prepare_reshard(rest[at], children, ctx) {
                    Ok(prepared) => router.handle_line(&prepared),
                    Err(msg) => Handled {
                        response: format!(
                            "{{\"ok\":false,\"kind\":\"reshard\",\"error\":\"{}\"}}",
                            json::escape(&msg)
                        ),
                        shutdown: false,
                    },
                });
                rest = &rest[at + 1..];
            }
        }
        router.handle_batch(rest).into_iter().for_each(reply);
    })
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Stdin;
    let mut shard_list: Option<String> = None;
    let mut spawn_count: Option<usize> = None;
    let mut domains: Option<usize> = None;
    let mut journal: Option<String> = None;
    let mut policy = "greedy".to_string();
    let mut power = "xscale".to_string();
    let mut shard_journals: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stdin" => mode = Mode::Stdin,
            "--listen" => {
                mode = Mode::Listen(it.next().ok_or("--listen needs an address")?.clone());
            }
            "--shards" => {
                shard_list = Some(it.next().ok_or("--shards needs a list")?.clone());
            }
            "--spawn" => {
                spawn_count = Some(
                    it.next()
                        .ok_or("--spawn needs a count")?
                        .parse()
                        .map_err(|e| format!("bad --spawn: {e}"))?,
                );
            }
            "--domains" => {
                domains = Some(
                    it.next()
                        .ok_or("--domains needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --domains: {e}"))?,
                );
            }
            "--journal" => {
                journal = Some(it.next().ok_or("--journal needs a file")?.clone());
            }
            "--policy" => policy = it.next().ok_or("--policy needs a value")?.clone(),
            "--power" => power = it.next().ok_or("--power needs a value")?.clone(),
            "--shard-journals" => {
                shard_journals = Some(PathBuf::from(
                    it.next().ok_or("--shard-journals needs a directory")?,
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: dvs_routerd (--shards ADDR[~REPLICA],... | --spawn K) \
                     [--stdin | --listen ADDR] [--domains D] [--journal FILE] \
                     [--policy SPEC] [--power MODEL] [--shard-journals DIR]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if shard_list.is_some() == spawn_count.is_some() {
        return Err("exactly one of --shards or --spawn is required".to_string());
    }

    if shard_journals.is_some() && spawn_count.is_none() {
        return Err("--shard-journals requires --spawn".to_string());
    }
    let journal_path = journal.as_deref().map(Path::new);
    // An existing map journal means this is a *restart*: replay it
    // instead of truncating it, and pick the fleet up where the previous
    // router left off. A missing file starts fresh.
    let mut resuming = false;
    let resumed: Option<ShardMap> = match journal_path {
        Some(p) if p.exists() => {
            let map = ShardMap::load(p).map_err(|e| e.to_string())?;
            if let Some(d) = domains {
                if d != map.domains() {
                    return Err(format!(
                        "--domains {d} conflicts with the journaled map ({} domains)",
                        map.domains()
                    ));
                }
            }
            eprintln!(
                "resuming shard map v{} ({} member(s)) from {}",
                map.version(),
                map.members().len(),
                p.display()
            );
            resuming = true;
            Some(map)
        }
        _ => None,
    };
    let mut children: Vec<SpawnedShard> = Vec::new();
    let mut spawn_ctx: Option<SpawnCtx> = None;
    let (map, endpoints) = if let Some(list) = &shard_list {
        // Shard names are the primary addresses: a fixed endpoint list is
        // a stable identity, and rendezvous hashing keeps the assignment
        // deterministic for it.
        let endpoints: Vec<ShardSpec> = list.split(',').map(ShardSpec::parse).collect();
        if let Some(map) = resumed {
            // The journaled membership is authoritative; --shards must
            // cover it exactly (reordered freely — replicas may differ).
            let mut ordered = Vec::with_capacity(map.members().len());
            for m in map.members() {
                let spec = endpoints
                    .iter()
                    .find(|s| &s.addr == m)
                    .ok_or_else(|| format!("journaled member {m:?} is not in --shards"))?;
                ordered.push(spec.clone());
            }
            if ordered.len() != endpoints.len() {
                return Err(format!(
                    "--shards lists {} endpoint(s) but the journaled membership \
                     has {}",
                    endpoints.len(),
                    ordered.len()
                ));
            }
            (map, ordered)
        } else {
            let names: Vec<String> = endpoints.iter().map(|s| s.addr.clone()).collect();
            let d = domains.unwrap_or(endpoints.len());
            let map = ShardMap::new(names, d, journal_path).map_err(|e| e.to_string())?;
            (map, endpoints)
        }
    } else {
        // Spawn mode: logical names shard0..shardK-1 so the assignment
        // does not depend on the ephemeral ports the children bind.
        let k = spawn_count.expect("checked above");
        if k == 0 {
            return Err("--spawn must be at least 1".to_string());
        }
        if let Some(dir) = &shard_journals {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("--shard-journals {}: {e}", dir.display()))?;
        }
        let ctx = SpawnCtx {
            admitd: admitd_path()?,
            policy: policy.clone(),
            power: power.clone(),
            shard_journals: shard_journals.clone(),
        };
        let (map, plan): (ShardMap, Vec<(String, usize, bool)>) = if let Some(map) = resumed {
            // Resuming a spawned fleet: the previous children are gone,
            // so each journaled member is respawned over its own journal
            // — without journals the fleet's state cannot be recovered.
            if shard_journals.is_none() {
                return Err(
                    "resuming a spawn-mode map journal requires --shard-journals \
                     (the fleet's state lives in the shard journals)"
                        .to_string(),
                );
            }
            // The journal is authoritative on membership: a reshard may
            // have grown or shrunk the fleet since the original --spawn,
            // and "restart with the same flags" must still work.
            if k != map.members().len() {
                eprintln!(
                    "note: --spawn {k} superseded by the journaled membership \
                     of {} member(s)",
                    map.members().len()
                );
            }
            let mut plan = Vec::with_capacity(map.members().len());
            for name in map.members() {
                let wal = ctx.journal_for(name).expect("checked above");
                if !wal.exists() {
                    return Err(format!(
                        "cannot resume: member {name:?} has no journal at {} — its \
                         state is lost",
                        wal.display()
                    ));
                }
                // `--recover` must rebuild over the member's *birth*
                // construction: the dense version-1 assignment for
                // initial members, zero domains for later joiners (their
                // domains replay from import records).
                plan.push((name.clone(), birth_count(&map, name), true));
            }
            (map, plan)
        } else {
            let names: Vec<String> = (0..k).map(|i| format!("shard{i}")).collect();
            let d = domains.unwrap_or(k);
            let map = ShardMap::new(names, d, journal_path).map_err(|e| e.to_string())?;
            let plan = (0..k)
                .map(|s| (format!("shard{s}"), map.owned(s).len(), false))
                .collect();
            (map, plan)
        };
        let mut endpoints = Vec::with_capacity(plan.len());
        for (name, owned, recover) in plan {
            // A shard serves exactly its owned domains (zero is fine —
            // the engine constructs empty and grows via imports).
            let shard = spawn_shard(&ctx, &name, owned, None, recover)?;
            eprintln!(
                "{name} on {} (pid {}, {owned} domain(s){})",
                shard.addr,
                shard.child.id(),
                if recover { ", recovered" } else { "" }
            );
            endpoints.push(ShardSpec {
                addr: shard.addr.clone(),
                replica: None,
            });
            children.push(shard);
        }
        spawn_ctx = Some(ctx);
        (map, endpoints)
    };

    // A resumed fleet holds live state from the previous router process:
    // Router::resume probes every shard for its actual domain layout and
    // task inventory so routing (including departures of pre-restart
    // tasks) picks up exactly where the old router left off.
    let mut router = if resuming {
        Router::resume(map, &endpoints, &ClientConfig::default())
    } else {
        Router::new(map, &endpoints, &ClientConfig::default())
    }
    .map_err(|e| e.to_string())?;

    let ctl = ServerControl::new();
    let result = match mode {
        Mode::Stdin => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let fleet = spawn_ctx.as_ref().map(|ctx| (&mut children, ctx));
            serve(&mut router, stdin.lock(), stdout.lock(), &ctl, fleet)
        }
        Mode::Listen(addr) => {
            let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            println!("listening on {local}");
            std::io::stdout().flush().ok();
            // One session at a time, on the accepting thread: the merged
            // decision log is one serialized stream, so interleaving
            // sessions would make the cluster history depend on
            // connection scheduling.
            let mut end = Ok(SessionEnd::Eof);
            serve_connections(&listener, &ctl, None, |stream| {
                let fleet = spawn_ctx.as_ref().map(|ctx| (&mut children, ctx));
                end = stream
                    .try_clone()
                    .and_then(|reader| serve(&mut router, reader, stream, &ctl, fleet));
                if !matches!(end, Ok(SessionEnd::Eof)) {
                    ctl.request_drain();
                }
                None
            })
            .and(end)
        }
    };
    let shutdown = result.map_err(|e| e.to_string())? == SessionEnd::Shutdown;
    if !shutdown {
        // EOF without a shutdown op: shut the fleet down ourselves so
        // spawned children do not outlive the router.
        let handled = router.handle_line("{\"op\":\"shutdown\"}");
        eprintln!("{}", handled.response);
    }
    for mut shard in children {
        let _ = shard.child.wait();
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
