//! The pipelining contract: feeding a session through
//! [`Router::handle_batch`] in batches of any size answers every request
//! exactly as line-by-line [`Router::handle_line`] does — same replies,
//! same merged log, same router metrics, same final cluster stats — and
//! decides exactly what one unsharded engine decides. The sessions carry
//! what a batch must not trip over: malformed lines, typed refusals, a
//! task arriving and departing back to back, ticks between arrivals, ops
//! that drain the pipeline, and a shard that dies in the middle of a
//! batch.
//!
//! Plus the process-level regression: a request/response round trip
//! through `dvs_routerd --listen` must cost microseconds, not a delayed
//! ACK.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::{serve_tcp, ServeOptions, ServerControl};
use dvs_admit::{AdmissionEngine, AdmitClient, ClientConfig, EngineConfig, TraceSpec};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use dvs_power::Processor;
use dvs_router::{Router, RouterMetrics, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::rng::Rng;

const DOMAINS: usize = 8;

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

/// The per-domain processor mix, keyed by *global* domain index so a
/// shard hosting global domains {1,3} builds the same processors the
/// unsharded reference has at indices 1 and 3.
fn cpu_for(global_domain: usize) -> Processor {
    if global_domain.is_multiple_of(2) {
        cubic_ideal()
    } else {
        xscale_ideal()
    }
}

fn engine_over(domains: &[usize]) -> AdmissionEngine {
    let cpus: Vec<Processor> = if domains.is_empty() {
        vec![xscale_ideal()]
    } else {
        domains.iter().map(|&g| cpu_for(g)).collect()
    };
    AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).unwrap()
}

/// An in-process shard serving the given global domains over TCP.
fn shard_server(owned: &[usize]) -> (String, std::thread::JoinHandle<()>) {
    let engine = Arc::new(Mutex::new(engine_over(owned)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let ctl = Arc::new(ServerControl::new());
        let _ = serve_tcp(&listener, &engine, ServeOptions::default(), &ctl, None);
    });
    (addr, handle)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        breaker_cooldown: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

fn shard_map(shards: usize) -> ShardMap {
    let names: Vec<String> = (0..shards).map(|i| format!("shard{i}")).collect();
    ShardMap::new(names, DOMAINS, None).unwrap()
}

fn request_line(event: &EventRecord) -> String {
    match &event.kind {
        EventKind::Arrive(t) => format!(
            "{{\"op\":\"arrive\",\"at\":{},\"id\":{},\"cycles\":{},\"period\":{},\
             \"deadline\":{},\"penalty\":{},\"domain\":{}}}",
            event.at,
            t.id().index(),
            t.wcec(),
            t.period(),
            t.deadline(),
            t.penalty(),
            t.domain().expect("the trace pins every task")
        ),
        EventKind::Depart(id) => format!(
            "{{\"op\":\"depart\",\"at\":{},\"id\":{}}}",
            event.at,
            id.index()
        ),
        EventKind::Tick => format!("{{\"op\":\"tick\",\"at\":{}}}", event.at),
    }
}

/// A generated multi-domain session with, spliced in at seeded places,
/// every kind of line a batch has to get right. Spliced lines carry the
/// timestamp of the event before them, so the session stays in time
/// order except where it regresses on purpose.
fn session(seed: u64) -> Vec<String> {
    let trace = TraceSpec::new(36, 2.6, seed)
        .domains(DOMAINS)
        .generate()
        .unwrap();
    let mut rng = Rng::seed_from_u64(seed ^ 0xBA7C);
    let mut lines = Vec::new();
    let (mut present, mut departed): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut fresh = 10_000;
    for event in &trace {
        let mut line = request_line(event);
        if rng.gen_index(5) == 0 {
            // Some clients ask for the decision-line echo.
            line.insert_str(line.len() - 1, ",\"dlog\":true");
        }
        lines.push(line);
        match &event.kind {
            EventKind::Arrive(t) => present.push(t.id().index()),
            EventKind::Depart(id) => {
                present.retain(|p| *p != id.index());
                departed.push(id.index());
            }
            EventKind::Tick => {}
        }
        let at = event.at;
        let arrive = |id: usize| {
            format!(
                "{{\"op\":\"arrive\",\"at\":{at},\"id\":{id},\"cycles\":40,\"period\":1000,\
                 \"penalty\":3,\"domain\":{}}}",
                id % DOMAINS
            )
        };
        match rng.gen_index(14) {
            0 => lines.push("not json".to_string()),
            1 => lines.push("{\"op\":\"arrive\",\"at\":1}".to_string()),
            2 => lines.push("{\"op\":\"warp\"}".to_string()),
            3 if !present.is_empty() => {
                lines.push(arrive(present[rng.gen_index(present.len())])); // duplicate-task
            }
            4 => lines.push(format!(
                "{{\"op\":\"depart\",\"at\":{at},\"id\":{}}}", // unknown-task
                20_000 + lines.len()
            )),
            5 if at > 1.0 => {
                lines.push(format!("{{\"op\":\"tick\",\"at\":{}}}", at - 1.0)); // time-regression
            }
            6 if !departed.is_empty() => {
                let id = departed[rng.gen_index(departed.len())]; // already-departed
                lines.push(format!("{{\"op\":\"depart\",\"at\":{at},\"id\":{id}}}"));
            }
            7 | 8 => {
                // The same id twice in a row: the departure is decided by
                // how the arrival went.
                fresh += 1;
                lines.push(arrive(fresh));
                lines.push(format!("{{\"op\":\"depart\",\"at\":{at},\"id\":{fresh}}}"));
                departed.push(fresh);
            }
            9 => lines.push("{\"op\":\"stats\"}".to_string()),
            _ => {}
        }
    }
    lines
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    replies: Vec<String>,
    log: String,
    metrics: RouterMetrics,
    stats: String,
}

/// Sends `lines` through a fresh `shards`-shard cluster, `batch` lines
/// per `handle_batch` call (`None`: one `handle_line` call per line).
fn routed(shards: usize, lines: &[String], batch: Option<usize>) -> Outcome {
    let map = shard_map(shards);
    let (mut endpoints, mut handles) = (Vec::new(), Vec::new());
    for s in 0..shards {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let replies = feed(&mut router, lines, batch);
    let stats = router.handle_line("{\"op\":\"stats\"}").response;
    let outcome = Outcome {
        replies,
        log: router.merged_log().to_string(),
        metrics: router.metrics().clone(),
        stats,
    };
    assert!(router.handle_line("{\"op\":\"shutdown\"}").shutdown);
    for h in handles {
        h.join().unwrap();
    }
    outcome
}

fn feed(router: &mut Router, lines: &[String], batch: Option<usize>) -> Vec<String> {
    let Some(batch) = batch else {
        return lines
            .iter()
            .map(|l| router.handle_line(l).response)
            .collect();
    };
    let mut replies = Vec::new();
    for chunk in lines.chunks(batch) {
        let chunk: Vec<&str> = chunk.iter().map(String::as_str).collect();
        let handled = router.handle_batch(&chunk);
        assert_eq!(handled.len(), chunk.len(), "one answer per request");
        replies.extend(handled.into_iter().map(|h| h.response));
    }
    replies
}

/// `(ok, kind, id)` of a reply.
fn verdict(reply: &str) -> (bool, String, Option<u64>) {
    let pairs = json::parse_object(reply).unwrap_or_else(|e| panic!("{reply}: {e}"));
    (
        json::get(&pairs, "ok") == Some(&JsonValue::Bool(true)),
        json::get(&pairs, "kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        json::get(&pairs, "id")
            .and_then(JsonValue::as_f64)
            .map(|v| v as u64),
    )
}

fn counter(stats: &str, key: &str) -> u64 {
    let pairs = json::parse_object(stats).unwrap();
    json::get(&pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no {key:?} in {stats}")) as u64
}

#[test]
fn batches_answer_exactly_like_line_by_line_and_like_one_engine() {
    for seed in [1u64, 2, 3] {
        let lines = session(seed);
        // The unsharded reference: one engine over all domains.
        let mut engine = engine_over(&(0..DOMAINS).collect::<Vec<_>>());
        let reference: Vec<String> = lines
            .iter()
            .map(|l| dvs_admit::server::handle_line(&mut engine, l).response)
            .collect();
        let kinds: Vec<String> = reference.iter().map(|r| verdict(r).1).collect();
        for kind in [
            "bad-request",
            "duplicate-task",
            "unknown-task",
            "time-regression",
            "already-departed",
        ] {
            assert!(
                kinds.iter().any(|k| k == kind),
                "seed {seed}: the session provokes no {kind}"
            );
        }
        let reference_stats = format!("{{{}", &engine.stats_json()[1..]);

        for shards in [1usize, 2, 4] {
            let sequential = routed(shards, &lines, None);
            assert_eq!(
                sequential.log,
                engine.format_decision_log(),
                "seed {seed}, {shards} shard(s): the merged log is not the engine's"
            );
            for (i, (routed, single)) in sequential.replies.iter().zip(&reference).enumerate() {
                let (routed, single) = (verdict(routed), verdict(single));
                assert_eq!(
                    routed, single,
                    "seed {seed}, {shards} shard(s), line {i}: {:?}",
                    lines[i]
                );
            }
            for key in [
                "arrivals",
                "accepted",
                "rejected",
                "shed",
                "shed_total",
                "readmitted",
                "departures",
            ] {
                assert_eq!(
                    counter(&sequential.stats, key),
                    counter(&reference_stats, key),
                    "seed {seed}, {shards} shard(s): {key}"
                );
            }
            for batch in [1usize, 2, 7, 64] {
                let batched = routed(shards, &lines, Some(batch));
                assert_eq!(
                    batched, sequential,
                    "seed {seed}, {shards} shard(s), batches of {batch}"
                );
            }
        }
    }
}

#[test]
fn a_batch_stops_at_shutdown_and_an_empty_batch_answers_nothing() {
    let map = shard_map(2);
    let (mut endpoints, mut handles) = (Vec::new(), Vec::new());
    for s in 0..2 {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    assert!(router.handle_batch(&[]).is_empty());
    let handled = router.handle_batch(&[
        "{\"op\":\"tick\",\"at\":1}",
        "{\"op\":\"shutdown\"}",
        "{\"op\":\"tick\",\"at\":2}",
    ]);
    assert_eq!(handled.len(), 2);
    assert!(handled[0].response.starts_with("{\"ok\":true,\"shed\""));
    assert!(handled[1].shutdown);
    assert_eq!(counter(&handled[1].response, "ticks"), 2, "one per shard");
    for h in handles {
        h.join().unwrap();
    }
}

/// Relays one router connection to `upstream` in lock step and hangs up
/// — for good — instead of relaying request number `cut`.
fn dying_proxy(upstream: String, cut: usize) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (router_side, _) = listener.accept().unwrap();
        drop(listener);
        let shard_side = TcpStream::connect(upstream).unwrap();
        let mut to_router = router_side.try_clone().unwrap();
        let mut to_shard = shard_side.try_clone().unwrap();
        let mut replies = BufReader::new(shard_side);
        for request in BufReader::new(router_side).lines().take(cut) {
            writeln!(to_shard, "{}", request.unwrap()).unwrap();
            let mut reply = String::new();
            replies.read_line(&mut reply).unwrap();
            to_router.write_all(reply.as_bytes()).unwrap();
        }
    });
    (addr, handle)
}

/// A two-shard cluster whose second shard dies after `cut` requests.
fn routed_with_a_dying_shard(lines: &[String], cut: usize, batch: Option<usize>) -> Outcome {
    let map = shard_map(2);
    let (addr0, handle0) = shard_server(&map.owned(0));
    let (addr1, handle1) = shard_server(&map.owned(1));
    let (proxy, proxy_handle) = dying_proxy(addr1.clone(), cut);
    let endpoints = [addr0.clone(), proxy].map(|addr| ShardSpec {
        addr,
        replica: None,
    });
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let replies = feed(&mut router, lines, batch);
    let outcome = Outcome {
        replies,
        log: router.merged_log().to_string(),
        metrics: router.metrics().clone(),
        stats: String::new(),
    };
    drop(router);
    proxy_handle.join().unwrap();
    for (addr, handle) in [(addr0, handle0), (addr1, handle1)] {
        let mut direct = AdmitClient::new(ClientConfig {
            addr,
            ..client_config()
        });
        direct.request("{\"op\":\"shutdown\"}").unwrap();
        handle.join().unwrap();
    }
    outcome
}

#[test]
fn a_shard_dying_mid_batch_fails_its_requests_in_place() {
    // Valid lines only: what is refused here is refused by the dead shard.
    let trace = TraceSpec::new(36, 2.6, 4)
        .domains(DOMAINS)
        .generate()
        .unwrap();
    let lines: Vec<String> = trace.iter().map(request_line).collect();
    let cut = 25;
    let sequential = routed_with_a_dying_shard(&lines, cut, None);
    let verdicts = |o: &Outcome| o.replies.iter().map(|r| verdict(r)).collect::<Vec<_>>();
    let expected = verdicts(&sequential);
    let unavailable = expected
        .iter()
        .filter(|(_, kind, _)| kind == "shard-unavailable")
        .count();
    assert!(
        unavailable > 10 && unavailable < lines.len() - cut,
        "the cut fails shard 1's share and every later tick, not everything: {unavailable}"
    );
    // The surviving shard kept deciding, in request order, after the cut.
    assert!(sequential.log.lines().count() > cut);
    for batch in [2usize, 7, 64] {
        let batched = routed_with_a_dying_shard(&lines, cut, Some(batch));
        // Replies line up with their requests (an ok or task-level reply
        // names its task), and nothing but the wording of the transport
        // error may differ from one-at-a-time handling.
        for (i, (got, line)) in verdicts(&batched).iter().zip(&lines).enumerate() {
            assert_eq!(got, &expected[i], "batches of {batch}, line {i}: {line}");
            if let (Some(id), true) = (got.2, line.contains("\"id\"")) {
                assert!(
                    line.contains(&format!("\"id\":{id},"))
                        || line.ends_with(&format!("\"id\":{id}}}")),
                    "batches of {batch}: reply {i} is about task {id}, request was {line}"
                );
            }
        }
        assert_eq!(batched.log, sequential.log, "batches of {batch}");
        assert_eq!(batched.metrics, sequential.metrics, "batches of {batch}");
    }
}

#[test]
fn a_request_about_a_task_in_flight_waits_for_the_first_ones_reply() {
    let map = shard_map(2);
    let g = (0..DOMAINS).find(|&g| map.shard_for(g) == 1).unwrap();
    // Shard 1 is dead on arrival, so the arrival is refused — and the
    // departure behind it in the same batch must be decided knowing that.
    let lines = [
        format!(
            "{{\"op\":\"arrive\",\"at\":1,\"id\":5,\"cycles\":40,\"period\":1000,\
             \"penalty\":3,\"domain\":{g}}}"
        ),
        "{\"op\":\"depart\",\"at\":1,\"id\":5}".to_string(),
    ];
    for batch in [None, Some(2)] {
        let outcome = routed_with_a_dying_shard(&lines, 0, batch);
        let kinds: Vec<String> = outcome.replies.iter().map(|r| verdict(r).1).collect();
        assert_eq!(kinds, ["shard-unavailable", "unknown-task"], "{batch:?}");
    }
}

/// `dvs_admitd` next to the `dvs_routerd` under test, built if a
/// `-p dvs-router` run has not produced it.
fn ensure_admitd(routerd: &std::path::Path) {
    let dir = routerd.parent().unwrap();
    if dir.join("dvs_admitd").exists() {
        return;
    }
    let mut build = std::process::Command::new(env!("CARGO"));
    build.args(["build", "-p", "dvs-admit", "--bin", "dvs_admitd"]);
    if dir.ends_with("release") {
        build.arg("--release");
    }
    assert!(build.status().unwrap().success(), "building dvs_admitd");
}

#[test]
fn a_hundred_round_trips_through_routerd_listen_take_under_a_second() {
    let routerd = std::path::Path::new(env!("CARGO_BIN_EXE_dvs_routerd"));
    ensure_admitd(routerd);
    let mut child = std::process::Command::new(routerd)
        .args(["--spawn", "2", "--domains", "8", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner.trim().strip_prefix("listening on ").unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    let mut round_trip = |request: String| {
        stream.write_all(request.as_bytes()).unwrap();
        reply.clear();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("{\"ok\":true"), "{request} -> {reply}");
    };
    // Connections to the shards are made on first use; not timed.
    round_trip("{\"op\":\"tick\",\"at\":0}\n".to_string());
    let started = Instant::now();
    for i in 1..=100 {
        round_trip(if i % 4 == 0 {
            format!("{{\"op\":\"tick\",\"at\":{i}}}\n")
        } else {
            format!(
                "{{\"op\":\"arrive\",\"at\":{i},\"id\":{i},\"cycles\":40,\"period\":1000,\
                 \"penalty\":3}}\n"
            )
        });
    }
    let elapsed = started.elapsed();
    round_trip("{\"op\":\"shutdown\"}\n".to_string());
    assert!(child.wait().unwrap().success());
    // Two writes per reply on a socket without TCP_NODELAY cost a 40 ms
    // delayed ACK each: 4 s for this loop.
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
}
