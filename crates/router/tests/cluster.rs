//! The cluster determinism contract, end to end: a K-shard cluster
//! driven through the router produces a merged decision log that is
//! byte-identical to one unsharded multi-domain engine replaying the
//! same pinned trace — across shard counts {1,2,4} — plus the routing
//! properties (unique ownership, validation mirroring, balance invariant,
//! hedged reads).

use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use dvs_admit::json::{self, JsonValue};
use dvs_admit::replication::RoleContext;
use dvs_admit::server::{serve_tcp, serve_tcp_role, ServeOptions, ServerControl};
use dvs_admit::{AdmissionEngine, ClientConfig, EngineConfig, JournalConfig, TraceSpec};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use dvs_power::Processor;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;
use rt_model::io::EventKind;

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

/// An in-process `dvs_admitd`-equivalent shard serving the given global
/// domains over TCP. Returns its address and the serving thread (which
/// exits on the shutdown op the router fans out).
fn shard_server(owned: &[usize]) -> (String, std::thread::JoinHandle<()>) {
    let cpus: Vec<Processor> = if owned.is_empty() {
        vec![xscale_ideal()]
    } else {
        owned.iter().map(|&g| cpu_for(g)).collect()
    };
    let engine = AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let engine = Arc::new(Mutex::new(engine));
    let handle = std::thread::spawn(move || {
        let ctl = Arc::new(ServerControl::new());
        let _ = serve_tcp(&listener, &engine, ServeOptions::default(), &ctl, None);
    });
    (addr, handle)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 2,
        backoff_base: std::time::Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

/// Builds a K-shard cluster over `domains` global domains: in-process
/// shard servers plus a connected router.
fn cluster(shards: usize, domains: usize) -> (Router, Vec<std::thread::JoinHandle<()>>) {
    let names: Vec<String> = (0..shards).map(|i| format!("shard{i}")).collect();
    let map = ShardMap::new(names, domains, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..shards {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let router = Router::new(map, &endpoints, &client_config()).unwrap();
    (router, handles)
}

/// Renders a trace event as its protocol request line (tasks carry their
/// domain pin explicitly).
fn request_line(event: &rt_model::io::EventRecord) -> String {
    match &event.kind {
        EventKind::Arrive(t) => {
            let domain = t
                .domain()
                .map_or_else(String::new, |d| format!(",\"domain\":{d}"));
            format!(
                "{{\"op\":\"arrive\",\"at\":{},\"id\":{},\"cycles\":{},\"period\":{},\
                 \"deadline\":{},\"penalty\":{}{domain}}}",
                event.at,
                t.id().index(),
                t.wcec(),
                t.period(),
                t.deadline(),
                t.penalty()
            )
        }
        EventKind::Depart(id) => format!(
            "{{\"op\":\"depart\",\"at\":{},\"id\":{}}}",
            event.at,
            id.index()
        ),
        EventKind::Tick => format!("{{\"op\":\"tick\",\"at\":{}}}", event.at),
    }
}

/// Replays a pinned trace through a freshly-built cluster and returns
/// (merged log, final stats response). Every response must be ok, and
/// shutdown is fanned out at the end so the shard threads exit.
fn cluster_replay(shards: usize, spec: TraceSpec) -> (String, String) {
    let trace = spec.generate().unwrap();
    let (mut router, handles) = cluster(shards, spec.domains);
    for event in &trace {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "event {event:?} refused: {}",
            handled.response
        );
    }
    let stats = router.handle_line("{\"op\":\"stats\"}").response;
    assert!(stats.starts_with("{\"ok\":true"), "stats refused: {stats}");
    let log = router.merged_log().to_string();
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown);
    for h in handles {
        h.join().unwrap();
    }
    (log, stats)
}

/// The unsharded reference: one engine over all domains, same pinned
/// trace, same per-domain processors.
fn reference_log(spec: TraceSpec) -> String {
    let trace = spec.generate().unwrap();
    let cpus: Vec<Processor> = (0..spec.domains).map(cpu_for).collect();
    let mut engine = AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).unwrap();
    dvs_admit::trace::replay(&mut engine, &trace).unwrap();
    engine.format_decision_log()
}

fn num(pairs: &[(String, JsonValue)], key: &str) -> u64 {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}")) as u64
}

/// The tentpole invariant: the K-shard merged decision log is
/// byte-identical to the 1-shard (and unsharded) log.
#[test]
fn merged_log_is_bit_identical_across_shard_counts() {
    for seed in [3u64, 11] {
        let spec = TraceSpec::new(18, 2.4, seed).domains(4);
        let reference = reference_log(spec);
        assert!(
            reference.contains("accepted"),
            "seed {seed}: reference log has no admissions"
        );
        for shards in [1usize, 2, 4] {
            let (log, _) = cluster_replay(shards, spec);
            assert_eq!(log, reference, "seed {seed}: {shards}-shard log diverged");
        }
    }
}

/// The `log` op serves the merged log in the single-server response
/// shape, byte-identical to what the unsharded engine would serve.
#[test]
fn log_op_serves_the_merged_cluster_log() {
    let spec = TraceSpec::new(12, 2.0, 5).domains(3);
    let trace = spec.generate().unwrap();
    let (mut router, handles) = cluster(2, 3);
    for event in &trace {
        let handled = router.handle_line(&request_line(event));
        assert!(handled.response.starts_with("{\"ok\":true"));
    }
    let resp = router.handle_line("{\"op\":\"log\"}").response;
    let pairs = json::parse_object(&resp).unwrap();
    let served = json::get(&pairs, "log")
        .and_then(JsonValue::as_str)
        .unwrap();
    assert_eq!(served, reference_log(spec));
    let decisions = num(&pairs, "decisions");
    assert_eq!(decisions as usize, served.lines().count());
    router.handle_line("{\"op\":\"shutdown\"}");
    for h in handles {
        h.join().unwrap();
    }
}

/// Cluster stats aggregate per-shard counters under the balance
/// invariant, and routed/fanned router metrics add up.
#[test]
fn cluster_stats_aggregate_with_balance_invariant() {
    let spec = TraceSpec::new(16, 2.2, 9).domains(4);
    let (_, stats) = cluster_replay(2, spec);
    let pairs = json::parse_object(&stats).unwrap();
    assert_eq!(
        json::get(&pairs, "op").and_then(JsonValue::as_str),
        Some("cluster-stats")
    );
    let arrivals = num(&pairs, "arrivals");
    assert_eq!(arrivals, 16);
    assert_eq!(
        num(&pairs, "accepted") + num(&pairs, "rejected") + num(&pairs, "shed"),
        arrivals,
        "balance invariant broken in {stats}"
    );
    assert_eq!(num(&pairs, "routed_arrives"), 16);
    assert_eq!(num(&pairs, "routed_departs"), 16);
    assert!(num(&pairs, "fanned_ticks") > 0);
    assert_eq!(num(&pairs, "shards"), 2);
    assert_eq!(num(&pairs, "map_version"), 1);
    let per_shard = json::get(&pairs, "per_shard_routed")
        .and_then(JsonValue::as_arr)
        .unwrap();
    let routed: u64 = per_shard.iter().map(|v| v.as_f64().unwrap() as u64).sum();
    assert_eq!(routed, 32, "every arrive and depart is routed exactly once");
}

/// The router mirrors the engine's validation error kinds without
/// touching any shard, so a cluster refuses exactly what one server
/// refuses.
#[test]
fn router_mirrors_engine_validation_errors() {
    let (mut router, handles) = cluster(2, 4);
    let kind = |resp: &str| -> String {
        let pairs = json::parse_object(resp).unwrap();
        json::get(&pairs, "kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let arrive =
        "{\"op\":\"arrive\",\"at\":1,\"id\":7,\"cycles\":50,\"period\":1000,\"penalty\":2}";
    assert!(router
        .handle_line(arrive)
        .response
        .starts_with("{\"ok\":true"));
    // Duplicate while present (accepted or standing rejected).
    assert_eq!(kind(&router.handle_line(arrive).response), "duplicate-task");
    // Unknown departure.
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"depart\",\"at\":2,\"id\":99}")
                .response
        ),
        "unknown-task"
    );
    // Out-of-range pin.
    assert_eq!(
        kind(
            &router
                .handle_line(
                    "{\"op\":\"arrive\",\"at\":2,\"id\":8,\"cycles\":50,\"period\":1000,\
                     \"penalty\":2,\"domain\":9}"
                )
                .response
        ),
        "invalid-domain"
    );
    // Time regression against the cluster clock.
    assert!(router
        .handle_line("{\"op\":\"tick\",\"at\":10}")
        .response
        .starts_with("{\"ok\":true"));
    assert_eq!(
        kind(&router.handle_line("{\"op\":\"tick\",\"at\":4}").response),
        "time-regression"
    );
    // Departed ids are burned.
    assert!(router
        .handle_line("{\"op\":\"depart\",\"at\":11,\"id\":7}")
        .response
        .starts_with("{\"ok\":true"));
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"depart\",\"at\":12,\"id\":7}")
                .response
        ),
        "already-departed"
    );
    assert_eq!(
        kind(&router.handle_line(arrive).response),
        "time-regression"
    );
    assert_eq!(
        kind(
            &router
                .handle_line(
                    "{\"op\":\"arrive\",\"at\":13,\"id\":7,\"cycles\":50,\"period\":1000,\
                     \"penalty\":2}"
                )
                .response
        ),
        "already-departed"
    );
    router.handle_line("{\"op\":\"shutdown\"}");
    for h in handles {
        h.join().unwrap();
    }
}

/// `stale_by_max` only reflects reads a hedged follower actually
/// served: a (buggy or adversarial) *primary* whose stats reply carries
/// a `stale_by` field cannot inflate the aggregate, because the router
/// ignores the field on any primary-served reply.
#[test]
fn primary_served_reads_never_surface_stale_by() {
    use std::io::{BufRead, BufReader, Write};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let resp = "{\"ok\":true,\"arrivals\":0,\"accepted\":0,\"rejected\":0,\
                        \"shed\":0,\"stale_by\":999}";
            if writeln!(stream, "{resp}").is_err() {
                break;
            }
        }
    });
    let map = ShardMap::new(vec!["shard0"], 1, None).unwrap();
    let endpoints = [ShardSpec {
        addr,
        replica: None,
    }];
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let stats = router.handle_line("{\"op\":\"stats\"}").response;
    assert!(stats.starts_with("{\"ok\":true"), "stats refused: {stats}");
    let pairs = json::parse_object(&stats).unwrap();
    assert_eq!(
        num(&pairs, "stale_by_max"),
        0,
        "primary-echoed stale_by leaked into the aggregate: {stats}"
    );
    assert_eq!(router.metrics().hedged_reads, 0);
    drop(router); // closes the connection; the fake shard thread exits
    handle.join().unwrap();
}

/// A `stats` read hedges to the shard's replica when the primary is
/// unreachable; the follower's `stale_by` bound surfaces in the
/// aggregate and the hedge is counted.
#[test]
fn stats_reads_hedge_to_follower_replicas() {
    // A port with nothing listening: bind, record, drop.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    // The replica is a *follower-role* server: reads work and carry
    // stale_by, writes would be refused with not-primary.
    let mirror =
        std::env::temp_dir().join(format!("dvs_router_hedge_{}.mirror", std::process::id()));
    let _ = std::fs::remove_file(&mirror);
    let engine = Arc::new(Mutex::new(
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap(),
    ));
    let ctx = Arc::new(RoleContext::follower(&mirror, JournalConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let replica_addr = listener.local_addr().unwrap().to_string();
    let serve_ctx = Arc::clone(&ctx);
    let serve_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || {
        let ctl = Arc::new(ServerControl::new());
        let _ = serve_tcp_role(
            &listener,
            &serve_engine,
            ServeOptions::default(),
            &ctl,
            None,
            Some(&serve_ctx),
        );
    });
    std::thread::sleep(std::time::Duration::from_millis(10));

    let map = ShardMap::new(vec!["shard0"], 1, None).unwrap();
    let endpoints = [ShardSpec {
        addr: dead,
        replica: Some(replica_addr.clone()),
    }];
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let stats = router.handle_line("{\"op\":\"stats\"}").response;
    assert!(
        stats.starts_with("{\"ok\":true"),
        "hedged stats failed: {stats}"
    );
    let pairs = json::parse_object(&stats).unwrap();
    assert!(
        num(&pairs, "stale_by_max") > 0,
        "follower staleness bound missing from {stats}"
    );
    assert_eq!(router.metrics().hedged_reads, 1);
    // Close the router's replica connection so its server session ends;
    // otherwise serve_tcp_role blocks joining a session stuck in read.
    drop(router);

    // Shut the replica server down directly (the router never writes to
    // replicas, and the dead primary swallows the fanned shutdown).
    let mut shutdown_client = dvs_admit::AdmitClient::new(ClientConfig {
        addr: replica_addr,
        ..client_config()
    });
    // Shutdown is not write-gated on followers: it reaches the engine
    // and ends the serving loop.
    let _ = shutdown_client.request("{\"op\":\"shutdown\"}");
    handle.join().unwrap();
    let _ = std::fs::remove_file(&mirror);
}
