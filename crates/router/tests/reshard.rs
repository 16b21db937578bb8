//! The live-resharding exactness contract: a cluster whose membership
//! changes *mid-session* — domains migrating between shards via the
//! export → import → version-fence protocol — produces a merged
//! decision log byte-identical to one unsharded multi-domain engine
//! replaying the same pinned trace, across membership transitions
//! {1→2→4, 4→2}, with reshards fired between arrivals in the middle of
//! the event stream.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::{serve_tcp, ServeOptions, ServerControl};
use dvs_admit::AdmitClient;
use dvs_admit::{AdmissionEngine, ClientConfig, EngineConfig, TraceSpec};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use dvs_power::Processor;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

/// Per-domain processor mix keyed by *global* domain index, so a shard
/// hosting any subset builds the same processors the unsharded
/// reference has — and a migrated domain's CPU spec round-trips through
/// the export payload to the identical processor.
fn cpu_for(global_domain: usize) -> Processor {
    if global_domain.is_multiple_of(2) {
        cubic_ideal()
    } else {
        xscale_ideal()
    }
}

/// An in-process shard serving the given global domains over TCP. A
/// joining shard starts with *zero* domains (mirroring
/// `dvs_admitd --domains 0`): everything it serves arrives via import.
fn shard_server(owned: &[usize]) -> (String, std::thread::JoinHandle<()>) {
    let cpus: Vec<Processor> = owned.iter().map(|&g| cpu_for(g)).collect();
    let engine = AdmissionEngine::with_domains(cpus, Box::new(OnlineGreedy), config()).unwrap();
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

/// A membership change to fire immediately before the trace event at
/// the given index (so reshards land between arrivals, mid-session).
enum Step {
    Add(&'static str),
    Remove(&'static str),
}

/// Replays a pinned trace through a cluster that starts with
/// `start_shards` members and reshards at the scheduled event indices.
/// Returns (merged log, final stats). Every response — events and
/// reshards alike — must be ok.
fn resharded_replay(
    start_shards: usize,
    steps: &[(usize, Step)],
    spec: TraceSpec,
) -> (String, String) {
    let trace = spec.generate().unwrap();
    let names: Vec<String> = (0..start_shards).map(|i| format!("shard{i}")).collect();
    let map = ShardMap::new(names, spec.domains, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..start_shards {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let mut steps = steps.iter().peekable();
    for (i, event) in trace.iter().enumerate() {
        while steps.peek().is_some_and(|(at, _)| *at == i) {
            let (_, step) = steps.next().unwrap();
            let line = match step {
                Step::Add(name) => {
                    let (addr, handle) = shard_server(&[]);
                    handles.push(handle);
                    format!("{{\"op\":\"reshard\",\"add\":\"{name}={addr}\"}}")
                }
                Step::Remove(name) => format!("{{\"op\":\"reshard\",\"remove\":\"{name}\"}}"),
            };
            let resp = router.handle_line(&line).response;
            assert!(
                resp.starts_with("{\"ok\":true"),
                "reshard before event {i} refused: {resp}"
            );
        }
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
/// trace — oblivious to any resharding.
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

/// Scale-out: 1 → 2 → 4 members, reshards fired a third and two thirds
/// of the way through the session. The merged log must match the
/// unsharded reference byte for byte, and the balance invariant must
/// hold in the final stats.
#[test]
fn scale_out_1_2_4_is_byte_identical_to_unsharded() {
    let spec = TraceSpec::new(18, 2.4, 3).domains(4);
    let reference = reference_log(spec);
    assert!(
        reference.contains("accepted"),
        "reference log has no admissions"
    );
    let n = spec.generate().unwrap().len();
    let steps = [
        (n / 3, Step::Add("shard1")),
        (2 * n / 3, Step::Add("shard2")),
    ];
    let steps2 = [(2 * n / 3 + 1, Step::Add("shard3"))];
    // Two adds at one point and one later: 1→2→3→4 in total, with
    // the last fired between different arrivals than the first two.
    let all: Vec<(usize, Step)> = steps.into_iter().chain(steps2).collect();
    let (log, stats) = resharded_replay(1, &all, spec);
    assert_eq!(log, reference, "scale-out log diverged");
    let pairs = json::parse_object(&stats).unwrap();
    assert_eq!(num(&pairs, "arrivals"), 18);
    assert_eq!(
        num(&pairs, "accepted") + num(&pairs, "rejected") + num(&pairs, "shed"),
        num(&pairs, "arrivals"),
        "balance invariant broken after scale-out: {stats}"
    );
    assert_eq!(num(&pairs, "map_version"), 4, "three reshards from v1");
}

/// Scale-in: 4 → 3 → 2 members, the removed shards' domains migrating
/// onto the survivors. Drained shards stay in the fleet, so historical
/// counters still aggregate and the balance invariant survives.
#[test]
fn scale_in_4_2_is_byte_identical_to_unsharded() {
    let spec = TraceSpec::new(18, 2.4, 11).domains(5);
    let reference = reference_log(spec);
    let n = spec.generate().unwrap().len();
    let steps = [
        (n / 3, Step::Remove("shard3")),
        (2 * n / 3, Step::Remove("shard1")),
    ];
    let (log, stats) = resharded_replay(4, &steps, spec);
    assert_eq!(log, reference, "scale-in log diverged");
    let pairs = json::parse_object(&stats).unwrap();
    assert_eq!(
        num(&pairs, "accepted") + num(&pairs, "rejected") + num(&pairs, "shed"),
        num(&pairs, "arrivals"),
        "balance invariant broken after scale-in: {stats}"
    );
    assert_eq!(num(&pairs, "map_version"), 3, "two reshards from v1");
}

/// A reshard is explicit about its movement: the response reports the
/// map version it cut over to and how many domains moved, and the
/// rendezvous map moves strictly fewer domains than a naive `g mod K`
/// rehash would.
#[test]
fn reshard_reports_version_and_minimal_movement() {
    let domains = 12;
    let (mut router, mut handles) = {
        let map = ShardMap::new(vec!["shard0", "shard1"], domains, None).unwrap();
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for s in 0..2 {
            let (addr, handle) = shard_server(&map.owned(s));
            endpoints.push(ShardSpec {
                addr,
                replica: None,
            });
            handles.push(handle);
        }
        (
            Router::new(map, &endpoints, &client_config()).unwrap(),
            handles,
        )
    };
    let (addr, handle) = shard_server(&[]);
    handles.push(handle);
    let resp = router
        .handle_line(&format!("{{\"op\":\"reshard\",\"add\":\"shard2={addr}\"}}"))
        .response;
    let pairs = json::parse_object(&resp).unwrap();
    assert_eq!(
        json::get(&pairs, "ok"),
        Some(&JsonValue::Bool(true)),
        "reshard refused: {resp}"
    );
    assert_eq!(num(&pairs, "version"), 2);
    let moved = num(&pairs, "moved") as usize;
    assert!(moved > 0, "a third member must win some domains");
    // Naive modulo rehash 2→3 moves about two thirds of all domains;
    // rendezvous moves only what the new member wins (~1/3). The hard
    // bound either way: strictly fewer than the naive scheme.
    let naive_moved = (0..domains).filter(|g| g % 2 != g % 3).count();
    assert!(
        moved < naive_moved,
        "rendezvous moved {moved} domains, naive modulo rehash moves {naive_moved}"
    );
    router.handle_line("{\"op\":\"shutdown\"}");
    for h in handles {
        h.join().unwrap();
    }
}

/// A hand-built trace in two phases with every arrival departed before
/// the phase boundary, so a router restarted at the split has no
/// in-flight task pins to lose. Tasks are pinned round-robin across all
/// `domains`. Returns the events and the split index.
fn drained_phase_trace(domains: usize) -> (Vec<EventRecord>, usize) {
    let task = |id: usize, i: usize, g: usize| {
        Task::new(id, 20.0 + 6.0 * i as f64, 40 + 10 * (i % 3) as u64)
            .unwrap()
            .with_penalty(1.5 + i as f64)
            .with_domain(g)
    };
    let mut events = Vec::new();
    let phase = |events: &mut Vec<EventRecord>, base_id: usize, t0: f64| {
        for i in 0..8 {
            let at = t0 + i as f64;
            events.push(EventRecord::new(
                at,
                EventKind::Arrive(task(base_id + i, i, i % domains)),
            ));
        }
        events.push(EventRecord::new(t0 + 8.0, EventKind::Tick));
        for i in 0..8 {
            events.push(EventRecord::new(
                t0 + 9.0 + i as f64,
                EventKind::Depart(TaskId::new(base_id + i)),
            ));
        }
        events.push(EventRecord::new(t0 + 17.0, EventKind::Tick));
    };
    phase(&mut events, 1, 0.0);
    let split = events.len();
    phase(&mut events, 21, 18.0);
    (events, split)
}

/// The unsharded reference log for a hand-built event list.
fn reference_log_for(events: &[EventRecord], domains: usize) -> String {
    let cpus: Vec<Processor> = (0..domains).map(cpu_for).collect();
    let mut engine = AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).unwrap();
    dvs_admit::trace::replay(&mut engine, events).unwrap();
    engine.format_decision_log()
}

/// Restart after a completed reshard: a router is rebuilt from the
/// journaled map (version > 1) against shards whose engines carry
/// fenced export holes and appended imports. The rebuilt router must
/// reconcile its routing tables from the engines' actual layouts — a
/// dense rebuild would misroute pinned arrivals — and the merged log
/// across both router lifetimes must equal the unsharded reference
/// byte for byte.
#[test]
fn restarted_router_reconciles_layouts_and_stays_byte_identical() {
    let domains = 4;
    let (events, split) = drained_phase_trace(domains);
    let reference = reference_log_for(&events, domains);
    let dir = std::env::temp_dir().join(format!("dvs_router_restart_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("map.wal");
    let map = ShardMap::new(vec!["shard0", "shard1"], domains, Some(&journal)).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..2 {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    // A completed reshard journals the v2 cutover and leaves fenced
    // holes on the exporters and imports on the joiner.
    let (addr2, handle2) = shard_server(&[]);
    handles.push(handle2);
    let resp = router
        .handle_line(&format!(
            "{{\"op\":\"reshard\",\"add\":\"shard2={addr2}\"}}"
        ))
        .response;
    assert!(resp.starts_with("{\"ok\":true"), "reshard refused: {resp}");
    endpoints.push(ShardSpec {
        addr: addr2,
        replica: None,
    });
    let mut merged = String::new();
    for event in &events[..split] {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "pre-restart event {event:?} refused: {}",
            handled.response
        );
    }
    merged.push_str(router.merged_log());
    // Restart: drop the router (shard servers keep serving) and
    // rebuild it from the journal. The reloaded map is v2, which
    // forces layout reconciliation against the live engines.
    drop(router);
    let reloaded = ShardMap::load(&journal).unwrap();
    assert_eq!(reloaded.version(), 2, "the cutover must have journaled");
    assert_eq!(reloaded.members().len(), 3);
    let mut router = Router::new(reloaded, &endpoints, &client_config()).unwrap();
    for event in &events[split..] {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "post-restart event {event:?} refused: {}",
            handled.response
        );
    }
    merged.push_str(router.merged_log());
    assert_eq!(
        merged, reference,
        "restarted-cluster log diverged from the unsharded reference"
    );
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown);
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Restart with tasks *in flight*: the id→global-domain table that
/// routes departures is router-side state and dies with the process,
/// while the tasks live on in the engines. The restarted router must
/// rebuild the table (and the burned-id set) from the engines' task
/// inventories. A version-1 map cannot reveal by itself that a cluster
/// is being resumed rather than built fresh, so the caller signals it
/// with [`Router::resume`], which probes unconditionally.
#[test]
fn resumed_router_routes_departures_of_pre_restart_tasks() {
    let domains = 4;
    let task = |id: usize, i: usize, g: usize| {
        Task::new(id, 20.0 + 6.0 * i as f64, 40 + 10 * (i % 3) as u64)
            .unwrap()
            .with_penalty(1.5 + i as f64)
            .with_domain(g)
    };
    // Pre-restart: eight arrivals (a mix of accepted and standing
    // rejected), a tick, and ONE departure — so the restart must carry
    // both in-flight tasks and a burned id. Post-restart: the rest of
    // the departures and the final tick.
    let mut events = Vec::new();
    for i in 0..8 {
        events.push(EventRecord::new(
            i as f64,
            EventKind::Arrive(task(1 + i, i, i % domains)),
        ));
    }
    events.push(EventRecord::new(8.0, EventKind::Tick));
    events.push(EventRecord::new(9.0, EventKind::Depart(TaskId::new(1))));
    let split = events.len();
    for i in 1..8 {
        events.push(EventRecord::new(
            9.0 + i as f64,
            EventKind::Depart(TaskId::new(1 + i)),
        ));
    }
    events.push(EventRecord::new(17.0, EventKind::Tick));
    let reference = reference_log_for(&events, domains);
    let dir = std::env::temp_dir().join(format!("dvs_router_resume_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("map.wal");
    let map = ShardMap::new(vec!["shard0", "shard1"], domains, Some(&journal)).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..2 {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    for event in &events[..split] {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "pre-restart event {event:?} refused: {}",
            handled.response
        );
    }
    let mut merged = String::from(router.merged_log());
    drop(router);
    let reloaded = ShardMap::load(&journal).unwrap();
    assert_eq!(reloaded.version(), 1, "no reshard happened");
    let mut router = Router::resume(reloaded, &endpoints, &client_config()).unwrap();
    for event in &events[split..] {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "post-restart event {event:?} refused: {}",
            handled.response
        );
    }
    merged.push_str(router.merged_log());
    assert_eq!(
        merged, reference,
        "resumed-cluster log diverged from the unsharded reference"
    );
    // The burned-id set was reconciled too: a stale duplicate of the
    // task departed *before* the restart gets the typed refusal a
    // continuously-running router would give, not unknown-task.
    let stale = router
        .handle_line("{\"op\":\"depart\",\"at\":18.0,\"id\":1}")
        .response;
    assert!(
        stale.contains("already-departed"),
        "stale depart after resume: {stale}"
    );
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown);
    for h in handles {
        h.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An abandoned reshard attempt — a domain exported from its owner and
/// imported onto a shard that never made it into the membership — must
/// be rolled forward by the *next* reshard, whatever its target: the
/// moved set is computed from where domains actually live, not from the
/// map-owner diff. Before the roll-forward the displaced domain refuses
/// arrivals with a structured `domain-fenced`; afterwards the cluster
/// replays a full trace byte-identically to the unsharded reference.
#[test]
fn abandoned_reshard_is_rolled_forward_by_the_next_reshard() {
    let domains = 6;
    let (events, _) = drained_phase_trace(domains);
    let reference = reference_log_for(&events, domains);
    let map = ShardMap::new(vec!["shard0", "shard1"], domains, None).unwrap();
    let owned0 = map.owned(0);
    let g = owned0[0];
    let local = 0; // owned() is ascending, so g's engine-local index is 0
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..2 {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    // Simulate attempt #1 (add a "shard2" that never cut over):
    // out-of-band export from the owner + import onto a stray
    // server the router never learns about. The map stays v1, so
    // the displaced domain's map owner is unchanged — exactly the
    // shape a crashed-and-abandoned reshard leaves behind.
    let (stray_addr, stray_handle) = shard_server(&[]);
    handles.push(stray_handle);
    let mut cfg = client_config();
    cfg.addr = endpoints[0].addr.clone();
    let mut owner = AdmitClient::new(cfg);
    let resp = owner
        .request(&format!("{{\"op\":\"export\",\"domain\":{local}}}"))
        .unwrap();
    let pairs = json::parse_object(&resp).unwrap();
    assert_eq!(json::get(&pairs, "ok"), Some(&JsonValue::Bool(true)));
    let payload = json::get(&pairs, "payload")
        .and_then(JsonValue::as_str)
        .unwrap()
        .to_string();
    let mut cfg = client_config();
    cfg.addr = stray_addr;
    let mut stray = AdmitClient::new(cfg);
    let resp = stray
        .request(&format!(
            "{{\"op\":\"import\",\"key\":\"2:{g}\",\"payload\":\"{}\"}}",
            json::escape(&payload)
        ))
        .unwrap();
    assert!(
        resp.starts_with("{\"ok\":true"),
        "stray import refused: {resp}"
    );
    // The displaced domain now refuses arrivals, structurally.
    let probe = format!(
        "{{\"op\":\"arrive\",\"at\":0,\"id\":99,\"cycles\":10,\"period\":50,\
         \"deadline\":50,\"penalty\":1,\"domain\":{g}}}"
    );
    let refused = router.handle_line(&probe).response;
    let pairs = json::parse_object(&refused).unwrap();
    assert_eq!(
        json::get(&pairs, "kind").and_then(JsonValue::as_str),
        Some("domain-fenced"),
        "fenced domain must refuse structurally: {refused}"
    );
    // A *different* reshard (drain shard1 — nothing to do with the
    // abandoned attempt) must notice the fenced-everywhere domain
    // and re-home it onto its owner.
    let resp = router
        .handle_line("{\"op\":\"reshard\",\"remove\":\"shard1\"}")
        .response;
    let pairs = json::parse_object(&resp).unwrap();
    assert_eq!(
        json::get(&pairs, "ok"),
        Some(&JsonValue::Bool(true)),
        "roll-forward reshard refused: {resp}"
    );
    let moved = num(&pairs, "moved") as usize;
    let from_drain = ShardMap::new(vec!["shard0", "shard1"], domains, None)
        .unwrap()
        .owned(1)
        .len();
    assert_eq!(
        moved,
        from_drain + 1,
        "the displaced domain must ride along with the drain"
    );
    // With every domain live again the full trace replays exactly.
    for event in &events {
        let handled = router.handle_line(&request_line(event));
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "post-roll-forward event {event:?} refused: {}",
            handled.response
        );
    }
    assert_eq!(
        router.merged_log(),
        reference,
        "rolled-forward cluster diverged from the unsharded reference"
    );
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown);
    // The stray server is outside the fleet, so the router's
    // shutdown fan-out never reaches it — and both out-of-band
    // clients must drop before the join: each server's accept loop
    // joins its session threads, which only exit when their client
    // side closes.
    let _ = stray.request("{\"op\":\"shutdown\"}");
    drop(owner);
    drop(stray);
    for h in handles {
        h.join().unwrap();
    }
}

/// A drained member rejoining at a **new address** (a fresh process)
/// must have its fleet connection replaced, not reused: the migration
/// has to land on the new process. The old drained server keeps only
/// fenced slots, and the new server ends up serving the re-won domains.
#[test]
fn rejoin_at_a_new_address_reconnects_and_migrates_to_the_new_process() {
    let domains = 6;
    let map = ShardMap::new(vec!["shard0", "shard1", "shard2"], domains, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    for s in 0..3 {
        let (addr, handle) = shard_server(&map.owned(s));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
    }
    let old_addr = endpoints[1].addr.clone();
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();
    let resp = router
        .handle_line("{\"op\":\"reshard\",\"remove\":\"shard1\"}")
        .response;
    assert!(resp.starts_with("{\"ok\":true"), "drain refused: {resp}");
    // Rejoin under the same name from a brand-new, empty process.
    let (new_addr, new_handle) = shard_server(&[]);
    handles.push(new_handle);
    let resp = router
        .handle_line(&format!(
            "{{\"op\":\"reshard\",\"add\":\"shard1={new_addr}\"}}"
        ))
        .response;
    let pairs = json::parse_object(&resp).unwrap();
    assert_eq!(
        json::get(&pairs, "ok"),
        Some(&JsonValue::Bool(true)),
        "rejoin refused: {resp}"
    );
    let rewon = num(&pairs, "moved") as usize;
    assert!(rewon > 0, "a rejoining member must win domains back");
    // The *new* process serves the re-won domains live; the old drained
    // process saw none of the migration and still holds only its fenced
    // slots.
    let layout_of = |addr: &str| -> Vec<String> {
        let mut cfg = client_config();
        cfg.addr = addr.to_string();
        let resp = AdmitClient::new(cfg)
            .request("{\"op\":\"layout\"}")
            .unwrap();
        let pairs = json::parse_object(&resp).unwrap();
        json::get(&pairs, "layout")
            .and_then(JsonValue::as_str)
            .unwrap()
            .split_whitespace()
            .map(str::to_string)
            .collect()
    };
    let new_layout = layout_of(&new_addr);
    assert_eq!(
        new_layout.iter().filter(|t| t.starts_with('+')).count(),
        rewon,
        "every re-won domain must be live on the new process: {new_layout:?}"
    );
    let old_layout = layout_of(&old_addr);
    assert!(
        old_layout.iter().all(|t| t.starts_with('-')),
        "the drained process must have stayed fully fenced: {old_layout:?}"
    );
    // Arrivals pinned to the re-won domains route to the new process.
    let pairs = json::parse_object(&router.handle_line("{\"op\":\"map\"}").response).unwrap();
    assert_eq!(num(&pairs, "version"), 3, "drain + rejoin from v1");
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown);
    drop(router);
    // The reconnect orphaned the old drained server from the fleet, so
    // the router's shutdown fan-out never reached it.
    let mut cfg = client_config();
    cfg.addr = old_addr;
    let mut old = AdmitClient::new(cfg);
    let _ = old.request("{\"op\":\"shutdown\"}");
    drop(old);
    for h in handles {
        h.join().unwrap();
    }
}

/// Reshard argument validation is typed and touches no shard: unknown
/// members, missing ADDR on add (outside spawn mode), both-or-neither
/// argument shapes.
#[test]
fn reshard_validation_errors_are_inband() {
    let (mut router, handles) = {
        let map = ShardMap::new(vec!["shard0", "shard1"], 4, None).unwrap();
        let mut endpoints = Vec::new();
        let mut handles = Vec::new();
        for s in 0..2 {
            let (addr, handle) = shard_server(&map.owned(s));
            endpoints.push(ShardSpec {
                addr,
                replica: None,
            });
            handles.push(handle);
        }
        (
            Router::new(map, &endpoints, &client_config()).unwrap(),
            handles,
        )
    };
    let kind = |resp: &str| -> String {
        let pairs = json::parse_object(resp).unwrap();
        json::get(&pairs, "kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    assert_eq!(
        kind(&router.handle_line("{\"op\":\"reshard\"}").response),
        "bad-request"
    );
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"reshard\",\"add\":\"x=1\",\"remove\":\"y\"}")
                .response
        ),
        "bad-request"
    );
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"reshard\",\"add\":\"bare-name\"}")
                .response
        ),
        "bad-request"
    );
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"reshard\",\"remove\":\"ghost\"}")
                .response
        ),
        "reshard"
    );
    // Duplicate member name is caught by the probe map.
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"reshard\",\"add\":\"shard0=127.0.0.1:1\"}")
                .response
        ),
        "reshard"
    );
    // Removing everything is refused before any migration starts.
    router.handle_line("{\"op\":\"reshard\",\"remove\":\"shard1\"}");
    assert_eq!(
        kind(
            &router
                .handle_line("{\"op\":\"reshard\",\"remove\":\"shard0\"}")
                .response
        ),
        "reshard"
    );
    router.handle_line("{\"op\":\"shutdown\"}");
    for h in handles {
        h.join().unwrap();
    }
}
