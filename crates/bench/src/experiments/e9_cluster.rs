//! **E9 (extension) — cluster scatter-gather serving: sharded capacity
//! with merged-log identity.**
//!
//! Replays seed-deterministic, **domain-pinned** sessions through a
//! `dvs-router` cluster of in-process `dvs_admitd`-equivalent shards at
//! shard counts {1, 2, 4}, and reports two throughput figures per cell:
//!
//! * `events_per_sec` — wall-clock single-session throughput at the
//!   router. One client session is a serialized request/response stream,
//!   so this is gated by per-request round-trips and (on a small CI box)
//!   by every shard sharing the same cores; it measures the routing tax,
//!   not the fleet.
//! * `capacity_eps` — fleet serving capacity: every event the fleet
//!   handled, over the **busiest** shard engine's own handling time
//!   (busy time accumulated inside the engine, so co-scheduling wait
//!   doesn't pollute it). That is the fleet's makespan rate — shards
//!   work concurrently, so the fleet is as fast as its slowest member.
//!   This is the figure that **scales with shards**: routed work splits
//!   across shard engines and each shard's per-event cost shrinks with
//!   its slice of the domains.
//!
//! Every cell also checks the cluster contract: the router's merged
//! decision log must be **byte-identical** to one unsharded multi-domain
//! engine replaying the same trace, and the scatter-gathered stats must
//! satisfy the balance invariant `accepted + rejected + shed = arrivals`.
//! The `log_identical` column records the outcome; the identity itself is
//! pinned by this module's tests and by the `dvs-router` cluster suite.
//!
//! Timing numbers are wall-clock and excluded from regression gating;
//! the decision log and balance checks are deterministic and pinned.
//!
//! This experiment times real work over real sockets, so the harness
//! runs it **alone** (after the parallel batch), like T2 and E8.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dvs_admit::json::{self, JsonValue, Scratch};
use dvs_admit::server::{serve_tcp, ServeOptions, ServerControl};
use dvs_admit::wire::{Reply, Request};
use dvs_admit::{AdmissionEngine, ClientConfig, EngineConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;

use crate::{mean, Scale, Table};

/// Number of tasks per session.
pub const N: usize = 32;

/// Total utilization demand (sustained overload: rejections and sheds
/// both occur, so the decision log exercises every line shape).
pub const LOAD: f64 = 3.0;

/// Global power domains the cluster is sharded over.
pub const DOMAINS: usize = 4;

/// The shard-count axis.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Tick interval: quick keeps CI fast, full gives each replay enough
/// fan-out ticks for stable per-event timing.
#[must_use]
pub fn tick_every(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 50.0,
        Scale::Full => 10.0,
    }
}

/// The pinned session spec for one seed.
#[must_use]
pub fn spec(scale: Scale, seed: u64) -> TraceSpec {
    TraceSpec::new(N, LOAD, seed)
        .domains(DOMAINS)
        .tick_every(tick_every(scale))
}

pub(super) fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

pub(super) fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 2,
        backoff_base: std::time::Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

/// An in-process shard with `domains` local domains, served over TCP.
/// The engine handle is kept so capacity can be read off its own
/// metrics. A joining shard starts with *zero* domains (mirroring
/// `dvs_admitd --domains 0`): everything it serves arrives via import.
pub(super) fn shard_server(
    domains: usize,
) -> (
    String,
    std::thread::JoinHandle<()>,
    Arc<Mutex<AdmissionEngine>>,
) {
    let cpus = (0..domains).map(|_| xscale_ideal()).collect();
    let engine = AdmissionEngine::with_domains(cpus, Box::new(OnlineGreedy), config()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let engine = Arc::new(Mutex::new(engine));
    let serve_engine = Arc::clone(&engine);
    let handle = std::thread::spawn(move || {
        let ctl = Arc::new(ServerControl::new());
        let _ = serve_tcp(
            &listener,
            &serve_engine,
            ServeOptions::default(),
            &ctl,
            None,
        );
    });
    (addr, handle, engine)
}

/// Builds a K-shard cluster over [`DOMAINS`] global domains.
#[allow(clippy::type_complexity)]
fn cluster(
    shards: usize,
) -> (
    Router,
    Vec<std::thread::JoinHandle<()>>,
    Vec<Arc<Mutex<AdmissionEngine>>>,
) {
    let names: Vec<String> = (0..shards).map(|i| format!("shard{i}")).collect();
    let map = ShardMap::new(names, DOMAINS, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    let mut engines = Vec::new();
    for s in 0..shards {
        let (addr, handle, engine) = shard_server(map.owned(s).len().max(1));
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
        engines.push(engine);
    }
    let router = Router::new(map, &endpoints, &client_config()).unwrap();
    (router, handles, engines)
}

/// One replayed cluster session's measurements.
pub struct ClusterReplay {
    /// Events handled per second of routing+serving time (wall-clock,
    /// single serialized session).
    pub events_per_sec: f64,
    /// Fleet capacity: every event the fleet handled over the busiest
    /// shard engine's own handling time (the fleet makespan).
    pub capacity_eps: f64,
    /// 99th-percentile per-event latency in microseconds (wall-clock).
    pub p99_us: f64,
    /// The router's merged decision log.
    pub merged_log: String,
    /// Scatter-gathered decision counters, for balance and identity
    /// checks: `(arrivals, accepted, rejected, shed)`.
    pub decisions: (u64, u64, u64, u64),
}

pub(super) fn stat(pairs: &[(String, JsonValue)], key: &str) -> u64 {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}")) as u64
}

pub(super) fn p99(latencies_us: &mut [f64]) -> f64 {
    latencies_us.sort_by(f64::total_cmp);
    let rank = ((latencies_us.len() as f64) * 0.99).ceil() as usize;
    latencies_us[rank.saturating_sub(1)]
}

/// Replays one pinned session through a freshly-built `shards`-shard
/// cluster.
///
/// # Panics
///
/// Panics if trace generation, the cluster, or any request fails.
#[must_use]
pub fn replay_one(scale: Scale, seed: u64, shards: usize) -> ClusterReplay {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let (mut router, handles, engines) = cluster(shards);
    let mut latencies_us = Vec::with_capacity(trace.len());
    let mut scratch = Scratch::default();
    let started = Instant::now();
    for event in &trace {
        let t0 = Instant::now();
        let handled = router.handle_line(&Request::from(event).to_string());
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(Reply::parse(&handled.response, &mut scratch), Ok(Ok(_))),
            "event {event:?} refused: {}",
            handled.response
        );
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let stats = router.handle_line("{\"op\":\"stats\"}").response;
    let pairs = json::parse_object(&stats).expect("cluster stats parse");
    let decisions = (
        stat(&pairs, "arrivals"),
        stat(&pairs, "accepted"),
        stat(&pairs, "rejected"),
        stat(&pairs, "shed"),
    );
    let merged_log = router.merged_log().to_string();
    let down = router.handle_line("{\"op\":\"shutdown\"}");
    assert!(down.shutdown, "cluster shutdown refused");
    for h in handles {
        h.join().unwrap();
    }
    // The serving threads are down: each engine's handling-time meter is
    // final, and locking is contention-free. Fleet capacity is the
    // makespan rate — every event the fleet handled, over the *busiest*
    // shard's handling time — so an idle shard's cheap slice cannot
    // inflate the figure: the fleet is as fast as its slowest member.
    let mut fleet_events = 0u64;
    let mut makespan = 0f64;
    for engine in &engines {
        let g = engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let m = g.metrics();
        fleet_events += m.events;
        makespan = makespan.max(m.handling.as_secs_f64());
    }
    let capacity_eps = if makespan > 0.0 {
        fleet_events as f64 / makespan
    } else {
        0.0
    };
    ClusterReplay {
        events_per_sec: trace.len() as f64 / elapsed,
        capacity_eps,
        p99_us: p99(&mut latencies_us),
        merged_log,
        decisions,
    }
}

/// The unsharded reference: one engine over all of `spec`'s domains,
/// replaying its pinned trace.
///
/// # Panics
///
/// Panics if trace generation or the engine fails.
#[must_use]
pub(super) fn unsharded_log(spec: &TraceSpec) -> String {
    let trace = spec.generate().expect("trace generation");
    let cpus = (0..spec.domains).map(|_| xscale_ideal()).collect();
    let mut engine =
        AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).expect("at least one domain");
    dvs_admit::trace::replay(&mut engine, &trace).expect("generated traces are valid");
    engine.format_decision_log()
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if trace generation, the cluster, or any request fails.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("E9: cluster scatter-gather serving (n = {N}, load = {LOAD}, domains = {DOMAINS})"),
        &[
            "shards",
            "events_per_sec",
            "capacity_eps",
            "p99_us",
            "log_identical",
        ],
    );
    let references: Vec<String> = (0..scale.seeds())
        .map(|seed| unsharded_log(&spec(scale, seed)))
        .collect();
    for &shards in &SHARDS {
        let runs: Vec<ClusterReplay> = (0..scale.seeds())
            .map(|seed| replay_one(scale, seed, shards))
            .collect();
        let identical = runs
            .iter()
            .zip(&references)
            .all(|(r, reference)| &r.merged_log == reference);
        let eps: Vec<f64> = runs.iter().map(|r| r.events_per_sec).collect();
        let caps: Vec<f64> = runs.iter().map(|r| r.capacity_eps).collect();
        let p99s: Vec<f64> = runs.iter().map(|r| r.p99_us).collect();
        table.push(&[
            shards.to_string(),
            format!("{:.0}", mean(&eps)),
            format!("{:.0}", mean(&caps)),
            format!("{:.1}", mean(&p99s)),
            if identical { "yes" } else { "DIVERGED" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_replay_is_balanced_and_byte_identical() {
        // The PR's acceptance criterion on the E9 grid: every shard count
        // reproduces the unsharded decision log byte for byte, under the
        // scatter-gathered balance invariant.
        for seed in 0..2u64 {
            let reference = unsharded_log(&spec(Scale::Quick, seed));
            assert!(
                reference.contains("accepted"),
                "seed {seed}: reference log has no admissions"
            );
            let mut logs = Vec::new();
            for shards in SHARDS {
                let r = replay_one(Scale::Quick, seed, shards);
                let (arrivals, accepted, rejected, shed) = r.decisions;
                assert_eq!(arrivals, N as u64, "seed {seed} shards {shards}");
                assert_eq!(
                    accepted + rejected + shed,
                    arrivals,
                    "seed {seed} shards {shards}: balance broken"
                );
                assert_eq!(
                    r.merged_log, reference,
                    "seed {seed}: {shards}-shard merged log diverged"
                );
                logs.push(r.merged_log);
            }
            assert!(logs.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn rows_have_positive_throughput_and_identical_logs() {
        let table = run(Scale::Quick);
        assert_eq!(table.rows().len(), SHARDS.len());
        for row in table.rows() {
            let eps: f64 = row[1].parse().unwrap();
            assert!(eps > 0.0, "no throughput figure in {row:?}");
            let cap: f64 = row[2].parse().unwrap();
            assert!(cap > 0.0, "no capacity figure in {row:?}");
            let p99: f64 = row[3].parse().unwrap();
            assert!(p99 > 0.0, "no latency figure in {row:?}");
            assert_eq!(row[4], "yes", "merged log diverged in {row:?}");
        }
        // The scaling claim: 4 shards sustain well over the 1-shard
        // aggregate capacity (the wall-clock single-session column is
        // intentionally not gated — it measures round-trips, and CI
        // boxes may have a single core).
        let cap_at = |shards: &str| -> f64 {
            table
                .rows()
                .iter()
                .find(|r| r[0] == shards)
                .expect("grid row")[2]
                .parse()
                .unwrap()
        };
        let (one, four) = (cap_at("1"), cap_at("4"));
        assert!(
            four > one * 1.5,
            "4-shard capacity {four} did not scale past 1-shard {one}"
        );
    }
}
