//! **E10 (extension) — live resharding: migration pause, minimal
//! movement, and post-join capacity.**
//!
//! Replays seed-deterministic, domain-pinned sessions through a 2-shard
//! `dvs-router` cluster, fires a `{"op":"reshard","add":"shard2"}` join
//! **mid-session**, and finishes the session over the 3-shard layout.
//! Three figures:
//!
//! * `reshard_ms_p99` — the migration pause: wall-clock time the router
//!   spends inside the reshard op (drain → export → import → cutover for
//!   every moving domain). The router serializes its session stream, so
//!   this is exactly the pause a client observes.
//! * `moved_hrw` vs `moved_naive` — domains the rendezvous-hash map
//!   actually moved versus what a naive `g % k` rehash would move for
//!   the same 2→3 step. Rendezvous hashing only moves domains *to* the
//!   joining member, so `moved_hrw` ≈ D/k′ while modulo rehashing
//!   reshuffles most of the keyspace; both are deterministic counts.
//! * `capacity_eps` — post-join fleet capacity, computed as in E9: every
//!   event the fleet handled over the busiest shard engine's own
//!   handling time.
//!
//! The run also checks the reshard contract: the merged decision log
//! of the resharded run must be **byte-identical** to one unsharded
//! multi-domain engine replaying the same trace (pinned here and by the
//! `dvs-router` reshard suite), and the scatter-gathered stats must
//! satisfy `accepted + rejected + shed = arrivals`.
//!
//! Timing numbers are wall-clock and excluded from regression gating;
//! the moved-domain counts, decision log, and balance checks are
//! deterministic and pinned.
//!
//! This experiment times real work over real sockets, so the harness
//! runs it **alone** (after the parallel batch), like T2, E8, and E9.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::{serve_tcp, ServeOptions, ServerControl};
use dvs_admit::wire::Request;
use dvs_admit::{AdmissionEngine, ClientConfig, EngineConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::online::OnlineGreedy;

use crate::{mean, Scale, Table};

/// Number of tasks per session.
pub const N: usize = 32;

/// Total utilization demand (sustained overload, as in E9).
pub const LOAD: f64 = 3.0;

/// Global power domains: enough that the 2→3 join moves a handful.
pub const DOMAINS: usize = 12;

/// Tick interval, as in E9.
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

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

fn client_config() -> ClientConfig {
    ClientConfig {
        max_attempts: 2,
        backoff_base: std::time::Duration::from_millis(1),
        ..ClientConfig::default()
    }
}

/// An in-process shard serving the given global domains over TCP. A
/// joining shard starts with *zero* domains (mirroring
/// `dvs_admitd --domains 0`): everything it serves arrives via import.
fn shard_server(
    owned: usize,
) -> (
    String,
    std::thread::JoinHandle<()>,
    Arc<Mutex<AdmissionEngine>>,
) {
    let cpus = (0..owned).map(|_| xscale_ideal()).collect();
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

/// One resharded session's measurements.
pub struct ReshardReplay {
    /// Wall-clock milliseconds the router spent inside the reshard op.
    pub reshard_ms: f64,
    /// Domains the rendezvous-hash join actually moved.
    pub moved: u64,
    /// Post-join fleet capacity (events over the busiest shard engine's
    /// handling time), as in E9.
    pub capacity_eps: f64,
    /// The router's merged decision log after the full session.
    pub merged_log: String,
    /// Scatter-gathered `(arrivals, accepted, rejected, shed)`.
    pub decisions: (u64, u64, u64, u64),
}

fn stat(pairs: &[(String, JsonValue)], key: &str) -> u64 {
    json::get(pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}")) as u64
}

fn p99(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    samples[rank.saturating_sub(1)]
}

/// What a naive `g % k` rehash would move for the `from → to` shard-count
/// step over [`DOMAINS`] domains.
#[must_use]
pub fn naive_moved(from: usize, to: usize) -> u64 {
    (0..DOMAINS).filter(|g| g % from != g % to).count() as u64
}

/// Replays one pinned session through a 2-shard cluster with a mid-session
/// join to 3 shards.
///
/// # Panics
///
/// Panics if trace generation, the cluster, the reshard, or any request
/// fails.
#[must_use]
pub fn replay_one(scale: Scale, seed: u64) -> ReshardReplay {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let names: Vec<String> = (0..2).map(|i| format!("shard{i}")).collect();
    let map = ShardMap::new(names, DOMAINS, None).unwrap();
    let mut endpoints = Vec::new();
    let mut handles = Vec::new();
    let mut engines = Vec::new();
    for s in 0..2 {
        let (addr, handle, engine) = shard_server(map.owned(s).len());
        endpoints.push(ShardSpec {
            addr,
            replica: None,
        });
        handles.push(handle);
        engines.push(engine);
    }
    let mut router = Router::new(map, &endpoints, &client_config()).unwrap();

    let half = trace.len() / 2;
    for event in &trace[..half] {
        let handled = router.handle_line(&Request::from(event).to_string());
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "event {event:?} refused: {}",
            handled.response
        );
    }

    // The join: a fresh empty shard, migrated into mid-session.
    let (addr, handle, engine) = shard_server(0);
    handles.push(handle);
    engines.push(engine);
    let t0 = Instant::now();
    let resp = router
        .handle_line(&format!("{{\"op\":\"reshard\",\"add\":\"shard2={addr}\"}}"))
        .response;
    let reshard_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(resp.starts_with("{\"ok\":true"), "reshard refused: {resp}");
    let pairs = json::parse_object(&resp).expect("reshard response parse");
    let moved = stat(&pairs, "moved");

    for event in &trace[half..] {
        let handled = router.handle_line(&Request::from(event).to_string());
        assert!(
            handled.response.starts_with("{\"ok\":true"),
            "post-reshard event {event:?} refused: {}",
            handled.response
        );
    }

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
    ReshardReplay {
        reshard_ms,
        moved,
        capacity_eps,
        merged_log,
        decisions,
    }
}

/// The unsharded reference: one engine over all [`DOMAINS`] domains,
/// same pinned trace, no reshard anywhere.
///
/// # Panics
///
/// Panics if trace generation or the engine fails.
#[must_use]
pub fn reference_log(scale: Scale, seed: u64) -> String {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let cpus = (0..DOMAINS).map(|_| xscale_ideal()).collect();
    let mut engine =
        AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).expect("at least one domain");
    dvs_admit::trace::replay(&mut engine, &trace).expect("generated traces are valid");
    engine.format_decision_log()
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if trace generation, the cluster, the reshard, or any request
/// fails.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("E10: live resharding 2\u{2192}3 mid-session (n = {N}, load = {LOAD}, domains = {DOMAINS})"),
        &[
            "reshard_ms_p99",
            "moved_hrw",
            "moved_naive",
            "capacity_eps",
            "log_identical",
        ],
    );
    let references: Vec<String> = (0..scale.seeds())
        .map(|seed| reference_log(scale, seed))
        .collect();
    let runs: Vec<ReshardReplay> = (0..scale.seeds())
        .map(|seed| replay_one(scale, seed))
        .collect();
    let identical = runs
        .iter()
        .zip(&references)
        .all(|(r, reference)| &r.merged_log == reference);
    let mut pauses: Vec<f64> = runs.iter().map(|r| r.reshard_ms).collect();
    let caps: Vec<f64> = runs.iter().map(|r| r.capacity_eps).collect();
    // The moved count is a property of the map, not the trace: it is
    // identical across seeds by construction.
    let moved = runs[0].moved;
    assert!(runs.iter().all(|r| r.moved == moved));
    table.push(&[
        format!("{:.2}", p99(&mut pauses)),
        moved.to_string(),
        naive_moved(2, 3).to_string(),
        format!("{:.0}", mean(&caps)),
        if identical { "yes" } else { "DIVERGED" }.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resharded_replay_is_balanced_and_byte_identical() {
        for seed in 0..2u64 {
            let reference = reference_log(Scale::Quick, seed);
            let r = replay_one(Scale::Quick, seed);
            let (arrivals, accepted, rejected, shed) = r.decisions;
            assert_eq!(arrivals, N as u64, "seed {seed}");
            assert_eq!(
                accepted + rejected + shed,
                arrivals,
                "seed {seed}: balance broken across the join"
            );
            assert_eq!(
                r.merged_log, reference,
                "seed {seed}: resharded merged log diverged"
            );
            // Minimal movement: the rendezvous join moves strictly fewer
            // domains than a modulo rehash would, and at least one.
            assert!(r.moved > 0, "seed {seed}: the join moved nothing");
            assert!(
                r.moved < naive_moved(2, 3),
                "seed {seed}: HRW moved {} domains, naive rehash moves {}",
                r.moved,
                naive_moved(2, 3)
            );
        }
    }

    #[test]
    fn rows_have_figures_and_identical_logs() {
        let table = run(Scale::Quick);
        assert_eq!(table.rows().len(), 1);
        for row in table.rows() {
            let pause: f64 = row[0].parse().unwrap();
            assert!(pause > 0.0, "no pause figure in {row:?}");
            let moved: u64 = row[1].parse().unwrap();
            let naive: u64 = row[2].parse().unwrap();
            assert!(moved > 0 && moved < naive, "movement not minimal: {row:?}");
            let cap: f64 = row[3].parse().unwrap();
            assert!(cap > 0.0, "no capacity figure in {row:?}");
            assert_eq!(row[4], "yes", "merged log diverged in {row:?}");
        }
    }
}
