//! **E8 (extension) — hot-path throughput: warm-started re-solves vs cold.**
//!
//! Replays seed-deterministic arrival/departure sessions through the
//! `dvs-admit` engine and measures the *serving* hot path: events handled
//! per second of handling time, re-solve passes executed vs skipped, and
//! search nodes spent. Three serving configurations are compared — the
//! myopic online greedy (no re-solves at all, the throughput ceiling),
//! periodic re-solves with cold-started branch-and-bound, and the same
//! re-solves warm-started from the standing accepted set.
//!
//! Expected shape: identical decision counters and replay cost in the two
//! re-solving columns (warm-starting is an *optimization*, pinned by the
//! determinism suite), with the warm column spending strictly fewer
//! search nodes. Timing numbers are wall-clock and therefore excluded
//! from any regression gating; the node counters are deterministic and
//! are pinned by this module's tests.
//!
//! This experiment times real work, so the harness runs it **alone**
//! (after the parallel batch), like T2. The seed loop is deliberately
//! sequential for the same reason.

use dvs_admit::{AdmissionEngine, EngineConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;

use crate::{mean, Scale, Table};

/// Number of tasks per session. Chosen (with [`LOAD`]) so the active set
/// is large enough that marginal-greedy incumbents are sometimes
/// suboptimal — that is where warm-starting from the standing accepted
/// set actually prunes search nodes.
pub const N: usize = 32;

/// Total utilization demand of each session's task set (sustained
/// overload: rejections and sheds both occur).
pub const LOAD: f64 = 3.0;

/// Tick interval: quick keeps CI fast, full gives each replay enough
/// re-solve opportunities for stable per-event timing.
#[must_use]
pub fn tick_every(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 50.0,
        Scale::Full => 10.0,
    }
}

/// The session spec for one seed.
#[must_use]
pub fn spec(scale: Scale, seed: u64) -> TraceSpec {
    TraceSpec::new(N, LOAD, seed).tick_every(tick_every(scale))
}

/// The three serving configurations on the grid.
#[must_use]
pub fn configs() -> [(&'static str, EngineConfig); 3] {
    [
        ("myopic", EngineConfig::default().resolve_every(0)),
        (
            "resolve-cold",
            EngineConfig::default().resolve_every(1).warm_start(false),
        ),
        (
            "resolve-warm",
            EngineConfig::default().resolve_every(1).warm_start(true),
        ),
    ]
}

/// One replayed session's measurements.
pub struct Replay {
    /// Events handled per second of handling time (wall-clock).
    pub events_per_sec: f64,
    /// Re-solve passes executed.
    pub resolves: u64,
    /// Re-solve passes skipped by the clean-domain short circuit.
    pub skipped: u64,
    /// Search nodes spent across all re-solves (deterministic).
    pub nodes: u64,
    /// Total replay cost (deterministic).
    pub cost: f64,
    /// Decision counters, for cross-configuration identity checks:
    /// `(arrivals, admitted, rejected, shed, readmitted)`.
    pub decisions: (u64, u64, u64, u64, u64),
}

/// Replays one session under one configuration.
///
/// # Panics
///
/// Panics if trace generation or the engine fails.
#[must_use]
pub fn replay_one(scale: Scale, seed: u64, config: EngineConfig) -> Replay {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let mut engine = AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config)
        .expect("at least one domain");
    dvs_admit::trace::replay(&mut engine, &trace).expect("generated traces are valid");
    let m = engine.metrics();
    Replay {
        events_per_sec: m.events_per_sec(),
        resolves: m.resolves,
        skipped: m.resolves_skipped,
        nodes: m.resolve_nodes,
        cost: m.total_cost(),
        decisions: (m.arrivals, m.admitted, m.rejected, m.shed, m.readmitted),
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if trace generation or the engine fails.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("E8: hot-path throughput, warm vs cold re-solves (n = {N}, load = {LOAD})"),
        &[
            "policy",
            "events_per_sec",
            "avg_resolves",
            "avg_skipped",
            "avg_nodes",
            "avg_total_cost",
        ],
    );
    for (name, config) in configs() {
        let runs: Vec<Replay> = (0..scale.seeds())
            .map(|seed| replay_one(scale, seed, config))
            .collect();
        let eps: Vec<f64> = runs.iter().map(|r| r.events_per_sec).collect();
        let resolves: Vec<f64> = runs.iter().map(|r| r.resolves as f64).collect();
        let skipped: Vec<f64> = runs.iter().map(|r| r.skipped as f64).collect();
        let nodes: Vec<f64> = runs.iter().map(|r| r.nodes as f64).collect();
        let costs: Vec<f64> = runs.iter().map(|r| r.cost).collect();
        table.push(&[
            name.to_string(),
            format!("{:.0}", mean(&eps)),
            format!("{:.1}", mean(&resolves)),
            format!("{:.1}", mean(&skipped)),
            format!("{:.1}", mean(&nodes)),
            format!("{:.4}", mean(&costs)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_visits_strictly_fewer_nodes_than_cold() {
        // The PR's acceptance criterion on the E8 grid: per seed the warm
        // start never visits more nodes, and in aggregate strictly fewer.
        let mut cold_total = 0u64;
        let mut warm_total = 0u64;
        for seed in 0..Scale::Quick.seeds() {
            let cold = replay_one(
                Scale::Quick,
                seed,
                EngineConfig::default().resolve_every(1).warm_start(false),
            );
            let warm = replay_one(
                Scale::Quick,
                seed,
                EngineConfig::default().resolve_every(1).warm_start(true),
            );
            assert!(
                warm.nodes <= cold.nodes,
                "seed {seed}: warm {} > cold {}",
                warm.nodes,
                cold.nodes
            );
            // Warm-starting must not change a single decision or cost bit.
            assert_eq!(warm.decisions, cold.decisions, "seed {seed}");
            assert_eq!(warm.cost.to_bits(), cold.cost.to_bits(), "seed {seed}");
            cold_total += cold.nodes;
            warm_total += warm.nodes;
        }
        assert!(
            warm_total < cold_total,
            "warm start saved no nodes: warm {warm_total} vs cold {cold_total}"
        );
    }

    #[test]
    fn rows_have_positive_throughput_and_balanced_decisions() {
        let table = run(Scale::Quick);
        assert_eq!(table.rows().len(), configs().len());
        for row in table.rows() {
            let eps: f64 = row[1].parse().unwrap();
            assert!(eps > 0.0, "no throughput figure in {row:?}");
        }
        // Decision identity: a repeated replay admits/rejects the same
        // tasks, spends the same nodes and pays the same cost bits.
        let seed = 1;
        let reference = replay_one(Scale::Quick, seed, configs()[2].1);
        let again = replay_one(Scale::Quick, seed, configs()[2].1);
        assert_eq!(again.decisions, reference.decisions);
        assert_eq!(again.nodes, reference.nodes);
        assert_eq!(again.cost.to_bits(), reference.cost.to_bits());
    }
}
