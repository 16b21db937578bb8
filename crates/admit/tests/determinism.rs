//! The engine's determinism contract: replaying the same event trace
//! produces a bit-identical decision log and deterministic-metrics
//! summary.

use dvs_admit::{AdmissionEngine, EngineConfig, TraceSpec, WatermarkPolicy};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use reject_sched::online::OnlineGreedy;

fn replayed(spec: TraceSpec, domains: usize, watermark: bool) -> (String, String) {
    let trace = spec.generate().unwrap();
    let cpus = (0..domains)
        .map(|i| {
            if i % 2 == 0 {
                cubic_ideal()
            } else {
                xscale_ideal()
            }
        })
        .collect();
    let policy: Box<dyn dvs_admit::EnginePolicy> = if watermark {
        Box::new(WatermarkPolicy::new(0.7, 0.4, 2.0).unwrap())
    } else {
        Box::new(OnlineGreedy)
    };
    let mut engine = AdmissionEngine::new(
        cpus,
        policy,
        EngineConfig::default()
            .resolve_every(2)
            .resolve_budget(5_000),
    )
    .unwrap();
    dvs_admit::trace::replay(&mut engine, &trace).unwrap();
    (
        engine.format_decision_log(),
        engine.metrics().deterministic_summary(),
    )
}

#[test]
fn decision_log_is_bit_identical_across_replays() {
    for seed in [1u64, 9, 23] {
        for (domains, watermark) in [(1, false), (2, true)] {
            let spec = TraceSpec::new(18, 2.4, seed);
            let (log1, sum1) = replayed(spec, domains, watermark);
            assert!(
                log1.contains("accepted") || log1.contains("rejected"),
                "seed {seed}: empty decision log"
            );
            let (log, sum) = replayed(spec, domains, watermark);
            assert_eq!(
                log, log1,
                "seed {seed} domains {domains}: decision log diverged"
            );
            assert_eq!(sum, sum1, "seed {seed} domains {domains}: metrics diverged");
        }
    }
}

/// Seeding each re-solve with the standing accepted set must pay for
/// itself. On E8's sustained overload (32 tasks, load 3.0, a tick every
/// 50) the marginal-greedy incumbent is sometimes worse than the standing
/// set, and the seed prunes nodes: unseeded (the engine's old cold start),
/// these four traces spent 148 + 352 + 7 + 470 = 977 nodes, and seeded they
/// spend 142 + 352 + 7 + 454 = 955. The counts are pinned exactly, so a
/// search that loses the seed fails here; that the decisions are right is
/// `differential.rs`'s to check.
#[test]
fn warm_start_visits_strictly_fewer_nodes_than_cold() {
    const COLD_TOTAL: u64 = 977;
    let mut nodes = Vec::new();
    for seed in 0..4u64 {
        let trace = TraceSpec::new(32, 3.0, seed)
            .tick_every(50.0)
            .generate()
            .unwrap();
        let mut engine = AdmissionEngine::new(
            vec![xscale_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default().resolve_every(1),
        )
        .unwrap();
        dvs_admit::trace::replay(&mut engine, &trace).unwrap();
        assert_eq!(engine.metrics().resolves_degraded, 0, "seed {seed}");
        nodes.push(engine.metrics().resolve_nodes);
    }
    assert_eq!(nodes, [142, 352, 7, 454]);
    let total: u64 = nodes.iter().sum();
    assert!(total < COLD_TOTAL, "{total} nodes, cold {COLD_TOTAL}");
}

#[test]
fn repeated_replays_are_reproducible() {
    let spec = TraceSpec::new(14, 1.8, 5);
    let (a_log, a_sum) = replayed(spec, 2, false);
    let (b_log, b_sum) = replayed(spec, 2, false);
    assert_eq!(a_log, b_log);
    assert_eq!(a_sum, b_sum);
}
