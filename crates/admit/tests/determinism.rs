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

fn replayed_warm(spec: TraceSpec, warm: bool) -> (String, String) {
    let trace = spec.generate().unwrap();
    let mut engine = AdmissionEngine::new(
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default().resolve_every(1).warm_start(warm),
    )
    .unwrap();
    dvs_admit::trace::replay(&mut engine, &trace).unwrap();
    let m = engine.metrics();
    // The comparable slice across warm/cold: every decision counter and
    // cost bit, but not the node/skip counters (warm-starting is allowed
    // to spend fewer nodes — that is the point).
    let decisions = format!(
        "arrivals={} admitted={} rejected={} shed={} readmitted={} energy={:x} accrued={:x} \
         charged={:x}",
        m.arrivals,
        m.admitted,
        m.rejected,
        m.shed,
        m.readmitted,
        m.energy.to_bits(),
        m.penalty_accrued.to_bits(),
        m.penalty_charged.to_bits()
    );
    (engine.format_decision_log(), decisions)
}

/// The hot-path optimizations of this crate — the cached re-solve
/// instance (always on), the clean-domain re-solve short circuit (always
/// on) and the warm-started incremental re-solve (toggleable) — must
/// never change a decision: across ≥10 seeds, warm-started replays
/// produce the same decision log and cost bits as the naive cold-start
/// path.
#[test]
fn warm_start_decision_logs_match_cold_across_seeds() {
    for seed in 0..10u64 {
        let spec = TraceSpec::new(14, 2.2, seed);
        let (ref_log, ref_decisions) = replayed_warm(spec, false);
        for warm in [false, true] {
            let (log, decisions) = replayed_warm(spec, warm);
            assert_eq!(
                log, ref_log,
                "seed {seed} warm {warm}: decision log diverged"
            );
            assert_eq!(
                decisions, ref_decisions,
                "seed {seed} warm {warm}: decision counters diverged"
            );
        }
    }
}

#[test]
fn repeated_replays_are_reproducible() {
    let spec = TraceSpec::new(14, 1.8, 5);
    let (a_log, a_sum) = replayed(spec, 2, false);
    let (b_log, b_sum) = replayed(spec, 2, false);
    assert_eq!(a_log, b_log);
    assert_eq!(a_sum, b_sum);
}
