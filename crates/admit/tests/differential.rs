//! The engine against the naive reference engine (`reference/mod.rs`):
//! seeded traces are driven through both in lockstep, and every event
//! must produce the same decision lines. At the end of a trace the
//! decision counters must be equal and the integrated energy and
//! penalties equal to 1e-9 relative. Every re-solve must complete within
//! its node budget, so the engine's answer is exact and any difference
//! from the exhaustive optimum is a bug.

mod reference;

use dvs_admit::{AdmissionEngine, EngineConfig, EnginePolicy, TraceSpec, WatermarkPolicy};
use dvs_power::presets;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::Task;

use reference::{Reference, Rule, MAX_STANDING};

#[derive(Debug, Clone, Copy)]
enum Policy {
    /// Greedy admission, no re-solves.
    Myopic,
    /// Greedy admission, a re-solve every tick.
    GreedyResolve,
    /// Watermark admission, a re-solve every tick.
    WatermarkResolve,
    /// Greedy admission, re-solves only when the regret exceeds 0.5.
    GreedyRegret,
}

const POLICIES: [Policy; 4] = [
    Policy::Myopic,
    Policy::GreedyResolve,
    Policy::WatermarkResolve,
    Policy::GreedyRegret,
];

/// Watermark parameters: engage at 70 % fill, release at 40 %, hedge 2.
const WATERMARK: (f64, f64, f64) = (0.7, 0.4, 2.0);

impl Policy {
    fn config(self) -> EngineConfig {
        let config = EngineConfig::default();
        match self {
            Policy::Myopic => config.resolve_every(0),
            Policy::GreedyResolve | Policy::WatermarkResolve => config.resolve_every(1),
            Policy::GreedyRegret => config.resolve_every(0).regret_threshold(0.5),
        }
    }

    fn engine_policy(self) -> Box<dyn EnginePolicy> {
        match self {
            Policy::WatermarkResolve => {
                let (high, low, theta) = WATERMARK;
                Box::new(WatermarkPolicy::new(high, low, theta).unwrap())
            }
            _ => Box::new(OnlineGreedy),
        }
    }

    fn rule(self) -> Rule {
        match self {
            Policy::WatermarkResolve => {
                let (high, low, theta) = WATERMARK;
                Rule::Watermark {
                    high,
                    low,
                    theta,
                    engaged: false,
                }
            }
            _ => Rule::Greedy,
        }
    }
}

/// What one differential run saw, summed over traces.
#[derive(Debug, Default)]
struct Tally {
    traces: u64,
    decisions: u64,
    shed: u64,
    readmitted: u64,
    resolves: u64,
    adopted: u64,
}

/// Periods that do not divide the engine's 1000-tick horizon. Every
/// generated period divides it, so a domain's hyper-period `L` stays 1000;
/// with these it moves between 1000, 3000, 7000 and 21000 as tasks come
/// and go.
const ODD_PERIODS: [u64; 4] = [300, 700, 1000, 1500];

/// `trace` with each arrival's period replaced by
/// `ODD_PERIODS[id mod 4]`, at the same utilization, penalty and pin.
fn with_odd_periods(trace: Vec<EventRecord>) -> Vec<EventRecord> {
    trace
        .into_iter()
        .map(|event| match event.kind {
            EventKind::Arrive(t) => {
                let period = ODD_PERIODS[t.id().index() % ODD_PERIODS.len()];
                let task = Task::new(t.id(), t.utilization() * period as f64, period)
                    .unwrap()
                    .with_penalty(t.penalty());
                let task = t.domain().map_or(task, |d| task.with_domain(d));
                EventRecord::new(event.at, EventKind::Arrive(task))
            }
            _ => event,
        })
        .collect()
}

/// Replays `spec` through the engine and the reference on `domains`
/// copies of `preset` and checks that they agree; `odd_periods` rewrites
/// the trace [`with_odd_periods`] first.
fn differential(
    preset: &str,
    policy: Policy,
    domains: usize,
    spec: TraceSpec,
    odd_periods: bool,
    tally: &mut Tally,
) {
    let label = format!("{preset} {policy:?} domains={domains} {spec:?} odd_periods={odd_periods}");
    let cpus = vec![presets::by_name(preset).unwrap(); domains];
    let config = policy.config();
    let mut engine = AdmissionEngine::new(cpus.clone(), policy.engine_policy(), config).unwrap();
    let mut reference = Reference::new(cpus, policy.rule(), config);
    let mut trace = spec.generate().unwrap();
    if odd_periods {
        trace = with_odd_periods(trace);
    }
    for (k, event) in trace.iter().enumerate() {
        let theirs = engine
            .apply(event)
            .unwrap_or_else(|e| panic!("{label}: event {k} ({event:?}): engine error {e}"));
        let ours = reference
            .apply(event, &theirs)
            .unwrap_or_else(|e| panic!("{label}: event {k} ({event:?}): {e}"));
        let lines = |ds: &[dvs_admit::Decision]| ds.iter().map(ToString::to_string).collect();
        let (theirs, ours): (Vec<String>, Vec<String>) = (lines(&theirs), lines(&ours));
        assert_eq!(theirs, ours, "{label}: event {k} ({event:?})");
    }
    assert_eq!(
        engine.format_decision_log(),
        reference.format_decision_log(),
        "{label}: decision log"
    );
    let (e, r) = (engine.metrics(), reference.metrics());
    assert_eq!(
        e.resolves_degraded, 0,
        "{label}: a re-solve ran out of budget"
    );
    let counters = |m: &dvs_admit::Metrics| {
        [
            m.arrivals,
            m.admitted,
            m.rejected,
            m.shed,
            m.readmitted,
            m.departures,
            m.ticks,
            m.events,
        ]
    };
    assert_eq!(counters(e), counters(r), "{label}: decision counters");
    for (name, a, b) in [
        ("energy", e.energy, r.energy),
        ("penalty_accrued", e.penalty_accrued, r.penalty_accrued),
        ("penalty_charged", e.penalty_charged, r.penalty_charged),
    ] {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "{label}: {name} {a} vs reference {b}"
        );
    }
    tally.traces += 1;
    tally.decisions += e.arrivals + e.shed + e.readmitted;
    tally.shed += e.shed;
    tally.readmitted += e.readmitted;
    tally.resolves += r.resolves;
    tally.adopted += reference.adopted;
}

/// Every preset `presets::by_name` serves × myopic, greedy + re-solve,
/// watermark + re-solve and greedy + regret × one and three domains,
/// pinned and unpinned × five seeds: 240 traces at 14 tasks and 2.2
/// times a processor's capacity per domain.
#[test]
fn engine_matches_the_reference_engine_across_the_grid() {
    let mut tally = Tally::default();
    for preset in ["xscale", "cubic", "xscale-table"] {
        for policy in POLICIES {
            for domains in [1, 3] {
                for pinned in [false, true] {
                    for seed in 0..5 {
                        let n = MAX_STANDING * domains;
                        let spec = TraceSpec::new(n, 2.2 * domains as f64, seed)
                            .domains(if pinned { domains } else { 0 });
                        differential(preset, policy, domains, spec, false, &mut tally);
                    }
                }
            }
        }
    }
    println!("{tally:?}");
    assert_eq!(tally.traces, 240);
    // The grid exercises what the reference checks: sheds, readmissions
    // and re-solves all happen.
    assert!(tally.shed > 0 && tally.readmitted > 0, "{tally:?}");
}

/// The same grid on periods that do not divide the horizon
/// ([`ODD_PERIODS`]): the hyper-period of a domain's re-solve moves as
/// tasks arrive and depart, and every break-even priced at the old one
/// must be priced again.
#[test]
fn engine_matches_the_reference_engine_when_the_hyper_period_moves() {
    let mut tally = Tally::default();
    for preset in ["xscale", "cubic", "xscale-table"] {
        for policy in POLICIES {
            for domains in [1, 3] {
                for pinned in [false, true] {
                    for seed in 0..5 {
                        let n = MAX_STANDING * domains;
                        let spec = TraceSpec::new(n, 2.2 * domains as f64, seed)
                            .domains(if pinned { domains } else { 0 });
                        differential(preset, policy, domains, spec, true, &mut tally);
                    }
                }
            }
        }
    }
    println!("{tally:?}");
    assert_eq!(tally.traces, 240);
    assert!(tally.shed > 0 && tally.readmitted > 0, "{tally:?}");
}

/// The ten 14-task seeds the engine's optimisations were first checked
/// on, warm start against cold start: one xscale domain, greedy
/// admission, a re-solve every tick.
#[test]
fn engine_matches_the_reference_engine_on_the_ten_determinism_seeds() {
    let mut tally = Tally::default();
    for seed in 0..10 {
        let spec = TraceSpec::new(14, 2.2, seed);
        differential("xscale", Policy::GreedyResolve, 1, spec, false, &mut tally);
    }
    println!("{tally:?}");
    assert!(tally.shed > 0, "{tally:?}");
}
