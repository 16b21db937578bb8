//! Behavioral tests for the admission engine: event validation, the
//! shedding economics of the re-solve pass, watermark hysteresis, and the
//! metrics balance invariant.

mod periods;

use dvs_admit::{AdmissionEngine, AdmitError, EngineConfig, TraceSpec, Verdict, WatermarkPolicy};
use dvs_power::presets::{by_name, cubic_ideal};
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

use periods::with_odd_periods;

fn engine() -> AdmissionEngine {
    AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default(),
    )
    .unwrap()
}

fn arrive(at: f64, task: Task) -> EventRecord {
    EventRecord::new(at, EventKind::Arrive(task))
}

/// A task priced to be admitted by the myopic greedy rule on an empty
/// cubic domain with the default 1000-tick horizon (`ΔE = 1000·u³`).
fn cheap(id: usize, u: f64, penalty: f64) -> Task {
    Task::new(id, u * 1000.0, 1000)
        .unwrap()
        .with_penalty(penalty)
}

#[test]
fn rejects_time_regressions_and_bad_ids() {
    let mut e = engine();
    e.apply(&arrive(10.0, cheap(1, 0.1, 50.0))).unwrap();
    assert!(matches!(
        e.apply(&arrive(5.0, cheap(2, 0.1, 50.0))),
        Err(AdmitError::TimeRegression { .. })
    ));
    assert!(matches!(
        e.apply(&arrive(10.0, cheap(1, 0.1, 50.0))),
        Err(AdmitError::DuplicateTask(_))
    ));
    // Three tasks that each need 90 cycles within 100 ticks: together
    // they cannot meet their deadlines at any speed up to 1, though their
    // utilization is only 0.27. The engine serves implicit deadlines only.
    for id in 2..5 {
        let constrained = Task::new(id, 90.0, 1000)
            .unwrap()
            .with_deadline(100)
            .unwrap()
            .with_penalty(1000.0);
        let err = e.apply(&arrive(10.0, constrained)).unwrap_err();
        assert!(
            matches!(err, AdmitError::ConstrainedDeadline(task) if task == TaskId::new(id)),
            "{err}"
        );
        assert_eq!(err.kind(), "constrained-deadline");
    }
    assert!(matches!(
        e.apply(&EventRecord::new(11.0, EventKind::Depart(TaskId::new(99)))),
        Err(AdmitError::UnknownTask(_))
    ));
    // Errors must not corrupt the ledger: the first task is still active.
    assert_eq!(e.active_len(0), 1);
    assert_eq!(e.committed(0), 0.1);
    assert_eq!(e.metrics().arrivals, 1);
    // The largest id is an ordinary id.
    let d = e
        .apply(&arrive(12.0, cheap(usize::MAX, 0.1, 50.0)))
        .unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 0 }));
    assert_eq!(e.active_len(0), 2);
}

#[test]
fn resolve_sheds_unprofitable_commitments_and_charges_penalties() {
    let mut e = engine();
    // u = 0.5 each: alone either costs ΔE = 125; together the second costs
    // marginal 1000·(1 − 0.125) = 875. Both clear their own admission bar
    // at arrival (penalty 130 ≥ 125 for the first), but the pair at u = 1.0
    // burns 1000 energy per horizon while shedding one saves 875 at a
    // penalty of only 130 — the re-solve must notice and drop exactly one.
    e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    let d = e.apply(&arrive(0.0, cheap(2, 0.5, 900.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    assert_eq!(e.active_len(0), 2);

    let sheds = e.apply(&EventRecord::new(1.0, EventKind::Tick)).unwrap();
    assert_eq!(sheds.len(), 1, "expected exactly one shed, got {sheds:?}");
    assert_eq!(sheds[0].task, TaskId::new(1), "the cheap-penalty task goes");
    assert!(matches!(sheds[0].verdict, Verdict::Shed { domain: 0 }));
    assert_eq!(e.active_len(0), 1);

    let m = e.metrics();
    assert_eq!(m.admitted, 2);
    assert_eq!(m.shed, 1);
    assert_eq!(m.accepted(), 1);
    assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
    assert_eq!(m.penalty_charged, 130.0, "shed penalty charged once");
    assert!(m.resolves >= 1);
}

#[test]
fn resolve_keeps_profitable_commitments_untouched() {
    let mut e = engine();
    e.apply(&arrive(0.0, cheap(1, 0.3, 500.0))).unwrap();
    e.apply(&arrive(0.0, cheap(2, 0.2, 500.0))).unwrap();
    let sheds = e.apply(&EventRecord::new(10.0, EventKind::Tick)).unwrap();
    assert!(sheds.is_empty());
    assert_eq!(e.active_len(0), 2);
    assert_eq!(e.metrics().shed, 0);
}

#[test]
fn domains_beyond_sixty_four_tasks_resolve_by_branch_and_bound() {
    // 80 standing tasks: branch & bound re-solves the
    // domain at any size, within the default node budget.
    let mut e = engine();
    for id in 0..80 {
        let penalty = 3.0 + (id % 7) as f64;
        e.apply(&arrive(0.0, cheap(id, 0.005, penalty))).unwrap();
    }
    assert_eq!(e.active_len(0), 80);
    e.apply(&EventRecord::new(1.0, EventKind::Tick)).unwrap();
    let m = e.metrics();
    assert_eq!(m.resolves, 1);
    assert_eq!(m.resolves_degraded, 0);
    assert!(m.resolve_nodes > 0, "{} nodes", m.resolve_nodes);
    assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
}

#[test]
fn regret_trigger_fires_without_periodic_resolves() {
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default()
            .resolve_every(0)
            .regret_threshold(100.0),
    )
    .unwrap();
    e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    e.apply(&arrive(0.0, cheap(2, 0.5, 900.0))).unwrap();
    // Regret = max(0, 875 − 130) + max(0, 875 − 900) = 745 > 100.
    assert!(e.regret().unwrap() > 100.0);
    let sheds = e.apply(&EventRecord::new(1.0, EventKind::Tick)).unwrap();
    assert_eq!(sheds.len(), 1);
    assert!(
        (e.regret().unwrap()).abs() < 1e-9,
        "regret cleared after shed"
    );
}

/// A regret threshold that is not finite never means what it says (NaN
/// and `+∞` never fire, `−∞` fires on every check), so both constructors
/// refuse it.
#[test]
fn non_finite_regret_threshold_is_refused() {
    for threshold in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let config = EngineConfig::default().regret_threshold(threshold);
        for cpus in [vec![cubic_ideal()], Vec::new()] {
            let err = AdmissionEngine::with_domains(cpus, Box::new(OnlineGreedy), config)
                .expect_err("a non-finite threshold is refused");
            assert!(
                matches!(
                    err,
                    AdmitError::InvalidParameter { name: "regret_threshold", value }
                        if value.to_bits() == threshold.to_bits()
                ),
                "{threshold}: {err}"
            );
        }
        let err = AdmissionEngine::new(vec![cubic_ideal()], Box::new(OnlineGreedy), config);
        assert!(matches!(err, Err(AdmitError::InvalidParameter { .. })));
    }
}

#[test]
fn watermark_policy_engages_and_disengages_with_hysteresis() {
    let mut policy = WatermarkPolicy::new(0.6, 0.3, 4.0).unwrap();
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal()],
        Box::new(policy.clone()),
        EngineConfig::default().resolve_every(0),
    )
    .unwrap();
    // Below the high watermark the plain rule applies: u = 0.5 costs 125,
    // penalty 130 clears it.
    let d = e.apply(&arrive(0.0, cheap(1, 0.5, 130.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    // Now fill = 0.5 / s_max ≥ 0.6 is false… next arrival pushes the check:
    // u = 0.2 marginal from 0.5 is 1000·(0.343 − 0.125) = 218; penalty 230
    // clears the plain bar but fill 0.5 < 0.6 keeps the hedge off.
    let d = e.apply(&arrive(1.0, cheap(2, 0.2, 230.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { .. }));
    // fill = 0.7 ≥ 0.6 → engaged. Marginal for u = 0.1 from 0.7 is
    // 1000·(0.512 − 0.343) = 169; penalty 300 clears the plain bar but not
    // θ·ΔE = 676 → rejected under reservation.
    let d = e.apply(&arrive(2.0, cheap(3, 0.1, 300.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Rejected));

    // Mirror the latch on a standalone policy to observe the flag.
    use dvs_admit::EnginePolicy;
    let cpu = cubic_ideal();
    assert!(!policy.is_engaged());
    policy
        .decide(&cpu, 1000, 0.7, &cheap(9, 0.1, 300.0))
        .unwrap();
    assert!(policy.is_engaged(), "crossing high engages");
    policy
        .decide(&cpu, 1000, 0.45, &cheap(9, 0.1, 300.0))
        .unwrap();
    assert!(policy.is_engaged(), "between watermarks stays engaged");
    policy
        .decide(&cpu, 1000, 0.2, &cheap(9, 0.1, 300.0))
        .unwrap();
    assert!(!policy.is_engaged(), "reaching low disengages");
}

/// The acceptance criterion behind experiment E7, checked here on a
/// small grid so regressions surface in the unit suite first: every
/// preset, both admission rules, generated periods and periods that do
/// not all divide the horizon.
#[test]
fn resolve_policy_never_costs_more_than_myopic_greedy() {
    for preset in ["xscale", "cubic", "xscale-table"] {
        let cpu = by_name(preset).unwrap();
        for watermark in [false, true] {
            for seed in [3u64, 11] {
                for load in [1.2, 2.2] {
                    for odd_periods in [false, true] {
                        let mut trace = TraceSpec::new(16, load, seed).generate().unwrap();
                        if odd_periods {
                            trace = with_odd_periods(trace);
                        }
                        let run = |resolve_every: u64| {
                            let policy: Box<dyn dvs_admit::EnginePolicy> = if watermark {
                                Box::new(WatermarkPolicy::new(0.7, 0.4, 2.0).unwrap())
                            } else {
                                Box::new(OnlineGreedy)
                            };
                            let config = EngineConfig::default().resolve_every(resolve_every);
                            let mut e =
                                AdmissionEngine::new(vec![cpu.clone()], policy, config).unwrap();
                            dvs_admit::trace::replay(&mut e, &trace).unwrap();
                            e.metrics().total_cost()
                        };
                        let (myopic, resolving) = (run(0), run(1));
                        assert!(
                            resolving <= myopic + 1e-9,
                            "{preset} watermark={watermark} seed {seed} load {load} \
                             odd_periods={odd_periods}: re-solve {resolving} > myopic {myopic}"
                        );
                    }
                }
            }
        }
    }
}

/// A zero horizon prices nothing and would divide the unserved
/// penalties by 0, so the builder keeps it and both constructors refuse it.
#[test]
fn zero_horizon_is_refused() {
    let config = EngineConfig::default().horizon(0);
    assert_eq!(config.horizon, 0);
    for cpus in [vec![cubic_ideal()], Vec::new()] {
        let err = AdmissionEngine::with_domains(cpus, Box::new(OnlineGreedy), config)
            .expect_err("a zero horizon is refused");
        assert!(
            matches!(err, AdmitError::InvalidParameter { name: "horizon", value } if value == 0.0),
            "{err}"
        );
    }
    let err = AdmissionEngine::new(vec![cubic_ideal()], Box::new(OnlineGreedy), config);
    assert!(matches!(
        err,
        Err(AdmitError::InvalidParameter {
            name: "horizon",
            ..
        })
    ));
}

#[test]
fn balance_invariant_holds_on_generated_traces() {
    for seed in 0..4u64 {
        let trace = TraceSpec::new(20, 2.0, seed).generate().unwrap();
        let mut e = AdmissionEngine::new(
            vec![cubic_ideal(), cubic_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default(),
        )
        .unwrap();
        dvs_admit::trace::replay(&mut e, &trace).unwrap();
        let m = e.metrics();
        assert_eq!(m.arrivals, 20);
        assert_eq!(m.accepted() + m.rejected + m.standing_shed(), m.arrivals);
        assert_eq!(m.departures, 20);
        assert!(m.energy >= 0.0 && m.penalty_accrued >= 0.0);
    }
}

#[test]
fn pinned_arrivals_are_placed_only_on_their_pin_domain() {
    let mut e = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        EngineConfig::default(),
    )
    .unwrap();
    // Load domain 0 so the cheapest-marginal rule would pick the empty
    // domain 1 for any later arrival.
    let d = e.apply(&arrive(0.0, cheap(1, 0.5, 1000.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 0 }));
    // A pin to the loaded domain overrides the cheaper placement…
    let d = e
        .apply(&arrive(1.0, cheap(2, 0.3, 1000.0).with_domain(0)))
        .unwrap();
    assert!(
        matches!(d[0].verdict, Verdict::Accepted { domain: 0 }),
        "pinned task placed off its pin: {d:?}"
    );
    // …while the identical unpinned task takes the cheap empty domain.
    let d = e.apply(&arrive(2.0, cheap(3, 0.3, 1000.0))).unwrap();
    assert!(
        matches!(d[0].verdict, Verdict::Accepted { domain: 1 }),
        "unpinned task lost legacy cheapest-marginal placement: {d:?}"
    );
    assert_eq!(e.active_len(0), 2);
    assert_eq!(e.active_len(1), 1);
}

#[test]
fn out_of_range_pins_are_refused_before_any_state_changes() {
    let mut e = engine();
    let err = e
        .apply(&arrive(0.0, cheap(1, 0.1, 50.0).with_domain(3)))
        .unwrap_err();
    assert!(
        matches!(err, AdmitError::InvalidDomain { domain: 3, .. }),
        "wrong error: {err}"
    );
    assert_eq!(err.kind(), "invalid-domain");
    assert_eq!(e.active_len(0), 0);
    assert_eq!(e.metrics().arrivals, 0, "refused arrival was counted");
}

#[test]
fn snapshots_round_trip_domain_pins() {
    let config = EngineConfig::default();
    let mut a = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        config,
    )
    .unwrap();
    // One pinned admitted task, one pinned standing rejection (an
    // infeasible density on its pin domain), one unpinned admitted task.
    a.apply(&arrive(0.0, cheap(1, 0.4, 900.0).with_domain(1)))
        .unwrap();
    a.apply(&arrive(
        1.0,
        Task::new(2, 2000.0, 1000)
            .unwrap()
            .with_penalty(5.0)
            .with_domain(0),
    ))
    .unwrap();
    a.apply(&arrive(2.0, cheap(3, 0.2, 900.0))).unwrap();
    // A second pinned task, admitted on domain 1.
    let pinned = Task::new(6, 100.0, 1000)
        .unwrap()
        .with_penalty(900.0)
        .with_domain(1);
    let d = a.apply(&arrive(2.0, pinned)).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 1 }));
    // Domain 0 then fills to u = 1.0 with an unpinned low-penalty task and
    // a pinned high-penalty one; the tick's re-solve sheds the unpinned
    // one, which stays present as a reserved task.
    let d = a.apply(&arrive(2.0, cheap(4, 0.4, 210.0))).unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 0 }));
    let d = a
        .apply(&arrive(2.0, cheap(5, 0.4, 900.0).with_domain(0)))
        .unwrap();
    assert!(matches!(d[0].verdict, Verdict::Accepted { domain: 0 }));
    let sheds = a.apply(&EventRecord::new(2.5, EventKind::Tick)).unwrap();
    assert_eq!(sheds.len(), 1, "{sheds:?}");
    assert_eq!(sheds[0].task, TaskId::new(4));
    assert!(matches!(sheds[0].verdict, Verdict::Shed { domain: 0 }));
    let snap = a.encode_snapshot();
    assert!(
        snap.starts_with("dvs-admit-snapshot v6\n"),
        "unexpected header: {snap}"
    );
    // Ledger lines are a trace's task columns, with the pin column only
    // for a pinned task.
    for line in [
        "a 6 100 1000 - 900 1",
        "a 5 400 1000 - 900 0",
        "r 4 400 1000 - 210",
    ] {
        assert!(
            snap.contains(&format!("\n{line}\n")),
            "no {line:?} in {snap}"
        );
    }

    let mut b = AdmissionEngine::new(
        vec![cubic_ideal(), cubic_ideal()],
        Box::new(OnlineGreedy),
        config,
    )
    .unwrap();
    b.restore_snapshot(&snap).unwrap();
    assert_eq!(b.encode_snapshot(), snap, "snapshot does not round-trip");
    // The restored engine keeps making the same decisions: a departure of
    // the pinned task must guard (and log) on the pin domain in both.
    let da = a
        .apply(&EventRecord::new(3.0, EventKind::Depart(TaskId::new(1))))
        .unwrap();
    let db = b
        .apply(&EventRecord::new(3.0, EventKind::Depart(TaskId::new(1))))
        .unwrap();
    assert_eq!(da, db, "post-restore decisions diverged");
    assert_eq!(a.format_decision_log(), b.format_decision_log());
}
