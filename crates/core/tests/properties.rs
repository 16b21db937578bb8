//! Randomized property tests for the rejection algorithms: solution
//! validity, optimality orderings, approximation guarantees, and the
//! hardness reduction — over randomly generated instances.
//!
//! Formerly expressed with `proptest`; rewritten on the vendored
//! [`rt_model::rng::Rng`] so the suite runs fully offline. Each property is
//! checked over a deterministic batch of randomized cases.

use dvs_power::presets::{cubic_ideal, xscale_ideal};
use reject_sched::algorithms::{
    AcceptAllFeasible, BestOfSingle, BranchBound, DensityGreedy, DensitySweep, Exhaustive,
    LocalSearch, MarginalGreedy, RejectAll, SafeGreedy, ScaledDp, SimulatedAnnealing,
};
use reject_sched::anytime::{BudgetedPolicy, SolveBudget, SolveQuality};
use reject_sched::bounds::fractional_lower_bound;
use reject_sched::constrained::ConstrainedInstance;
use reject_sched::hardness::{Knapsack, KnapsackItem};
use reject_sched::{Instance, RejectionPolicy, SchedError, Solution};
use rt_model::generator::{PenaltyModel, WorkloadSpec};
use rt_model::rng::Rng;
use rt_model::{ModelError, Task, TaskId, TaskSet};
use std::collections::HashMap;

const CASES: u64 = 48;

fn random_instance(rng: &mut Rng, max_n: usize) -> Instance {
    const BASES: &[u64] = &[4, 5, 8, 10, 20];
    let n = 1 + rng.gen_index(max_n - 1);
    let base_period = BASES[rng.gen_index(BASES.len())];
    let leaky = rng.next_u64() & 1 == 1;
    let tasks = TaskSet::try_from_tasks((0..n).map(|i| {
        let u = rng.gen_f64(0.01, 0.9);
        let v = rng.gen_f64(0.0, 8.0);
        let period = base_period * (1 + (i as u64 % 3));
        Task::new(i, u * period as f64, period)
            .unwrap()
            .with_penalty(v)
    }))
    .unwrap();
    let cpu = if leaky { xscale_ideal() } else { cubic_ideal() };
    Instance::new(tasks, cpu).unwrap()
}

/// Every policy returns a verifiable solution on arbitrary instances.
#[test]
fn all_policies_produce_valid_solutions() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0001);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 10);
        let policies: Vec<Box<dyn RejectionPolicy>> = vec![
            Box::new(Exhaustive::default()),
            Box::new(BranchBound),
            Box::new(ScaledDp::new(0.1).unwrap()),
            Box::new(MarginalGreedy),
            Box::new(DensityGreedy),
            Box::new(SafeGreedy),
            Box::new(BestOfSingle),
            Box::new(AcceptAllFeasible),
            Box::new(RejectAll),
        ];
        for p in &policies {
            let s = p.solve(&inst).unwrap();
            s.verify(&inst).unwrap();
            assert!(s.cost().is_finite());
            assert!(s.energy() >= 0.0 && s.penalty() >= -1e-9);
        }
    }
}

/// The exact solvers agree, and nothing beats them.
#[test]
fn exhaustive_is_a_true_lower_envelope() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0002);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 9);
        let opt = Exhaustive::default().solve(&inst).unwrap().cost();
        let bb = BranchBound.solve(&inst).unwrap().cost();
        assert!(
            (opt - bb).abs() < 1e-6 * opt.max(1.0),
            "exhaustive {opt} vs bb {bb}"
        );
        for p in [
            &MarginalGreedy as &dyn RejectionPolicy,
            &DensityGreedy,
            &SafeGreedy,
            &AcceptAllFeasible,
            &RejectAll,
            &BestOfSingle,
        ] {
            let c = p.solve(&inst).unwrap().cost();
            assert!(
                c >= opt - 1e-6 * opt.max(1.0),
                "{} = {c} beat OPT = {opt}",
                p.name()
            );
        }
    }
}

/// The fractional relaxation is a genuine lower bound.
#[test]
fn fractional_bound_below_optimum() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0003);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 9);
        let opt = Exhaustive::default().solve(&inst).unwrap().cost();
        let lb = fractional_lower_bound(&inst).unwrap();
        assert!(lb <= opt + 1e-6 * opt.max(1.0), "lb {lb} above OPT {opt}");
    }
}

/// The relaxation `min_t E*(base_u + t) + V − W(t)` as branch & bound
/// priced it before the closed form: `f` at `0`, at `cap` and at every
/// kink of `W` between them, and at the point a ternary search over
/// `[0, cap]` converges to; the least of those.
fn kink_and_ternary_reference(inst: &Instance, base_u: f64, undecided: &[Task]) -> f64 {
    let free: f64 = undecided
        .iter()
        .filter(|t| t.utilization() <= 0.0)
        .map(Task::penalty)
        .sum();
    let mut items: Vec<(f64, f64)> = undecided
        .iter()
        .filter(|t| t.utilization() > 0.0)
        .map(|t| (t.utilization(), t.penalty()))
        .collect();
    items.sort_by(|a, b| (b.1 / b.0).partial_cmp(&(a.1 / a.0)).unwrap());
    let mut kinks = vec![0.0];
    let mut prefix_v = vec![0.0];
    for &(u, v) in &items {
        kinks.push(kinks.last().unwrap() + u);
        prefix_v.push(prefix_v.last().unwrap() + v);
    }
    let total: f64 = undecided.iter().map(Task::penalty).sum();
    let s_max = inst.processor().max_speed();
    let cap = (s_max - base_u).max(0.0).min(*kinks.last().unwrap());
    let f = |t: f64| {
        let k = kinks.partition_point(|&u| u <= t) - 1;
        let mut w = prefix_v[k];
        if k < items.len() {
            let (u, v) = items[k];
            w += v * ((t - kinks[k]) / u).min(1.0);
        }
        let energy = inst.energy_rate((base_u + t).min(s_max)).unwrap();
        energy * inst.hyper_period() as f64 + total - (free + w)
    };
    let mut best = f(0.0).min(f(cap));
    for &k in &kinks {
        if k > 0.0 && k < cap {
            best = best.min(f(k));
        }
    }
    let (mut lo, mut hi) = (0.0f64, cap);
    for _ in 0..120 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        let next = if f(m1) <= f(m2) { (lo, m2) } else { (m1, hi) };
        if next == (lo, hi) {
            break;
        }
        (lo, hi) = next;
    }
    best.min(f(0.5 * (lo + hi)))
}

/// Branch & bound's one-pass relaxation agrees with the kink scan and
/// ternary search it replaced, to `1e-12·(1 + |ref| + V)` (plus, on
/// discrete speed sets, the demand sliver the reference can read below the
/// hull), on density-ordered suffixes of random nodes (zero-utilization
/// tasks, `base_u` at `s_max`, `cap = 0`), on the six presets, a CMOS
/// processor and a continuous domain with a positive minimum speed; and no
/// completion of the node costs less than its bound.
#[test]
fn relaxed_cost_matches_the_kink_and_ternary_reference() {
    use dvs_power::presets::{xscale_levels, xscale_measured};
    use dvs_power::{IdleMode, PowerFunction, Processor, SpeedDomain};
    use reject_sched::bounds::relaxed_cost;

    let cpus = [
        cubic_ideal(),
        xscale_ideal(),
        xscale_levels(),
        xscale_measured(),
        xscale_ideal().with_idle_mode(IdleMode::AlwaysOn),
        xscale_levels().with_idle_mode(IdleMode::AlwaysOn),
        Processor::new(
            PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap(),
            SpeedDomain::continuous(0.0, 1.0).unwrap(),
        ),
        Processor::new(
            PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap(),
            SpeedDomain::continuous(0.3, 1.0).unwrap(),
        ),
    ];
    let mut rng = Rng::seed_from_u64(0xC0DE_0010);
    let mut checked = 0u32;
    for case in 0..CASES {
        for cpu in &cpus {
            let n = 1 + rng.gen_index(14);
            let tasks = TaskSet::try_from_tasks((0..n).map(|i| {
                // Every fifth task has zero utilization.
                let u = if rng.gen_index(5) == 0 {
                    0.0
                } else {
                    rng.gen_f64(0.005, 0.6)
                };
                let period = [10u64, 20, 40][rng.gen_index(3)];
                Task::new(i, u * period as f64, period)
                    .unwrap()
                    .with_penalty(rng.gen_f64(0.0, 40.0))
            }))
            .unwrap();
            let inst = Instance::new(tasks, cpu.clone()).unwrap();
            let s_max = inst.processor().max_speed();
            let order = inst.density_order();
            let split = rng.gen_index(order.len() + 1);
            let (decided, undecided) = order.split_at(split);
            // A branch & bound node: some decided tasks accepted, or the
            // committed utilization pinned at the edge of the domain.
            let base_u = match case % 4 {
                0 => s_max,
                1 => 0.0,
                _ => decided
                    .iter()
                    .filter(|_| rng.gen_index(2) == 0)
                    .map(Task::utilization)
                    .sum::<f64>()
                    .min(s_max),
            };
            let got = relaxed_cost(&inst.view(), base_u, split).unwrap();
            let want = kink_and_ternary_reference(&inst, base_u, undecided);
            let v: f64 = undecided.iter().map(Task::penalty).sum();
            assert_eq!(got.penalty, v);
            // On a discrete domain `energy_rate` accepts a level up to 1e-9
            // below the demand, so the reference's samples can read up to
            // `1e-9·L·(steepest hull slope)` below the hull it bounds.
            let rate = |u: f64| inst.energy_rate(u).unwrap();
            let sliver = inst.processor().domain().levels().map_or(0.0, |levels| {
                let top = levels.len() - 1;
                let below = if top == 0 { 0.0 } else { levels[top - 1] };
                1e-9 * inst.hyper_period() as f64 * (rate(s_max) - rate(below)) / (s_max - below)
            });
            let tol = 1e-12 * (1.0 + want.abs() + v);
            assert!(
                want - tol <= got.cost && got.cost <= want + tol + sliver,
                "case {case} {cpu:?} base_u {base_u}: {} vs {want}",
                got.cost
            );
            // No completion of the node costs less than its bound.
            for mask in 0u32..1 << undecided.len().min(10) {
                let (mut u, mut kept) = (base_u, 0.0);
                for (i, t) in undecided.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        u += t.utilization();
                        kept += t.penalty();
                    }
                }
                if inst.processor().is_feasible(u) {
                    let energy = inst.energy_rate(u.min(s_max)).unwrap();
                    let cost = energy * inst.hyper_period() as f64 + v - kept;
                    assert!(got.cost <= cost + 1e-9 * (1.0 + cost.abs()), "case {case}");
                }
            }
            checked += 1;
        }
    }
    assert!(checked > 300);
}

/// ScaledDp's additive guarantee `cost ≤ OPT + ε·v_max` holds.
#[test]
fn scaled_dp_guarantee() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0004);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 9);
        let eps = rng.gen_f64(0.01, 1.0);
        let opt = Exhaustive::default().solve(&inst).unwrap().cost();
        let dp = ScaledDp::new(eps).unwrap().solve(&inst).unwrap().cost();
        let v_max = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
        assert!(
            dp <= opt + eps * v_max + 1e-6 * opt.max(1.0),
            "ε = {eps}: {dp} > {opt} + {}",
            eps * v_max
        );
    }
}

/// Non-empty optimal solutions replay on the simulator without misses
/// and with matching energy.
#[test]
fn optimal_solutions_replay_cleanly() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0005);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 8);
        let s = Exhaustive::default().solve(&inst).unwrap();
        if s.accepted().is_empty() {
            continue;
        }
        let report = s.replay(&inst).unwrap();
        assert!(report.misses().is_empty());
        assert!((report.energy() - s.energy()).abs() < 1e-6 * s.energy().max(1.0));
    }
}

/// `Instance::new` refuses every constrained-deadline set, naming its first
/// constrained task, and the `ConstrainedInstance` path solves the same set
/// with solutions that replay under EDF without a miss.
#[test]
fn constrained_deadlines_take_the_constrained_path() {
    let mut rng = Rng::seed_from_u64(0xC0DE_00D1);
    let mut replayed = 0;
    for case in 0..CASES {
        let n = 2 + rng.gen_index(5);
        let forced = rng.gen_index(n);
        let tasks = TaskSet::try_from_tasks((0..n).map(|i| {
            let period = [10, 20, 40][rng.gen_index(3)];
            let cycles = rng.gen_f64(0.05, 0.6) * period as f64;
            // Task `forced` has `d < p`; the others may too.
            let top = if i == forced { period } else { period + 1 };
            let deadline = rng.gen_u64(1, top);
            Task::new(i, cycles, period)
                .unwrap()
                .with_deadline(deadline)
                .unwrap()
                .with_penalty(rng.gen_f64(0.1, 8.0))
        }))
        .unwrap();
        let cpu = if case % 2 == 0 {
            cubic_ideal()
        } else {
            xscale_ideal()
        };
        let first = tasks.iter().find(|t| !t.is_implicit_deadline()).unwrap();
        match Instance::new(tasks.clone(), cpu.clone()) {
            Err(SchedError::ConstrainedDeadline {
                task,
                deadline,
                period,
            }) => assert_eq!(
                (task, deadline, period),
                (first.id().index(), first.deadline(), first.period()),
                "case {case}"
            ),
            other => panic!("case {case}: a constrained set gave {other:?}"),
        }
        let inst = ConstrainedInstance::new(tasks, cpu).unwrap();
        for s in [
            inst.solve_greedy().unwrap(),
            inst.solve_exhaustive().unwrap(),
        ] {
            s.verify(&inst).unwrap();
            if !s.accepted().is_empty() {
                let report = s.replay(&inst).unwrap();
                assert!(report.misses().is_empty(), "case {case}");
                replayed += 1;
            }
        }
    }
    assert!(replayed > CASES, "{replayed} solutions replayed");
}

/// Three tasks that each fit by utilization but together need 270 cycles
/// in the first 100 ticks: the plain instance refuses them, and the
/// constrained path accepts one, which replays without a miss.
#[test]
fn a_set_edf_cannot_run_at_its_utilization_is_refused() {
    let tasks = TaskSet::try_from_tasks((0..3).map(|i| {
        Task::new(i, 90.0, 1000)
            .unwrap()
            .with_deadline(100)
            .unwrap()
            .with_penalty(1000.0)
    }))
    .unwrap();
    let err = Instance::new(tasks.clone(), cubic_ideal()).unwrap_err();
    assert!(matches!(
        err,
        SchedError::ConstrainedDeadline { task: 0, .. }
    ));
    assert!(err.to_string().contains("ConstrainedInstance"), "{err}");
    let inst = ConstrainedInstance::new(tasks, cubic_ideal()).unwrap();
    let s = inst.solve_exhaustive().unwrap();
    assert_eq!(s.accepted().len(), 1);
    assert!(s.replay(&inst).unwrap().misses().is_empty());
}

/// Monotonicity: raising every penalty raises (weakly) the optimal cost,
/// because each acceptance decision's cost grows pointwise.
#[test]
fn optimal_cost_monotone_in_penalties() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0006);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 8);
        let bump = rng.gen_f64(0.1, 5.0);
        let base = Exhaustive::default().solve(&inst).unwrap().cost();
        let bumped = TaskSet::try_from_tasks(inst.tasks().iter().map(|t| {
            Task::new(t.id(), t.wcec(), t.period())
                .unwrap()
                .with_penalty(t.penalty() + bump)
        }))
        .unwrap();
        let inst2 = Instance::new(bumped, inst.processor().clone()).unwrap();
        let bumped_cost = Exhaustive::default().solve(&inst2).unwrap().cost();
        assert!(bumped_cost >= base - 1e-9);
    }
}

/// The knapsack reduction preserves optima on random instances.
#[test]
fn knapsack_reduction_roundtrip() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0007);
    for _ in 0..CASES {
        let n = 1 + rng.gen_index(9);
        let items: Vec<KnapsackItem> = (0..n)
            .map(|_| KnapsackItem {
                weight: rng.gen_u64(1, 60),
                profit: rng.gen_f64(0.5, 20.0),
            })
            .collect();
        let ks = Knapsack::new(items, 100).unwrap();
        let opt = ks.solve_exact();
        let inst = ks.to_rejection_instance().unwrap();
        let sched = Exhaustive::default().solve(&inst).unwrap();
        let recovered = ks.profit_from_cost(sched.cost());
        assert!(
            (recovered - opt).abs() < 1e-3,
            "recovered {recovered} vs knapsack OPT {opt}"
        );
    }
}

/// Budget-dual properties: feasibility, monotonicity in the budget, and
/// the ½-guarantee of the greedy, on random instances.
#[test]
fn budget_dual_properties() {
    use reject_sched::budget::{solve_budget_dp, solve_budget_greedy};
    let mut rng = Rng::seed_from_u64(0xC0DE_0008);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 10);
        let f1 = rng.gen_f64(0.01, 1.0);
        let f2 = rng.gen_f64(0.01, 1.0);
        let e_max = inst.energy_for(inst.processor().max_speed()).unwrap();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let (b_lo, b_hi) = (lo * e_max, hi * e_max);
        let dp_lo = solve_budget_dp(&inst, b_lo, 0.05).unwrap();
        let dp_hi = solve_budget_dp(&inst, b_hi, 0.05).unwrap();
        dp_lo.verify(&inst).unwrap();
        dp_hi.verify(&inst).unwrap();
        let v_max = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
        assert!(
            dp_hi.value() >= dp_lo.value() - 0.05 * v_max - 1e-9,
            "value not monotone: {} @ {b_lo} vs {} @ {b_hi}",
            dp_lo.value(),
            dp_hi.value()
        );
        let g = solve_budget_greedy(&inst, b_hi).unwrap();
        g.verify(&inst).unwrap();
        assert!(g.value() >= 0.5 * dp_hi.value() - 0.05 * v_max - 1e-9);
        // At a zero budget nothing is admitted (every task here has
        // positive utilization).
        let none = [
            solve_budget_dp(&inst, 0.0, 0.05).unwrap(),
            solve_budget_greedy(&inst, 0.0).unwrap(),
        ];
        for sol in [dp_lo, dp_hi, g].iter().chain(&none) {
            let (value, energy) = subset_priced(&inst, sol.accepted());
            assert_eq!(sol.energy().to_bits(), energy.to_bits());
            if sol.accepted().is_empty() {
                // The position-order sums start from +0; an empty
                // `Iterator::sum` is −0.
                assert_eq!(value.to_bits(), (-0.0f64).to_bits());
                assert_eq!(sol.value().to_bits(), 0.0f64.to_bits());
            } else {
                assert_eq!(sol.value().to_bits(), value.to_bits());
            }
        }
        assert!(none.iter().all(|s| s.accepted().is_empty()));
    }
}

/// `(value, energy)` of an admitted set as `BudgetSolution`s were priced
/// over `TaskSet::subset`: `Iterator::sum`s in task-position order.
fn subset_priced(inst: &Instance, accepted: &[TaskId]) -> (f64, f64) {
    let subset = inst.tasks().subset(accepted).unwrap();
    let value = subset.iter().map(Task::penalty).sum();
    (value, inst.energy_for(subset.utilization()).unwrap())
}

/// Constrained-deadline oracle degenerates to the scalar oracle for
/// implicit-deadline sets (YDS = constant speed U).
#[test]
fn constrained_oracle_matches_scalar_on_implicit_sets() {
    use reject_sched::constrained::ConstrainedInstance;
    let mut rng = Rng::seed_from_u64(0xC0DE_0009);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 7);
        let cons =
            ConstrainedInstance::new(inst.tasks().clone(), inst.processor().clone()).unwrap();
        let ids: Vec<rt_model::TaskId> = inst
            .tasks()
            .iter()
            .filter(|t| inst.is_acceptable(t))
            .map(Task::id)
            .collect();
        // Feasible prefix of the acceptable tasks.
        let mut u = 0.0;
        let mut accepted = Vec::new();
        for id in ids {
            let t = inst.tasks().get(id).unwrap();
            if inst.processor().is_feasible(u + t.utilization()) {
                u += t.utilization();
                accepted.push(id);
            }
        }
        let a = cons.energy_for(&accepted).unwrap();
        let b = inst.energy_for(u).unwrap();
        assert!((a - b).abs() < 1e-6 * b.max(1.0), "yds {a} vs scalar {b}");
    }
}

/// Mandatory-task layering: the constrained optimum is sandwiched
/// between the unconstrained optimum and the reject-all bound, and all
/// mandatory tasks are accepted.
#[test]
fn mandatory_layering() {
    use reject_sched::mandatory::solve_with_mandatory;
    let mut rng = Rng::seed_from_u64(0xC0DE_000A);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 8);
        let acceptable: Vec<rt_model::TaskId> = inst
            .tasks()
            .iter()
            .filter(|t| inst.is_acceptable(t))
            .map(Task::id)
            .collect();
        if acceptable.is_empty() {
            continue;
        }
        let mandatory = vec![acceptable[rng.gen_index(acceptable.len())]];
        let free = Exhaustive::default().solve(&inst).unwrap().cost();
        let forced = solve_with_mandatory(&inst, &mandatory, &Exhaustive::default()).unwrap();
        forced.verify(&inst).unwrap();
        assert!(forced.accepts(mandatory[0]));
        assert!(forced.cost() >= free - 1e-6 * free.max(1.0));
        assert!(
            forced.cost()
                <= inst.total_penalty()
                    + inst.energy_for(inst.processor().max_speed()).unwrap()
                    + 1e-6
        );
    }
}

/// Capacity monotonicity: a faster processor never raises the optimum.
#[test]
fn faster_processor_never_hurts() {
    use dvs_power::{Processor, SpeedDomain};
    let mut rng = Rng::seed_from_u64(0xC0DE_000B);
    for _ in 0..CASES {
        let inst = random_instance(&mut rng, 8);
        let slow = Exhaustive::default().solve(&inst).unwrap().cost();
        let fast_cpu = Processor::new(
            *inst.processor().power(),
            SpeedDomain::continuous(0.0, 2.0).unwrap(),
        );
        let inst2 = Instance::new(inst.tasks().clone(), fast_cpu).unwrap();
        let fast = Exhaustive::default().solve(&inst2).unwrap().cost();
        assert!(fast <= slow + 1e-6 * slow.max(1.0));
    }
}

/// Solving is a pure function of the instance: every roster policy and
/// the exact search return the same accepted set and the same cost bits
/// when run twice (a `HashSet`-ordered reduction would not), and the plain
/// branch & bound is exactly the unlimited budgeted one.
#[test]
fn repeated_solves_are_bit_identical() {
    let roster: Vec<Box<dyn RejectionPolicy>> = vec![
        Box::new(AcceptAllFeasible),
        Box::new(DensityGreedy),
        Box::new(DensitySweep),
        Box::new(BestOfSingle),
        Box::new(MarginalGreedy),
        Box::new(SafeGreedy),
        Box::new(ScaledDp::new(0.1).unwrap()),
        Box::new(LocalSearch::around(MarginalGreedy)),
        Box::new(SimulatedAnnealing::new(7).with_iterations(2_000).unwrap()),
        Box::new(BranchBound),
    ];
    for seed in 0..4u64 {
        for (load, cpu) in [(1.3, cubic_ideal()), (2.2, xscale_ideal())] {
            let tasks = WorkloadSpec::new(20, load)
                .penalty_model(PenaltyModel::UtilizationProportional {
                    scale: 1.6,
                    jitter: 0.5,
                })
                .seed(seed)
                .generate()
                .unwrap();
            let inst = Instance::new(tasks, cpu).unwrap();
            for policy in &roster {
                let (a, b) = (policy.solve(&inst).unwrap(), policy.solve(&inst).unwrap());
                assert_eq!(a.accepted(), b.accepted(), "{} seed {seed}", policy.name());
                assert_eq!(
                    a.cost().to_bits(),
                    b.cost().to_bits(),
                    "{} seed {seed}",
                    policy.name()
                );
            }
            let plain = BranchBound.solve(&inst).unwrap();
            let budgeted = BranchBound
                .solve_within(&inst, &SolveBudget::unlimited())
                .unwrap()
                .solution;
            assert_eq!(plain.accepted(), budgeted.accepted(), "seed {seed}");
            assert_eq!(plain.cost().to_bits(), budgeted.cost().to_bits());
        }
    }
}

/// The processors the pricing differential suite runs on: every preset, a
/// CMOS processor and a hand-made discrete one, both idle modes.
fn pricing_processors() -> Vec<dvs_power::Processor> {
    use dvs_power::presets::{leaky_with_overhead, uniform_levels, xscale_levels, xscale_measured};
    use dvs_power::{IdleMode, PowerFunction, Processor, SpeedDomain};
    let base = [
        cubic_ideal(),
        xscale_ideal(),
        xscale_levels(),
        xscale_measured(),
        leaky_with_overhead(0.5, 0.2),
        uniform_levels(5),
        Processor::new(
            PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap(),
            SpeedDomain::continuous(0.0, 1.0).unwrap(),
        ),
        Processor::new(
            PowerFunction::polynomial(0.08, 1.52, 3.0).unwrap(),
            SpeedDomain::discrete(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap(),
        ),
    ];
    base.iter()
        .flat_map(|cpu| [cpu.clone(), cpu.clone().with_idle_mode(IdleMode::AlwaysOn)])
        .collect()
}

/// A random overloaded instance on `cpu` for the pricing suite. The
/// identifiers (`≡ 1 mod 3`) are shuffled, so position order is not
/// identifier order.
fn pricing_instance(rng: &mut Rng, cpu: &dvs_power::Processor, max_n: usize) -> Instance {
    let n = 1 + rng.gen_index(max_n);
    let mut ids: Vec<usize> = (0..n).map(|i| 3 * i + 1).collect();
    for i in (1..n).rev() {
        ids.swap(i, rng.gen_index(i + 1));
    }
    let tasks = TaskSet::try_from_tasks(ids.into_iter().map(|id| {
        let period = [10u64, 20, 40][rng.gen_index(3)];
        Task::new(id, rng.gen_f64(0.01, 0.5) * period as f64, period)
            .unwrap()
            .with_penalty(rng.gen_f64(0.0, 30.0))
    }))
    .unwrap();
    Instance::new(tasks, cpu.clone()).unwrap()
}

/// `(U(A), Σ_{i ∉ A} vᵢ)` as `Instance` priced an accepted set before the
/// sorted identifier table: an identifier → position hash map, a mark per
/// position, and the sums in position order.
fn hash_marked_sums(inst: &Instance, accepted: &[TaskId]) -> Result<(f64, f64), SchedError> {
    let index: HashMap<TaskId, usize> = inst
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| (t.id(), i))
        .collect();
    let mut marks = vec![false; inst.len()];
    for id in accepted {
        match index.get(id) {
            Some(&i) => marks[i] = true,
            None => {
                return Err(SchedError::Model(ModelError::UnknownTask {
                    task: id.index(),
                }))
            }
        }
    }
    let (mut u, mut v) = (0.0, 0.0);
    for (t, &m) in inst.tasks().iter().zip(&marks) {
        if m {
            u += t.utilization();
            v += t.penalty();
        }
    }
    Ok((u, inst.total_penalty() - v))
}

/// `E*(u)` as the memo-free expression: `L · rate(u)`.
fn energy_reference(inst: &Instance, u: f64) -> Result<f64, SchedError> {
    Ok(inst.energy_rate(u)? * inst.hyper_period() as f64)
}

/// `utilization_of`, `rejected_penalty_of`, `cost_of` and
/// `Solution::for_accepted` give the bits and errors of the hash-marked
/// reference on random identifier lists with repeats, in random order,
/// some naming no task.
#[test]
fn pricing_matches_the_hash_marked_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0020);
    let mut unknown = 0u32;
    let mut priced = 0u32;
    for cpu in pricing_processors() {
        for _ in 0..CASES {
            let inst = pricing_instance(&mut rng, &cpu, 16);
            let top = 3 * inst.len() + 2;
            let k = rng.gen_index(inst.len() + 3);
            let ids: Vec<TaskId> = (0..k)
                .map(|_| {
                    // Mostly real identifiers (≡ 1 mod 3), some unknown.
                    let i = rng.gen_index(top);
                    TaskId::new(if rng.gen_index(4) == 0 {
                        i
                    } else {
                        i - i % 3 + 1
                    })
                })
                .collect();
            let want = hash_marked_sums(&inst, &ids);
            let bits = |r: Result<f64, SchedError>| r.map(f64::to_bits);
            assert_eq!(
                bits(inst.utilization_of(&ids)),
                bits(want.clone().map(|s| s.0)),
                "{ids:?}"
            );
            assert_eq!(
                bits(inst.rejected_penalty_of(&ids)),
                bits(want.clone().map(|s| s.1))
            );
            let cost = want
                .clone()
                .and_then(|(u, v)| Ok(energy_reference(&inst, u)? + v));
            assert_eq!(bits(inst.cost_of(&ids)), bits(cost));

            let mut sorted = ids.clone();
            sorted.sort();
            sorted.dedup();
            let reference = hash_marked_sums(&inst, &sorted).and_then(|(u, penalty)| {
                let plan = if sorted.is_empty() {
                    None
                } else {
                    Some(inst.processor().plan(u)?)
                };
                Ok((
                    plan,
                    energy_reference(&inst, u)?.to_bits(),
                    penalty.to_bits(),
                ))
            });
            match (Solution::for_accepted(&inst, "ref", ids.clone()), reference) {
                (Ok(s), Ok((plan, energy, penalty))) => {
                    assert_eq!(s.accepted(), &sorted[..]);
                    assert_eq!(s.plan(&inst).unwrap(), plan);
                    assert_eq!(
                        (s.energy().to_bits(), s.penalty().to_bits()),
                        (energy, penalty)
                    );
                    s.verify(&inst).unwrap();
                    priced += 1;
                }
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{ids:?}");
                    unknown += u32::from(matches!(got, SchedError::Model(_)));
                }
                (got, want) => panic!("{ids:?}: {got:?} vs {want:?}"),
            }
        }
    }
    assert!(
        unknown > 50 && priced > 100,
        "{unknown} unknown, {priced} priced"
    );
}

/// `MarginalGreedy` prices each candidate once and carries `E*(u)`; its
/// accepted set and cost bits equal the two-evaluation reference that
/// called `marginal_energy(u, uᵢ)` per candidate.
#[test]
fn marginal_greedy_matches_the_two_evaluation_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0021);
    for cpu in pricing_processors() {
        for _ in 0..CASES {
            let inst = pricing_instance(&mut rng, &cpu, 40);
            let mut u = 0.0;
            let mut accepted = Vec::new();
            for t in inst.density_order() {
                if !inst.processor().is_feasible(u + t.utilization()) {
                    continue;
                }
                if t.penalty() >= inst.marginal_energy(u, t.utilization()).unwrap() {
                    u += t.utilization();
                    accepted.push(t.id());
                }
            }
            let want = Solution::for_accepted(&inst, "marginal-greedy", accepted).unwrap();
            let got = MarginalGreedy.solve(&inst).unwrap();
            assert_eq!(got, want);
            assert_eq!(got.cost().to_bits(), want.cost().to_bits());
        }
    }
}

/// `utilization_at_marginal(λ)` as it was written before its constants
/// were hoisted: the run-and-sleep slope (continuous) or every chord
/// (discrete) evaluated again for each `λ`. Beyond the run-and-sleep
/// segment the continuous answer is the unchanged closed form, read back
/// through the scalar call.
fn marginal_reference(cpu: &dvs_power::Processor, lambda: f64) -> f64 {
    let rate = |u: f64| cpu.energy_rate(u).unwrap();
    match cpu.domain().levels() {
        None => {
            let lo = cpu.critical_speed();
            if lo > 0.0 && lambda <= (rate(lo) - rate(0.0)) / lo {
                0.0
            } else {
                cpu.utilization_at_marginal(lambda)
            }
        }
        Some(levels) => {
            let (mut u, mut r) = (0.0, rate(0.0));
            for &s in levels {
                let next = rate(s);
                if (next - r) / (s - u) >= lambda {
                    return u;
                }
                (u, r) = (s, next);
            }
            u
        }
    }
}

/// `Instance::break_even` (one `utilization_at_marginal_fn` per fill)
/// equals the per-task reference bit for bit, dormant-disable included,
/// and so does the scalar call; so does the batch form on every
/// breakpoint of the rate curve, one ulp either side of it, and a grid.
#[test]
fn break_even_matches_the_per_task_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0022);
    let mut at_zero = 0u32;
    for cpu in pricing_processors() {
        let rate = |u: f64| cpu.energy_rate(u).unwrap();
        let mut lambdas: Vec<f64> = (0..200).map(|k| f64::from(k) * 0.05).collect();
        let lo = cpu.critical_speed();
        if lo > 0.0 {
            lambdas.push((rate(lo) - rate(0.0)) / lo);
        }
        let (mut u, mut r) = (0.0, rate(0.0));
        for &s in cpu.domain().levels().unwrap_or(&[]) {
            lambdas.push((rate(s) - r) / (s - u));
            (u, r) = (s, rate(s));
        }
        let at_marginal = cpu.utilization_at_marginal_fn();
        for lambda in lambdas
            .into_iter()
            .flat_map(|l| [l.next_down(), l, l.next_up()])
        {
            let want = marginal_reference(&cpu, lambda);
            assert_eq!(
                at_marginal(lambda).to_bits(),
                want.to_bits(),
                "{cpu:?} λ {lambda}"
            );
        }
        for _ in 0..CASES {
            let inst = pricing_instance(&mut rng, &cpu, 24);
            let l = inst.hyper_period() as f64;
            for (t, &got) in inst.density_order().iter().zip(inst.break_even()) {
                let lambda = t.penalty_density() / l;
                let want = marginal_reference(&cpu, lambda);
                assert_eq!(got.to_bits(), want.to_bits(), "{cpu:?} λ {lambda}");
                assert_eq!(
                    cpu.utilization_at_marginal(lambda).to_bits(),
                    want.to_bits()
                );
                at_zero += u32::from(got == 0.0);
            }
        }
    }
    assert!(at_zero > 0, "no price fell on the run-and-sleep segment");
}

/// Branch & bound returns an unbeaten seed as it was priced: every result,
/// cold, budgeted and warm-started (from the optimum, the greedy, an
/// empty set and a random feasible set), equals `Solution::for_accepted`
/// of its own accepted set under its own name.
#[test]
fn branch_bound_results_equal_their_repriced_sets() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0023);
    let reprice = |inst: &Instance, s: &Solution| {
        Solution::for_accepted(inst, s.algorithm(), s.accepted().iter().copied()).unwrap()
    };
    for cpu in pricing_processors() {
        for _ in 0..CASES / 4 {
            let inst = pricing_instance(&mut rng, &cpu, 14);
            let bb = BranchBound;
            let cold = bb.solve(&inst).unwrap();
            assert_eq!(cold.algorithm(), "branch-bound");
            assert_eq!(cold, reprice(&inst, &cold));
            let budget = SolveBudget::nodes(1 + rng.gen_index(40) as u64);
            let tight = bb.solve_within(&inst, &budget).unwrap().solution;
            assert_eq!(tight.algorithm(), "anytime-branch-bound");
            assert_eq!(tight, reprice(&inst, &tight));
            let mut random = Vec::new();
            let mut u = 0.0;
            for t in inst.tasks().iter() {
                if rng.gen_index(2) == 0 && inst.processor().is_feasible(u + t.utilization()) {
                    u += t.utilization();
                    random.push(t.id());
                }
            }
            let seeds = [
                cold.clone(),
                MarginalGreedy.solve(&inst).unwrap(),
                Solution::for_accepted(&inst, "empty", []).unwrap(),
                Solution::for_accepted(&inst, "random", random).unwrap(),
            ];
            for warm in &seeds {
                for budget in [SolveBudget::unlimited(), budget] {
                    let got = bb
                        .solve_within_seeded(&inst, &budget, warm)
                        .unwrap()
                        .solution;
                    assert_eq!(got.algorithm(), "anytime-branch-bound");
                    assert_eq!(got, reprice(&inst, &got));
                    assert!(got.cost() <= warm.cost());
                }
            }
        }
    }
}

/// Every offline policy builds its solution from a mask of task
/// positions; each result equals `Solution::for_accepted` of its own
/// accepted set under its own name, bit for bit, and its cost bits equal
/// the hash-marked reference's. The identifiers are shuffled and do not
/// run 0..n, so position order is not identifier order, and the accepted
/// list must still come out sorted.
#[test]
fn offline_policies_equal_their_repriced_sets() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0026);
    let policies: Vec<Box<dyn RejectionPolicy>> = vec![
        Box::new(Exhaustive::default()),
        Box::new(BranchBound),
        Box::new(ScaledDp::new(0.1).unwrap()),
        Box::new(MarginalGreedy),
        Box::new(DensityGreedy),
        Box::new(DensitySweep),
        Box::new(BestOfSingle),
        Box::new(SafeGreedy),
        Box::new(AcceptAllFeasible),
        Box::new(RejectAll),
        Box::new(LocalSearch::around(MarginalGreedy)),
        Box::new(SimulatedAnnealing::new(3).with_iterations(500).unwrap()),
    ];
    let mut nonempty = 0u32;
    for cpu in pricing_processors() {
        for _ in 0..CASES / 4 {
            let inst = pricing_instance(&mut rng, &cpu, 14);
            let budget = SolveBudget::nodes(1 + rng.gen_index(400) as u64);
            let anytime = [
                BranchBound.solve_within(&inst, &budget).unwrap().solution,
                ScaledDp::new(0.1)
                    .unwrap()
                    .solve_within(&inst, &budget)
                    .unwrap()
                    .solution,
            ];
            let solved = policies.iter().map(|p| {
                let s = p.solve(&inst).unwrap();
                assert_eq!(s.algorithm(), p.name());
                s
            });
            for s in solved.chain(anytime) {
                let what = format!("{} on {inst}", s.algorithm());
                assert!(s.accepted().is_sorted(), "{what}: {:?}", s.accepted());
                let again = Solution::for_accepted(&inst, s.algorithm(), s.accepted().to_vec());
                let again = again.unwrap();
                assert_eq!(s, again, "{what}");
                let (u, penalty) = hash_marked_sums(&inst, s.accepted()).unwrap();
                let energy = energy_reference(&inst, u).unwrap();
                for (got, want) in [
                    (s.energy(), energy),
                    (again.energy(), energy),
                    (s.penalty(), penalty),
                    (again.penalty(), penalty),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{what}");
                }
                nonempty += u32::from(s.accepted().len() > 1);
            }
        }
    }
    assert!(nonempty > 1_000, "{nonempty} sets of two or more tasks");
}

/// The recursive branch & bound that the heap-stack search replaced: the
/// same seed, leaf test, relaxation and prune, one work unit per call.
/// Returns the leaf that beat the seed (if any), the units used and
/// whether the budget expired.
fn recursive_branch_bound(
    inst: &Instance,
    max_nodes: Option<u64>,
    warm: Option<&Solution>,
) -> (Option<Vec<TaskId>>, u64, bool) {
    struct Search<'a> {
        inst: &'a Instance,
        tasks: &'a [Task],
        incumbent: f64,
        best: Option<Vec<bool>>,
        current: Vec<bool>,
        max_nodes: Option<u64>,
        used: u64,
        expired: bool,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, u: f64, avoided: f64) {
            if self.expired {
                return;
            }
            self.used += 1;
            if self.max_nodes.is_some_and(|m| self.used > m) {
                self.expired = true;
                return;
            }
            let total = self.inst.total_penalty();
            if i == self.tasks.len() {
                let energy = self.inst.energy_rate(u).unwrap() * self.inst.hyper_period() as f64;
                let cost = energy + total - avoided;
                if cost < self.incumbent {
                    self.incumbent = cost;
                    self.best = Some(self.current.clone());
                }
                return;
            }
            let relaxed = reject_sched::bounds::relaxed_cost(&self.inst.view(), u, i).unwrap();
            if total - avoided - relaxed.penalty + relaxed.cost >= self.incumbent - 1e-12 {
                return;
            }
            let t = self.tasks[i];
            if self.inst.processor().is_feasible(u + t.utilization()) {
                self.current[i] = true;
                self.dfs(i + 1, u + t.utilization(), avoided + t.penalty());
                self.current[i] = false;
            }
            self.dfs(i + 1, u, avoided);
        }
    }
    let greedy = MarginalGreedy.solve(inst).unwrap().cost();
    let tasks = inst.density_order();
    let mut search = Search {
        inst,
        tasks,
        incumbent: warm.map_or(greedy, |w| w.cost().min(greedy)),
        best: None,
        current: vec![false; tasks.len()],
        max_nodes,
        used: 0,
        expired: false,
    };
    search.dfs(0, 0.0, 0.0);
    let best = search.best.map(|accept| {
        let mut ids: Vec<TaskId> = tasks
            .iter()
            .zip(accept)
            .filter(|(_, take)| *take)
            .map(|(t, _)| t.id())
            .collect();
        ids.sort();
        ids
    });
    (best, search.used, search.expired)
}

/// The heap-stack search visits the recursive search's nodes in its
/// order: under every budget, cold and warm-started, it spends the same
/// units, expires at the same node and returns the same leaf — or, when
/// no leaf beat the seed, the seed itself.
#[test]
fn branch_bound_matches_the_recursive_reference() {
    let mut rng = Rng::seed_from_u64(0xC0DE_0026);
    let mut degraded = 0u32;
    let mut improved = 0u32;
    for cpu in pricing_processors() {
        for _ in 0..CASES / 4 {
            let inst = pricing_instance(&mut rng, &cpu, 18);
            let greedy = MarginalGreedy.solve(&inst).unwrap();
            let cold = BranchBound.solve(&inst).unwrap();
            let budgets = [None, Some(0), Some(1), Some(rng.gen_index(60) as u64)];
            for warm in [None, Some(&cold), Some(&greedy)] {
                for max_nodes in budgets {
                    let budget = max_nodes.map_or(SolveBudget::unlimited(), SolveBudget::nodes);
                    let got = match warm {
                        Some(w) => BranchBound.solve_within_seeded(&inst, &budget, w),
                        None => BranchBound.solve_within(&inst, &budget),
                    }
                    .unwrap();
                    let (leaf, used, expired) = recursive_branch_bound(&inst, max_nodes, warm);
                    assert_eq!(got.nodes_used, used, "{max_nodes:?}");
                    assert_eq!(got.quality == SolveQuality::Degraded, expired);
                    let seed = warm.filter(|w| w.cost() < greedy.cost()).unwrap_or(&greedy);
                    let want = leaf.as_deref().unwrap_or(seed.accepted());
                    assert_eq!(got.solution.accepted(), want, "{max_nodes:?}");
                    degraded += u32::from(expired);
                    improved += u32::from(leaf.is_some());
                }
            }
        }
    }
    assert!(
        degraded > 50 && improved > 50,
        "{degraded} degraded, {improved} improved"
    );
}
