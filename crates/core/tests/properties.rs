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
use reject_sched::anytime::{BudgetedPolicy, SolveBudget};
use reject_sched::bounds::fractional_lower_bound;
use reject_sched::hardness::{Knapsack, KnapsackItem};
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::{PenaltyModel, WorkloadSpec};
use rt_model::rng::Rng;
use rt_model::{Task, TaskSet};

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
            Box::new(BranchBound::default()),
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
        let bb = BranchBound::default().solve(&inst).unwrap().cost();
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

/// Branch & bound's early-stopping prune test is exactly the comparison
/// it replaces: `relaxed_cost_reaches(..) ≡ offset + relaxed_cost(..) ≥
/// threshold`, on every processor preset, at thresholds on the bound, a
/// few ulps and tiny relative margins either side of it, and at the edges
/// (`cap = 0`, `base_u` at `s_max`, zero-utilization tasks).
#[test]
fn relaxed_cost_reaches_is_the_exact_comparison() {
    use dvs_power::presets::{xscale_levels, xscale_measured};
    use dvs_power::IdleMode;
    use reject_sched::bounds::{relaxed_cost, relaxed_cost_reaches};

    fn ulps(x: f64, n: i64) -> f64 {
        let mut y = x;
        for _ in 0..n.abs() {
            y = if n > 0 { y.next_up() } else { y.next_down() };
        }
        y
    }
    let presets = [
        cubic_ideal(),
        xscale_ideal(),
        xscale_levels(),
        xscale_measured(),
        xscale_ideal().with_idle_mode(IdleMode::AlwaysOn),
        xscale_levels().with_idle_mode(IdleMode::AlwaysOn),
    ];
    let mut rng = Rng::seed_from_u64(0xC0DE_0010);
    let mut checked = 0u32;
    for case in 0..CASES {
        for cpu in &presets {
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
            let order: Vec<Task> = inst.tasks().iter().copied().collect();
            let split = rng.gen_index(n + 1);
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
            let offset = if case % 3 == 0 {
                0.0
            } else {
                rng.gen_f64(0.0, 50.0)
            };
            let bound = relaxed_cost(&inst, base_u, undecided.iter()).unwrap();
            let at = offset + bound;
            let thresholds = [
                at,
                ulps(at, 1),
                ulps(at, -1),
                ulps(at, 16),
                ulps(at, -16),
                at + 1e-12,
                at - 1e-12,
                at * (1.0 + 1e-9),
                at * (1.0 - 1e-9),
                at * (1.0 + 1e-6),
                at * (1.0 - 1e-6),
                at + 1.0,
                at - 1.0,
            ];
            for threshold in thresholds {
                let fast = relaxed_cost_reaches(&inst, base_u, undecided.iter(), offset, threshold)
                    .unwrap();
                assert_eq!(
                    fast,
                    offset + bound >= threshold,
                    "case {case} {cpu:?} base_u {base_u} offset {offset} threshold {threshold}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 3_000);
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
    }
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
        Box::new(BranchBound::default()),
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
            let plain = BranchBound::default().solve(&inst).unwrap();
            let budgeted = BranchBound::default()
                .solve_within(&inst, &SolveBudget::unlimited())
                .unwrap()
                .solution;
            assert_eq!(plain.accepted(), budgeted.accepted(), "seed {seed}");
            assert_eq!(plain.cost().to_bits(), budgeted.cost().to_bits());
        }
    }
}
