//! Differential pins for the offline solvers that skip provably idle
//! work: `LocalSearch` (moves ruled out by a convexity bound are never
//! enumerated or priced), `MarginalGreedy` and `DensitySweep` (they price
//! only where convexity does not decide: after a certified lead and before
//! a certified stop) and the two users of the scaled DP table, `ScaledDp`
//! and `budget::solve_budget_dp` (each layer visits only reachable value
//! levels, 64 at a time).
//!
//! Each is compared against a naive reference written out here — the full
//! neighborhood scan, the full walk, the full sweep and the full-width
//! table — on accepted ids and cost bits, over every processor preset (each
//! also dormant-disable) and a CMOS power model, three penalty models,
//! several sizes and loads, and three seed policies. `LocalSearch` and
//! `ScaledDp` are also compared on instances shaped like the benchmark's
//! (n = 500 and n = 200), the walk on hand-built corners of its stop, the
//! walk and the sweep on hand-built corners of the lead, and
//! `solve_budget_dp` at energy budgets whose utilization cap binds below
//! `s_max`.
//! `ScaledDp::solve_within` is pinned on its work counter, quality and cost
//! bits at budgets that expire mid-table. The one `Solution` constructor is
//! compared with its old two walks (the sums over the marked positions,
//! and the ids off a table sorted by id) at the benchmark's n = 2 000.

use dvs_power::presets::{
    cubic_ideal, leaky_with_overhead, uniform_levels, xscale_ideal, xscale_levels, xscale_measured,
};
use dvs_power::{IdleMode, PowerFunction, Processor, SpeedDomain};
use reject_sched::algorithms::{
    AcceptAllFeasible, DensitySweep, LocalSearch, MarginalGreedy, RejectAll, ScaledDp,
};
use reject_sched::anytime::{BudgetedPolicy, SolveBudget, SolveQuality};
use reject_sched::budget::{solve_budget_dp, utilization_cap_for_budget};
use reject_sched::{Instance, RejectionPolicy, SchedError, Solution};
use rt_model::generator::{PenaltyModel, WorkloadSpec};
use rt_model::rng::Rng;
use rt_model::{Task, TaskId, TaskSet};

/// Every preset, each also with a dormant-disable idle mode, plus a CMOS
/// power model (golden-section critical speed).
fn processors() -> Vec<(String, Processor)> {
    let cmos = Processor::new(
        PowerFunction::cmos(1.0, 0.4, 1.0, 0.05).unwrap(),
        SpeedDomain::continuous(0.0, 1.0).unwrap(),
    );
    let base = [
        ("xscale_ideal", xscale_ideal()),
        ("cubic_ideal", cubic_ideal()),
        ("xscale_measured", xscale_measured()),
        ("xscale_levels", xscale_levels()),
        ("uniform_levels_5", uniform_levels(5)),
        ("leaky_with_overhead", leaky_with_overhead(0.4, 4.0)),
        ("cmos", cmos),
    ];
    base.into_iter()
        .flat_map(|(name, cpu)| {
            let on = cpu.clone().with_idle_mode(IdleMode::AlwaysOn);
            [(name.to_string(), cpu), (format!("{name}+always_on"), on)]
        })
        .collect()
}

const PENALTIES: [PenaltyModel; 3] = [
    PenaltyModel::Uniform { lo: 0.05, hi: 0.8 },
    PenaltyModel::UtilizationProportional {
        scale: 1.6,
        jitter: 0.5,
    },
    PenaltyModel::InverseUtilization {
        scale: 1.0,
        jitter: 0.3,
    },
];

fn instance(cpu: &Processor, penalty: PenaltyModel, n: usize, load: f64, seed: u64) -> Instance {
    let tasks = WorkloadSpec::new(n, load)
        .penalty_model(penalty)
        .seed(seed)
        .generate()
        .unwrap();
    Instance::new(tasks, cpu.clone()).unwrap()
}

fn acceptable(inst: &Instance) -> Vec<Task> {
    inst.tasks()
        .iter()
        .filter(|t| inst.is_acceptable(t))
        .copied()
        .collect()
}

/// The local search as a full scan: every toggle, then every out→in swap,
/// priced with one `energy_rate` call each; the earliest strictly best
/// improvement is applied until none is left.
fn reference_local_search(inst: &Instance, seed: &Solution) -> Solution {
    let tasks = acceptable(inst);
    let n = tasks.len();
    let horizon = inst.hyper_period() as f64;
    let total = inst.total_penalty();
    let price = |nu: f64, navoided: f64| match inst.energy_rate(nu.max(0.0)) {
        Ok(rate) => rate * horizon + (total - navoided),
        Err(_) => f64::INFINITY,
    };
    let mut accepted: Vec<bool> = tasks.iter().map(|t| seed.accepts(t.id())).collect();
    let mut cost = seed.cost();
    for _ in 0..LocalSearch::DEFAULT_MAX_ROUNDS {
        let (mut u, mut avoided) = (0.0, 0.0);
        for (i, t) in tasks.iter().enumerate() {
            if accepted[i] {
                u += t.utilization();
                avoided += t.penalty();
            }
        }
        // `(out, into)`: a toggle of `i` is `(i, None)`.
        let mut best: Option<(usize, Option<usize>, f64)> = None;
        let mut consider = |mv: (usize, Option<usize>), c: f64| {
            if c < cost - 1e-12 && best.is_none_or(|(_, _, bc)| c < bc) {
                best = Some((mv.0, mv.1, c));
            }
        };
        for (i, t) in tasks.iter().enumerate() {
            let c = if accepted[i] {
                price(u - t.utilization(), avoided - t.penalty())
            } else {
                price(u + t.utilization(), avoided + t.penalty())
            };
            consider((i, None), c);
        }
        for out in (0..n).filter(|&i| accepted[i]) {
            for into in (0..n).filter(|&i| !accepted[i]) {
                let (o, i) = (&tasks[out], &tasks[into]);
                let c = price(
                    u - o.utilization() + i.utilization(),
                    avoided - o.penalty() + i.penalty(),
                );
                consider((out, Some(into)), c);
            }
        }
        match best {
            Some((i, None, c)) => {
                accepted[i] = !accepted[i];
                cost = c;
            }
            Some((out, Some(into), c)) => {
                accepted[out] = false;
                accepted[into] = true;
                cost = c;
            }
            None => break,
        }
    }
    let ids = tasks
        .iter()
        .zip(&accepted)
        .filter(|(_, &a)| a)
        .map(|(t, _)| t.id());
    Solution::for_accepted(inst, "local-search", ids).unwrap()
}

/// The marginal greedy as a full walk: every task of the density order
/// that fits is priced, and accepted when `vᵢ ≥ E*(u + uᵢ) − E*(u)`.
fn reference_marginal_greedy(inst: &Instance) -> Solution {
    let mut u = 0.0;
    let mut accepted = Vec::new();
    for t in inst.density_order() {
        if !inst.processor().is_feasible(u + t.utilization()) {
            continue;
        }
        let marginal = inst.energy_for(u + t.utilization()).unwrap() - inst.energy_for(u).unwrap();
        if t.penalty() >= marginal {
            u += t.utilization();
            accepted.push(t.id());
        }
    }
    Solution::for_accepted(inst, "marginal-greedy", accepted).unwrap()
}

/// The density sweep as a full sweep: every feasible prefix `1..=kmax` is
/// priced, and the earliest strict minimum wins (the empty prefix costs
/// `Σv`).
fn reference_density_sweep(inst: &Instance) -> Solution {
    let order = inst.density_order();
    let total = inst.total_penalty();
    let (mut u, mut v, mut best) = (0.0, 0.0, (total, 0));
    for (k, t) in order.iter().enumerate() {
        u += t.utilization();
        v += t.penalty();
        if !inst.processor().is_feasible(u) {
            break;
        }
        let cost = inst.energy_for(u).unwrap() + total - v;
        if cost < best.0 {
            best = (cost, k + 1);
        }
    }
    let accepted = order[..best.1].iter().map(Task::id);
    Solution::for_accepted(inst, "density-sweep", accepted).unwrap()
}

/// A seed policy that accepts the tasks at the given indices.
struct Accepts(&'static [usize]);

impl RejectionPolicy for Accepts {
    fn name(&self) -> &'static str {
        "accepts"
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SchedError> {
        Solution::for_accepted(inst, self.name(), self.0.iter().map(|&i| TaskId::new(i)))
    }
}

/// An instance of `(cycles, penalty)` tasks, all of period 10.
fn hand_built(cpu: Processor, tasks: &[(f64, f64)]) -> Instance {
    let tasks = tasks
        .iter()
        .enumerate()
        .map(|(i, &(c, v))| Task::new(i, c, 10).unwrap().with_penalty(v));
    Instance::new(TaskSet::try_from_tasks(tasks).unwrap(), cpu).unwrap()
}

/// The full-width scaled-DP table: every layer sweeps every value level
/// `v ∈ [wᵢ, V̂]` in descending order, unreached levels are `+∞`. Returns
/// the levels and one `take` row per task.
fn full_width_table(tasks: &[Task], weights: &[usize], limit: f64) -> (Vec<f64>, Vec<Vec<bool>>) {
    let v_hat: usize = weights.iter().sum();
    let mut d = vec![f64::INFINITY; v_hat + 1];
    d[0] = 0.0;
    let mut take = vec![vec![false; v_hat + 1]; tasks.len()];
    for (i, t) in tasks.iter().enumerate() {
        let w = weights[i];
        if w == 0 {
            continue;
        }
        for v in (w..=v_hat).rev() {
            let cand = d[v - w] + t.utilization();
            if cand < d[v] && cand <= limit * (1.0 + 1e-9) {
                d[v] = cand;
                take[i][v] = true;
            }
        }
    }
    (d, take)
}

/// Appends the tasks that realise level `v` of a full-width table.
fn reconstruct(
    tasks: &[Task],
    weights: &[usize],
    take: &[Vec<bool>],
    mut v: usize,
    out: &mut Vec<TaskId>,
) {
    for i in (0..tasks.len()).rev() {
        if v > 0 && weights[i] > 0 && weights[i] <= v && take[i][v] {
            out.push(tasks[i].id());
            v -= weights[i];
        }
    }
    assert_eq!(v, 0);
}

/// The scaled DP with a full-width table.
fn reference_scaled_dp(inst: &Instance, epsilon: f64) -> Solution {
    let (free, tasks): (Vec<Task>, Vec<Task>) = acceptable(inst)
        .into_iter()
        .partition(|t| t.utilization() <= 0.0);
    let mut accepted: Vec<TaskId> = free.iter().map(Task::id).collect();
    let v_max = tasks.iter().map(Task::penalty).fold(0.0, f64::max);
    if tasks.is_empty() || v_max <= 0.0 {
        return Solution::for_accepted(inst, "scaled-dp", accepted).unwrap();
    }
    let n = tasks.len();
    let mu = epsilon * v_max / n as f64;
    let weights: Vec<usize> = tasks.iter().map(|t| (t.penalty() / mu) as usize).collect();
    let s_max = inst.processor().max_speed();
    let (d, take) = full_width_table(&tasks, &weights, s_max);
    let l = inst.hyper_period() as f64;
    let free_penalty: f64 = free.iter().map(Task::penalty).sum();
    let mut best_v = 0;
    let mut best_est = f64::INFINITY;
    for (v, &u) in d.iter().enumerate() {
        if !u.is_finite() {
            continue;
        }
        let Ok(rate) = inst.energy_rate(u.min(s_max)) else {
            continue;
        };
        let est = rate * l + (inst.total_penalty() - free_penalty - v as f64 * mu);
        if est < best_est {
            best_est = est;
            best_v = v;
        }
    }
    reconstruct(&tasks, &weights, &take, best_v, &mut accepted);
    Solution::for_accepted(inst, "scaled-dp", accepted).unwrap()
}

/// `solve_budget_dp`'s ids from a full-width table: the highest level
/// reachable within the utilization cap of `budget`.
fn reference_budget_dp(inst: &Instance, budget: f64, epsilon: f64) -> Vec<TaskId> {
    let cap = utilization_cap_for_budget(inst, budget).unwrap();
    let tasks: Vec<Task> = inst
        .tasks()
        .iter()
        .filter(|t| t.utilization() <= cap * (1.0 + 1e-9))
        .copied()
        .collect();
    let v_max = tasks.iter().map(Task::penalty).fold(0.0, f64::max);
    if tasks.is_empty() || v_max <= 0.0 {
        return Vec::new();
    }
    let mu = epsilon * v_max / tasks.len() as f64;
    let weights: Vec<usize> = tasks.iter().map(|t| (t.penalty() / mu) as usize).collect();
    let (d, take) = full_width_table(&tasks, &weights, cap);
    let best_v = d.iter().rposition(|u| u.is_finite()).unwrap();
    let mut accepted = Vec::new();
    reconstruct(&tasks, &weights, &take, best_v, &mut accepted);
    accepted.sort();
    accepted.dedup();
    accepted
}

fn assert_same(what: &str, library: &Solution, reference: &Solution) {
    assert_eq!(
        library.accepted(),
        reference.accepted(),
        "{what}: accepted ids"
    );
    assert_eq!(
        library.cost().to_bits(),
        reference.cost().to_bits(),
        "{what}: cost bits"
    );
}

#[test]
fn local_search_matches_the_full_scan() {
    /// A seed policy's solution and the local search around it.
    fn seeded(name: &str, inst: &Instance) -> (Solution, LocalSearch) {
        fn pair(
            policy: impl RejectionPolicy + Copy + 'static,
            inst: &Instance,
        ) -> (Solution, LocalSearch) {
            (policy.solve(inst).unwrap(), LocalSearch::around(policy))
        }
        match name {
            "greedy" => pair(MarginalGreedy, inst),
            "reject-all" => pair(RejectAll, inst),
            _ => pair(AcceptAllFeasible, inst),
        }
    }
    let mut solves = 0;
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for (n, load) in [(8, 1.4), (20, 2.0), (40, 1.2), (40, 3.0), (60, 1.6)] {
                for workload_seed in 0..3 {
                    let inst = instance(&cpu, penalty, n, load, workload_seed);
                    for seed_name in ["greedy", "reject-all", "accept-all"] {
                        let (seed, local) = seeded(seed_name, &inst);
                        let reference = reference_local_search(&inst, &seed);
                        let library = local.solve(&inst).unwrap();
                        let what =
                            format!("{name} penalty#{p} n={n} load={load} seed={workload_seed} from {seed_name}");
                        assert_same(&what, &library, &reference);
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 14 * 3 * 5 * 3 * 3);
}

/// The benchmark's `LocalSearch` entries (n = 500 XScale tasks with
/// utilization-proportional penalties, greedy seed) and n = 200 on every
/// processor, where a round's pairs number in the ten thousands; and a
/// seed that nearly fills the processor, so that no right secant exists
/// and the swaps that lower `u` come from the by-utilization order.
#[test]
fn local_search_matches_the_full_scan_at_scale() {
    let mut solves = 0;
    let mut check =
        |what: String, inst: &Instance, policy: &dyn Fn() -> LocalSearch, seed: Solution| {
            let reference = reference_local_search(inst, &seed);
            assert_same(&what, &policy().solve(inst).unwrap(), &reference);
            solves += 1;
        };
    for load in [1.2, 3.0] {
        for workload_seed in 0..3 {
            let inst = instance(&xscale_ideal(), PENALTIES[1], 500, load, workload_seed);
            let seed = MarginalGreedy.solve(&inst).unwrap();
            let what = format!("basket n=500 load={load} seed={workload_seed}");
            check(what, &inst, &|| LocalSearch::around(MarginalGreedy), seed);
        }
    }
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for load in [1.2, 3.0] {
                let inst = instance(&cpu, penalty, 200, load, 0);
                let seed = MarginalGreedy.solve(&inst).unwrap();
                let what = format!("{name} penalty#{p} n=200 load={load}");
                check(what, &inst, &|| LocalSearch::around(MarginalGreedy), seed);
            }
        }
    }
    // The accept-all seed leaves `u` within `h` of `s_max`, and the round
    // without a right secant picks a swap that lowers `u`.
    let full = instance(&xscale_ideal(), PENALTIES[1], 12, 1.5, 8);
    let seed = AcceptAllFeasible.solve(&full).unwrap();
    check(
        "near-full processor".into(),
        &full,
        &|| LocalSearch::around(AcceptAllFeasible),
        seed,
    );
    // Tasks 1 and 2 have equal utilizations: from the seed {0, 1} the pick
    // is the swap 1 → 2 (`E*` is `10·u³`, so every toggle costs more).
    let equal = hand_built(
        cubic_ideal(),
        &[(8.0, 10_000.0), (2.0, 100.0), (2.0, 150.0)],
    );
    let seed = Accepts(&[0, 1]).solve(&equal).unwrap();
    check(
        "equal utilizations".into(),
        &equal,
        &|| LocalSearch::around(Accepts(&[0, 1])),
        seed,
    );
    assert_eq!(solves, 2 * 3 + 14 * 3 * 2 + 2);
}

#[test]
fn marginal_greedy_matches_the_full_walk() {
    let mut solves = 0;
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for n in [20, 200, 2000] {
                for load in [0.8, 1.2, 3.0] {
                    for workload_seed in 0..2 {
                        let inst = instance(&cpu, penalty, n, load, workload_seed);
                        let what =
                            format!("{name} penalty#{p} n={n} load={load} seed={workload_seed}");
                        let library = MarginalGreedy.solve(&inst).unwrap();
                        assert_same(&what, &library, &reference_marginal_greedy(&inst));
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 14 * 3 * 3 * 3 * 2);
}

/// Tasks past the walk's stop that it must still price, and tasks it
/// may skip at the edge of the hull.
#[test]
fn marginal_greedy_matches_the_full_walk_on_the_corners_of_its_stop() {
    // `E*(u) = 10·u³`. Five dense tasks reach `u = 0.5`, where `E*′ = 7.5`;
    // task 5 (density 5) is rejected and certifies the stop. Past it: a
    // tie at its density, a task that fills `s_max = 1` exactly, a penalty
    // below the rounding floor on a task too small to move `u` (priced,
    // and accepted at a marginal energy of 0), a zero penalty, and a task
    // of zero utilization and penalty (accepted at 0 ≥ 0). Task 11 has
    // zero utilization and a positive penalty, so it leads the order.
    let cubic = hand_built(
        cubic_ideal(),
        &[
            (1.0, 10.0),
            (1.0, 10.0),
            (1.0, 10.0),
            (1.0, 10.0),
            (1.0, 10.0),
            (1.0, 0.5),
            (1.0, 0.5),
            (5.0, 2.0),
            (1e-19, 1e-25),
            (1.0, 0.0),
            (0.0, 0.0),
            (0.0, 1.0),
        ],
    );
    let library = MarginalGreedy.solve(&cubic).unwrap();
    assert_same(
        "cubic corners",
        &library,
        &reference_marginal_greedy(&cubic),
    );
    let ids: Vec<usize> = library.accepted().iter().map(|id| id.index()).collect();
    assert_eq!(ids, [0, 1, 2, 3, 4, 8, 10, 11]);

    // On five uniform levels the hull is linear on [0.4, 0.6] with slope
    // `σ`. Tasks 0 and 1 bring `u` to 0.5 and then 0.6 − 1e-4, so the last
    // accepted step has slope `σ`; task 2 (density `σ·(1 − 1e-6)`) crosses
    // the level 0.6 and is rejected, which certifies the stop. Task 3
    // lands 5e-10 above the level, where `energy_rate` reads the level
    // itself, below the hull: the full walk accepts it, so the stop must
    // price it.
    let cpu = uniform_levels(5);
    let e = |u: f64| cpu.energy_rate(u).unwrap() * 10.0;
    let sigma = (e(0.6) - e(0.5)) / 0.1;
    assert!(((e(0.5) - e(0.4)) / 0.1 - sigma).abs() < 1e-9 * sigma);
    let sliver = hand_built(
        cpu.clone(),
        &[
            (5.0, 300.0),
            (0.999, 20.0),
            (1.0, sigma * (1.0 - 1e-6) * 0.1),
            (1e-3 + 5e-9, sigma * (1.0 - 2e-6) * (1e-4 + 5e-10)),
        ],
    );
    let library = MarginalGreedy.solve(&sliver).unwrap();
    assert_same(
        "sliver corner",
        &library,
        &reference_marginal_greedy(&sliver),
    );
    let ids: Vec<usize> = library.accepted().iter().map(|id| id.index()).collect();
    assert_eq!(ids, [0, 1, 3]);
}

#[test]
fn density_sweep_matches_the_full_sweep() {
    let mut solves = 0;
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for n in [20, 200, 2000] {
                for load in [0.8, 1.2, 3.0] {
                    for workload_seed in 0..2 {
                        let inst = instance(&cpu, penalty, n, load, workload_seed);
                        let what =
                            format!("{name} penalty#{p} n={n} load={load} seed={workload_seed}");
                        let library = DensitySweep.solve(&inst).unwrap();
                        assert_same(&what, &library, &reference_density_sweep(&inst));
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 14 * 3 * 3 * 3 * 2);
}

/// The walk and the sweep on hand-built corners of their lead, each
/// against its twin; returns the ids each accepts.
fn lead_corner(what: &str, inst: &Instance) -> [Vec<usize>; 2] {
    let walk = MarginalGreedy.solve(inst).unwrap();
    assert_same(what, &walk, &reference_marginal_greedy(inst));
    let sweep = DensitySweep.solve(inst).unwrap();
    assert_same(what, &sweep, &reference_density_sweep(inst));
    [walk, sweep].map(|s| s.accepted().iter().map(|id| id.index()).collect())
}

#[test]
fn the_lead_matches_the_full_walk_and_sweep_on_its_corners() {
    // `E*(u) = 10·u³`. Task 0 has zero utilization and a positive penalty,
    // so it leads the order. Task 2 (1e-20 of utilization, penalty 1e-25)
    // is absorbed by the prefix sum 2e-4: its step is empty, so no lead
    // ends there, and its penalty is below the floor, so the walk prices
    // it (a marginal energy of 0). The lead ends at task 4; task 5 is
    // rejected, and the zero-penalty task 6 after the stop is priced.
    let leader = hand_built(
        cubic_ideal(),
        &[
            (0.0, 0.5),
            (2e-3, 2e-8),
            (1e-19, 1e-25),
            (1e-3, 9e-10),
            (1e-3, 6e-10),
            (1e-3, 5e-10),
            (1.0, 0.0),
            (0.0, 0.0),
        ],
    );
    let [walk, sweep] = lead_corner("leader and absorbed task", &leader);
    assert_eq!(walk, [0, 1, 2, 3, 4, 7]);
    assert_eq!(sweep, [0, 1, 2, 3, 4]);

    // Zero-penalty tasks inside the lead: at utilizations of 1e-112, `E*`
    // underflows to 0, so every step's secant is 0 and the lead ends at
    // task 4 with density 0. The floor is 0 too, so tasks 1–3 are priced
    // (accepted at a marginal energy of 0), and task 6 is rejected.
    let mut parts = vec![(0.0, 1.0)];
    parts.extend([(1e-111, 0.0); 4]);
    parts.extend([(0.0, 0.0), (5.0, 0.0)]);
    let [walk, sweep] = lead_corner(
        "zero penalties in the lead",
        &hand_built(cubic_ideal(), &parts),
    );
    assert_eq!(walk, [0, 1, 2, 3, 4, 5]);
    assert_eq!(sweep, [0]);

    // A lead that ends exactly at `s_max = 1`: the last step [0.75, 1]
    // certifies (density 30 against a secant of 23.1). Task 3 fits nowhere.
    let full = hand_built(
        cubic_ideal(),
        &[(5.0, 100.0), (2.5, 50.0), (2.5, 7.5), (1.0, 0.5)],
    );
    let [walk, sweep] = lead_corner("lead ending at s_max", &full);
    assert_eq!(walk, [0, 1, 2]);
    assert_eq!(sweep, [0, 1, 2]);

    // On five uniform levels the hull is linear on [0.4, 0.6] with slope
    // `σ`. Tasks 0–11 bring `U` 5e-10 above the level 0.4, where
    // `energy_rate` reads the level itself, below the hull: task 12's step
    // from there reads `σ·(1e-4 + 5e-10)`, more than its penalty, so the
    // full walk rejects it although its density is above the lead's end
    // (task 18). The walk must price it, and the sweep must price prefix
    // 12, which is the cheapest prefix for the same reason. No probe of
    // either search ends at `U₁₂`.
    let cpu = uniform_levels(5);
    let e = |u: f64| cpu.energy_rate(u).unwrap() * 10.0;
    let sigma = (e(0.6) - e(0.4)) / 0.2;
    let mut parts = vec![(0.3125, 3.0 * sigma * 0.03125); 11];
    parts.push((0.5625 + 5e-9, 3.0 * sigma * 0.05625));
    parts.push((1e-3, sigma * 1e-4 * (1.0 + 2e-6)));
    parts.extend([(2e-4, sigma * 2e-5 * (1.0 + 1.5e-6)); 5]);
    parts.push((2e-4, sigma * 2e-5 * (1.0 + 1e-6)));
    parts.extend([(0.5, sigma * 0.05 * (1.0 - 1e-3)), (0.5, sigma * 0.025)]);
    let [walk, sweep] = lead_corner("sliver inside the lead", &hand_built(cpu.clone(), &parts));
    assert_eq!(walk, (0..12).collect::<Vec<_>>());
    assert_eq!(sweep, (0..12).collect::<Vec<_>>());
    // Here the first step that would certify ends 5e-10 above the level
    // 0.4, and the next starts there: neither reads on the hull, so there
    // is no lead.
    let end = hand_built(
        cpu.clone(),
        &[
            (3.0, 3.0 * sigma),
            (1.0 + 5e-9, 1.2 * sigma * (0.1 + 5e-10)),
            (1.0, 0.11 * sigma),
            (1.0, 0.05 * sigma),
        ],
    );
    let [walk, sweep] = lead_corner("lead end in a sliver", &end);
    assert_eq!(walk, [0, 1, 2]);
    assert_eq!(sweep, [0, 1, 2]);

    // A density within a few ulps of the step's secant `S_R` (rounded up
    // as the lead rounds it), and of `(1 + η)·S_R`, `η = 1e-7`: task 1's
    // step [0.5, 0.6] certifies or not, and the walk accepts it either way.
    let a = 0.5;
    let b = a + 0.1;
    let e = |u: f64| cubic_ideal().energy_rate(u).unwrap() * 10.0;
    let s_r = (e(b) - e(a) + 32.0 * f64::EPSILON * e(b)) / (b - a);
    for base in [s_r, (1.0 + 1e-7) * s_r] {
        for ulps in -3..=3 {
            let rho = base * (1.0 + f64::from(ulps) * f64::EPSILON);
            let tie = hand_built(cubic_ideal(), &[(5.0, 100.0), (1.0, rho * 0.1), (1.0, 0.5)]);
            let [walk, sweep] = lead_corner(&format!("density {ulps} ulps from {base}"), &tie);
            assert_eq!(walk, [0, 1]);
            assert_eq!(sweep, [0, 1]);
        }
    }

    // A task just over half an ulp of `U = 0.5`: its step rounds up to a
    // whole ulp, about twice its utilization, so the full walk rejects it
    // although its density is above the lead's end (task 3). Its penalty
    // is far below the floor, so the walk prices it.
    let half_ulp = 0.51 * (0.5f64.next_up() - 0.5) * 10.0;
    let rounded = hand_built(
        cubic_ideal(),
        &[
            (2.5, 100.0),
            (2.5, 75.0),
            (half_ulp, 7.75 * half_ulp / 10.0),
            (0.1, 0.077),
            (1.0, 0.5),
        ],
    );
    let [walk, sweep] = lead_corner("step rounded up", &rounded);
    assert_eq!(walk, [0, 1, 3]);
    assert_eq!(sweep, [0, 1, 2, 3]);
    // The sweep's stop on `E*(u) = 10·u³`: the cost rises by a few ulps
    // after prefix 2 (task 1 pays for `1 − 1e-6` of its step), and 40
    // tasks of 5e-17 follow. Each is absorbed by `U = 0.5 + 1e-9` but not
    // by the penalty sum, so each lowers the cost by an ulp, and the last
    // prefix is the cheapest. Only the stop's margin keeps the sweep from
    // stopping at prefix 2.
    let mut parts = vec![(5.0, 3.8), (1e-8, 7.5 * (1.0 - 1e-6) * 1e-9)];
    parts.extend([(5e-16, 7.4 * 5e-17); 40]);
    let [walk, sweep] = lead_corner(
        "penalties under the floor after the stop",
        &hand_built(cubic_ideal(), &parts),
    );
    assert_eq!(walk, [0].into_iter().chain(2..42).collect::<Vec<_>>());
    assert_eq!(sweep, (0..42).collect::<Vec<_>>());
    // Steps of 1e-10 whose cost changes hide below an ulp of a total
    // penalty of 1e6 (task 0 can never fit): prefix 2 (tasks 1 and 2) is
    // the cheapest, prefixes 4 and 6 tie with it, and the lead ends at
    // task 6. Only the rounding margin keeps prefix 2 priced.
    let mut parts = vec![(20.0, 1e6), (5.0, 100.0), (1e-7, 7.6e-8)];
    parts.extend((0..4).map(|i| (1e-9, 7.51 * (1.0 - f64::from(i) * 1e-6) * 1e-10)));
    parts.push((1.0, 0.5));
    let [walk, sweep] = lead_corner("costs below an ulp", &hand_built(cubic_ideal(), &parts));
    assert_eq!(walk, [1, 2, 3, 4, 5, 6]);
    assert_eq!(sweep, [1, 2]);
}

#[test]
fn scaled_dp_matches_the_full_width_table() {
    let mut solves = 0;
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for (n, load, epsilon) in [
                (10, 1.5, 0.01),
                (30, 1.2, 0.1),
                (30, 3.0, 0.05),
                (60, 2.0, 0.2),
            ] {
                for workload_seed in 0..3 {
                    let inst = instance(&cpu, penalty, n, load, workload_seed);
                    let reference = reference_scaled_dp(&inst, epsilon);
                    let library = ScaledDp::new(epsilon).unwrap().solve(&inst).unwrap();
                    let what = format!(
                        "{name} penalty#{p} n={n} load={load} ε={epsilon} seed={workload_seed}"
                    );
                    assert_same(&what, &library, &reference);
                    solves += 1;
                }
            }
        }
    }
    assert_eq!(solves, 14 * 3 * 4 * 3);
}

/// The benchmark's `ScaledDp` entries: n = 200 XScale tasks with
/// utilization-proportional penalties, `ε` chosen so the table has about
/// 20 000 value levels, at loads 1.2 and 3.0.
#[test]
fn scaled_dp_matches_the_full_width_table_on_basket_shaped_instances() {
    for load in [1.2, 3.0] {
        for workload_seed in 0..3 {
            let inst = instance(&xscale_ideal(), PENALTIES[1], 200, load, workload_seed);
            let largest = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
            let epsilon = 200.0 * inst.total_penalty() / (largest * 20_000.0);
            let reference = reference_scaled_dp(&inst, epsilon);
            let library = ScaledDp::new(epsilon).unwrap().solve(&inst).unwrap();
            let what = format!("basket n=200 load={load} seed={workload_seed}");
            assert_same(&what, &library, &reference);
        }
    }
}

#[test]
fn budget_dp_matches_the_full_width_table() {
    let mut solves = 0;
    let mut binding = 0;
    for (name, cpu) in processors() {
        for (p, &penalty) in PENALTIES.iter().enumerate() {
            for (n, load, epsilon) in [(10, 1.5, 0.01), (30, 2.0, 0.1), (40, 3.0, 0.2)] {
                for workload_seed in 0..2 {
                    let inst = instance(&cpu, penalty, n, load, workload_seed);
                    let s_max = inst.processor().max_speed();
                    let full = inst.energy_for(s_max).unwrap();
                    for share in [0.0, 0.1, 0.4, 0.9] {
                        let budget = share * full;
                        if utilization_cap_for_budget(&inst, budget).unwrap() < s_max {
                            binding += 1;
                        }
                        let library = solve_budget_dp(&inst, budget, epsilon).unwrap();
                        let reference = reference_budget_dp(&inst, budget, epsilon);
                        assert_eq!(
                            library.accepted(),
                            reference,
                            "{name} penalty#{p} n={n} load={load} ε={epsilon} \
                             seed={workload_seed} budget={share}·E*(s_max)"
                        );
                        solves += 1;
                    }
                }
            }
        }
    }
    assert_eq!(solves, 14 * 3 * 3 * 2 * 4);
    assert!(
        binding * 10 >= solves * 9,
        "{binding} of {solves} caps bind"
    );
}

/// `(workload seed, load, node budget, nodes used, degraded, cost bits)`
/// for `ScaledDp(0.05)` on 40 XScale tasks with utilization-proportional
/// penalties: budgets that expire before the first layer, mid-table and
/// one short of the whole table, and the whole table (the meter charges a
/// layer's full width `V̂+1−wᵢ` before running it, so `nodes used` may pass
/// the budget by one layer). Recorded from the full-width table; an
/// expired table loses to the greedy seed on all but the last budgets.
#[rustfmt::skip]
const BUDGET_PINS: &[(u64, f64, u64, u64, bool, u64)] = &[
    (0, 1.2, 1, 6851, true, 0x409236049fb66b52),
    (0, 1.2, 66044, 68056, true, 0x409236049fb66b52),
    (0, 1.2, 132088, 135120, true, 0x409236049fb66b52),
    (0, 1.2, 198132, 203587, true, 0x409236049fb66b52),
    (0, 1.2, 264176, 264177, true, 0x409236049fb66b52),
    (0, 1.2, 264177, 264177, false, 0x409236049fb66b52),
    (0, 3.0, 1, 6851, true, 0x40af752f2e113c80),
    (0, 3.0, 66044, 68056, true, 0x40af752f2e113c80),
    (0, 3.0, 132088, 135120, true, 0x40af752f2e113c80),
    (0, 3.0, 198132, 203587, true, 0x40af752f2e113c80),
    (0, 3.0, 264176, 264177, true, 0x40af752f2e113c80),
    (0, 3.0, 264177, 264177, false, 0x40af752f2e113c80),
    (1, 1.2, 1, 8370, true, 0x4092efff09fba612),
    (1, 1.2, 82339, 82460, true, 0x4092efff09fba612),
    (1, 1.2, 164678, 172409, true, 0x4092efff09fba612),
    (1, 1.2, 247017, 247191, true, 0x4092efff09fba612),
    (1, 1.2, 329355, 329356, true, 0x4092efff09fba612),
    (1, 1.2, 329356, 329356, false, 0x4092efff09fba612),
    (1, 3.0, 1, 8369, true, 0x40b027a47feadf17),
    (1, 3.0, 82329, 82450, true, 0x40b027a47feadf17),
    (1, 3.0, 164658, 172389, true, 0x40b027a47feadf17),
    (1, 3.0, 246987, 247162, true, 0x40b027a47feadf17),
    (1, 3.0, 329316, 329317, true, 0x40b027a47feadf17),
    (1, 3.0, 329317, 329317, false, 0x40b027a47feadf17),
    (2, 1.2, 1, 7176, true, 0x4090f998ce0d645b),
    (2, 1.2, 70376, 72500, true, 0x4090f998ce0d645b),
    (2, 1.2, 140752, 144299, true, 0x4090f998ce0d645b),
    (2, 1.2, 211128, 216341, true, 0x4090f998ce0d645b),
    (2, 1.2, 281504, 281505, true, 0x4090f2006e649d56),
    (2, 1.2, 281505, 281505, false, 0x4090f2006e649d56),
    (2, 3.0, 1, 7177, true, 0x40ad2c5d6f22b0be),
    (2, 3.0, 70385, 72510, true, 0x40ad2c5d6f22b0be),
    (2, 3.0, 140771, 144318, true, 0x40ad2c5d6f22b0be),
    (2, 3.0, 211157, 216370, true, 0x40ad2c5d6f22b0be),
    (2, 3.0, 281542, 281543, true, 0x40ad2c5d6f22b0be),
    (2, 3.0, 281543, 281543, false, 0x40ad2c5d6f22b0be),
];

#[test]
fn scaled_dp_budgeted_work_and_costs_are_pinned() {
    for &(seed, load, nodes, used, degraded, bits) in BUDGET_PINS {
        let inst = instance(&xscale_ideal(), PENALTIES[1], 40, load, seed);
        let out = ScaledDp::new(0.05)
            .unwrap()
            .solve_within(&inst, &SolveBudget::nodes(nodes))
            .unwrap();
        assert_eq!(
            out.nodes_used, used,
            "seed {seed} load {load} budget {nodes}"
        );
        assert_eq!(out.quality == SolveQuality::Degraded, degraded);
        assert_eq!(out.solution.cost().to_bits(), bits);
    }
}

#[test]
fn scaled_dp_level_array_is_capped() {
    // One task at ε = 1e-9 scales to 10⁹ value levels: a 256 MiB bit table
    // but an 8 GB level array.
    let tasks =
        rt_model::TaskSet::try_from_tasks(vec![Task::new(0, 3.0, 10).unwrap().with_penalty(5.0)])
            .unwrap();
    let inst = Instance::new(tasks, xscale_ideal()).unwrap();
    let dp = ScaledDp::new(1e-9).unwrap();
    assert!(matches!(
        dp.solve(&inst),
        Err(reject_sched::SchedError::TooLarge { .. })
    ));
    let out = dp.solve_within(&inst, &SolveBudget::unlimited()).unwrap();
    let greedy = MarginalGreedy.solve(&inst).unwrap();
    assert_eq!(out.quality, SolveQuality::Degraded);
    assert_eq!(out.solution.accepted(), greedy.accepted());
}

/// `Solution`'s constructor as two walks of a position mask: `U(A)` and
/// `Σ_{i ∈ A} vᵢ` over the marked positions in position order, and the
/// ids read off an `(id, position)` table sorted by id.
fn two_walks(inst: &Instance, marks: &[bool]) -> (f64, f64, Vec<TaskId>) {
    let marked = inst.tasks().iter().zip(marks).filter(|(_, &m)| m);
    let (u, v) = marked.fold((0.0, 0.0), |(u, v), (t, _)| {
        (u + t.utilization(), v + t.penalty())
    });
    let mut table: Vec<(TaskId, usize)> = (inst.tasks().iter().enumerate())
        .map(|(p, t)| (t.id(), p))
        .collect();
    table.sort_unstable();
    let ids = table.iter().filter(|&&(_, p)| marks[p]).map(|&(id, _)| id);
    (u, v, ids.collect())
}

/// n = 2 000 XScale tasks as the benchmark's greedy and sweep entries
/// draw them, at loads 0.6 (the full set fits) and 1.2, with ids that
/// ascend in position order and with the same ids shuffled (the
/// constructor's sort path). Each mask — empty (`+0` sums), one task,
/// about half the tasks at random, all of them, and the masks of
/// `MarginalGreedy` and `DensitySweep` — is priced through the public
/// oracles and `Solution::for_accepted`, and compared with the two walks
/// on ids and sum bits.
#[test]
fn solution_constructor_matches_the_two_walks_at_basket_scale() {
    let n = 2_000;
    let mut rng = Rng::seed_from_u64(53);
    let mut solved = 0;
    for load in [0.6, 1.2] {
        let tasks = WorkloadSpec::new(n, load)
            .penalty_model(PenaltyModel::UtilizationProportional {
                scale: 1.6,
                jitter: 0.5,
            })
            .seed(11)
            .generate()
            .unwrap();
        let mut shuffled: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.gen_index(i + 1));
        }
        for ids in [(0..n).collect::<Vec<_>>(), shuffled] {
            let ascending = ids.is_sorted();
            let tasks = TaskSet::try_from_tasks(tasks.iter().zip(&ids).map(|(t, &id)| {
                Task::new(id, t.wcec(), t.period())
                    .unwrap()
                    .with_penalty(t.penalty())
            }))
            .unwrap();
            let inst = Instance::new(tasks, xscale_ideal()).unwrap();
            let position: std::collections::HashMap<TaskId, usize> = (inst.tasks().iter())
                .enumerate()
                .map(|(p, t)| (t.id(), p))
                .collect();
            let marks_of = |s: Solution| {
                let mut marks = vec![false; n];
                s.accepted()
                    .iter()
                    .for_each(|id| marks[position[id]] = true);
                marks
            };
            let mut single = vec![false; n];
            single[n / 3] = true;
            let masks = [
                ("empty", vec![false; n]),
                ("single", single),
                ("random", (0..n).map(|_| rng.gen_index(2) == 1).collect()),
                ("full", vec![true; n]),
                ("greedy", marks_of(MarginalGreedy.solve(&inst).unwrap())),
                ("sweep", marks_of(DensitySweep.solve(&inst).unwrap())),
            ];
            for (mask, marks) in masks {
                let what = format!("load {load}, ascending ids {ascending}, {mask}");
                let (u, v, want) = two_walks(&inst, &marks);
                let named: Vec<TaskId> = (inst.tasks().iter().zip(&marks))
                    .filter(|(_, &m)| m)
                    .map(|(t, _)| t.id())
                    .collect();
                let rejected = inst.total_penalty() - v;
                let utilization = inst.utilization_of(&named).unwrap();
                assert_eq!(utilization.to_bits(), u.to_bits(), "{what}: U(A)");
                let penalty = inst.rejected_penalty_of(&named).unwrap();
                assert_eq!(penalty.to_bits(), rejected.to_bits(), "{what}: penalty");
                match Solution::for_accepted(&inst, "two-walks", named) {
                    Ok(s) => {
                        assert_eq!(s.accepted(), want, "{what}: ids");
                        let energy = inst.energy_for(u).unwrap();
                        assert_eq!(s.energy().to_bits(), energy.to_bits(), "{what}: energy");
                        assert_eq!(s.penalty().to_bits(), rejected.to_bits(), "{what}");
                        solved += 1;
                    }
                    Err(SchedError::Power(_)) => {
                        assert!(!inst.processor().is_feasible(u), "{what}: fits");
                    }
                    Err(e) => panic!("{what}: {e}"),
                }
                if mask == "empty" {
                    assert_eq!(utilization.to_bits(), 0.0f64.to_bits(), "{what}: +0");
                }
            }
        }
    }
    // Only the full set at load 1.2 does not fit, with either id order.
    assert_eq!(solved, 2 * 2 * 6 - 2);
}
