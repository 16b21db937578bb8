//! Greedy heuristics and baselines.

use rt_model::{Task, TaskId};

use crate::algorithms::RejectionPolicy;
use crate::{Instance, SchedError, Solution};

/// Sorts tasks by penalty density `vᵢ/uᵢ` descending (most valuable per unit
/// of capacity first); ties broken by identifier for determinism.
fn by_density_desc(tasks: &mut [Task]) {
    tasks.sort_by(|a, b| {
        b.penalty_density()
            .partial_cmp(&a.penalty_density())
            .expect("densities are not NaN")
            .then(a.id().index().cmp(&b.id().index()))
    });
}

/// Baseline that rejects every task: cost = `Σ vᵢ`, zero energy.
///
/// Serves as the degenerate upper bound every sensible algorithm must beat
/// whenever accepting anything is worthwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectAll;

impl RejectionPolicy for RejectAll {
    fn name(&self) -> &'static str {
        "reject-all"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        Solution::for_accepted(instance, self.name(), [])
    }
}

/// Baseline that accepts everything it can: tasks are dropped in ascending
/// penalty-density order *only* until the remainder fits on the processor.
/// No energy reasoning — this is what a deadline-only admission controller
/// would do, and the natural straw man for the energy-aware heuristics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptAllFeasible;

impl RejectionPolicy for AcceptAllFeasible {
    fn name(&self) -> &'static str {
        "accept-all-feasible"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        // Keep the densest prefix that fits (cached canonical order).
        let tasks = instance.density_order();
        let mut u = 0.0;
        let mut accepted = Vec::with_capacity(tasks.len());
        for t in tasks {
            if instance.processor().is_feasible(u + t.utilization()) {
                u += t.utilization();
                accepted.push(t.id());
            }
        }
        Solution::for_accepted(instance, self.name(), accepted)
    }
}

/// Density-ordered rejection with a cost check (descending greedy).
///
/// Starts from the [`AcceptAllFeasible`] acceptance, then walks the accepted
/// tasks in *ascending* density order and rejects each one whose rejection
/// lowers the total cost (penalty paid < energy saved). A single ascending
/// pass suffices: by convexity of `E*`, the energy saved by removing a task
/// only shrinks as the accepted utilization drops, so once a rejection stops
/// paying off, later (denser) ones cannot pay off either — except through
/// penalty heterogeneity, which the explicit cost check handles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensityGreedy;

impl RejectionPolicy for DensityGreedy {
    fn name(&self) -> &'static str {
        "density-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let seed = AcceptAllFeasible.solve(instance)?;
        let mut accepted: Vec<Task> = seed
            .accepted()
            .iter()
            .map(|id| *instance.tasks().get(*id).expect("seed ids are valid"))
            .collect();
        by_density_desc(&mut accepted);
        accepted.reverse(); // ascending density: cheapest-to-reject first
        let mut u: f64 = accepted.iter().map(Task::utilization).sum();
        let mut keep: Vec<TaskId> = Vec::with_capacity(accepted.len());
        for t in &accepted {
            // Energy saved by rejecting t from the current acceptance.
            // (Clamp: float cancellation can leave a tiny negative rest.)
            let rest = (u - t.utilization()).max(0.0);
            let saved = instance.marginal_energy(rest, t.utilization())?;
            if t.penalty() < saved {
                u = rest; // reject
            } else {
                keep.push(t.id());
            }
        }
        Solution::for_accepted(instance, self.name(), keep)
    }
}

/// Ascending construction: consider tasks in descending penalty density and
/// accept each one whose penalty exceeds the marginal energy of serving it
/// (and which still fits).
///
/// This is the paper-style myopic heuristic: it reasons about the *marginal*
/// trade `ΔE = E*(U+uᵢ) − E*(U)` versus `vᵢ` at every step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarginalGreedy;

impl RejectionPolicy for MarginalGreedy {
    fn name(&self) -> &'static str {
        "marginal-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let tasks = instance.density_order();
        let mut u = 0.0;
        let mut accepted = Vec::with_capacity(tasks.len());
        for t in tasks {
            if !instance.processor().is_feasible(u + t.utilization()) {
                continue;
            }
            let delta = instance.marginal_energy(u, t.utilization())?;
            if t.penalty() >= delta {
                u += t.utilization();
                accepted.push(t.id());
            }
        }
        Solution::for_accepted(instance, self.name(), accepted)
    }
}

/// Exact optimum over the restricted space "reject at most one task"
/// (plus the all-rejected fallback), in `O(n)` cost evaluations.
///
/// On lightly loaded instances where at most one task is mispriced this is
/// already optimal; combined with a constructive greedy it yields the
/// S-GREEDY-style [`SafeGreedy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestOfSingle;

impl RejectionPolicy for BestOfSingle {
    fn name(&self) -> &'static str {
        "best-of-single"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let all: Vec<TaskId> = instance.tasks().iter().map(Task::id).collect();
        // Scan order: the full set, then each leave-one-out set; the
        // earliest strictly best wins.
        let mut best = Solution::for_accepted(instance, self.name(), [])?;
        for skip in std::iter::once(None).chain(all.iter().map(Some)) {
            let ids = all.iter().copied().filter(|id| Some(id) != skip);
            match Solution::for_accepted(instance, self.name(), ids) {
                Ok(s) if s.cost() < best.cost() => best = s,
                // Infeasible candidates are simply skipped.
                Ok(_) | Err(SchedError::Power(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(best)
    }
}

/// Exact optimum over the restricted space of **density prefixes**: for
/// every `k`, evaluate accepting the `k` densest feasible tasks, and return
/// the best. `O(n)` cost evaluations after one sort.
///
/// This is the Lagrangian view of the problem: pricing capacity at `λ`
/// accepts exactly the tasks with `vᵢ/uᵢ ≥ λ`, i.e. a density prefix;
/// sweeping `λ` over its `n` breakpoints explores the whole dual family.
/// Exact for identical tasks (every subset is a prefix up to symmetry) and
/// a strong heuristic in general — only the knapsack-style packing residual
/// (which subset sums are reachable) separates it from the optimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensitySweep;

impl RejectionPolicy for DensitySweep {
    fn name(&self) -> &'static str {
        "density-sweep"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let tasks = instance.density_order();
        let (pu, pv) = instance.density_prefix();
        let l = instance.hyper_period() as f64;
        let total_penalty = instance.total_penalty();
        let s_max = instance.processor().max_speed();
        // A strict prefix that no longer fits makes every longer prefix
        // infeasible as well (they all contain this task), so the sweep
        // covers prefixes `1..=kmax` only.
        let mut kmax = 0;
        for (k, t) in tasks.iter().enumerate() {
            if pu[k] + t.utilization() > s_max * (1.0 + 1e-9) {
                break;
            }
            kmax = k + 1;
        }
        let mut best: (f64, usize) = (total_penalty, 0); // empty prefix
        for k in 1..=kmax {
            let rate = instance
                .energy_rate(pu[k].min(s_max))
                .map_err(SchedError::Power)?;
            let cost = rate * l + total_penalty - pv[k];
            if cost < best.0 {
                best = (cost, k);
            }
        }
        let accepted: Vec<TaskId> = tasks[..best.1].iter().map(Task::id).collect();
        Solution::for_accepted(instance, self.name(), accepted)
    }
}

/// The better of [`MarginalGreedy`] and [`BestOfSingle`] — the classic
/// guard combination: the constructive greedy handles deep overload, the
/// reject-at-most-one scan handles the regime where greedy's density order
/// is misleading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafeGreedy;

impl RejectionPolicy for SafeGreedy {
    fn name(&self) -> &'static str {
        "safe-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let a = MarginalGreedy.solve(instance)?;
        let b = BestOfSingle.solve(instance)?;
        let pick = if a.cost() <= b.cost() { a } else { b };
        // Rebrand under this policy's name via reconstruction.
        Solution::for_accepted(instance, self.name(), pick.accepted().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::TaskSet;

    fn instance(parts: &[(f64, u64, f64)]) -> Instance {
        let tasks = TaskSet::try_from_tasks(
            parts
                .iter()
                .enumerate()
                .map(|(i, &(c, p, v))| Task::new(i, c, p).unwrap().with_penalty(v)),
        )
        .unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    #[test]
    fn reject_all_costs_total_penalty() {
        let inst = instance(&[(2.0, 10, 1.0), (3.0, 10, 2.0)]);
        let s = RejectAll.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        assert!((s.cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn accept_all_feasible_keeps_everything_underload() {
        let inst = instance(&[(2.0, 10, 1.0), (3.0, 10, 2.0)]);
        let s = AcceptAllFeasible.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 2);
        assert!((s.penalty() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn accept_all_feasible_drops_cheap_tasks_under_overload() {
        // u = 0.8 + 0.8: only one fits; the denser (higher v/u) survives.
        let inst = instance(&[(8.0, 10, 1.0), (8.0, 10, 5.0)]);
        let s = AcceptAllFeasible.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(1)]);
    }

    #[test]
    fn marginal_greedy_rejects_unprofitable_tasks() {
        // Heavy task with negligible penalty: energy to run it (≈ E(0.9))
        // far exceeds v = 0.01 → reject even though it fits.
        let inst = instance(&[(9.0, 10, 0.01)]);
        let s = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        // Same task but precious → accept.
        let inst = instance(&[(9.0, 10, 100.0)]);
        let s = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 1);
    }

    #[test]
    fn density_greedy_prunes_beyond_feasibility() {
        // Both fit together (u = 0.5+0.4), but the light-penalty one is not
        // worth its energy.
        let inst = instance(&[(5.0, 10, 50.0), (4.0, 10, 0.05)]);
        let s = DensityGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(0)]);
    }

    #[test]
    fn best_of_single_finds_the_one_bad_apple() {
        let inst = instance(&[(3.0, 10, 9.0), (3.0, 10, 8.0), (3.0, 10, 0.001)]);
        let s = BestOfSingle.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(0), TaskId::new(1)]);
    }

    #[test]
    fn best_of_single_accepts_all_when_everything_is_precious() {
        let inst = instance(&[(3.0, 10, 9.0), (3.0, 10, 8.0)]);
        let s = BestOfSingle.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 2);
    }

    #[test]
    fn safe_greedy_at_least_as_good_as_components() {
        for inst in crate::algorithms::test_support::standard_instances() {
            let sg = SafeGreedy.solve(&inst).unwrap().cost();
            let mg = MarginalGreedy.solve(&inst).unwrap().cost();
            let bs = BestOfSingle.solve(&inst).unwrap().cost();
            assert!(sg <= mg + 1e-9 && sg <= bs + 1e-9);
        }
    }

    #[test]
    fn unacceptable_tasks_are_auto_rejected() {
        // u = 1.5 can never fit on s_max = 1.
        let inst = instance(&[(15.0, 10, 100.0), (1.0, 10, 1.0)]);
        for policy in [
            &MarginalGreedy as &dyn RejectionPolicy,
            &DensityGreedy,
            &AcceptAllFeasible,
        ] {
            let s = policy.solve(&inst).unwrap();
            assert!(
                !s.accepts(TaskId::new(0)),
                "{} accepted impossible task",
                policy.name()
            );
        }
    }

    #[test]
    fn greedy_respects_critical_speed_economics() {
        // On a leaky CPU, tiny tasks cost at least e* = P(s*)/s* per cycle.
        // A task whose penalty is below that should be rejected.
        let cpu = xscale_ideal();
        let e_star = {
            let s = cpu.critical_speed();
            cpu.power().power(s) / s
        };
        let cycles = 1.0;
        let cheap = TaskSet::try_from_tasks(vec![Task::new(0, cycles, 100)
            .unwrap()
            .with_penalty(0.5 * e_star * cycles)])
        .unwrap();
        let inst = Instance::new(cheap, cpu.clone()).unwrap();
        assert_eq!(MarginalGreedy.solve(&inst).unwrap().accepted().len(), 0);

        let dear = TaskSet::try_from_tasks(vec![Task::new(0, cycles, 100)
            .unwrap()
            .with_penalty(2.0 * e_star * cycles)])
        .unwrap();
        let inst = Instance::new(dear, cpu).unwrap();
        assert_eq!(MarginalGreedy.solve(&inst).unwrap().accepted().len(), 1);
    }

    #[test]
    fn density_sweep_explores_all_prefixes() {
        // Three equal-density tasks; the best prefix length depends on the
        // energy curve: accepting two of three is optimal here.
        let inst = instance(&[(4.0, 10, 2.0), (4.0, 10, 2.0), (4.0, 10, 2.0)]);
        // Prefix costs (L = 10, P = s³): k=0 → 6.0; k=1 → 0.64+4 = 4.64;
        // k=2 → 5.12+2 = 7.12... recompute: E(0.4)=10·0.064=0.64;
        // E(0.8)=10·0.512=5.12; k=3 infeasible (U=1.2).
        let s = DensitySweep.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 1);
        assert!((s.cost() - 4.64).abs() < 1e-9);
    }

    #[test]
    fn density_sweep_optimal_for_identical_tasks() {
        use crate::algorithms::Exhaustive;
        // With identical tasks every subset is (up to symmetry) a prefix,
        // so the sweep is exact for any penalty level k.
        for k in 1..6 {
            let parts: Vec<(f64, u64, f64)> = (0..8).map(|_| (1.0, 10, 0.1 * k as f64)).collect();
            let inst = instance(&parts);
            let sweep = DensitySweep.solve(&inst).unwrap().cost();
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            assert!(
                (sweep - opt).abs() < 1e-9,
                "k = {k}: sweep {sweep} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn density_sweep_near_optimal_for_equal_densities() {
        use crate::algorithms::Exhaustive;
        // Equal densities but different sizes: the capacity constraint
        // makes subset *packing* matter, so prefixes are only near-optimal
        // (they can land between two achievable utilization levels).
        for k in 1..6 {
            let parts: Vec<(f64, u64, f64)> = (0..8)
                .map(|i| ((i + 1) as f64, 10, (i + 1) as f64 * k as f64))
                .collect();
            let inst = instance(&parts);
            let sweep = DensitySweep.solve(&inst).unwrap().cost();
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            assert!(sweep >= opt - 1e-9);
            assert!(
                sweep <= opt * 1.1 + 1e-9,
                "k = {k}: sweep {sweep} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let inst = instance(&[(5.0, 10, 1.0), (5.0, 10, 1.0), (5.0, 10, 1.0)]);
        let a = MarginalGreedy.solve(&inst).unwrap();
        let b = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(a, b);
    }
}
