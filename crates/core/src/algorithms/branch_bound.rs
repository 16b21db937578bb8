//! Exact branch & bound with convex-relaxation pruning.

use crate::algorithms::greedy::marginal_walk;
use crate::algorithms::RejectionPolicy;
use crate::anytime::{AnytimeSolution, BudgetMeter, BudgetedPolicy, SolveBudget, SolveQuality};
use crate::bounds::relaxed_cost;
use crate::{Instance, SchedError, Solution, View};

/// Exact solver: depth-first branch & bound over accept/reject decisions,
/// pruned by the fractional (convex-relaxation) lower bound of
/// [`bounds`](crate::bounds) and seeded with the
/// [`MarginalGreedy`](crate::algorithms::MarginalGreedy) incumbent.
///
/// Tasks are branched in descending penalty-density order with the *accept*
/// branch explored first, so the greedy solution is rediscovered on the
/// leftmost path and the relaxation prunes aggressively. There is no size
/// limit: on generated workloads thousands of tasks solve exactly in
/// milliseconds, but worst-case complexity remains exponential — the
/// problem is NP-hard ([`hardness`](crate::hardness)). A
/// [`SolveBudget`] node cap is the guard against hard instances
/// ([`BudgetedPolicy::solve_within`]). The search keeps its pending
/// branches on the heap, so its thread stack use does not grow with `n`.
///
/// Every entry point runs [`BranchBound::search`] on a [`View`]: the
/// offline ones on [`Instance::view`], an online engine on the standing
/// set it keeps in density order.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::BranchBound;
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(40, 1.8).seed(4).generate()?, cubic_ideal())?;
/// let opt = BranchBound.solve(&inst)?;
/// opt.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchBound;

/// Solution label of the budgeted entry points.
const ANYTIME_NAME: &str = "anytime-branch-bound";

struct Search<'a> {
    view: &'a View<'a>,
    /// Cost to beat: the seed's cost until a strictly cheaper leaf is found.
    incumbent: f64,
    /// The leaf that set `incumbent` (`None` while the seed still holds it).
    best_accept: Option<Vec<bool>>,
    current: Vec<bool>,
    /// Work budget; unlimited for the plain (non-anytime) solve.
    meter: BudgetMeter,
}

impl Search<'_> {
    fn quality(&self) -> SolveQuality {
        if self.meter.expired() {
            SolveQuality::Degraded
        } else {
            SolveQuality::Exact
        }
    }

    fn energy(&self, u: f64) -> f64 {
        self.view
            .energy(u)
            .expect("search only visits feasible utilizations")
    }

    /// Depth-first search from the root. The accept branch is descended
    /// in place; each node's reject branch waits on `pending` as
    /// `(depth, u, avoided)`, so nodes are visited (and charged) in the
    /// order of the recursive accept-first search.
    fn dfs(&mut self) -> Result<(), SchedError> {
        let tasks = self.view.order;
        let total_penalty = self.view.total_penalty;
        let mut pending = vec![(0, 0.0, 0.0)];
        while let Some((mut i, mut u, mut avoided)) = pending.pop() {
            if i > 0 {
                self.current[i - 1] = false;
            }
            loop {
                if !self.meter.charge(1) {
                    // Budget spent: stop, keeping the incumbent found so far.
                    return Ok(());
                }
                if i == tasks.len() {
                    let cost = self.energy(u) + total_penalty - avoided;
                    if cost < self.incumbent {
                        self.incumbent = cost;
                        self.best_accept = Some(self.current.clone());
                    }
                    break;
                }
                // Relaxation over the undecided suffix; decided rejections
                // cost (total − avoided − suffix) on top.
                let relaxed = relaxed_cost(self.view, u, i)?;
                let fixed_rejected = total_penalty - avoided - relaxed.penalty;
                if fixed_rejected + relaxed.cost >= self.incumbent - 1e-12 {
                    break;
                }
                let t = tasks[i];
                pending.push((i + 1, u, avoided));
                if !self.view.cpu.is_feasible(u + t.utilization()) {
                    break;
                }
                self.current[i] = true;
                u += t.utilization();
                avoided += t.penalty();
                i += 1;
            }
        }
        Ok(())
    }
}

impl RejectionPolicy for BranchBound {
    fn name(&self) -> &'static str {
        "branch-bound"
    }

    /// # Errors
    ///
    /// Pricing errors from the instance's power model ([`SchedError`]).
    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let search = self.budgeted_search(instance, &SolveBudget::unlimited(), None, self.name());
        Ok(search?.solution)
    }
}

impl BranchBound {
    /// Warm-started budgeted solve: like
    /// [`solve_within`](BudgetedPolicy::solve_within), but the incumbent is
    /// additionally seeded with a *known* solution. A tighter initial bound
    /// prunes more subtrees under the same node budget, so the warm search
    /// never visits more nodes than the cold one.
    ///
    /// When the search completes within budget the returned solution is
    /// optimal either way; the warm seed only matters on ties (where it is
    /// kept).
    ///
    /// `warm` must be a solution of `instance` (built with
    /// [`Solution::for_accepted`] on it); only its cost and accepted set
    /// are read.
    ///
    /// # Errors
    ///
    /// Pricing errors from the instance's power model ([`SchedError`]).
    pub fn solve_within_seeded(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
        warm: &Solution,
    ) -> Result<AnytimeSolution, SchedError> {
        self.budgeted_search(instance, budget, Some(warm), ANYTIME_NAME)
    }

    /// The instance entry points' driver: [`BranchBound::search`] on
    /// [`Instance::view`], pricing accepted sets as [`Solution`]s of
    /// `instance` named `name`. [`solve`](RejectionPolicy::solve) is its
    /// unlimited, cold case.
    fn budgeted_search(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
        warm: Option<&Solution>,
        name: &'static str,
    ) -> Result<AnytimeSolution, SchedError> {
        let view = instance.view();
        let out = self.search(&view, budget, warm.cloned(), Solution::cost, |accept| {
            let accepted = view.order.iter().zip(accept).filter(|(_, a)| *a);
            Solution::for_accepted(instance, name, accepted.map(|(t, _)| t.id()))
        })?;
        Ok(AnytimeSolution {
            solution: out.solution.relabelled(name),
            ..out
        })
    }

    /// The one search: budgeted branch & bound over `view`.
    ///
    /// An accepted set is a mask over `view.order`. `price` prices one the
    /// way the view's owner sums its costs (an [`Instance`] in
    /// task-position order), as an `S` whose cost `cost` reads. The best
    /// known solution before searching is the marginal greedy's set,
    /// tightened by `warm` only when that is strictly cheaper — on ties the
    /// greedy is kept, so warm and cold runs that finish within budget
    /// return the same set. A leaf replaces it only when strictly cheaper,
    /// and is priced once, at the end; otherwise the seed is returned as it
    /// was priced.
    ///
    /// # Errors
    ///
    /// Pricing errors from the view's power model or from `price`.
    pub fn search<S>(
        &self,
        view: &View<'_>,
        budget: &SolveBudget,
        warm: Option<S>,
        cost: impl Fn(&S) -> f64,
        mut price: impl FnMut(Vec<bool>) -> Result<S, SchedError>,
    ) -> Result<AnytimeSolution<S>, SchedError> {
        let greedy = price(marginal_walk(view.order, view.cpu, |u| view.energy(u))?.accept)?;
        let seed = match warm {
            Some(w) if cost(&w) < cost(&greedy) => w,
            _ => greedy,
        };
        let mut search = Search {
            view,
            incumbent: cost(&seed),
            best_accept: None,
            current: vec![false; view.order.len()],
            meter: BudgetMeter::new(budget),
        };
        search.dfs()?;
        let (quality, nodes_used) = (search.quality(), search.meter.used());
        let solution = match search.best_accept {
            Some(accept) => price(accept)?,
            None => seed,
        };
        Ok(AnytimeSolution {
            solution,
            quality,
            nodes_used,
        })
    }
}

impl BudgetedPolicy for BranchBound {
    /// Budgeted (anytime) branch & bound: the DFS is charged one work unit
    /// per visited node, so node budgets are bit-reproducible. On expiry
    /// the search stops and the best incumbent — seeded with
    /// [`MarginalGreedy`](crate::algorithms::MarginalGreedy) — is returned.
    ///
    /// # Errors
    ///
    /// Pricing errors from the instance's power model ([`SchedError`]).
    fn solve_within(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
    ) -> Result<AnytimeSolution, SchedError> {
        self.budgeted_search(instance, budget, None, ANYTIME_NAME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Exhaustive, MarginalGreedy};
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::generator::{PenaltyModel, WorkloadSpec};
    use rt_model::TaskId;

    #[test]
    fn agrees_with_exhaustive_across_models() {
        for seed in 0..8 {
            for cpu in [cubic_ideal(), xscale_ideal()] {
                let tasks = WorkloadSpec::new(12, 1.6)
                    .penalty_model(PenaltyModel::Uniform { lo: 0.05, hi: 0.8 })
                    .seed(seed)
                    .generate()
                    .unwrap();
                let inst = Instance::new(tasks, cpu).unwrap();
                let a = Exhaustive::default().solve(&inst).unwrap().cost();
                let b = BranchBound.solve(&inst).unwrap().cost();
                assert!((a - b).abs() < 1e-6 * a.max(1.0), "seed {seed}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn never_worse_than_its_greedy_seed() {
        for seed in 0..5 {
            let tasks = WorkloadSpec::new(30, 2.4).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let greedy = MarginalGreedy.solve(&inst).unwrap().cost();
            let bb = BranchBound.solve(&inst).unwrap().cost();
            assert!(bb <= greedy + 1e-9);
        }
    }

    #[test]
    fn solves_forty_tasks() {
        let tasks = WorkloadSpec::new(40, 2.0).seed(11).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let s = BranchBound.solve(&inst).unwrap();
        s.verify(&inst).unwrap();
    }

    #[test]
    fn warm_start_matches_cold_and_visits_no_more_nodes() {
        use crate::anytime::SolveBudget;
        for seed in 0..6 {
            let tasks = WorkloadSpec::new(18, 2.2).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let budget = SolveBudget::nodes(1_000_000);
            let cold = BranchBound.solve_within(&inst, &budget).unwrap();
            // Warm-start with the optimum itself: the result must be the
            // same solution (bitwise cost) with no more nodes visited.
            let warm = BranchBound
                .solve_within_seeded(&inst, &budget, &cold.solution)
                .unwrap();
            assert_eq!(
                warm.solution.cost().to_bits(),
                cold.solution.cost().to_bits(),
                "seed {seed}"
            );
            assert!(warm.nodes_used <= cold.nodes_used, "seed {seed}");
            // An empty warm seed degenerates to the cold search exactly.
            let empty = Solution::for_accepted(&inst, "empty", Vec::new()).unwrap();
            let none = BranchBound
                .solve_within_seeded(&inst, &budget, &empty)
                .unwrap();
            assert_eq!(none, cold);
        }
    }

    #[test]
    fn warm_start_with_unknown_id_errors() {
        // A warm seed naming a task the instance lacks is refused when it
        // is built, before any search.
        let tasks = WorkloadSpec::new(8, 1.5).seed(0).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let warm = Solution::for_accepted(&inst, "warm", vec![TaskId::new(999)]);
        assert!(warm.is_err());
    }

    #[test]
    fn two_thousand_tasks_solve_exactly_on_a_small_stack() {
        // Recursion one frame per task would overflow this 128 KiB stack;
        // the search keeps its pending branches on the heap.
        let solve = std::thread::Builder::new()
            .stack_size(128 * 1024)
            .spawn(|| {
                let tasks = WorkloadSpec::new(2_000, 0.8).seed(1).generate().unwrap();
                let inst = Instance::new(tasks, xscale_ideal()).unwrap();
                let out = BranchBound
                    .solve_within(&inst, &SolveBudget::unlimited())
                    .unwrap();
                out.solution.verify(&inst).unwrap();
                out
            })
            .unwrap();
        let out = solve.join().expect("search thread");
        assert_eq!(out.quality, SolveQuality::Exact);
        assert!(out.nodes_used > 2_000, "{} nodes", out.nodes_used);
    }
}
