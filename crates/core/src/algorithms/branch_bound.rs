//! Exact branch & bound with convex-relaxation pruning.

use rt_model::Task;

use crate::algorithms::{MarginalGreedy, RejectionPolicy};
use crate::anytime::{AnytimeSolution, BudgetMeter, BudgetedPolicy, SolveBudget, SolveQuality};
use crate::bounds::relaxed_cost;
use crate::{Instance, SchedError, Solution};

/// Exact solver: depth-first branch & bound over accept/reject decisions,
/// pruned by the fractional (convex-relaxation) lower bound of
/// [`bounds`](crate::bounds) and seeded with the
/// [`MarginalGreedy`] incumbent.
///
/// Tasks are branched in descending penalty-density order with the *accept*
/// branch explored first, so the greedy solution is rediscovered on the
/// leftmost path and the relaxation prunes aggressively. Practical reach is
/// an order of magnitude beyond [`Exhaustive`](crate::algorithms::Exhaustive)
/// (the default limit is 64 tasks), though worst-case complexity remains
/// exponential — the problem is NP-hard ([`hardness`](crate::hardness)).
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
/// let opt = BranchBound::default().solve(&inst)?;
/// opt.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchBound {
    limit: usize,
}

impl BranchBound {
    /// Default instance-size limit.
    pub const DEFAULT_LIMIT: usize = 64;

    /// Creates a solver with a custom instance-size limit.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `limit == 0`.
    pub fn with_limit(limit: usize) -> Result<Self, SchedError> {
        if limit == 0 {
            return Err(SchedError::InvalidParameter {
                name: "limit",
                value: 0.0,
            });
        }
        Ok(BranchBound { limit })
    }
}

impl Default for BranchBound {
    fn default() -> Self {
        BranchBound {
            limit: Self::DEFAULT_LIMIT,
        }
    }
}

/// Solution label of the budgeted entry points.
const ANYTIME_NAME: &str = "anytime-branch-bound";

struct Search<'a> {
    instance: &'a Instance,
    /// Acceptable tasks in descending penalty-density order.
    tasks: &'a [Task],
    total_penalty: f64,
    /// Cost to beat: the seed's cost until a strictly cheaper leaf is found.
    incumbent: f64,
    /// The leaf that set `incumbent` (`None` while the seed still holds it).
    best_accept: Option<Vec<bool>>,
    current: Vec<bool>,
    /// Work budget; unlimited for the plain (non-anytime) solve.
    meter: BudgetMeter,
}

impl Search<'_> {
    fn energy(&self, u: f64) -> f64 {
        self.instance
            .energy_rate(u)
            .expect("search only visits feasible utilizations")
            * self.instance.hyper_period() as f64
    }

    fn dfs(&mut self, i: usize, u: f64, avoided: f64) -> Result<(), SchedError> {
        if !self.meter.charge(1) {
            // Budget spent: unwind, keeping the incumbent found so far.
            return Ok(());
        }
        if i == self.tasks.len() {
            let cost = self.energy(u) + self.total_penalty - avoided;
            if cost < self.incumbent {
                self.incumbent = cost;
                self.best_accept = Some(self.current.clone());
            }
            return Ok(());
        }
        // Relaxation over the undecided suffix; decided rejections cost
        // (total − avoided − suffix) on top.
        let relaxed = relaxed_cost(self.instance, u, i)?;
        let fixed_rejected = self.total_penalty - avoided - relaxed.penalty;
        if fixed_rejected + relaxed.cost >= self.incumbent - 1e-12 {
            return Ok(());
        }
        let t = self.tasks[i];
        if self.instance.processor().is_feasible(u + t.utilization()) {
            self.current[i] = true;
            self.dfs(i + 1, u + t.utilization(), avoided + t.penalty())?;
            self.current[i] = false;
        }
        self.dfs(i + 1, u, avoided)
    }
}

impl RejectionPolicy for BranchBound {
    fn name(&self) -> &'static str {
        "branch-bound"
    }

    /// # Errors
    ///
    /// [`SchedError::TooLarge`] when the instance exceeds the size limit.
    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let search = self.budgeted_search(instance, &SolveBudget::unlimited(), None, self.name());
        Ok(search?.solution)
    }
}

impl BranchBound {
    /// Warm-started budgeted solve: like
    /// [`solve_within`](BudgetedPolicy::solve_within), but the incumbent is
    /// additionally seeded with a *known* solution — typically the standing
    /// accepted set of an admission engine from the previous re-solve. A
    /// tighter initial bound prunes more subtrees under the same node
    /// budget, so the warm search never visits more nodes than the cold
    /// one.
    ///
    /// When the search completes within budget the returned solution is
    /// optimal either way; the warm seed only matters on ties (where it is
    /// kept — callers that act solely on strict cost improvements, like
    /// `AdmissionEngine`, therefore observe identical decisions).
    ///
    /// `warm` must be a solution of `instance` (built with
    /// [`Solution::for_accepted`] on it); only its cost and accepted set
    /// are read.
    ///
    /// # Errors
    ///
    /// [`SchedError::TooLarge`] when the instance exceeds the size limit.
    pub fn solve_within_seeded(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
        warm: &Solution,
    ) -> Result<AnytimeSolution, SchedError> {
        self.budgeted_search(instance, budget, Some(warm), ANYTIME_NAME)
    }

    /// The one search driver: [`solve`](RejectionPolicy::solve) is its
    /// unlimited, cold case. `name` labels the solution and a size error.
    fn budgeted_search(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
        warm: Option<&Solution>,
        name: &'static str,
    ) -> Result<AnytimeSolution, SchedError> {
        // Acceptable tasks in descending penalty-density order (cached).
        let tasks = instance.density_order();
        if tasks.len() > self.limit {
            return Err(SchedError::TooLarge {
                n: tasks.len(),
                limit: self.limit,
                algorithm: name,
            });
        }
        // Best *known* solution before searching: the greedy seed, tightened
        // by the warm incumbent only when the latter is strictly cheaper —
        // on ties the cold path's choice (greedy) is kept, so warm and cold
        // runs that finish within budget return the same solution.
        let greedy = MarginalGreedy.solve(instance)?;
        let warm = warm.filter(|w| w.cost() < greedy.cost());
        let mut search = Search {
            instance,
            tasks,
            total_penalty: instance.total_penalty(),
            incumbent: warm.unwrap_or(&greedy).cost(),
            best_accept: None,
            current: vec![false; tasks.len()],
            meter: BudgetMeter::new(budget),
        };
        search.dfs(0, 0.0, 0.0)?;
        // A leaf is recorded only when strictly cheaper than the best known
        // seed; otherwise the seed stands as it was priced: the same
        // accepted set on the same instance.
        let solution = match (search.best_accept, warm) {
            (Some(accept), _) => {
                let accepted = tasks
                    .iter()
                    .zip(&accept)
                    .filter(|(_, &take)| take)
                    .map(|(t, _)| t.id());
                Solution::for_accepted(instance, name, accepted)?
            }
            (None, Some(w)) => w.clone().relabelled(name),
            (None, None) => greedy.relabelled(name),
        };
        Ok(AnytimeSolution {
            solution,
            quality: if search.meter.expired() {
                SolveQuality::Degraded
            } else {
                SolveQuality::Exact
            },
            nodes_used: search.meter.used(),
        })
    }
}

impl BudgetedPolicy for BranchBound {
    /// Budgeted (anytime) branch & bound: the DFS is charged one work unit
    /// per visited node, so node budgets are bit-reproducible. On expiry
    /// the search unwinds and the best incumbent — seeded with
    /// [`MarginalGreedy`] — is returned.
    ///
    /// # Errors
    ///
    /// [`SchedError::TooLarge`] when the instance exceeds the size limit.
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
    use crate::algorithms::Exhaustive;
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
                let b = BranchBound::default().solve(&inst).unwrap().cost();
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
            let bb = BranchBound::default().solve(&inst).unwrap().cost();
            assert!(bb <= greedy + 1e-9);
        }
    }

    #[test]
    fn solves_forty_tasks() {
        let tasks = WorkloadSpec::new(40, 2.0).seed(11).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let s = BranchBound::default().solve(&inst).unwrap();
        s.verify(&inst).unwrap();
    }

    #[test]
    fn warm_start_matches_cold_and_visits_no_more_nodes() {
        use crate::anytime::SolveBudget;
        for seed in 0..6 {
            let tasks = WorkloadSpec::new(18, 2.2).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let budget = SolveBudget::nodes(1_000_000);
            let cold = BranchBound::default().solve_within(&inst, &budget).unwrap();
            // Warm-start with the optimum itself: the result must be the
            // same solution (bitwise cost) with no more nodes visited.
            let warm = BranchBound::default()
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
            let none = BranchBound::default()
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
    fn size_limit_enforced() {
        let tasks = WorkloadSpec::new(10, 1.0).seed(0).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let err = BranchBound::with_limit(5)
            .unwrap()
            .solve(&inst)
            .unwrap_err();
        assert!(matches!(err, SchedError::TooLarge { .. }));
        assert!(BranchBound::with_limit(0).is_err());
    }
}
