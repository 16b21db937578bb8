//! Exhaustive optimal search with admissible pruning.

use rt_model::Task;

use crate::algorithms::{acceptable_tasks, RejectionPolicy};
use crate::{Instance, SchedError, Solution};

/// Exact solver enumerating all accepted subsets, with two admissible
/// prunes: infeasible branches are cut immediately, and a branch whose
/// *optimistic* completion (current energy plus the assumption that every
/// remaining task is sheltered for free) cannot beat the incumbent is
/// dropped.
///
/// Complexity is `O(2ⁿ)` in the worst case; the default limit is
/// [`Exhaustive::DEFAULT_LIMIT`] tasks. Used by the experiments as ground
/// truth on small instances.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::Exhaustive;
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(10, 1.5).seed(2).generate()?, cubic_ideal())?;
/// let opt = Exhaustive::default().solve(&inst)?;
/// opt.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhaustive {
    limit: usize,
}

impl Exhaustive {
    /// Default instance-size limit.
    pub const DEFAULT_LIMIT: usize = 26;

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
        Ok(Exhaustive { limit })
    }
}

impl Default for Exhaustive {
    fn default() -> Self {
        Exhaustive {
            limit: Self::DEFAULT_LIMIT,
        }
    }
}

struct Search<'a> {
    instance: &'a Instance,
    tasks: Vec<Task>,
    /// Total penalty of remaining tasks from index `i` on (suffix sums).
    suffix_penalty: Vec<f64>,
    best_cost: f64,
    best_accept: Vec<bool>,
    current: Vec<bool>,
    /// Penalty of all tasks (acceptable or not).
    total_penalty: f64,
}

impl Search<'_> {
    /// Cost of the current partial acceptance if completed with utilization
    /// `u` and avoided penalty `avoided`.
    fn energy(&self, u: f64) -> f64 {
        self.instance
            .energy_rate(u)
            .expect("search only visits feasible utilizations")
            * self.instance.hyper_period() as f64
    }

    fn dfs(&mut self, i: usize, u: f64, avoided: f64) {
        // Optimistic completion: all remaining tasks sheltered at zero
        // energy. Admissible because E* is non-decreasing in u.
        let optimistic = self.energy(u) + self.total_penalty - avoided - self.suffix_penalty[i];
        if optimistic >= self.best_cost - 1e-12 {
            return;
        }
        if i == self.tasks.len() {
            let cost = self.energy(u) + self.total_penalty - avoided;
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_accept = self.current.clone();
            }
            return;
        }
        let t = self.tasks[i];
        // Branch: accept (if feasible) — explored first so good incumbents
        // appear early.
        if self.instance.processor().is_feasible(u + t.utilization()) {
            self.current[i] = true;
            self.dfs(i + 1, u + t.utilization(), avoided + t.penalty());
            self.current[i] = false;
        }
        // Branch: reject.
        self.dfs(i + 1, u, avoided);
    }
}

impl RejectionPolicy for Exhaustive {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    /// # Errors
    ///
    /// [`SchedError::TooLarge`] when the instance exceeds the size limit.
    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let mut tasks = acceptable_tasks(instance);
        if tasks.len() > self.limit {
            return Err(SchedError::TooLarge {
                n: tasks.len(),
                limit: self.limit,
                algorithm: "exhaustive",
            });
        }
        // Sort by penalty descending so high-value acceptances (and hence
        // tight incumbents) are found early, sharpening the prune.
        tasks.sort_by(|(_, a), (_, b)| {
            b.penalty()
                .partial_cmp(&a.penalty())
                .expect("penalties are not NaN")
                .then(a.id().index().cmp(&b.id().index()))
        });
        let (positions, tasks): (Vec<usize>, Vec<Task>) = tasks.into_iter().unzip();
        let mut suffix_penalty = vec![0.0; tasks.len() + 1];
        for i in (0..tasks.len()).rev() {
            suffix_penalty[i] = suffix_penalty[i + 1] + tasks[i].penalty();
        }
        let n = tasks.len();
        let mut search = Search {
            instance,
            suffix_penalty,
            best_cost: f64::INFINITY,
            best_accept: vec![false; n],
            current: vec![false; n],
            total_penalty: instance.total_penalty(),
            tasks,
        };
        search.dfs(0, 0.0, 0.0);
        let marks = instance.marks_at(positions.into_iter().zip(search.best_accept));
        Solution::from_marks(instance, self.name(), &marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::cubic_ideal;
    use rt_model::{TaskId, TaskSet};

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

    /// Brute force without pruning, for validating the pruned search.
    fn brute_force(inst: &Instance) -> f64 {
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << ids.len()) {
            let accepted: Vec<TaskId> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, id)| *id)
                .collect();
            if let Ok(c) = inst.cost_of(&accepted) {
                best = best.min(c);
            }
        }
        best
    }

    #[test]
    fn matches_unpruned_brute_force() {
        let cases = [
            instance(&[
                (2.0, 10, 1.0),
                (3.0, 10, 0.2),
                (6.0, 10, 4.0),
                (5.0, 10, 2.0),
            ]),
            instance(&[(9.0, 10, 0.5), (9.0, 10, 0.6), (9.0, 10, 0.7)]),
            instance(&[
                (1.0, 10, 0.01),
                (1.0, 10, 0.02),
                (1.0, 10, 0.03),
                (1.0, 10, 0.04),
            ]),
        ];
        for inst in &cases {
            let s = Exhaustive::default().solve(inst).unwrap();
            assert!((s.cost() - brute_force(inst)).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_instance_yields_empty_solution() {
        let inst = Instance::new(TaskSet::new(), cubic_ideal()).unwrap();
        let s = Exhaustive::default().solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        assert_eq!(s.cost(), 0.0);
    }

    #[test]
    fn size_limit_enforced() {
        let parts: Vec<(f64, u64, f64)> = (0..5).map(|_| (1.0, 10, 1.0)).collect();
        let inst = instance(&parts);
        let err = Exhaustive::with_limit(4).unwrap().solve(&inst).unwrap_err();
        assert!(matches!(err, SchedError::TooLarge { n: 5, limit: 4, .. }));
        assert!(Exhaustive::with_limit(0).is_err());
    }

    #[test]
    fn unacceptable_tasks_do_not_count_against_limit() {
        let inst = instance(&[(15.0, 10, 1.0), (1.0, 10, 1.0)]);
        let s = Exhaustive::with_limit(1).unwrap().solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(1)]);
    }

    #[test]
    fn handles_30_tasks_under_overload_quickly() {
        // Overload means most branches die on feasibility — the prune must
        // make this fast despite n = 30 > 2²⁶ naive states.
        let tasks = rt_model::generator::WorkloadSpec::new(30, 3.0)
            .seed(5)
            .generate()
            .unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let s = Exhaustive::with_limit(30).unwrap().solve(&inst).unwrap();
        s.verify(&inst).unwrap();
    }
}
