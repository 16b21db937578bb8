//! Local-search improvement on top of any seed policy.

use rt_model::Task;

use crate::algorithms::RejectionPolicy;
use crate::{Instance, SchedError, Solution};

/// One neighborhood move over the acceptable-task list.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Flip acceptance of task `i`.
    Toggle(usize),
    /// Reject accepted task `.0`, accept rejected task `.1`.
    Swap(usize, usize),
}

/// Shared read-only context for O(1) neighbor-cost evaluation.
///
/// A full [`Instance::cost_of`] re-evaluation is `Θ(n)` per candidate; with
/// the accepted utilization `u` and sheltered penalty `avoided` of the
/// current solution known, any toggle/swap neighbor differs by one or two
/// tasks, so its cost is a constant-time update plus one energy-rate query.
struct Neighborhood<'a> {
    instance: &'a Instance,
    tasks: &'a [Task],
    horizon: f64,
    total_penalty: f64,
}

impl Neighborhood<'_> {
    /// Cost of applying `mv` to the acceptance vector `accepted` whose
    /// sums are `u` / `avoided`. Infeasible neighbors cost `+∞`.
    fn move_cost(&self, accepted: &[bool], u: f64, avoided: f64, mv: Move) -> f64 {
        let (nu, navoided) = match mv {
            Move::Toggle(i) => {
                let t = &self.tasks[i];
                if accepted[i] {
                    (u - t.utilization(), avoided - t.penalty())
                } else {
                    (u + t.utilization(), avoided + t.penalty())
                }
            }
            Move::Swap(out, into) => (
                u - self.tasks[out].utilization() + self.tasks[into].utilization(),
                avoided - self.tasks[out].penalty() + self.tasks[into].penalty(),
            ),
        };
        // Float cancellation can leave a tiny negative residue when the
        // last accepted task is removed.
        match self.instance.energy_rate(nu.max(0.0)) {
            Ok(rate) => rate * self.horizon + (self.total_penalty - navoided),
            Err(_) => f64::INFINITY, // infeasible move
        }
    }
}

/// Hill-climbing improvement: starting from a seed policy's solution,
/// repeatedly applies the best improving move among
///
/// * **toggle** — accept one rejected task or reject one accepted task, and
/// * **swap** — exchange one accepted task for one rejected task,
///
/// until a local optimum (or the iteration cap) is reached. With a greedy
/// seed this recovers a large share of the gap to optimal at quadratic cost
/// per round; it is the workhorse "polish" step of the experiment suite.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::{LocalSearch, MarginalGreedy};
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(20, 2.0).seed(5).generate()?, cubic_ideal())?;
/// let greedy = MarginalGreedy::default().solve(&inst)?;
/// let polished = LocalSearch::around(MarginalGreedy::default()).solve(&inst)?;
/// assert!(polished.cost() <= greedy.cost() + 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct LocalSearch {
    seed: Box<dyn RejectionPolicy>,
    max_rounds: usize,
}

impl std::fmt::Debug for LocalSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalSearch")
            .field("seed", &self.seed.name())
            .field("max_rounds", &self.max_rounds)
            .finish()
    }
}

impl LocalSearch {
    /// Default cap on improvement rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 1_000;

    /// Creates a local search seeded by `seed`.
    #[must_use]
    pub fn around(seed: impl RejectionPolicy + 'static) -> Self {
        LocalSearch {
            seed: Box::new(seed),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
        }
    }

    /// Replaces the round cap.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `rounds == 0`.
    pub fn with_max_rounds(mut self, rounds: usize) -> Result<Self, SchedError> {
        if rounds == 0 {
            return Err(SchedError::InvalidParameter {
                name: "max_rounds",
                value: 0.0,
            });
        }
        self.max_rounds = rounds;
        Ok(self)
    }
}

impl RejectionPolicy for LocalSearch {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let seed = self.seed.solve(instance)?;
        let tasks: Vec<Task> = instance
            .tasks()
            .iter()
            .filter(|t| instance.is_acceptable(t))
            .copied()
            .collect();
        let n = tasks.len();
        let mut accepted: Vec<bool> = tasks.iter().map(|t| seed.accepts(t.id())).collect();
        let mut cost = seed.cost();
        let nb = Neighborhood {
            instance,
            tasks: &tasks,
            horizon: instance.hyper_period() as f64,
            total_penalty: instance.total_penalty(),
        };

        for _ in 0..self.max_rounds {
            // Re-derive the exact sums once per round so delta errors never
            // accumulate across moves.
            let (mut u, mut avoided) = (0.0, 0.0);
            for (i, t) in tasks.iter().enumerate() {
                if accepted[i] {
                    u += t.utilization();
                    avoided += t.penalty();
                }
            }
            // Scan the whole neighborhood — all toggles, then all out→in
            // swaps — keeping the earliest strictly best improvement.
            let mut best: Option<(Move, f64)> = None;
            let mut consider = |mv: Move| {
                let c = nb.move_cost(&accepted, u, avoided, mv);
                if c < cost - 1e-12 && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((mv, c));
                }
            };
            (0..n).for_each(|i| consider(Move::Toggle(i)));
            for out in (0..n).filter(|&i| accepted[i]) {
                for into in (0..n).filter(|&i| !accepted[i]) {
                    consider(Move::Swap(out, into));
                }
            }
            match best {
                Some((mv, c)) => {
                    match mv {
                        Move::Toggle(i) => accepted[i] = !accepted[i],
                        Move::Swap(out, into) => {
                            accepted[out] = false;
                            accepted[into] = true;
                        }
                    }
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
        Solution::for_accepted(instance, self.name(), ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AcceptAllFeasible, Exhaustive, MarginalGreedy, RejectAll};
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::{PenaltyModel, WorkloadSpec};

    fn inst(seed: u64, n: usize, load: f64) -> Instance {
        Instance::new(
            WorkloadSpec::new(n, load)
                .penalty_model(PenaltyModel::Uniform { lo: 0.05, hi: 0.8 })
                .seed(seed)
                .generate()
                .unwrap(),
            cubic_ideal(),
        )
        .unwrap()
    }

    #[test]
    fn improves_or_preserves_any_seed() {
        for seed in 0..5 {
            let instance = inst(seed, 15, 2.0);
            for policy in [
                Box::new(MarginalGreedy) as Box<dyn RejectionPolicy>,
                Box::new(AcceptAllFeasible),
                Box::new(RejectAll),
            ] {
                let base = policy.solve(&instance).unwrap().cost();
                let ls = LocalSearch {
                    seed: policy,
                    max_rounds: 100,
                };
                let improved = ls.solve(&instance).unwrap();
                improved.verify(&instance).unwrap();
                assert!(improved.cost() <= base + 1e-9);
            }
        }
    }

    #[test]
    fn reaches_optimum_from_reject_all_on_small_instances() {
        // Toggle/swap moves explore enough of the neighbourhood that the
        // optimum is reached on easy instances even from the worst seed.
        for seed in 0..5 {
            let instance = inst(seed, 8, 1.4);
            let opt = Exhaustive::default().solve(&instance).unwrap().cost();
            let ls = LocalSearch::around(RejectAll)
                .solve(&instance)
                .unwrap()
                .cost();
            assert!(
                ls <= opt * 1.15 + 1e-9,
                "seed {seed}: local search {ls} far from optimum {opt}"
            );
        }
    }

    #[test]
    fn round_cap_validated() {
        assert!(LocalSearch::around(RejectAll).with_max_rounds(0).is_err());
        assert!(LocalSearch::around(RejectAll).with_max_rounds(3).is_ok());
    }

    /// Regression guard for the incremental evaluator: every toggle/swap
    /// neighbor cost computed in O(1) must agree with a full
    /// [`Instance::cost_of`] re-evaluation of the mutated set.
    #[test]
    fn delta_evaluation_matches_full_reevaluation() {
        use rt_model::rng::Rng;
        use rt_model::TaskId;
        let mut rng = Rng::seed_from_u64(0xD317A);
        for seed in 0..6 {
            let instance = inst(seed, 14, 2.0);
            let tasks: Vec<Task> = instance
                .tasks()
                .iter()
                .filter(|t| instance.is_acceptable(t))
                .copied()
                .collect();
            let nb = Neighborhood {
                instance: &instance,
                tasks: &tasks,
                horizon: instance.hyper_period() as f64,
                total_penalty: instance.total_penalty(),
            };
            for _ in 0..8 {
                let accepted: Vec<bool> = tasks.iter().map(|_| rng.next_u64() & 1 == 1).collect();
                let (mut u, mut avoided) = (0.0, 0.0);
                for (i, t) in tasks.iter().enumerate() {
                    if accepted[i] {
                        u += t.utilization();
                        avoided += t.penalty();
                    }
                }
                let full = |acc: &[bool]| -> f64 {
                    let ids: Vec<TaskId> = tasks
                        .iter()
                        .zip(acc)
                        .filter(|(_, &a)| a)
                        .map(|(t, _)| t.id())
                        .collect();
                    instance.cost_of(&ids).unwrap_or(f64::INFINITY)
                };
                let check = |mv: Move, mutated: Vec<bool>| {
                    let delta = nb.move_cost(&accepted, u, avoided, mv);
                    let exact = full(&mutated);
                    if exact.is_infinite() || delta.is_infinite() {
                        // Feasibility may only disagree within float noise of
                        // s_max; both sides must then be within a hair of it.
                        if exact.is_finite() != delta.is_finite() {
                            let nu: f64 = tasks
                                .iter()
                                .zip(&mutated)
                                .filter(|(_, &a)| a)
                                .map(|(t, _)| t.utilization())
                                .sum();
                            let s_max = instance.processor().max_speed();
                            assert!(
                                (nu - s_max).abs() < 1e-9,
                                "feasibility verdicts diverge away from the boundary"
                            );
                        }
                        return;
                    }
                    assert!(
                        (delta - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                        "seed {seed}: delta {delta} vs full {exact} for {mv:?}"
                    );
                };
                for i in 0..tasks.len() {
                    let mut m = accepted.clone();
                    m[i] = !m[i];
                    check(Move::Toggle(i), m);
                }
                for out in 0..tasks.len() {
                    if !accepted[out] {
                        continue;
                    }
                    for into in 0..tasks.len() {
                        if accepted[into] {
                            continue;
                        }
                        let mut m = accepted.clone();
                        m[out] = false;
                        m[into] = true;
                        check(Move::Swap(out, into), m);
                    }
                }
            }
        }
    }

    #[test]
    fn terminates_at_local_optimum() {
        let instance = inst(7, 12, 1.8);
        let a = LocalSearch::around(MarginalGreedy)
            .solve(&instance)
            .unwrap();
        // Running again from the same seed is deterministic.
        let b = LocalSearch::around(MarginalGreedy)
            .solve(&instance)
            .unwrap();
        assert_eq!(a.accepted(), b.accepted());
    }
}
