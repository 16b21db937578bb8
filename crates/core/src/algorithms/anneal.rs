//! Simulated annealing over accepted sets.

use rt_model::rng::Rng;
use rt_model::Task;

use crate::algorithms::{acceptable_tasks, MarginalGreedy, RejectionPolicy};
use crate::{Instance, SchedError, Solution};

/// Simulated annealing: random toggle moves over the accepted set with a
/// geometric cooling schedule, seeded by [`MarginalGreedy`] and fully
/// deterministic per RNG seed.
///
/// Annealing complements [`LocalSearch`](crate::algorithms::LocalSearch):
/// the hill-climber stops at the first local optimum, while annealing's
/// uphill moves cross the "swap barrier" instances where a bulky task must
/// leave before two smaller ones can enter.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::{MarginalGreedy, SimulatedAnnealing};
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(20, 2.0).seed(5).generate()?, cubic_ideal())?;
/// let annealed = SimulatedAnnealing::new(42).solve(&inst)?;
/// let greedy = MarginalGreedy::default().solve(&inst)?;
/// assert!(annealed.cost() <= greedy.cost() + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    seed: u64,
    iterations: usize,
    initial_temperature: f64,
    cooling: f64,
}

impl SimulatedAnnealing {
    /// Default number of annealing steps.
    pub const DEFAULT_ITERATIONS: usize = 20_000;

    /// Creates an annealer with the given RNG seed and default schedule
    /// (20 000 steps, T₀ auto-scaled to the instance, cooling 0.9995).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimulatedAnnealing {
            seed,
            iterations: Self::DEFAULT_ITERATIONS,
            initial_temperature: 0.0, // auto
            cooling: 0.9995,
        }
    }

    /// Replaces the step count.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if `iterations == 0`.
    pub fn with_iterations(mut self, iterations: usize) -> Result<Self, SchedError> {
        if iterations == 0 {
            return Err(SchedError::InvalidParameter {
                name: "iterations",
                value: 0.0,
            });
        }
        self.iterations = iterations;
        Ok(self)
    }
}

impl RejectionPolicy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let (positions, tasks): (Vec<usize>, Vec<Task>) =
            acceptable_tasks(instance).into_iter().unzip();
        if tasks.is_empty() {
            return Solution::from_marks(instance, self.name(), &vec![false; instance.len()]);
        }
        let seed_solution = MarginalGreedy.solve(instance)?;
        let mut accept: Vec<bool> = tasks
            .iter()
            .map(|t| seed_solution.accepts(t.id()))
            .collect();
        let utils: Vec<f64> = tasks.iter().map(Task::utilization).collect();
        let penalties: Vec<f64> = tasks.iter().map(Task::penalty).collect();
        let total_penalty = instance.total_penalty();
        let l = instance.hyper_period() as f64;
        let s_max = instance.processor().max_speed();

        let mut u: f64 = accept
            .iter()
            .zip(&utils)
            .filter(|(&a, _)| a)
            .map(|(_, &x)| x)
            .sum();
        let mut avoided: f64 = accept
            .iter()
            .zip(&penalties)
            .filter(|(&a, _)| a)
            .map(|(_, &x)| x)
            .sum();
        let energy =
            |u: f64| -> Result<f64, SchedError> { Ok(instance.energy_rate(u.min(s_max))? * l) };
        let mut cost = energy(u)? + total_penalty - avoided;
        let mut best_cost = cost;
        let mut best_accept = accept.clone();

        // Auto temperature: a few percent of the current cost keeps early
        // uphill acceptance around 50% for typical instances.
        let mut temperature = if self.initial_temperature > 0.0 {
            self.initial_temperature
        } else {
            (0.05 * cost).max(1e-9)
        };

        let mut rng = Rng::seed_from_u64(self.seed);
        for _ in 0..self.iterations {
            let i = rng.gen_index(tasks.len());
            let (new_u, new_avoided) = if accept[i] {
                ((u - utils[i]).max(0.0), avoided - penalties[i])
            } else {
                (u + utils[i], avoided + penalties[i])
            };
            if !instance.processor().is_feasible(new_u) {
                temperature *= self.cooling;
                continue;
            }
            let new_cost = energy(new_u)? + total_penalty - new_avoided;
            let delta = new_cost - cost;
            if delta <= 0.0 || rng.next_f64() < (-delta / temperature).exp() {
                accept[i] = !accept[i];
                u = new_u;
                avoided = new_avoided;
                cost = new_cost;
                if cost < best_cost {
                    best_cost = cost;
                    best_accept = accept.clone();
                }
            }
            temperature *= self.cooling;
        }

        let marks = instance.marks_at(positions.into_iter().zip(best_accept));
        Solution::from_marks(instance, self.name(), &marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Exhaustive, LocalSearch};
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::WorkloadSpec;
    use rt_model::TaskSet;

    fn inst(seed: u64, n: usize, load: f64) -> Instance {
        Instance::new(
            WorkloadSpec::new(n, load).seed(seed).generate().unwrap(),
            cubic_ideal(),
        )
        .unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(SimulatedAnnealing::new(0).with_iterations(0).is_err());
    }

    #[test]
    fn never_worse_than_its_greedy_seed() {
        for seed in 0..5 {
            let instance = inst(seed, 15, 2.0);
            let greedy = MarginalGreedy.solve(&instance).unwrap().cost();
            let annealed = SimulatedAnnealing::new(1).solve(&instance).unwrap();
            annealed.verify(&instance).unwrap();
            assert!(annealed.cost() <= greedy + 1e-9);
        }
    }

    #[test]
    fn close_to_optimal_on_small_instances() {
        for seed in 0..5 {
            let instance = inst(seed, 12, 1.8);
            let opt = Exhaustive::default().solve(&instance).unwrap().cost();
            let annealed = SimulatedAnnealing::new(7).solve(&instance).unwrap().cost();
            assert!(
                annealed <= opt * 1.05 + 1e-9,
                "seed {seed}: annealing {annealed} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let instance = inst(3, 18, 2.2);
        let a = SimulatedAnnealing::new(11).solve(&instance).unwrap();
        let b = SimulatedAnnealing::new(11).solve(&instance).unwrap();
        assert_eq!(a.accepted(), b.accepted());
    }

    #[test]
    fn crosses_the_swap_barrier() {
        // The adversarial instance where the greedy accepts a bulky task
        // that blocks two smaller, jointly-better tasks; annealing must
        // escape (local search also does — this pins the behaviour).
        let tasks = TaskSet::try_from_tasks(vec![
            rt_model::Task::new(0, 9.0, 10).unwrap().with_penalty(11.0),
            rt_model::Task::new(1, 5.0, 10).unwrap().with_penalty(7.0),
            rt_model::Task::new(2, 5.0, 10).unwrap().with_penalty(7.0),
        ])
        .unwrap();
        let instance = Instance::new(tasks, cubic_ideal()).unwrap();
        let opt = Exhaustive::default().solve(&instance).unwrap().cost();
        let annealed = SimulatedAnnealing::new(5).solve(&instance).unwrap().cost();
        let ls = LocalSearch::around(MarginalGreedy)
            .solve(&instance)
            .unwrap()
            .cost();
        assert!(
            (annealed - opt).abs() < 1e-9,
            "annealing {annealed} vs OPT {opt}"
        );
        assert!((ls - opt).abs() < 1e-9);
    }

    #[test]
    fn empty_instance() {
        let instance = Instance::new(TaskSet::new(), cubic_ideal()).unwrap();
        let s = SimulatedAnnealing::new(0).solve(&instance).unwrap();
        assert_eq!(s.accepted().len(), 0);
    }
}
