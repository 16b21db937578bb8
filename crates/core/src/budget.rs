//! The **energy-budget dual**: serve the most valuable tasks within a
//! given energy allowance.
//!
//! The target paper minimises `energy + rejection penalty`; its research
//! line's second theme (allocation under a *given energy constraint*)
//! suggests the dual question for one processor: with an energy budget `Ē`
//! per hyper-period, which tasks should be admitted to maximise the served
//! value `Σ_{i ∈ A} vᵢ`?
//!
//! Because the minimum energy `E*(u)` is increasing in the accepted
//! utilization, the energy constraint inverts to a **utilization cap**
//! `û = sup { u : E*(u) ≤ Ē }` (computed by bisection through the same
//! oracle every other algorithm uses), and the problem becomes a 0/1
//! knapsack `max Σ vᵢ s.t. Σ uᵢ ≤ û`. The module provides:
//!
//! * [`utilization_cap_for_budget`] — the constraint inversion,
//! * [`solve_budget_greedy`] — density greedy + best-single-item guard
//!   (the classic ½-approximation for knapsack),
//! * [`solve_budget_dp`] — scaled dynamic program with the same
//!   `(1−ε)`-style value guarantee machinery as
//!   [`ScaledDp`](crate::algorithms::ScaledDp),
//! * [`BudgetSolution::verify`] — budget and feasibility re-checking.

use rt_model::{ModelError, Task, TaskId};

use crate::algorithms::LevelTable;
use crate::anytime::{BudgetMeter, SolveBudget};
use crate::{Instance, SchedError, View};

/// Iterations of bisection for the budget → utilization-cap inversion.
const BISECT_ITERS: usize = 200;

/// A solution of the energy-budget problem.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetSolution {
    accepted: Vec<TaskId>,
    value: f64,
    energy: f64,
    budget: f64,
}

impl BudgetSolution {
    /// The admitted task identifiers, sorted.
    #[must_use]
    pub fn accepted(&self) -> &[TaskId] {
        &self.accepted
    }

    /// Served value `Σ vᵢ` over the admitted tasks.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Energy `E*(U(A))` per hyper-period of the admitted set.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// The budget the solution was solved against.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Verifies identifiers, feasibility, the budget, and the stored
    /// value/energy against the instance oracles.
    ///
    /// # Errors
    ///
    /// [`SchedError::VerificationFailed`] naming the violated property.
    pub fn verify(&self, instance: &Instance) -> Result<(), SchedError> {
        let unknown = |id: TaskId| SchedError::VerificationFailed {
            reason: ModelError::UnknownTask { task: id.index() }.to_string(),
        };
        let marks = instance.marks_of(&self.accepted).map_err(unknown)?;
        let marked = instance.marked(&marks);
        let (u, value) = (marked.utilization, marked.value);
        if !instance.processor().is_feasible(u) {
            return Err(SchedError::VerificationFailed {
                reason: format!("admitted utilization {u} exceeds the processor"),
            });
        }
        let energy = instance
            .energy_for(u)
            .map_err(|e| SchedError::VerificationFailed {
                reason: e.to_string(),
            })?;
        if energy > self.budget * (1.0 + 1e-6) + 1e-9 {
            return Err(SchedError::VerificationFailed {
                reason: format!("energy {energy} exceeds the budget {}", self.budget),
            });
        }
        if (value - self.value).abs() > 1e-6 * value.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored value {} but tasks sum to {value}", self.value),
            });
        }
        if (energy - self.energy).abs() > 1e-6 * energy.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored energy {} but oracle says {energy}", self.energy),
            });
        }
        Ok(())
    }
}

/// Inverts the energy oracle: the largest servable utilization whose
/// minimum energy stays within `budget` (capped at `s_max`).
///
/// # Errors
///
/// [`SchedError::InvalidParameter`] if `budget` is negative or not finite.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::budget::utilization_cap_for_budget;
/// use reject_sched::Instance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10)?])?;
/// let inst = Instance::new(tasks, cubic_ideal())?;
/// // E*(u) = 10·u³ here, so a budget of 1.25 buys u = 0.5.
/// let cap = utilization_cap_for_budget(&inst, 1.25)?;
/// assert!((cap - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn utilization_cap_for_budget(instance: &Instance, budget: f64) -> Result<f64, SchedError> {
    if !budget.is_finite() || budget < 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "budget",
            value: budget,
        });
    }
    let s_max = instance.processor().max_speed();
    if instance.energy_for(s_max)? <= budget {
        return Ok(s_max);
    }
    if instance.energy_for(0.0)? > budget {
        return Ok(0.0);
    }
    let (mut lo, mut hi) = (0.0f64, s_max);
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (lo + hi);
        if instance.energy_for(mid)? <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn admissible(instance: &Instance, cap: f64) -> Vec<(usize, Task)> {
    let tasks = instance.tasks().iter().copied().enumerate();
    tasks
        .filter(|(_, t)| t.utilization() <= cap * (1.0 + 1e-9))
        .collect()
}

fn build(instance: &Instance, budget: f64, marks: &[bool]) -> Result<BudgetSolution, SchedError> {
    let marked = instance.marked(marks);
    Ok(BudgetSolution {
        energy: instance.energy_for(marked.utilization)?,
        accepted: marked.ids,
        value: marked.value,
        budget,
    })
}

/// Density greedy with the best-single-item guard — the classic
/// ½-approximation for the induced knapsack: admit tasks in descending
/// `vᵢ/uᵢ` while they fit the utilization cap, then return the better of
/// that set and the single most valuable admissible task.
///
/// # Errors
///
/// Propagates oracle errors; [`SchedError::InvalidParameter`] for a bad
/// budget.
pub fn solve_budget_greedy(instance: &Instance, budget: f64) -> Result<BudgetSolution, SchedError> {
    let cap = utilization_cap_for_budget(instance, budget)?;
    let mut tasks = admissible(instance, cap);
    tasks.sort_by(|(_, a), (_, b)| View::order_cmp(a, b));
    let mut u = 0.0;
    let mut greedy = vec![false; instance.len()];
    for &(p, t) in &tasks {
        if u + t.utilization() <= cap * (1.0 + 1e-9) {
            u += t.utilization();
            greedy[p] = true;
        }
    }
    let greedy = build(instance, budget, &greedy)?;
    let best_single = tasks
        .iter()
        .max_by(|(_, a), (_, b)| a.penalty().partial_cmp(&b.penalty()).expect("finite"))
        .map(|&(p, _)| (p, true));
    let single = build(instance, budget, &instance.marks_at(best_single))?;
    Ok(if greedy.value >= single.value {
        greedy
    } else {
        single
    })
}

/// Scaled dynamic program for the induced knapsack: values quantised to
/// `μ = ε·v_max/n`, utilization minimised per value level, best level
/// within the cap returned. Served value is at least `OPT − ε·v_max`.
///
/// # Errors
///
/// Propagates oracle errors; [`SchedError::InvalidParameter`] for bad
/// `budget`/`epsilon`; [`SchedError::TooLarge`] if the table would exceed
/// the memory cap.
pub fn solve_budget_dp(
    instance: &Instance,
    budget: f64,
    epsilon: f64,
) -> Result<BudgetSolution, SchedError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "ε",
            value: epsilon,
        });
    }
    let cap = utilization_cap_for_budget(instance, budget)?;
    let (positions, tasks): (Vec<usize>, Vec<Task>) = admissible(instance, cap).into_iter().unzip();
    let mut marks = vec![false; instance.len()];
    let v_max = tasks.iter().map(Task::penalty).fold(0.0, f64::max);
    if tasks.is_empty() || v_max <= 0.0 {
        // Zero-value tasks: admitting them is pointless (value 0 anyway).
        return build(instance, budget, &marks);
    }
    let mu = epsilon * v_max / tasks.len() as f64;
    let weights: Vec<usize> = tasks.iter().map(|t| (t.penalty() / mu) as usize).collect();
    let mut meter = BudgetMeter::new(&SolveBudget::unlimited());
    let table = LevelTable::build(&tasks, &weights, cap, None, &mut meter, "budget-dp")?;
    let best_v = table
        .levels()
        .iter()
        .rposition(|d| d.is_finite())
        .expect("level 0 is always reachable");
    table.reconstruct(&weights, best_v, |i| marks[positions[i]] = true);
    build(instance, budget, &marks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Exhaustive;
    use crate::RejectionPolicy;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
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
    fn cap_inversion_matches_the_oracle() {
        let instance = inst(1, 6, 0.9);
        for &budget in &[0.0, 0.5, 5.0, 50.0, 1e6] {
            let cap = utilization_cap_for_budget(&instance, budget).unwrap();
            assert!(instance.energy_for(cap).unwrap() <= budget * (1.0 + 1e-6) + 1e-9);
            // The cap is maximal: a small step above violates the budget
            // (unless already at s_max).
            if cap < instance.processor().max_speed() - 1e-9 {
                assert!(instance.energy_for(cap + 1e-6).unwrap() > budget);
            }
        }
        assert!(utilization_cap_for_budget(&instance, -1.0).is_err());
        assert!(utilization_cap_for_budget(&instance, f64::NAN).is_err());
    }

    #[test]
    fn solutions_respect_the_budget() {
        for seed in 0..5 {
            let instance = inst(seed, 12, 2.0);
            for &budget in &[0.1, 1.0, 10.0, 100.0] {
                for sol in [
                    solve_budget_greedy(&instance, budget).unwrap(),
                    solve_budget_dp(&instance, budget, 0.05).unwrap(),
                ] {
                    sol.verify(&instance).unwrap();
                    assert!(sol.energy() <= budget * (1.0 + 1e-6) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn value_is_monotone_in_budget() {
        let instance = inst(2, 12, 2.0);
        let mut last = 0.0;
        for &budget in &[0.05, 0.2, 0.8, 3.0, 12.0, 50.0, 200.0] {
            let v = solve_budget_dp(&instance, budget, 0.02).unwrap().value();
            assert!(v + 1e-9 >= last, "value dropped at budget {budget}");
            last = v;
        }
    }

    #[test]
    fn infinite_budget_admits_a_maximal_feasible_set() {
        // With a huge budget the cap is s_max and the DP packs value like
        // plain knapsack; everything fits when U ≤ s_max.
        let instance = inst(3, 8, 0.8);
        let sol = solve_budget_dp(&instance, 1e9, 0.01).unwrap();
        assert_eq!(sol.accepted().len(), 8);
    }

    #[test]
    fn greedy_is_at_least_half_of_dp() {
        for seed in 0..8 {
            let instance = inst(seed, 14, 2.5);
            for &budget in &[0.5, 2.0, 8.0] {
                let g = solve_budget_greedy(&instance, budget).unwrap().value();
                let d = solve_budget_dp(&instance, budget, 0.01).unwrap().value();
                assert!(
                    g >= 0.5 * d - 1e-9,
                    "seed {seed}, budget {budget}: {g} < ½·{d}"
                );
            }
        }
    }

    #[test]
    fn duality_with_the_rejection_problem() {
        // Solve the rejection problem; its optimal accepted set must be a
        // feasible (and value-optimal up to ε·v_max) answer to the budget
        // problem posed at exactly its own energy.
        for seed in 0..5 {
            let instance = inst(seed, 10, 1.6);
            let opt = Exhaustive::default().solve(&instance).unwrap();
            let served: f64 = opt
                .accepted()
                .iter()
                .map(|id| instance.tasks().get(*id).unwrap().penalty())
                .sum();
            let dual = solve_budget_dp(&instance, opt.energy() * (1.0 + 1e-9), 0.01).unwrap();
            let v_max = instance
                .tasks()
                .iter()
                .map(Task::penalty)
                .fold(0.0, f64::max);
            assert!(
                dual.value() >= served - 0.01 * v_max - 1e-6,
                "seed {seed}: dual {} < rejection-optimal served {served}",
                dual.value()
            );
        }
    }

    #[test]
    fn zero_budget_admits_only_free_tasks() {
        let tasks = TaskSet::try_from_tasks(vec![
            Task::new(0, 0.0, 10).unwrap().with_penalty(5.0),
            Task::new(1, 5.0, 10).unwrap().with_penalty(9.0),
        ])
        .unwrap();
        let instance = Instance::new(tasks, xscale_ideal()).unwrap();
        let sol = solve_budget_dp(&instance, 0.0, 0.01).unwrap();
        assert_eq!(sol.accepted(), &[TaskId::new(0)]);
        assert_eq!(sol.energy(), 0.0);
    }

    #[test]
    fn dp_epsilon_validation() {
        let instance = inst(0, 5, 1.0);
        assert!(solve_budget_dp(&instance, 1.0, 0.0).is_err());
        assert!(solve_budget_dp(&instance, 1.0, -0.5).is_err());
    }
}
