//! Mandatory tasks: admission with a must-serve subset.
//!
//! Deployments usually split workloads into *mandatory* tasks (control
//! loops, safety monitors — rejecting them is not an option) and
//! *optional* ones (the paper's penalty-bearing tasks). This module layers
//! that distinction over any [`RejectionPolicy`]:
//!
//! 1. check that the mandatory set alone is feasible (else the instance is
//!    mis-specified — report it, don't silently drop a mandatory task);
//! 2. solve with the mandatory tasks' penalties raised to a *forcing
//!    level* strictly above any achievable cost difference, so every
//!    cost-minimising policy accepts them whenever feasible;
//! 3. verify the mandatory tasks were indeed all accepted.
//!
//! The forcing construction keeps the existing algorithms and their
//! guarantees intact: on the transformed instance the optimal solution
//! accepts all mandatory tasks, and conditioned on that, optimally selects
//! among the optional ones.

use rt_model::{Task, TaskId, TaskSet};

use crate::{Instance, RejectionPolicy, SchedError, Solution};

/// Solves `instance` under the constraint that every task in `mandatory`
/// is accepted, using any rejection policy for the optional remainder.
///
/// The returned [`Solution`] is expressed against the *original* instance
/// (original penalties), so its cost is directly comparable to
/// unconstrained solutions.
///
/// # Errors
///
/// * [`SchedError::Model`] for unknown identifiers.
/// * [`SchedError::VerificationFailed`] if the mandatory set alone is
///   infeasible, or the policy failed to accept a mandatory task despite
///   the forcing penalties (indicates a broken policy).
/// * Propagates the policy's own errors.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::MarginalGreedy;
/// use reject_sched::mandatory::solve_with_mandatory;
/// use reject_sched::Instance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::try_from_tasks(vec![
///     Task::new(0, 6.0, 10)?.with_penalty(0.01),   // worthless but mandatory
///     Task::new(1, 5.0, 10)?.with_penalty(9.0),    // valuable but optional
/// ])?;
/// let inst = Instance::new(tasks, cubic_ideal())?;
/// let sol = solve_with_mandatory(&inst, &[0.into()], &MarginalGreedy)?;
/// assert!(sol.accepts(0.into()));     // forced despite the tiny penalty
/// assert!(!sol.accepts(1.into()));    // no room left (0.6 + 0.5 > 1)
/// # Ok(())
/// # }
/// ```
pub fn solve_with_mandatory(
    instance: &Instance,
    mandatory: &[TaskId],
    policy: &dyn RejectionPolicy,
) -> Result<Solution, SchedError> {
    // Validate identifiers and joint feasibility of the mandatory set.
    let mandatory_set = instance.tasks().subset(mandatory)?;
    if !instance
        .processor()
        .is_feasible(mandatory_set.utilization())
    {
        return Err(SchedError::VerificationFailed {
            reason: format!(
                "the mandatory set alone demands utilization {} > s_max {}",
                mandatory_set.utilization(),
                instance.processor().max_speed()
            ),
        });
    }
    // Forcing level: above the largest possible cost swing of any solution
    // (full-speed energy plus every penalty), so rejecting a mandatory task
    // can never be optimal — and a safety factor for heuristic slop.
    let forcing = 1e3
        * (instance.energy_for(instance.processor().max_speed())? + instance.total_penalty() + 1.0);
    let is_mandatory = |id: TaskId| mandatory.contains(&id);
    let boosted = TaskSet::try_from_tasks(instance.tasks().iter().map(|t| {
        let base = Task::new(t.id(), t.wcec(), t.period())
            .expect("existing tasks are valid")
            .with_deadline(t.deadline())
            .expect("existing deadlines are valid");
        if is_mandatory(t.id()) {
            base.with_penalty(forcing)
        } else {
            base.with_penalty(t.penalty())
        }
    }))?;
    let transformed = Instance::new(boosted, instance.processor().clone())?;
    let raw = policy.solve(&transformed)?;
    for id in mandatory {
        if !raw.accepts(*id) {
            return Err(SchedError::VerificationFailed {
                reason: format!(
                    "policy {} rejected mandatory task {id} despite forcing penalties",
                    policy.name()
                ),
            });
        }
    }
    // Re-express against the original instance (original penalties).
    Solution::for_accepted(instance, policy.name(), raw.accepted().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BranchBound, Exhaustive, MarginalGreedy};
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
    fn mandatory_tasks_always_accepted() {
        for seed in 0..5 {
            let instance = inst(seed, 10, 1.6);
            // Pick the two cheapest tasks (otherwise likely rejected).
            let mut by_penalty: Vec<_> = instance.tasks().iter().copied().collect();
            by_penalty.sort_by(|a, b| a.penalty().partial_cmp(&b.penalty()).unwrap());
            let mandatory: Vec<TaskId> = by_penalty
                .iter()
                .filter(|t| instance.is_acceptable(t))
                .take(2)
                .map(Task::id)
                .collect();
            for policy in [&MarginalGreedy as &dyn RejectionPolicy, &BranchBound] {
                let sol = solve_with_mandatory(&instance, &mandatory, policy).unwrap();
                sol.verify(&instance).unwrap();
                for id in &mandatory {
                    assert!(sol.accepts(*id), "{} dropped mandatory {id}", policy.name());
                }
            }
        }
    }

    #[test]
    fn costs_are_reported_with_original_penalties() {
        let instance = inst(1, 8, 1.2);
        let mandatory = vec![instance.tasks()[0].id()];
        let sol = solve_with_mandatory(&instance, &mandatory, &BranchBound).unwrap();
        // The reported cost must equal the instance oracle's view.
        let direct = instance.cost_of(sol.accepted()).unwrap();
        assert!((sol.cost() - direct).abs() < 1e-9);
        assert!(
            sol.cost() < 1e6,
            "forcing penalties must not leak into the report"
        );
    }

    #[test]
    fn constrained_optimum_never_beats_unconstrained() {
        for seed in 0..5 {
            let instance = inst(seed, 9, 1.8);
            let free = Exhaustive::default().solve(&instance).unwrap().cost();
            let mandatory: Vec<TaskId> = instance
                .tasks()
                .iter()
                .filter(|t| instance.is_acceptable(t))
                .take(1)
                .map(Task::id)
                .collect();
            let forced =
                solve_with_mandatory(&instance, &mandatory, &Exhaustive::default()).unwrap();
            assert!(
                forced.cost() >= free - 1e-9,
                "a constraint cannot reduce the optimum"
            );
        }
    }

    #[test]
    fn infeasible_mandatory_set_is_rejected() {
        let tasks = TaskSet::try_from_tasks(vec![
            Task::new(0, 7.0, 10).unwrap(),
            Task::new(1, 6.0, 10).unwrap(),
        ])
        .unwrap();
        let instance = Instance::new(tasks, cubic_ideal()).unwrap();
        let err =
            solve_with_mandatory(&instance, &[0.into(), 1.into()], &MarginalGreedy).unwrap_err();
        assert!(matches!(err, SchedError::VerificationFailed { .. }));
    }

    #[test]
    fn unknown_mandatory_id_is_error() {
        let instance = inst(0, 5, 1.0);
        assert!(matches!(
            solve_with_mandatory(&instance, &[TaskId::new(99)], &MarginalGreedy),
            Err(SchedError::Model(_))
        ));
    }

    #[test]
    fn empty_mandatory_set_matches_plain_solving() {
        let instance = inst(3, 8, 1.5);
        let plain = BranchBound.solve(&instance).unwrap();
        let layered = solve_with_mandatory(&instance, &[], &BranchBound).unwrap();
        assert_eq!(plain.accepted(), layered.accepted());
    }
}
