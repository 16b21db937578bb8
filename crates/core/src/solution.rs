use std::fmt;

use dvs_power::ExecutionPlan;
use edf_sim::{SimReport, Simulator, SpeedProfile};
use rt_model::{ModelError, TaskId};

use crate::{Instance, SchedError};

/// Tolerance used when re-checking stored costs during verification.
const VERIFY_TOLERANCE: f64 = 1e-6;

/// A solution of the rejection-scheduling problem: an accepted set and its
/// cost breakdown. The optimal execution plan is built on demand
/// ([`Solution::plan`]).
///
/// Solutions are produced by [`RejectionPolicy::solve`](crate::RejectionPolicy::solve)
/// implementations and are self-describing (they carry the producing
/// algorithm's name). Two consistency tools are provided:
///
/// * [`Solution::verify`] — analytic re-check: identifiers valid, accepted
///   set feasible, stored energy/penalty/cost agree with the instance's
///   oracles.
/// * [`Solution::replay`] — empirical re-check: simulate the accepted set on
///   the instance's processor with [`edf_sim`] and confirm zero deadline
///   misses (returning the full report, whose measured energy can be
///   compared against [`Solution::energy`]).
///
/// # Examples
///
/// See the [crate documentation](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    algorithm: &'static str,
    accepted: Vec<TaskId>,
    energy: f64,
    penalty: f64,
}

impl Solution {
    /// The solution that accepts the tasks named by `accepted` on
    /// `instance` (duplicates collapse), priced as every solver's result
    /// is: `U(A)` and the accepted penalty summed in task-position order.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] naming the least unknown identifier.
    /// * [`SchedError::Power`] if the accepted set is infeasible.
    pub fn for_accepted(
        instance: &Instance,
        algorithm: &'static str,
        accepted: impl IntoIterator<Item = TaskId>,
    ) -> Result<Self, SchedError> {
        let mut accepted: Vec<TaskId> = accepted.into_iter().collect();
        accepted.sort_unstable();
        let unknown = |id: TaskId| ModelError::UnknownTask { task: id.index() };
        let marks = instance.marks_of(&accepted).map_err(unknown)?;
        Self::from_marks(instance, algorithm, &marks)
    }

    /// The solution that accepts the tasks at the marked positions of
    /// `instance`: the one constructor, so costs always come from the
    /// instance's oracles, never from a solver's bookkeeping. One pass
    /// over the marked tasks ([`Instance::marked`]) sums `U(A)` and the
    /// accepted penalty in position order and collects the sorted ids.
    ///
    /// # Errors
    ///
    /// [`SchedError::Power`] if the accepted set is infeasible.
    pub(crate) fn from_marks(
        instance: &Instance,
        algorithm: &'static str,
        marks: &[bool],
    ) -> Result<Self, SchedError> {
        let marked = instance.marked(marks);
        Ok(Solution {
            algorithm,
            energy: instance.energy_for(marked.utilization)?,
            penalty: instance.total_penalty() - marked.value,
            accepted: marked.ids,
        })
    }

    /// The same solution under another algorithm's name.
    pub(crate) fn relabelled(mut self, algorithm: &'static str) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Name of the producing algorithm.
    #[must_use]
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// The accepted task identifiers, sorted.
    #[must_use]
    pub fn accepted(&self) -> &[TaskId] {
        &self.accepted
    }

    /// Whether a given task was accepted.
    #[must_use]
    pub fn accepts(&self, id: TaskId) -> bool {
        self.accepted.binary_search(&id).is_ok()
    }

    /// The rejected task identifiers (those of `instance` not accepted).
    #[must_use]
    pub fn rejected(&self, instance: &Instance) -> Vec<TaskId> {
        let (accepted, _) = instance.merge_marks(&self.accepted);
        let tasks = instance.tasks().iter().zip(accepted);
        tasks.filter(|(_, a)| !a).map(|(t, _)| t.id()).collect()
    }

    /// The optimal execution plan for the accepted set on `instance`
    /// (`None` when everything was rejected).
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] if an accepted identifier is not in
    ///   `instance`.
    /// * [`SchedError::Power`] if the accepted set is infeasible on it.
    pub fn plan(&self, instance: &Instance) -> Result<Option<ExecutionPlan>, SchedError> {
        if self.accepted.is_empty() {
            return Ok(None);
        }
        let (u, _) = instance.sums_of(&self.accepted)?;
        Ok(Some(instance.processor().plan(u)?))
    }

    /// Energy component `E*(U(A))` per hyper-period.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Penalty component `Σ_{i ∉ A} vᵢ` per hyper-period.
    #[must_use]
    pub fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Total cost `energy + penalty` per hyper-period.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.energy + self.penalty
    }

    /// Fraction of tasks accepted.
    #[must_use]
    pub fn acceptance_ratio(&self, instance: &Instance) -> f64 {
        if instance.is_empty() {
            1.0
        } else {
            self.accepted.len() as f64 / instance.len() as f64
        }
    }

    /// Analytic verification against the instance.
    ///
    /// # Errors
    ///
    /// [`SchedError::VerificationFailed`] describing the first violated
    /// property: duplicate/unknown identifiers, infeasible utilization, or a
    /// cost component that disagrees with the instance's oracles.
    pub fn verify(&self, instance: &Instance) -> Result<(), SchedError> {
        let mut ids = self.accepted.clone();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(SchedError::VerificationFailed {
                reason: "accepted set contains duplicates".into(),
            });
        }
        let (u, penalty) = instance.accepted_sums(&self.accepted).map_err(|id| {
            SchedError::VerificationFailed {
                reason: format!("accepted task {id} is not in the instance"),
            }
        })?;
        if !instance.processor().is_feasible(u) {
            return Err(SchedError::VerificationFailed {
                reason: format!(
                    "accepted utilization {u} exceeds s_max {}",
                    instance.processor().max_speed()
                ),
            });
        }
        let energy = instance
            .energy_for(u)
            .map_err(|e| SchedError::VerificationFailed {
                reason: e.to_string(),
            })?;
        if (energy - self.energy).abs() > VERIFY_TOLERANCE * energy.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored energy {} but oracle says {energy}", self.energy),
            });
        }
        if (penalty - self.penalty).abs() > VERIFY_TOLERANCE * penalty.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored penalty {} but oracle says {penalty}", self.penalty),
            });
        }
        Ok(())
    }

    /// Empirical verification: simulates one hyper-period of the accepted
    /// set under EDF at the planned speeds and checks for deadline misses.
    ///
    /// Returns the simulation report so callers can additionally compare
    /// measured against analytic energy.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Sim`] for simulator configuration problems.
    /// * [`SchedError::VerificationFailed`] if any deadline was missed.
    pub fn replay(&self, instance: &Instance) -> Result<SimReport, SchedError> {
        let subset = instance.tasks().subset(&self.accepted)?;
        if subset.is_empty() {
            return Err(SchedError::VerificationFailed {
                reason: "cannot replay a solution that rejects every task".into(),
            });
        }
        let plan = self.plan(instance)?.expect("non-empty accepted set");
        // Simulate over the *instance's* hyper-period (every accepted period
        // divides it), so the measured energy is directly comparable to
        // [`Solution::energy`].
        let report = Simulator::new(&subset, instance.processor())
            .with_profile(SpeedProfile::from_plan(&plan))
            .run(instance.hyper_period())?;
        if let Some(miss) = report.misses().first() {
            return Err(SchedError::VerificationFailed {
                reason: format!("replay observed a deadline miss: {miss}"),
            });
        }
        Ok(report)
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[accepted={}, energy={:.4}, penalty={:.4}, cost={:.4}]",
            self.algorithm,
            self.accepted.len(),
            self.energy,
            self.penalty,
            self.cost()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::cubic_ideal;
    use rt_model::{Task, TaskSet};

    fn instance() -> Instance {
        let tasks = TaskSet::try_from_tasks(vec![
            Task::new(0, 3.0, 10).unwrap().with_penalty(5.0),
            Task::new(1, 8.0, 10).unwrap().with_penalty(1.0),
        ])
        .unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    #[test]
    fn construction_computes_costs() {
        let inst = instance();
        let s = Solution::for_accepted(&inst, "test", [TaskId::new(0)]).unwrap();
        assert!((s.energy() - 10.0 * 0.3f64.powi(3)).abs() < 1e-9);
        assert!((s.penalty() - 1.0).abs() < 1e-12);
        assert!((s.cost() - (s.energy() + s.penalty())).abs() < 1e-12);
        assert!(s.accepts(TaskId::new(0)));
        assert!(!s.accepts(TaskId::new(1)));
        assert_eq!(s.rejected(&inst), vec![TaskId::new(1)]);
    }

    #[test]
    fn duplicates_in_input_are_collapsed() {
        let inst = instance();
        let s = Solution::for_accepted(&inst, "test", [TaskId::new(0), TaskId::new(0)]).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(0)]);
        s.verify(&inst).unwrap();
    }

    #[test]
    fn infeasible_accepted_set_rejected_at_construction() {
        let inst = instance();
        let r = Solution::for_accepted(&inst, "test", [TaskId::new(0), TaskId::new(1)]);
        assert!(matches!(r, Err(SchedError::Power(_))));
    }

    #[test]
    fn verify_passes_for_constructed_solutions() {
        let inst = instance();
        for ids in [vec![], vec![TaskId::new(0)], vec![TaskId::new(1)]] {
            Solution::for_accepted(&inst, "test", ids)
                .unwrap()
                .verify(&inst)
                .unwrap();
        }
    }

    #[test]
    fn verify_catches_tampered_energy() {
        let inst = instance();
        let mut s = Solution::for_accepted(&inst, "test", [TaskId::new(0)]).unwrap();
        s.energy += 1.0;
        assert!(matches!(
            s.verify(&inst),
            Err(SchedError::VerificationFailed { .. })
        ));
    }

    #[test]
    fn verify_catches_tampered_identifiers() {
        let inst = instance();
        let reason = |accepted: &[usize]| {
            let mut s = Solution::for_accepted(&inst, "test", [TaskId::new(0)]).unwrap();
            s.accepted = accepted.iter().map(|&i| TaskId::new(i)).collect();
            match s.verify(&inst) {
                Err(SchedError::VerificationFailed { reason }) => reason,
                other => panic!("{accepted:?}: {other:?}"),
            }
        };
        assert_eq!(reason(&[1, 0, 1]), "accepted set contains duplicates");
        // The first unknown identifier in stored order is named.
        assert_eq!(
            reason(&[0, 9, 7]),
            "accepted task τ9 is not in the instance"
        );
    }

    #[test]
    fn replay_meets_deadlines_and_matches_energy() {
        let inst = instance();
        let s = Solution::for_accepted(&inst, "test", [TaskId::new(1)]).unwrap();
        let report = s.replay(&inst).unwrap();
        assert!(report.misses().is_empty());
        assert!((report.energy() - s.energy()).abs() < 1e-6 * s.energy().max(1.0));
    }

    #[test]
    fn replay_of_empty_solution_is_error() {
        let inst = instance();
        let s = Solution::for_accepted(&inst, "test", []).unwrap();
        assert!(matches!(
            s.replay(&inst),
            Err(SchedError::VerificationFailed { .. })
        ));
    }

    #[test]
    fn acceptance_ratio() {
        let inst = instance();
        let s = Solution::for_accepted(&inst, "test", [TaskId::new(0)]).unwrap();
        assert!((s.acceptance_ratio(&inst) - 0.5).abs() < 1e-12);
    }
}
