//! Online admission control: irrevocable accept/reject decisions in
//! arrival order.
//!
//! The offline algorithms see the whole task set; a deployed admission
//! controller sees tasks one at a time and must decide immediately and
//! irrevocably. This module provides the online counterpart of the
//! rejection problem — an extension item of the reproduction, used by the
//! experiments to quantify the price of not knowing the future.
//!
//! Two policies are provided:
//!
//! * [`OnlineGreedy`] — the myopic rule: accept iff the task fits and its
//!   penalty exceeds the marginal energy at the current acceptance level.
//! * [`ThresholdPolicy`] — the same rule with the marginal energy inflated
//!   by a factor `θ ≥ 1`, reserving capacity for potentially denser future
//!   arrivals (the classic online-knapsack style hedge).

use dvs_power::Processor;
use rt_model::{Task, TaskId};

use crate::bounds::marginal_energy;
use crate::{Instance, SchedError, Solution};

/// An online admission policy: decides on one task given the utilization
/// already committed.
pub trait AdmissionPolicy {
    /// Short stable identifier (used in reports).
    fn name(&self) -> &'static str;

    /// Whether to accept `task` on `cpu` given committed utilization `u`,
    /// energy priced over `l` ticks (an instance's hyper-period `L`, an
    /// engine's billing horizon `H`): `vᵢ` against
    /// [`marginal_energy`]`(cpu, l, u, uᵢ)`. Tasks still to arrive are
    /// not seen.
    ///
    /// # Errors
    ///
    /// Power-model errors propagate.
    fn admit(&self, cpu: &Processor, l: u64, u: f64, task: &Task) -> Result<bool, SchedError>;
}

/// Myopic online rule: accept iff feasible and `vᵢ ≥ E*(u+uᵢ) − E*(u)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineGreedy;

impl AdmissionPolicy for OnlineGreedy {
    fn name(&self) -> &'static str {
        "online-greedy"
    }

    fn admit(&self, cpu: &Processor, l: u64, u: f64, task: &Task) -> Result<bool, SchedError> {
        if !cpu.is_feasible(u + task.utilization()) {
            return Ok(false);
        }
        Ok(task.penalty() >= marginal_energy(cpu, l, u, task.utilization())?)
    }
}

/// Hedged online rule: accept iff feasible and
/// `vᵢ ≥ θ · (E*(u+uᵢ) − E*(u))` with `θ ≥ 1`.
///
/// Larger `θ` makes the controller choosier early on, keeping capacity for
/// denser tasks that may arrive later; `θ = 1` recovers [`OnlineGreedy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPolicy {
    theta: f64,
}

impl ThresholdPolicy {
    /// Creates the policy with hedge factor `θ ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] unless `θ` is finite and ≥ 1.
    pub fn new(theta: f64) -> Result<Self, SchedError> {
        if !theta.is_finite() || theta < 1.0 {
            return Err(SchedError::InvalidParameter {
                name: "θ",
                value: theta,
            });
        }
        Ok(ThresholdPolicy { theta })
    }

    /// The hedge factor.
    #[must_use]
    pub fn theta(&self) -> f64 {
        self.theta
    }
}

impl AdmissionPolicy for ThresholdPolicy {
    fn name(&self) -> &'static str {
        "online-threshold"
    }

    fn admit(&self, cpu: &Processor, l: u64, u: f64, task: &Task) -> Result<bool, SchedError> {
        if !cpu.is_feasible(u + task.utilization()) {
            return Ok(false);
        }
        Ok(task.penalty() >= self.theta * marginal_energy(cpu, l, u, task.utilization())?)
    }
}

/// Runs an admission policy over the instance's tasks in the given arrival
/// order and returns the resulting (offline-comparable) [`Solution`].
///
/// `order` must be a permutation of the instance's task identifiers; tasks
/// not listed are treated as never arriving (rejected).
///
/// # Errors
///
/// * [`SchedError::Model`] for identifiers not in the instance.
/// * Policy errors propagate.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::online::{run_online, OnlineGreedy};
/// use reject_sched::Instance;
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(10, 1.5).seed(2).generate()?, cubic_ideal())?;
/// let order: Vec<_> = inst.tasks().iter().map(|t| t.id()).collect();
/// let sol = run_online(&inst, &order, &OnlineGreedy)?;
/// sol.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
pub fn run_online(
    instance: &Instance,
    order: &[TaskId],
    policy: &dyn AdmissionPolicy,
) -> Result<Solution, SchedError> {
    let (cpu, l) = (instance.processor(), instance.hyper_period());
    let mut u = 0.0;
    let mut accepted = Vec::new();
    for id in order {
        let task = instance
            .tasks()
            .get(*id)
            .ok_or(rt_model::ModelError::UnknownTask { task: id.index() })?;
        if policy.admit(cpu, l, u, task)? {
            u += task.utilization();
            accepted.push(task.id());
        }
    }
    Solution::for_accepted(instance, policy.name(), accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Exhaustive;
    use crate::RejectionPolicy;
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::WorkloadSpec;
    use rt_model::TaskSet;

    fn inst(seed: u64, load: f64) -> Instance {
        Instance::new(
            WorkloadSpec::new(12, load).seed(seed).generate().unwrap(),
            cubic_ideal(),
        )
        .unwrap()
    }

    fn id_order(instance: &Instance) -> Vec<TaskId> {
        instance.tasks().iter().map(Task::id).collect()
    }

    #[test]
    fn theta_validation() {
        assert!(ThresholdPolicy::new(0.5).is_err());
        assert!(ThresholdPolicy::new(f64::NAN).is_err());
        assert!(ThresholdPolicy::new(1.0).is_ok());
    }

    #[test]
    fn online_solutions_verify() {
        for seed in 0..5 {
            let instance = inst(seed, 1.8);
            let order = id_order(&instance);
            for policy in [
                &OnlineGreedy as &dyn AdmissionPolicy,
                &ThresholdPolicy::new(1.5).unwrap(),
            ] {
                let s = run_online(&instance, &order, policy).unwrap();
                s.verify(&instance).unwrap();
            }
        }
    }

    #[test]
    fn online_never_beats_offline_optimum() {
        for seed in 0..5 {
            let instance = inst(seed, 2.0);
            let opt = Exhaustive::default().solve(&instance).unwrap().cost();
            let order = id_order(&instance);
            let s = run_online(&instance, &order, &OnlineGreedy).unwrap();
            assert!(s.cost() >= opt - 1e-9);
        }
    }

    #[test]
    fn theta_one_equals_online_greedy() {
        for seed in 0..5 {
            let instance = inst(seed, 1.5);
            let order = id_order(&instance);
            let a = run_online(&instance, &order, &OnlineGreedy).unwrap();
            let b = run_online(&instance, &order, &ThresholdPolicy::new(1.0).unwrap()).unwrap();
            assert_eq!(a.accepted(), b.accepted());
        }
    }

    #[test]
    fn hedging_helps_on_adversarial_order() {
        // Adversarial arrival: a bulky low-density task first, then many
        // high-density tasks. The myopic rule accepts the bulk and starves;
        // a hedged rule keeps room.
        let tasks = TaskSet::try_from_tasks(vec![
            // Fills 0.9 of the processor; penalty 8 beats its own marginal
            // energy (7.29) so the myopic rule takes it, but a θ=2 hedge
            // (14.58) refuses.
            Task::new(0, 9.0, 10).unwrap().with_penalty(8.0),
            Task::new(1, 3.0, 10).unwrap().with_penalty(6.0),
            Task::new(2, 3.0, 10).unwrap().with_penalty(6.0),
            Task::new(3, 3.0, 10).unwrap().with_penalty(6.0),
        ])
        .unwrap();
        let instance = Instance::new(tasks, cubic_ideal()).unwrap();
        let order = id_order(&instance);
        let myopic = run_online(&instance, &order, &OnlineGreedy).unwrap();
        let hedged = run_online(&instance, &order, &ThresholdPolicy::new(2.0).unwrap()).unwrap();
        assert!(myopic.accepts(TaskId::new(0)));
        assert!(!hedged.accepts(TaskId::new(0)));
        assert!(hedged.cost() < myopic.cost());
    }

    #[test]
    fn unknown_id_in_order_is_error() {
        let instance = inst(1, 1.0);
        let err = run_online(&instance, &[TaskId::new(99)], &OnlineGreedy).unwrap_err();
        assert!(matches!(err, SchedError::Model(_)));
    }

    #[test]
    fn partial_order_rejects_unlisted_tasks() {
        let instance = inst(2, 0.5);
        let order: Vec<TaskId> = id_order(&instance).into_iter().take(3).collect();
        let s = run_online(&instance, &order, &OnlineGreedy).unwrap();
        assert!(s.accepted().len() <= 3);
    }
}
