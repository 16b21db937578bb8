//! Sensitivity analysis: what-if questions a system designer asks after
//! solving an instance.
//!
//! * [`acceptance_price`] — the penalty level at which the *optimal*
//!   decision for one task flips from reject to accept. Optimal acceptance
//!   is monotone in a task's own penalty (the cost of every
//!   acceptance-containing solution falls linearly in `vᵢ` relative to the
//!   rejection-containing ones), so the flip point is a well-defined
//!   threshold — the task's market price for processor service.
//! * [`capacity_value`] — the marginal cost reduction per unit of extra
//!   maximum speed, i.e. what the designer would pay for a faster part.

use dvs_power::{Processor, SpeedDomain};
use rt_model::{Task, TaskId, TaskSet};

use crate::algorithms::BranchBound;
use crate::{Instance, RejectionPolicy, SchedError};

/// Bisection iterations for the acceptance-price search.
const BISECT_ITERS: usize = 50;

/// Replaces one task's penalty, returning the rebuilt instance.
fn with_penalty(instance: &Instance, id: TaskId, penalty: f64) -> Result<Instance, SchedError> {
    let tasks = TaskSet::try_from_tasks(instance.tasks().iter().map(|t| {
        let base = Task::new(t.id(), t.wcec(), t.period())
            .expect("existing tasks are valid")
            .with_deadline(t.deadline())
            .expect("existing deadlines are valid");
        if t.id() == id {
            base.with_penalty(penalty)
        } else {
            base.with_penalty(t.penalty())
        }
    }))?;
    Instance::new(tasks, instance.processor().clone())
}

/// The penalty threshold above which the optimal schedule accepts `task`
/// (up to `tolerance`), or `None` if the task can never be accepted
/// (its utilization exceeds `s_max`).
///
/// Uses [`BranchBound`] as the exact oracle; complexity is
/// `O(log(1/tolerance))` exact solves.
///
/// # Errors
///
/// * [`SchedError::Model`] for an unknown identifier.
/// * [`SchedError::InvalidParameter`] for a non-positive tolerance.
/// * Pricing errors from the instance's power model, propagated from the
///   solver ([`SchedError::Power`]).
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::analysis::acceptance_price;
/// use reject_sched::Instance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A lone task with u = 0.5 on P = s³, L = 10: accepting costs
/// // E(0.5) = 1.25, so that is exactly its acceptance price.
/// let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 5.0, 10)?])?;
/// let inst = Instance::new(tasks, cubic_ideal())?;
/// let price = acceptance_price(&inst, 0.into(), 1e-6)?.unwrap();
/// assert!((price - 1.25).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn acceptance_price(
    instance: &Instance,
    id: TaskId,
    tolerance: f64,
) -> Result<Option<f64>, SchedError> {
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "tolerance",
            value: tolerance,
        });
    }
    let task = *instance
        .tasks()
        .get(id)
        .ok_or(rt_model::ModelError::UnknownTask { task: id.index() })?;
    if !instance.is_acceptable(&task) {
        return Ok(None);
    }
    let solver = BranchBound;
    let accepted_at = |v: f64| -> Result<bool, SchedError> {
        let probe = with_penalty(instance, id, v)?;
        Ok(solver.solve(&probe)?.accepts(id))
    };
    // Upper bracket: the energy of running the whole processor flat out is
    // an upper bound on any single task's marginal energy, hence on the
    // price.
    let mut hi = instance.energy_for(instance.processor().max_speed())? + 1.0;
    if !accepted_at(hi)? {
        // Degenerate tie-breaking; raise once more, then give up gracefully.
        hi *= 4.0;
        if !accepted_at(hi)? {
            return Ok(None);
        }
    }
    let mut lo = 0.0f64;
    if accepted_at(0.0)? {
        return Ok(Some(0.0));
    }
    for _ in 0..BISECT_ITERS {
        if hi - lo <= tolerance {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if accepted_at(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

/// The marginal value of capacity: `(cost(s_max) − cost(s_max·(1+δ))) /
/// (s_max·δ)` — the optimal-cost reduction per unit of additional maximum
/// speed, evaluated exactly with [`BranchBound`] at both points.
///
/// Zero when the instance is underloaded and energy-saturated; positive
/// whenever extra capacity would admit more value than it costs in energy.
///
/// # Errors
///
/// * [`SchedError::InvalidParameter`] for a non-positive `delta`.
/// * Propagates solver errors.
pub fn capacity_value(instance: &Instance, delta: f64) -> Result<f64, SchedError> {
    if !delta.is_finite() || delta <= 0.0 {
        return Err(SchedError::InvalidParameter {
            name: "δ",
            value: delta,
        });
    }
    let solver = BranchBound;
    let base = solver.solve(instance)?.cost();
    let s_max = instance.processor().max_speed();
    let faster = Processor::new(
        *instance.processor().power(),
        SpeedDomain::continuous(0.0, s_max * (1.0 + delta))?,
    )
    .with_idle_mode(instance.processor().idle_mode());
    let boosted = Instance::new(instance.tasks().clone(), faster)?;
    let new_cost = solver.solve(&boosted)?.cost();
    Ok(((base - new_cost) / (s_max * delta)).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::generator::WorkloadSpec;

    fn single(u: f64) -> Instance {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, u * 10.0, 10).unwrap()]).unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    #[test]
    fn lone_task_price_is_its_energy() {
        for &u in &[0.2, 0.5, 0.8] {
            let inst = single(u);
            let price = acceptance_price(&inst, 0.into(), 1e-7).unwrap().unwrap();
            let energy = inst.energy_for(u).unwrap();
            assert!(
                (price - energy).abs() < 1e-4,
                "u = {u}: {price} vs {energy}"
            );
        }
    }

    #[test]
    fn price_respects_the_flip() {
        let inst = single(0.5);
        let price = acceptance_price(&inst, 0.into(), 1e-6).unwrap().unwrap();
        let below = with_penalty(&inst, 0.into(), price - 1e-3).unwrap();
        let above = with_penalty(&inst, 0.into(), price + 1e-3).unwrap();
        let solver = BranchBound;
        assert!(!solver.solve(&below).unwrap().accepts(0.into()));
        assert!(solver.solve(&above).unwrap().accepts(0.into()));
    }

    #[test]
    fn impossible_tasks_have_no_price() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 15.0, 10).unwrap()]).unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        assert_eq!(acceptance_price(&inst, 0.into(), 1e-6).unwrap(), None);
    }

    #[test]
    fn crowding_raises_prices() {
        // The same task is more expensive to serve on a crowded processor
        // (its marginal energy is higher up the convex curve, and it may
        // displace others).
        let alone = single(0.3);
        let crowded = {
            let tasks = TaskSet::try_from_tasks(vec![
                Task::new(0, 3.0, 10).unwrap(),
                Task::new(1, 6.0, 10).unwrap().with_penalty(1e6), // immovable
            ])
            .unwrap();
            Instance::new(tasks, cubic_ideal()).unwrap()
        };
        let p_alone = acceptance_price(&alone, 0.into(), 1e-6).unwrap().unwrap();
        let p_crowded = acceptance_price(&crowded, 0.into(), 1e-6).unwrap().unwrap();
        assert!(
            p_crowded > p_alone + 1e-6,
            "crowded {p_crowded} should exceed alone {p_alone}"
        );
    }

    #[test]
    fn zero_price_for_free_valuable_tasks() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 0.0, 10).unwrap().with_penalty(1.0)])
            .unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        assert_eq!(acceptance_price(&inst, 0.into(), 1e-6).unwrap(), Some(0.0));
    }

    #[test]
    fn unknown_id_and_bad_tolerance() {
        let inst = single(0.5);
        assert!(acceptance_price(&inst, 9.into(), 1e-6).is_err());
        assert!(acceptance_price(&inst, 0.into(), 0.0).is_err());
    }

    #[test]
    fn capacity_worthless_when_underloaded() {
        let tasks = WorkloadSpec::new(6, 0.4).seed(1).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let v = capacity_value(&inst, 0.1).unwrap();
        assert!(
            v.abs() < 1e-9,
            "capacity value {v} should be ~0 when underloaded"
        );
    }

    #[test]
    fn capacity_valuable_when_capacity_binds() {
        // Capacity has value only when it is the *binding* constraint:
        // penalties must dominate marginal energy at U = s_max, otherwise
        // the optimum stops below s_max for economic reasons and extra
        // speed is worthless (checked by `capacity_worthless_when_underloaded`
        // and, implicitly, by default-penalty overloaded instances).
        let tasks = WorkloadSpec::new(10, 2.0)
            .penalty_model(rt_model::generator::PenaltyModel::UtilizationProportional {
                scale: 20.0,
                jitter: 0.2,
            })
            .seed(2)
            .generate()
            .unwrap();
        let inst = Instance::new(tasks, xscale_ideal()).unwrap();
        let v = capacity_value(&inst, 0.1).unwrap();
        assert!(
            v > 0.0,
            "capacity-bound instances should value extra speed, got {v}"
        );
        assert!(capacity_value(&inst, 0.0).is_err());
    }

    #[test]
    fn economically_bound_overload_values_capacity_at_zero() {
        // Overloaded, but penalties are cheap relative to energy: the
        // optimum already stops below s_max, so a faster part buys nothing.
        let tasks = WorkloadSpec::new(10, 2.0)
            .penalty_model(rt_model::generator::PenaltyModel::UtilizationProportional {
                scale: 0.5,
                jitter: 0.2,
            })
            .seed(2)
            .generate()
            .unwrap();
        let inst = Instance::new(tasks, xscale_ideal()).unwrap();
        let v = capacity_value(&inst, 0.1).unwrap();
        assert!(v.abs() < 1e-9, "economically bound: expected 0, got {v}");
    }
}
