//! Task-set transformations used by parameter sweeps.
//!
//! The evaluation repeatedly derives families of instances from one base
//! workload — scaling demand, scaling penalties, shrinking deadlines. These
//! helpers centralise those derivations (identifiers and periods are always
//! preserved, so results across the family are directly comparable).

use crate::{ModelError, Task, TaskSet};

/// Scales every task's execution cycles by `factor ≥ 0` (demand scaling:
/// the utilization of each task scales linearly).
///
/// # Errors
///
/// [`ModelError::InvalidFactor`] if `factor` is negative or not finite.
///
/// # Examples
///
/// ```
/// use rt_model::{transform, Task, TaskSet};
///
/// # fn main() -> Result<(), rt_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![Task::new(0, 2.0, 10)?])?;
/// let heavier = transform::scale_load(&ts, 1.5)?;
/// assert!((heavier.utilization() - 0.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn scale_load(tasks: &TaskSet, factor: f64) -> Result<TaskSet, ModelError> {
    if !factor.is_finite() || factor < 0.0 {
        return Err(ModelError::InvalidFactor {
            factor,
            range: "[0, ∞)",
        });
    }
    rebuild(tasks, |t| {
        Task::new(t.id(), t.wcec() * factor, t.period())?
            .with_deadline(t.deadline())
            .map(|x| x.with_penalty(t.penalty()))
    })
}

/// Scales every task's rejection penalty by `factor ≥ 0`.
///
/// # Errors
///
/// [`ModelError::InvalidFactor`] if `factor` is negative or not finite.
pub fn scale_penalties(tasks: &TaskSet, factor: f64) -> Result<TaskSet, ModelError> {
    if !factor.is_finite() || factor < 0.0 {
        return Err(ModelError::InvalidFactor {
            factor,
            range: "[0, ∞)",
        });
    }
    rebuild(tasks, |t| {
        Task::new(t.id(), t.wcec(), t.period())?
            .with_deadline(t.deadline())
            .map(|x| x.with_penalty(t.penalty() * factor))
    })
}

/// Shrinks every task's relative deadline to `max(1, round(δ·dᵢ))` for
/// `δ ∈ (0, 1]` — the deadline-tightening sweep of experiment E4.
///
/// # Errors
///
/// [`ModelError::InvalidFactor`] if `δ` is not in `(0, 1]`.
pub fn shrink_deadlines(tasks: &TaskSet, delta: f64) -> Result<TaskSet, ModelError> {
    if !delta.is_finite() || delta <= 0.0 || delta > 1.0 {
        return Err(ModelError::InvalidFactor {
            factor: delta,
            range: "(0, 1]",
        });
    }
    rebuild(tasks, |t| {
        let d = ((t.deadline() as f64 * delta).round() as u64).clamp(1, t.period());
        Task::new(t.id(), t.wcec(), t.period())?
            .with_deadline(d)
            .map(|x| x.with_penalty(t.penalty()))
    })
}

fn rebuild(
    tasks: &TaskSet,
    f: impl FnMut(&Task) -> Result<Task, ModelError>,
) -> Result<TaskSet, ModelError> {
    TaskSet::try_from_tasks(tasks.iter().map(f).collect::<Result<Vec<_>, _>>()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::new(0, 2.0, 10).unwrap().with_penalty(3.0),
            Task::new(1, 4.0, 20)
                .unwrap()
                .with_deadline(12)
                .unwrap()
                .with_penalty(5.0),
        ])
        .unwrap()
    }

    #[test]
    fn load_scaling_preserves_structure() {
        let ts = scale_load(&base(), 2.0).unwrap();
        assert!((ts.utilization() - 2.0 * base().utilization()).abs() < 1e-12);
        assert_eq!(ts[1].deadline(), 12);
        assert_eq!(ts[1].penalty(), 5.0);
        assert!(scale_load(&base(), -1.0).is_err());
        assert!(scale_load(&base(), f64::NAN).is_err());
    }

    #[test]
    fn penalty_scaling_preserves_demand() {
        let ts = scale_penalties(&base(), 0.5).unwrap();
        assert!((ts.total_penalty() - 4.0).abs() < 1e-12);
        assert!((ts.utilization() - base().utilization()).abs() < 1e-12);
        assert!(scale_penalties(&base(), -0.1).is_err());
    }

    #[test]
    fn deadline_shrinking_clamps_and_validates() {
        let ts = shrink_deadlines(&base(), 0.5).unwrap();
        assert_eq!(ts[0].deadline(), 5);
        assert_eq!(ts[1].deadline(), 6);
        let tiny = shrink_deadlines(&base(), 0.01).unwrap();
        assert_eq!(tiny[0].deadline(), 1); // clamped to ≥ 1
        assert!(shrink_deadlines(&base(), 0.0).is_err());
        assert!(matches!(
            shrink_deadlines(&base(), 1.5),
            Err(ModelError::InvalidFactor {
                range: "(0, 1]",
                ..
            })
        ));
        // δ = 1 is the identity.
        assert_eq!(shrink_deadlines(&base(), 1.0).unwrap(), base());
    }

    #[test]
    fn zero_factor_is_allowed_for_load_and_penalty() {
        let no_work = scale_load(&base(), 0.0).unwrap();
        assert_eq!(no_work.utilization(), 0.0);
        let free = scale_penalties(&base(), 0.0).unwrap();
        assert_eq!(free.total_penalty(), 0.0);
    }
}
