use std::error::Error;
use std::fmt;

use dvs_power::PowerError;
use edf_sim::SimError;
use rt_model::ModelError;

/// Error raised by the rejection-scheduling algorithms.
///
/// # Examples
///
/// ```
/// use reject_sched::algorithms::ScaledDp;
/// use reject_sched::SchedError;
///
/// let err = ScaledDp::new(0.0).unwrap_err();
/// assert!(matches!(err, SchedError::InvalidParameter { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// A task-model error (propagated from [`rt_model`]).
    Model(ModelError),
    /// A power-model error (propagated from [`dvs_power`]).
    Power(PowerError),
    /// A simulation error (propagated from [`edf_sim`]).
    Sim(SimError),
    /// The instance is too large for the requested exact algorithm.
    TooLarge {
        /// Number of tasks in the instance.
        n: usize,
        /// The algorithm's hard limit.
        limit: usize,
        /// Which algorithm refused.
        algorithm: &'static str,
    },
    /// An algorithm parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A task has a constrained deadline (`dᵢ < pᵢ`), which
    /// [`Instance`](crate::Instance)'s utilization pricing cannot
    /// schedule; [`ConstrainedInstance`](crate::constrained::ConstrainedInstance)
    /// prices such sets with the YDS oracle.
    ConstrainedDeadline {
        /// Index of the first such task.
        task: usize,
        /// Its relative deadline.
        deadline: u64,
        /// Its period.
        period: u64,
    },
    /// A solution failed verification against its instance.
    VerificationFailed {
        /// Human-readable description of the violated property.
        reason: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::Model(e) => write!(f, "task model error: {e}"),
            SchedError::Power(e) => write!(f, "power model error: {e}"),
            SchedError::Sim(e) => write!(f, "simulation error: {e}"),
            SchedError::TooLarge {
                n,
                limit,
                algorithm,
            } => write!(
                f,
                "{algorithm} refuses {n} tasks (limit {limit}); use an approximation algorithm"
            ),
            SchedError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is out of range")
            }
            SchedError::ConstrainedDeadline {
                task,
                deadline,
                period,
            } => write!(
                f,
                "task τ{task} has a constrained deadline ({deadline} < period {period}); \
                 use ConstrainedInstance"
            ),
            SchedError::VerificationFailed { reason } => {
                write!(f, "solution verification failed: {reason}")
            }
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Model(e) => Some(e),
            SchedError::Power(e) => Some(e),
            SchedError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for SchedError {
    fn from(e: ModelError) -> Self {
        SchedError::Model(e)
    }
}

impl From<PowerError> for SchedError {
    fn from(e: PowerError) -> Self {
        SchedError::Power(e)
    }
}

impl From<SimError> for SchedError {
    fn from(e: SimError) -> Self {
        SchedError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_work() {
        let e: SchedError = ModelError::InvalidPeriod { task: 0 }.into();
        assert!(matches!(e, SchedError::Model(_)));
        let e: SchedError = PowerError::InvalidDemand { utilization: -1.0 }.into();
        assert!(matches!(e, SchedError::Power(_)));
        let e: SchedError = SimError::EmptyHorizon.into();
        assert!(matches!(e, SchedError::Sim(_)));
    }

    #[test]
    fn source_chains() {
        let e: SchedError = ModelError::InvalidPeriod { task: 0 }.into();
        assert!(e.source().is_some());
        let e = SchedError::InvalidParameter {
            name: "ε",
            value: 0.0,
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchedError>();
    }
}
