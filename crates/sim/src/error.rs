use std::error::Error;
use std::fmt;

use rt_model::TaskId;

/// Error raised when configuring or running a simulation.
///
/// Note that a *deadline miss is not an error*: the simulator's job is to
/// observe schedules, including bad ones, so misses are reported in the
/// [`SimReport`](crate::SimReport). Errors are reserved for configurations
/// that make the simulation itself meaningless.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The speed profile contains a non-positive or non-finite speed, so
    /// jobs could never finish.
    InvalidProfile {
        /// Description of the violation.
        reason: &'static str,
    },
    /// A per-task profile references a task that is not in the simulated
    /// set, or a task lacks a profile.
    MissingProfile {
        /// The task without a usable profile.
        task: TaskId,
    },
    /// A profile adopts a speed outside the processor's speed domain.
    SpeedOutsideDomain {
        /// The offending speed.
        speed: f64,
    },
    /// The simulation horizon is zero (nothing to simulate).
    EmptyHorizon,
    /// A fault-model parameter is out of range (see
    /// [`FaultScenario`](crate::FaultScenario)).
    InvalidFault {
        /// Description of the violation.
        reason: &'static str,
    },
    /// An empirical histogram trace could not be read, parsed or used
    /// (see [`FactorHistogram`](crate::FactorHistogram)).
    HistogramTrace {
        /// 1-based line of the offending entry (0 = not tied to one line:
        /// an I/O error, or a refusal that names its bin).
        line: usize,
        /// Description of the violation.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProfile { reason } => write!(f, "invalid speed profile: {reason}"),
            SimError::MissingProfile { task } => {
                write!(f, "no speed profile for task {task}")
            }
            SimError::SpeedOutsideDomain { speed } => {
                write!(
                    f,
                    "profile speed {speed} is outside the processor's speed domain"
                )
            }
            SimError::EmptyHorizon => write!(f, "simulation horizon must be positive"),
            SimError::InvalidFault { reason } => write!(f, "invalid fault model: {reason}"),
            SimError::HistogramTrace { line: 0, reason } => {
                write!(f, "histogram trace: {reason}")
            }
            SimError::HistogramTrace { line, reason } => {
                write!(f, "histogram trace, line {line}: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = SimError::SpeedOutsideDomain { speed: 1.5 };
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
