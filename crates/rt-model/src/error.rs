use std::error::Error;
use std::fmt;

/// Error raised when constructing or validating model objects.
///
/// Every constructor in this crate validates its arguments (periods must be
/// positive, cycles and penalties finite and non-negative, task identifiers
/// unique within a set) and reports violations through this type.
///
/// # Examples
///
/// ```
/// use rt_model::{ModelError, Task};
///
/// let err = Task::new(0, -1.0, 10).unwrap_err();
/// assert!(matches!(err, ModelError::InvalidCycles { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// Worst-case execution cycles were negative, NaN, or infinite.
    InvalidCycles {
        /// Identifier of the offending task.
        task: usize,
        /// The rejected value.
        cycles: f64,
    },
    /// The period was zero (periods are strictly positive integers).
    InvalidPeriod {
        /// Identifier of the offending task.
        task: usize,
    },
    /// The rejection penalty was negative, NaN, or infinite.
    InvalidPenalty {
        /// Identifier of the offending task.
        task: usize,
        /// The rejected value.
        penalty: f64,
    },
    /// Two tasks in one set share the same identifier.
    DuplicateTaskId {
        /// The duplicated identifier.
        task: usize,
    },
    /// A task's relative deadline was zero or past its period.
    InvalidDeadline {
        /// Identifier of the offending task.
        task: usize,
        /// The rejected deadline.
        deadline: u64,
        /// The task's period, the largest deadline allowed.
        period: u64,
    },
    /// A [`transform`](crate::transform) factor was outside its range.
    InvalidFactor {
        /// The rejected factor.
        factor: f64,
        /// The admissible range, as printed in the message.
        range: &'static str,
    },
    /// A referenced task identifier does not exist in the set.
    UnknownTask {
        /// The missing identifier.
        task: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidCycles { task, cycles } => {
                write!(
                    f,
                    "task {task}: execution cycles {cycles} is not finite and non-negative"
                )
            }
            ModelError::InvalidPeriod { task } => {
                write!(f, "task {task}: period must be a positive number of ticks")
            }
            ModelError::InvalidPenalty { task, penalty } => {
                write!(
                    f,
                    "task {task}: rejection penalty {penalty} is not finite and non-negative"
                )
            }
            ModelError::DuplicateTaskId { task } => {
                write!(f, "duplicate task identifier {task} in task set")
            }
            ModelError::InvalidDeadline {
                task,
                deadline,
                period,
            } => write!(
                f,
                "task {task}: relative deadline {deadline} must be between 1 and the period {period}"
            ),
            ModelError::InvalidFactor { factor, range } => {
                write!(f, "transform factor {factor} is not in {range}")
            }
            ModelError::UnknownTask { task } => write!(f, "unknown task identifier {task}"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = ModelError::InvalidPeriod { task: 3 };
        let msg = e.to_string();
        assert!(msg.contains("task 3"));
        assert!(msg.starts_with(char::is_lowercase));
        assert!(!msg.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
