//! # rt-model — periodic real-time task model
//!
//! Substrate crate for the `dvs-rejection` workspace: it defines the task and
//! job model shared by every scheduler, simulator, and experiment in the
//! reproduction of *"Energy-Efficient Real-Time Task Scheduling with Task
//! Rejection"* (DATE 2007).
//!
//! The model follows the system model used across the authors' papers:
//!
//! * A **periodic task** `τᵢ` is an infinite sequence of jobs characterised by
//!   its worst-case execution cycles `cᵢ` and period `pᵢ`; the relative
//!   deadline `dᵢ` equals the period unless [`Task::with_deadline`]
//!   constrains it to `dᵢ ≤ pᵢ`, and all tasks arrive at time 0.
//! * Workload is measured in **cycles**; the number of cycles executed in an
//!   interval is linear in processor speed, so execution *time* is
//!   `cᵢ / s` at speed `s`.
//! * The **hyper-period** `L` is the least common multiple of the periods; a
//!   feasible schedule for `(0, L]` repeats forever.
//! * Each task additionally carries a **rejection penalty** `vᵢ`: the cost
//!   (per hyper-period) of not admitting the task — the knob that the target
//!   paper adds to the classic energy-minimisation problem.
//!
//! Time is measured in integral **ticks** (so hyper-periods are exact);
//! cycles and penalties are non-negative reals.
//!
//! # Examples
//!
//! ```
//! use rt_model::{Task, TaskSet};
//!
//! # fn main() -> Result<(), rt_model::ModelError> {
//! let tasks = TaskSet::try_from_tasks(vec![
//!     Task::new(0, 1.0, 2)?.with_penalty(3.0),
//!     Task::new(1, 2.5, 5)?.with_penalty(1.0),
//! ])?;
//! assert_eq!(tasks.hyper_period(), 10);
//! assert!((tasks.utilization() - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod job;
mod task;
mod task_set;

pub mod feasibility;
pub mod generator;
pub mod io;
pub mod rng;
pub mod transform;

pub use error::ModelError;
pub use job::{Job, JobIter};
pub use task::{Task, TaskId};
pub use task_set::TaskSet;

/// Greatest common divisor of two integers (Euclid).
///
/// ```
/// assert_eq!(rt_model::gcd(12, 18), 6);
/// assert_eq!(rt_model::gcd(0, 7), 7);
/// ```
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two integers.
///
/// Saturates at `u64::MAX` on overflow; callers that need exact hyper-periods
/// should keep periods within a few orders of magnitude of each other (the
/// generators in [`generator`] draw periods from a harmonic-friendly set for
/// this reason).
///
/// ```
/// assert_eq!(rt_model::lcm(4, 6), 12);
/// assert_eq!(rt_model::lcm(2, 5), 10);
/// ```
#[must_use]
pub fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = gcd(a, b);
    (a / g).saturating_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(48, 36), 12);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(3, 7), 21);
        assert_eq!(lcm(10, 4), 20);
        assert_eq!(lcm(0, 9), 0);
    }

    #[test]
    fn lcm_saturates_instead_of_overflowing() {
        assert_eq!(lcm(u64::MAX, u64::MAX - 1), u64::MAX);
    }
}
