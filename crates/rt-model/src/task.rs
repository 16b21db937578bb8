use std::fmt;

use crate::ModelError;

/// Opaque identifier of a task within a [`TaskSet`](crate::TaskSet).
///
/// Identifiers are small integers chosen by the caller (typically the index
/// in the originating workload). They only need to be unique within one set.
///
/// # Examples
///
/// ```
/// use rt_model::TaskId;
///
/// let id = TaskId::new(7);
/// assert_eq!(id.index(), 7);
/// assert_eq!(format!("{id}"), "τ7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(usize);

impl TaskId {
    /// Creates an identifier from a raw index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        TaskId(index)
    }

    /// Returns the raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl From<usize> for TaskId {
    fn from(index: usize) -> Self {
        TaskId(index)
    }
}

/// A periodic real-time task `τᵢ = (cᵢ, pᵢ, vᵢ)`.
///
/// * `wcec` — worst-case execution cycles `cᵢ` per job (non-negative, finite;
///   may be fractional because cycle counts are normalised against speeds).
/// * `period` — period `pᵢ` in integral ticks; the relative deadline equals
///   the period (implicit-deadline model).
/// * `penalty` — rejection penalty `vᵢ` charged **per hyper-period** if the
///   task is not admitted.
///
/// The *utilization demand* of the task is `uᵢ = cᵢ / pᵢ`, measured in cycles
/// per tick — i.e. the minimum constant processor speed dedicated to `τᵢ`
/// alone.
///
/// # Examples
///
/// ```
/// use rt_model::Task;
///
/// # fn main() -> Result<(), rt_model::ModelError> {
/// let t = Task::new(0, 30.0, 100)?.with_penalty(2.5);
/// assert_eq!(t.wcec(), 30.0);
/// assert_eq!(t.period(), 100);
/// assert!((t.utilization() - 0.3).abs() < 1e-12);
/// assert_eq!(t.penalty(), 2.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    id: TaskId,
    wcec: f64,
    period: u64,
    deadline: u64,
    penalty: f64,
    domain: Option<usize>,
}

impl Task {
    /// Creates a task with the given identifier, worst-case execution cycles,
    /// and period in ticks. The rejection penalty defaults to `0`; set it
    /// with [`Task::with_penalty`].
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidCycles`] if `wcec` is negative, NaN, or infinite.
    /// * [`ModelError::InvalidPeriod`] if `period == 0`.
    pub fn new(id: impl Into<TaskId>, wcec: f64, period: u64) -> Result<Self, ModelError> {
        let id = id.into();
        if !wcec.is_finite() || wcec < 0.0 {
            return Err(ModelError::InvalidCycles {
                task: id.index(),
                cycles: wcec,
            });
        }
        if period == 0 {
            return Err(ModelError::InvalidPeriod { task: id.index() });
        }
        Ok(Task {
            id,
            wcec,
            period,
            deadline: period,
            penalty: 0.0,
            domain: None,
        })
    }

    /// Returns a copy of this task **pinned** to the given power domain.
    ///
    /// A pinned task may only be placed on (and priced against) that one
    /// domain — the partitioned-multiprocessor reading of the model, where
    /// the assignment of tasks to processors is an input rather than a
    /// placement decision. Unpinned tasks (the default) are placed on the
    /// cheapest domain by the consumer.
    ///
    /// The index is interpreted by the consumer (e.g. the admission engine
    /// validates it against its domain count); the model layer only stores
    /// it.
    #[must_use]
    pub const fn with_domain(mut self, domain: usize) -> Self {
        self.domain = Some(domain);
        self
    }

    /// The power-domain pin, if any (see [`Task::with_domain`]).
    #[must_use]
    pub const fn domain(&self) -> Option<usize> {
        self.domain
    }

    /// Returns a copy with a **constrained deadline** `d ≤ p` (the default
    /// is the implicit deadline `d = p`).
    ///
    /// Constrained deadlines tighten feasibility from the utilization test
    /// to the processor-demand criterion and make non-constant (YDS-style)
    /// speed schedules optimal — see
    /// `feasibility::min_constant_speed` and the `yds` module of `edf-sim`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidDeadline`] if `deadline == 0` or
    /// `deadline > period`.
    pub fn with_deadline(mut self, deadline: u64) -> Result<Self, ModelError> {
        if deadline == 0 || deadline > self.period {
            return Err(ModelError::InvalidDeadline {
                task: self.id.index(),
                deadline,
                period: self.period,
            });
        }
        self.deadline = deadline;
        Ok(self)
    }

    /// Returns a copy of this task with the rejection penalty replaced.
    ///
    /// # Panics
    ///
    /// Panics if `penalty` is negative, NaN, or infinite; penalties come from
    /// workload generators or user configuration where a bad value is a
    /// programming error.
    #[must_use]
    pub fn with_penalty(mut self, penalty: f64) -> Self {
        assert!(
            penalty.is_finite() && penalty >= 0.0,
            "rejection penalty must be finite and non-negative, got {penalty}"
        );
        self.penalty = penalty;
        self
    }

    /// Returns a copy of this task with the worst-case execution cycles replaced.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidCycles`] if `wcec` is negative, NaN, or infinite.
    pub fn with_wcec(mut self, wcec: f64) -> Result<Self, ModelError> {
        if !wcec.is_finite() || wcec < 0.0 {
            return Err(ModelError::InvalidCycles {
                task: self.id.index(),
                cycles: wcec,
            });
        }
        self.wcec = wcec;
        Ok(self)
    }

    /// The task identifier.
    #[must_use]
    pub const fn id(&self) -> TaskId {
        self.id
    }

    /// Worst-case execution cycles `cᵢ` per job.
    #[must_use]
    pub const fn wcec(&self) -> f64 {
        self.wcec
    }

    /// Period `pᵢ` in ticks.
    #[must_use]
    pub const fn period(&self) -> u64 {
        self.period
    }

    /// Relative deadline `dᵢ ≤ pᵢ` in ticks (defaults to the period).
    #[must_use]
    pub const fn deadline(&self) -> u64 {
        self.deadline
    }

    /// Whether the task has an implicit deadline (`dᵢ = pᵢ`).
    #[must_use]
    pub const fn is_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }

    /// Density `cᵢ / dᵢ`: the utilization generalisation used by
    /// constrained-deadline feasibility (`density ≥ utilization`, equality
    /// iff the deadline is implicit).
    #[must_use]
    pub fn density(&self) -> f64 {
        self.wcec / self.deadline as f64
    }

    /// Rejection penalty `vᵢ` per hyper-period.
    #[must_use]
    pub const fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Utilization demand `uᵢ = cᵢ / pᵢ` in cycles per tick.
    ///
    /// This is the minimum constant speed that completes every job of the
    /// task exactly at its deadline.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.wcec / self.period as f64
    }

    /// Penalty density `vᵢ / uᵢ`: penalty per unit of demanded speed.
    ///
    /// The greedy heuristics in `reject-sched` order tasks by this quantity —
    /// a task with low penalty density is a cheap candidate for rejection
    /// because dropping it frees a lot of capacity per unit of penalty paid.
    ///
    /// Returns `f64::INFINITY` for zero-utilization tasks with positive
    /// penalty (they are free to accept), and `0.0` when both are zero.
    #[must_use]
    pub fn penalty_density(&self) -> f64 {
        let u = self.utilization();
        if u == 0.0 {
            if self.penalty == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.penalty / u
        }
    }

    /// Number of jobs the task releases in one hyper-period of length `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a multiple of the period (i.e. not a true
    /// hyper-period for this task).
    #[must_use]
    pub fn jobs_per_hyper_period(&self, l: u64) -> u64 {
        assert!(
            l.is_multiple_of(self.period),
            "{l} is not a hyper-period for task with period {}",
            self.period
        );
        l / self.period
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_implicit_deadline() {
            write!(
                f,
                "{}(c={}, p={}, v={})",
                self.id, self.wcec, self.period, self.penalty
            )
        } else {
            write!(
                f,
                "{}(c={}, p={}, d={}, v={})",
                self.id, self.wcec, self.period, self.deadline, self.penalty
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_cycles() {
        assert!(Task::new(0, f64::NAN, 5).is_err());
        assert!(Task::new(0, f64::INFINITY, 5).is_err());
        assert!(Task::new(0, -0.5, 5).is_err());
        assert!(Task::new(0, 0.0, 5).is_ok());
    }

    #[test]
    fn construction_validates_period() {
        assert!(matches!(
            Task::new(4, 1.0, 0),
            Err(ModelError::InvalidPeriod { task: 4 })
        ));
    }

    #[test]
    #[should_panic(expected = "rejection penalty")]
    fn with_penalty_rejects_negative() {
        let _ = Task::new(0, 1.0, 1).unwrap().with_penalty(-1.0);
    }

    #[test]
    fn utilization_and_density() {
        let t = Task::new(1, 2.0, 8).unwrap().with_penalty(1.0);
        assert!((t.utilization() - 0.25).abs() < 1e-12);
        assert!((t.penalty_density() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_utilization_density_edge_cases() {
        let free = Task::new(0, 0.0, 10).unwrap();
        assert_eq!(free.penalty_density(), 0.0);
        let valuable = Task::new(1, 0.0, 10).unwrap().with_penalty(5.0);
        assert_eq!(valuable.penalty_density(), f64::INFINITY);
    }

    #[test]
    fn jobs_per_hyper_period_counts() {
        let t = Task::new(0, 1.0, 4).unwrap();
        assert_eq!(t.jobs_per_hyper_period(12), 3);
    }

    #[test]
    #[should_panic(expected = "not a hyper-period")]
    fn jobs_per_hyper_period_rejects_non_multiple() {
        let t = Task::new(0, 1.0, 5).unwrap();
        let _ = t.jobs_per_hyper_period(12);
    }

    #[test]
    fn with_wcec_replaces_cycles() {
        let t = Task::new(0, 1.0, 5).unwrap().with_wcec(3.0).unwrap();
        assert_eq!(t.wcec(), 3.0);
        assert!(t.with_wcec(f64::NAN).is_err());
    }

    #[test]
    fn display_formats() {
        let t = Task::new(2, 1.5, 10).unwrap().with_penalty(0.5);
        assert_eq!(t.to_string(), "τ2(c=1.5, p=10, v=0.5)");
        let t = t.with_deadline(7).unwrap();
        assert_eq!(t.to_string(), "τ2(c=1.5, p=10, d=7, v=0.5)");
    }

    #[test]
    fn domain_pin_defaults_to_none() {
        let t = Task::new(0, 2.0, 10).unwrap();
        assert_eq!(t.domain(), None);
        let pinned = t.with_domain(3);
        assert_eq!(pinned.domain(), Some(3));
        // The pin participates in equality: a pinned task is not the
        // unpinned task (journal replay must preserve it).
        assert_ne!(t, pinned);
    }

    #[test]
    fn deadlines_default_to_period() {
        let t = Task::new(0, 2.0, 10).unwrap();
        assert_eq!(t.deadline(), 10);
        assert!(t.is_implicit_deadline());
        assert!((t.density() - t.utilization()).abs() < 1e-12);
    }

    #[test]
    fn constrained_deadline_validated() {
        let t = Task::new(0, 2.0, 10).unwrap();
        assert!(t.with_deadline(0).is_err());
        assert!(t.with_deadline(11).is_err());
        let c = t.with_deadline(5).unwrap();
        assert!(!c.is_implicit_deadline());
        assert!((c.density() - 0.4).abs() < 1e-12);
        assert!(c.density() > c.utilization());
    }
}
