use std::collections::HashSet;
use std::fmt;
use std::ops::Index;

use crate::{lcm, Job, JobIter, ModelError, Task, TaskId};

/// An ordered collection of periodic tasks with unique identifiers.
///
/// `TaskSet` is the unit the schedulers operate on: it knows its hyper-period,
/// total utilization demand, and total rejection penalty, and can enumerate
/// the jobs released in any interval (for the simulator).
///
/// # Examples
///
/// ```
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), rt_model::ModelError> {
/// let ts: TaskSet = TaskSet::try_from_tasks(vec![
///     Task::new(0, 1.0, 2)?,
///     Task::new(1, 2.5, 5)?,
/// ])?;
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.hyper_period(), 10);
/// // 5 jobs of τ0 and 2 jobs of τ1 in one hyper-period
/// assert_eq!(ts.jobs_in_hyper_period().count(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty task set.
    #[must_use]
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Builds a task set from tasks, validating identifier uniqueness.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateTaskId`] if two tasks share an identifier.
    pub fn try_from_tasks(tasks: impl IntoIterator<Item = Task>) -> Result<Self, ModelError> {
        let tasks: Vec<Task> = tasks.into_iter().collect();
        let mut ids: Vec<TaskId> = tasks.iter().map(Task::id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            // Name the identifier whose second occurrence comes first.
            let mut seen = HashSet::with_capacity(tasks.len());
            let repeat = tasks
                .iter()
                .find(|t| !seen.insert(t.id()))
                .expect("a sorted scan found a repeat");
            return Err(ModelError::DuplicateTaskId {
                task: repeat.id().index(),
            });
        }
        Ok(TaskSet { tasks })
    }

    /// Adds a task to the set.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateTaskId`] if the identifier is already present.
    pub fn push(&mut self, task: Task) -> Result<(), ModelError> {
        if self.tasks.iter().any(|t| t.id() == task.id()) {
            return Err(ModelError::DuplicateTaskId {
                task: task.id().index(),
            });
        }
        self.tasks.push(task);
        Ok(())
    }

    /// Number of tasks in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set contains no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// The tasks as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks a task up by identifier.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Hyper-period `L`: the least common multiple of all periods
    /// (`0` for an empty set).
    #[must_use]
    pub fn hyper_period(&self) -> u64 {
        self.tasks
            .iter()
            .map(Task::period)
            .fold(0, |acc, p| if acc == 0 { p } else { lcm(acc, p) })
    }

    /// Total utilization demand `U = Σ cᵢ/pᵢ` in cycles per tick.
    ///
    /// `U` is the minimum constant processor speed under which EDF meets all
    /// deadlines, so the set is feasible on a processor with maximum speed
    /// `s_max` iff `U ≤ s_max`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// Total rejection penalty `Σ vᵢ` per hyper-period.
    #[must_use]
    pub fn total_penalty(&self) -> f64 {
        self.tasks.iter().map(Task::penalty).sum()
    }

    /// Total cycles demanded in one hyper-period: `L · U`.
    #[must_use]
    pub fn cycles_per_hyper_period(&self) -> f64 {
        let l = self.hyper_period();
        self.tasks
            .iter()
            .map(|t| t.wcec() * (l / t.period()) as f64)
            .sum()
    }

    /// Returns the sub-set of tasks whose identifiers are in `ids`,
    /// preserving this set's order.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownTask`] if some identifier is not in the set.
    pub fn subset(&self, ids: &[TaskId]) -> Result<TaskSet, ModelError> {
        let wanted: HashSet<TaskId> = ids.iter().copied().collect();
        for id in &wanted {
            if self.get(*id).is_none() {
                return Err(ModelError::UnknownTask { task: id.index() });
            }
        }
        Ok(TaskSet {
            tasks: self
                .tasks
                .iter()
                .filter(|t| wanted.contains(&t.id()))
                .copied()
                .collect(),
        })
    }

    /// Removes a task by identifier, returning it if present.
    pub fn remove(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.tasks.iter().position(|t| t.id() == id)?;
        Some(self.tasks.remove(pos))
    }

    /// Merges another set into this one.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateTaskId`] on the first identifier collision
    /// (this set keeps the tasks merged before the collision).
    pub fn merge(&mut self, other: TaskSet) -> Result<(), ModelError> {
        for t in other {
            self.push(t)?;
        }
        Ok(())
    }

    /// Splits the set into `(selected, rest)` according to a predicate.
    #[must_use]
    pub fn partition(&self, mut pred: impl FnMut(&Task) -> bool) -> (TaskSet, TaskSet) {
        let (a, b): (Vec<Task>, Vec<Task>) = self.tasks.iter().partition(|t| pred(t));
        (TaskSet { tasks: a }, TaskSet { tasks: b })
    }

    /// Returns the tasks sorted by a key, leaving the set untouched.
    #[must_use]
    pub fn sorted_by(&self, compare: impl FnMut(&Task, &Task) -> std::cmp::Ordering) -> Vec<Task> {
        let mut v = self.tasks.clone();
        v.sort_by(compare);
        v
    }

    /// Enumerates every job released in `[0, horizon)` in release order
    /// (ties broken by task order).
    ///
    /// Each job's absolute deadline is `release + period`, which may lie past
    /// the horizon; the simulator decides how to treat the boundary.
    #[must_use]
    pub fn jobs_in(&self, horizon: u64) -> JobIter {
        JobIter::new(self, horizon)
    }

    /// Enumerates every job of one hyper-period, i.e. `jobs_in(hyper_period())`.
    #[must_use]
    pub fn jobs_in_hyper_period(&self) -> JobIter {
        self.jobs_in(self.hyper_period())
    }

    /// Collects all jobs of one hyper-period into a vector sorted by release
    /// time (ties by task id).
    #[must_use]
    pub fn hyper_period_jobs(&self) -> Vec<Job> {
        let mut jobs: Vec<Job> = self.jobs_in_hyper_period().collect();
        jobs.sort_by(|a, b| {
            a.release()
                .cmp(&b.release())
                .then(a.task().index().cmp(&b.task().index()))
        });
        jobs
    }
}

impl Index<usize> for TaskSet {
    type Output = Task;

    fn index(&self, index: usize) -> &Task {
        &self.tasks[index]
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;

    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::new(0, 1.0, 2).unwrap().with_penalty(3.0),
            Task::new(1, 2.5, 5).unwrap().with_penalty(1.0),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = TaskSet::try_from_tasks(vec![
            Task::new(7, 1.0, 2).unwrap(),
            Task::new(7, 1.0, 3).unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err, ModelError::DuplicateTaskId { task: 7 });
    }

    #[test]
    fn duplicate_error_names_the_first_repeat() {
        // The first repeat sits at the start, in the middle and at the end;
        // a second, smaller duplicate must not be named instead.
        for (ids, named) in [
            (vec![5, 5, 1, 2, 3, 1], 5),
            (vec![3, 8, 1, 8, 3, 6], 8),
            (vec![2, 0, 9, 4, 6, 0], 0),
        ] {
            let tasks = ids.iter().map(|&i| Task::new(i, 1.0, 4).unwrap());
            let err = TaskSet::try_from_tasks(tasks).unwrap_err();
            assert_eq!(err, ModelError::DuplicateTaskId { task: named }, "{ids:?}");
        }
    }

    #[test]
    fn push_checks_duplicates() {
        let mut ts = example();
        assert!(ts.push(Task::new(0, 1.0, 4).unwrap()).is_err());
        assert!(ts.push(Task::new(2, 1.0, 4).unwrap()).is_ok());
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn hyper_period_is_lcm_of_periods() {
        assert_eq!(example().hyper_period(), 10);
        assert_eq!(TaskSet::new().hyper_period(), 0);
    }

    #[test]
    fn utilization_and_penalty_totals() {
        let ts = example();
        assert!((ts.utilization() - 1.0).abs() < 1e-12);
        assert!((ts.total_penalty() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_per_hyper_period_counts_all_jobs() {
        // τ0: 5 jobs × 1.0 cycles; τ1: 2 jobs × 2.5 cycles → 10 cycles
        assert!((example().cycles_per_hyper_period() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn subset_preserves_order_and_validates() {
        let ts = example();
        let sub = ts.subset(&[TaskId::new(1)]).unwrap();
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].id(), TaskId::new(1));
        assert!(ts.subset(&[TaskId::new(9)]).is_err());
    }

    #[test]
    fn partition_splits() {
        let (heavy, light) = example().partition(|t| t.utilization() >= 0.5);
        assert_eq!(heavy.len(), 2); // both are exactly 0.5
        assert_eq!(light.len(), 0);
    }

    #[test]
    fn hyper_period_jobs_sorted_and_complete() {
        let jobs = example().hyper_period_jobs();
        assert_eq!(jobs.len(), 7);
        assert!(jobs.windows(2).all(|w| w[0].release() <= w[1].release()));
        // First job of each task released at 0.
        assert_eq!(jobs[0].release(), 0);
        assert_eq!(jobs[1].release(), 0);
    }

    #[test]
    fn get_by_id() {
        let ts = example();
        assert_eq!(ts.get(TaskId::new(1)).unwrap().period(), 5);
        assert!(ts.get(TaskId::new(3)).is_none());
    }

    #[test]
    fn remove_and_merge() {
        let mut ts = example();
        let t = ts.remove(TaskId::new(0)).unwrap();
        assert_eq!(t.period(), 2);
        assert_eq!(ts.len(), 1);
        assert!(ts.remove(TaskId::new(0)).is_none());

        let other = TaskSet::try_from_tasks(vec![
            Task::new(0, 1.0, 4).unwrap(),
            Task::new(2, 1.0, 8).unwrap(),
        ])
        .unwrap();
        ts.merge(other).unwrap();
        assert_eq!(ts.len(), 3);
        // Colliding merge fails on the duplicate.
        let dup = TaskSet::try_from_tasks(vec![Task::new(2, 1.0, 8).unwrap()]).unwrap();
        assert!(ts.merge(dup).is_err());
    }

    #[test]
    fn display_lists_tasks() {
        let s = example().to_string();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("τ0") && s.contains("τ1"));
    }
}
