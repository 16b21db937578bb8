use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;

use dvs_power::{PowerError, Processor};
use rt_model::{ModelError, Task, TaskId, TaskSet};

use crate::bounds::{break_even_fn, marginal_energy};
use crate::SchedError;

/// Lazily computed, immutable derived data about an [`Instance`].
///
/// Every field is a pure function of the task set, so the cache is filled on
/// first use and kept for the lifetime of the instance. Solvers run on the
/// calling thread, so plain [`OnceCell`]s suffice. Cached values are
/// *bit-identical* to what the uncached code paths computed: sums are
/// accumulated in task-position order, and the density order uses the same
/// comparator as the greedy algorithms.
#[derive(Debug, Clone, Default)]
struct InstanceCache {
    /// `(identifier, position)` of every task, sorted by identifier: one
    /// merge with a sorted identifier list finds all their positions.
    ids: OnceCell<Vec<(TaskId, usize)>>,
    /// `Σ vᵢ` over all tasks.
    total_penalty: OnceCell<f64>,
    /// Acceptable tasks sorted by penalty density descending (ties by id),
    /// and the position of each (`u32`: half a `usize` per cached task).
    density_order: OnceCell<(Vec<Task>, Vec<u32>)>,
    /// Break-even utilization of each task of
    /// [`InstanceCache::density_order`] (see [`Instance::break_even`]).
    break_even: OnceCell<Vec<f64>>,
    /// Running `(Σ uᵢ, Σ vᵢ)` over [`InstanceCache::density_order`]:
    /// entry `k` covers the first `k` tasks (entry 0 is `(0, 0)`).
    density_prefix: OnceCell<(Vec<f64>, Vec<f64>)>,
    /// Hyper-period of the full set (the LCM walk is `O(n)` with a gcd per
    /// task, and `energy_for` needs it on every pricing call).
    hyper_period: OnceCell<u64>,
}

/// One instance of the rejection-scheduling problem: a periodic task set
/// (with per-task rejection penalties) plus a DVS processor.
///
/// The instance owns the cost model: [`Instance::energy_for`] is the optimal
/// energy `E*(u) = L·rate(u)` per hyper-period, and [`Instance::cost_of`]
/// evaluates a candidate accepted set. All algorithms work exclusively
/// through these two oracles, so every model refinement (leakage, discrete
/// speeds, idle modes) in [`dvs_power`] transparently changes the problem.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::Instance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::try_from_tasks(vec![
///     Task::new(0, 3.0, 10)?.with_penalty(5.0),    // u = 0.3
///     Task::new(1, 8.0, 10)?.with_penalty(1.0),    // u = 0.8 — together they overload
/// ])?;
/// let instance = Instance::new(tasks, cubic_ideal())?;
/// assert!(instance.is_overloaded());
/// // Rejecting τ1 and running τ0 at speed 0.3 costs 10·0.3·0.3² + 1.
/// let cost = instance.cost_of(&[0.into()])?;
/// assert!((cost - (10.0 * 0.3f64.powi(3) + 1.0)).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    tasks: TaskSet,
    cpu: Processor,
    cache: InstanceCache,
}

/// Equality ignores the lazily filled cache — two instances are equal iff
/// their task sets and processors are.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.tasks == other.tasks && self.cpu == other.cpu
    }
}

impl Instance {
    /// Creates an instance.
    ///
    /// Tasks whose individual utilization exceeds `s_max` are permitted —
    /// they can simply never be accepted (the algorithms auto-reject them).
    ///
    /// # Errors
    ///
    /// [`SchedError::ConstrainedDeadline`] naming the first task whose
    /// deadline is shorter than its period: `U(A) ≤ s_max` and
    /// `E* = L·rate(U(A))` hold for implicit deadlines only, and a set that
    /// fits by utilization may still miss a deadline under EDF at the
    /// billed speed. [`ConstrainedInstance`](crate::constrained::ConstrainedInstance)
    /// takes such sets.
    pub fn new(tasks: TaskSet, cpu: Processor) -> Result<Self, SchedError> {
        if let Some(t) = tasks.iter().find(|t| !t.is_implicit_deadline()) {
            return Err(SchedError::ConstrainedDeadline {
                task: t.id().index(),
                deadline: t.deadline(),
                period: t.period(),
            });
        }
        Ok(Instance {
            tasks,
            cpu,
            cache: InstanceCache::default(),
        })
    }

    /// The task set.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The processor.
    #[must_use]
    pub fn processor(&self) -> &Processor {
        &self.cpu
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the instance has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Hyper-period `L` of the full task set (ticks).
    ///
    /// Costs are reported per hyper-period of the *full* set, so solutions
    /// that accept different subsets remain comparable.
    #[must_use]
    pub fn hyper_period(&self) -> u64 {
        *self
            .cache
            .hyper_period
            .get_or_init(|| self.tasks.hyper_period())
    }

    /// Total utilization demand of all tasks.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        self.tasks.utilization()
    }

    /// Total rejection penalty of all tasks (the cost of rejecting everything).
    #[must_use]
    pub fn total_penalty(&self) -> f64 {
        *self
            .cache
            .total_penalty
            .get_or_init(|| self.tasks.total_penalty())
    }

    /// `(identifier, position)` of every task, sorted by identifier.
    fn id_table(&self) -> &[(TaskId, usize)] {
        self.cache.ids.get_or_init(|| {
            let mut ids: Vec<(TaskId, usize)> = self
                .tasks
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id(), i))
                .collect();
            ids.sort_unstable();
            ids
        })
    }

    /// Acceptable tasks (`uᵢ ≤ s_max`) in descending penalty-density order,
    /// ties broken by identifier — the canonical order of the greedy
    /// algorithms and the branch & bound, computed once per instance.
    #[must_use]
    pub fn density_order(&self) -> &[Task] {
        &self.density().0
    }

    fn density(&self) -> &(Vec<Task>, Vec<u32>) {
        self.cache.density_order.get_or_init(|| {
            let tasks = (0u32..).zip(self.tasks.iter().copied());
            let mut order: Vec<(u32, Task)> =
                tasks.filter(|(_, t)| self.is_acceptable(t)).collect();
            order.sort_by(|(_, a), (_, b)| View::order_cmp(a, b));
            order.into_iter().map(|(p, t)| (t, p)).unzip()
        })
    }

    /// Break-even utilization of each task of [`Instance::density_order`]:
    /// `u*ₖ = utilization_at_marginal(ρₖ / L)`, the total load up to which
    /// the task's penalty density `ρₖ` still outweighs the marginal energy
    /// `L·E*′`. Non-increasing along the order; computed once per instance.
    #[must_use]
    pub fn break_even(&self) -> &[f64] {
        self.cache.break_even.get_or_init(|| {
            let break_even = break_even_fn(&self.cpu, self.hyper_period());
            self.density_order().iter().map(break_even).collect()
        })
    }

    /// The instance as branch & bound, its relaxation and its
    /// marginal-greedy seed read it, lent from the caches: [`Instance::density_order`],
    /// [`Instance::break_even`], [`Instance::total_penalty`] (summed in
    /// task-position order), [`Instance::hyper_period`] and the processor.
    #[must_use]
    pub fn view(&self) -> View<'_> {
        View {
            order: self.density_order(),
            break_even: self.break_even(),
            total_penalty: self.total_penalty(),
            hyper_period: self.hyper_period(),
            cpu: &self.cpu,
        }
    }

    /// Prefix sums over [`Instance::density_order`]: `(Σu, Σv)` where entry
    /// `k` covers the first `k` tasks (so both vectors have one more entry
    /// than the order). The sums are accumulated left to right, matching a
    /// sequential sweep term for term.
    #[must_use]
    pub fn density_prefix(&self) -> (&[f64], &[f64]) {
        let (u, v) = self.cache.density_prefix.get_or_init(|| {
            let order = self.density_order();
            let mut pu = Vec::with_capacity(order.len() + 1);
            let mut pv = Vec::with_capacity(order.len() + 1);
            let (mut u, mut v) = (0.0, 0.0);
            pu.push(u);
            pv.push(v);
            for t in order {
                u += t.utilization();
                v += t.penalty();
                pu.push(u);
                pv.push(v);
            }
            (pu, pv)
        });
        (u, v)
    }

    /// `(U(A), Σ_{i ∉ A} vᵢ)` for the tasks named by `accepted`, summed as
    /// [`Instance::marked`] sums; the error is [`Instance::marks_of`]'s.
    pub(crate) fn accepted_sums(&self, accepted: &[TaskId]) -> Result<(f64, f64), TaskId> {
        let marked = self.marked(&self.marks_of(accepted)?);
        Ok((marked.utilization, self.total_penalty() - marked.value))
    }

    /// The mask over task positions of the tasks named by `accepted`
    /// (duplicates collapse): one merge of the sorted identifiers with the
    /// identifier table.
    ///
    /// # Errors
    ///
    /// The first identifier of `accepted`, in input order, that names no
    /// task.
    pub(crate) fn marks_of(&self, accepted: &[TaskId]) -> Result<Vec<bool>, TaskId> {
        let mut sorted = Vec::new();
        let ids = if accepted.is_sorted() {
            accepted
        } else {
            sorted.extend_from_slice(accepted);
            sorted.sort_unstable();
            &sorted
        };
        match self.merge_marks(ids) {
            (marks, true) => Ok(marks),
            (_, false) => {
                let table = self.id_table();
                Err(*accepted
                    .iter()
                    .find(|&&id| table.binary_search_by_key(&id, |&(t, _)| t).is_err())
                    .expect("the merge met an unknown identifier"))
            }
        }
    }

    /// The mask over task positions of the tasks named by the sorted `ids`,
    /// and whether every one names a task (unknown ones are left out).
    pub(crate) fn merge_marks(&self, ids: &[TaskId]) -> (Vec<bool>, bool) {
        let table = self.id_table();
        let mut marks = vec![false; table.len()];
        let mut known = true;
        let mut row = 0;
        for &id in ids {
            while row < table.len() && table[row].0 < id {
                row += 1;
            }
            match table.get(row) {
                Some(&(at, pos)) if at == id => marks[pos] = true,
                _ => known = false,
            }
        }
        (marks, known)
    }

    /// The mask over task positions that sets each `(position, mark)` of `at`.
    pub(crate) fn marks_at(&self, at: impl IntoIterator<Item = (usize, bool)>) -> Vec<bool> {
        let mut marks = vec![false; self.len()];
        at.into_iter().for_each(|(p, mark)| marks[p] = mark);
        marks
    }

    /// The position of each task of [`Instance::density_order`].
    pub(crate) fn density_positions(&self) -> &[u32] {
        &self.density().1
    }

    /// [`Instance::marks_at`] for a mask over [`Instance::density_order`].
    pub(crate) fn density_marks(&self, accept: &[bool]) -> Vec<bool> {
        let positions = self.density_positions().iter().map(|&p| p as usize);
        self.marks_at(positions.zip(accept.iter().copied()))
    }

    /// The tasks at the marked positions, in one pass: the positions are
    /// compacted without a branch on the mark, then each marked task is
    /// read once, in position order. `U(A)` and `Σ_{i ∈ A} vᵢ` are summed
    /// in that order: the order (and so the bits) of summing over
    /// [`TaskSet::subset`], except that an empty sum is `+0`. The
    /// identifiers are sorted only when they do not already ascend.
    pub(crate) fn marked(&self, marks: &[bool]) -> Marked {
        let tasks = self.tasks.as_slice();
        // Every position is written; the cursor moves past it if marked.
        let mut at = vec![0u32; marks.len()];
        let mut count = 0;
        for (p, &mark) in (0u32..).zip(marks) {
            at[count] = p;
            count += usize::from(mark);
        }
        let (mut utilization, mut value) = (0.0, 0.0);
        let mut ids = Vec::with_capacity(count);
        for &p in &at[..count] {
            let t = &tasks[p as usize];
            utilization += t.utilization();
            value += t.penalty();
            ids.push(t.id());
        }
        if !ids.is_sorted() {
            ids.sort_unstable();
        }
        Marked {
            utilization,
            value,
            ids,
        }
    }

    /// Whether the full set exceeds the processor capacity (`U(T) > s_max`),
    /// i.e. rejection is *forced*, not merely economical.
    #[must_use]
    pub fn is_overloaded(&self) -> bool {
        !self.cpu.is_feasible(self.total_utilization())
    }

    /// Whether an individual task can ever be accepted (`uᵢ ≤ s_max`).
    #[must_use]
    pub fn is_acceptable(&self, task: &Task) -> bool {
        self.cpu.is_feasible(task.utilization())
    }

    /// Minimum energy per hyper-period to serve utilization `u`:
    /// `E*(u) = L · rate(u)`.
    ///
    /// # Errors
    ///
    /// [`PowerError`] via [`SchedError::Power`] when `u` is infeasible or
    /// invalid.
    pub fn energy_for(&self, utilization: f64) -> Result<f64, SchedError> {
        Ok(self.cpu.energy_rate(utilization)? * self.hyper_period() as f64)
    }

    /// Marginal energy of raising the served utilization from `u` to
    /// `u + du` (both feasible): `E*(u+du) − E*(u)`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Power`] if either point is infeasible.
    pub fn marginal_energy(&self, u: f64, du: f64) -> Result<f64, SchedError> {
        marginal_energy(&self.cpu, self.hyper_period(), u, du)
    }

    /// `accepted_sums` with an unknown identifier as a model error.
    pub(crate) fn sums_of(&self, accepted: &[TaskId]) -> Result<(f64, f64), SchedError> {
        self.accepted_sums(accepted)
            .map_err(|id| SchedError::Model(ModelError::UnknownTask { task: id.index() }))
    }

    /// Utilization of an accepted set given by task identifiers.
    ///
    /// # Errors
    ///
    /// [`SchedError::Model`] if an identifier is unknown.
    pub fn utilization_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        Ok(self.sums_of(accepted)?.0)
    }

    /// Total penalty of the tasks *not* in `accepted`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Model`] if an identifier is unknown.
    pub fn rejected_penalty_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        Ok(self.sums_of(accepted)?.1)
    }

    /// Full cost of an accepted set: `E*(U(A)) + Σ_{i ∉ A} vᵢ`.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] for unknown identifiers.
    /// * [`SchedError::Power`] if the set is infeasible (`U(A) > s_max`).
    pub fn cost_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let (u, rejected_penalty) = self.sums_of(accepted)?;
        Ok(self.energy_for(u)? + rejected_penalty)
    }

    /// The energy rate function exposed for bounds: `rate(u)` per tick.
    ///
    /// # Errors
    ///
    /// [`SchedError::Power`] when `u` is infeasible or invalid.
    pub fn energy_rate(&self, u: f64) -> Result<f64, PowerError> {
        self.cpu.energy_rate(u)
    }
}

/// The tasks at the marked positions of an instance
/// ([`Instance::marked`]).
pub(crate) struct Marked {
    /// `U(A)`.
    pub(crate) utilization: f64,
    /// `Σ_{i ∈ A} vᵢ`.
    pub(crate) value: f64,
    /// The identifiers, sorted.
    pub(crate) ids: Vec<TaskId>,
}

/// A borrowed, density-ordered rejection instance: everything
/// [`BranchBound`](crate::algorithms::BranchBound)'s search, its
/// relaxation ([`relaxed_cost`](crate::bounds::relaxed_cost)) and its
/// [`MarginalGreedy`](crate::algorithms::MarginalGreedy) seed read.
///
/// [`Instance::view`] lends one from an instance's caches. An owner that
/// keeps a standing task set in this order itself — an online admission
/// engine re-solving its served set on every tick — builds one from its
/// own fields, and so runs the same search without building an
/// [`Instance`].
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    /// Acceptable tasks (`uᵢ ≤ s_max`) in descending penalty density, ties
    /// by identifier.
    pub order: &'a [Task],
    /// Break-even utilization of each task of `order` at `hyper_period`
    /// ([`break_even_fn`]).
    pub break_even: &'a [f64],
    /// `Σ vᵢ` over every task, summed in the owner's task order.
    pub total_penalty: f64,
    /// Hyper-period `L`: costs are per `L` ticks.
    pub hyper_period: u64,
    /// The processor.
    pub cpu: &'a Processor,
}

impl View<'_> {
    /// The order of [`View::order`]: penalty density descending, ties by
    /// identifier.
    ///
    /// # Panics
    ///
    /// If a density is NaN (task validation rules that out).
    #[must_use]
    pub fn order_cmp(a: &Task, b: &Task) -> Ordering {
        b.penalty_density()
            .partial_cmp(&a.penalty_density())
            .expect("densities are not NaN")
            .then(a.id().index().cmp(&b.id().index()))
    }

    /// `E*(u) = L·rate(u)`, the bits of [`Instance::energy_for`].
    ///
    /// # Errors
    ///
    /// [`SchedError::Power`] when `u` is infeasible or invalid.
    pub fn energy(&self, u: f64) -> Result<f64, SchedError> {
        Ok(self.cpu.energy_rate(u)? * self.hyper_period as f64)
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instance[n={}, U={:.3}, s_max={}, V={:.3}, L={}]",
            self.len(),
            self.total_utilization(),
            self.cpu.max_speed(),
            self.total_penalty(),
            self.hyper_period()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};

    fn instance() -> Instance {
        let tasks = TaskSet::try_from_tasks(vec![
            Task::new(0, 3.0, 10).unwrap().with_penalty(5.0),
            Task::new(1, 8.0, 10).unwrap().with_penalty(1.0),
        ])
        .unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    #[test]
    fn overload_detection() {
        assert!(instance().is_overloaded());
        let light = Instance::new(
            TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10).unwrap()]).unwrap(),
            cubic_ideal(),
        )
        .unwrap();
        assert!(!light.is_overloaded());
    }

    #[test]
    fn cost_components_add_up() {
        let inst = instance();
        let accepted = vec![TaskId::new(0)];
        let e = inst.energy_for(0.3).unwrap();
        let v = inst.rejected_penalty_of(&accepted).unwrap();
        assert!((inst.cost_of(&accepted).unwrap() - (e + v)).abs() < 1e-12);
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_acceptance_costs_total_penalty() {
        let inst = instance();
        assert!((inst.cost_of(&[]).unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_acceptance_is_error() {
        let inst = instance();
        let both = vec![TaskId::new(0), TaskId::new(1)];
        assert!(matches!(inst.cost_of(&both), Err(SchedError::Power(_))));
    }

    #[test]
    fn unknown_id_is_error() {
        let inst = instance();
        assert!(matches!(
            inst.cost_of(&[TaskId::new(9)]),
            Err(SchedError::Model(_))
        ));
    }

    #[test]
    fn unacceptable_task_detected() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 15.0, 10).unwrap()]).unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        assert!(!inst.is_acceptable(&inst.tasks()[0]));
    }

    #[test]
    fn marginal_energy_positive_and_convex() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10).unwrap()]).unwrap();
        let inst = Instance::new(tasks, xscale_ideal()).unwrap();
        let m1 = inst.marginal_energy(0.2, 0.1).unwrap();
        let m2 = inst.marginal_energy(0.6, 0.1).unwrap();
        assert!(m1 >= 0.0);
        assert!(m2 >= m1, "marginal energy must grow (convexity)");
    }

    #[test]
    fn display_summarises() {
        let s = instance().to_string();
        assert!(s.contains("n=2"));
        assert!(s.contains("U=1.100"));
    }

    #[test]
    fn index_map_resolves_every_task() {
        let inst = instance();
        let (t0, t1, t9) = (TaskId::new(0), TaskId::new(1), TaskId::new(9));
        assert_eq!(inst.accepted_sums(&[t0]).unwrap().0, 0.3);
        assert_eq!(inst.accepted_sums(&[t1]).unwrap().0, 0.8);
        // The first unknown identifier in input order is reported, sorted
        // or not.
        assert_eq!(inst.accepted_sums(&[t1, t9]), Err(t9));
        assert_eq!(
            inst.accepted_sums(&[TaskId::new(12), t0, t9]),
            Err(TaskId::new(12))
        );
    }

    #[test]
    fn cached_oracles_match_subset_based_computation() {
        let inst = instance();
        for ids in [vec![], vec![TaskId::new(0)], vec![TaskId::new(1)]] {
            let sub = inst.tasks().subset(&ids).unwrap();
            assert_eq!(inst.utilization_of(&ids).unwrap(), sub.utilization());
            assert_eq!(
                inst.rejected_penalty_of(&ids).unwrap(),
                inst.tasks().total_penalty() - sub.total_penalty()
            );
        }
        assert_eq!(inst.total_penalty(), inst.tasks().total_penalty());
    }

    #[test]
    fn duplicate_ids_collapse_like_subset() {
        let inst = instance();
        let dup = vec![TaskId::new(0), TaskId::new(0)];
        assert!((inst.utilization_of(&dup).unwrap() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn density_order_is_sorted_and_prefixes_accumulate() {
        let inst = instance();
        let order = inst.density_order();
        assert!(order
            .windows(2)
            .all(|w| w[0].penalty_density() >= w[1].penalty_density()));
        let (pu, pv) = inst.density_prefix();
        assert_eq!(pu.len(), order.len() + 1);
        assert_eq!(pu[0], 0.0);
        for (k, t) in order.iter().enumerate() {
            assert!((pu[k + 1] - (pu[k] + t.utilization())).abs() < 1e-15);
            assert!((pv[k + 1] - (pv[k] + t.penalty())).abs() < 1e-15);
        }
    }

    #[test]
    fn hyper_period_cache_matches_task_set() {
        let inst = instance();
        assert_eq!(inst.hyper_period(), inst.tasks().hyper_period());
        assert_eq!(inst.hyper_period(), inst.tasks().hyper_period());
    }

    #[test]
    fn equality_and_clone_ignore_cache_state() {
        let a = instance();
        let _ = a.density_order(); // warm the cache on one side only
        let _ = a.utilization_of(&[TaskId::new(0)]);
        let b = instance();
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.total_penalty(), a.total_penalty());
    }
}
