use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock};

use dvs_power::{PowerError, Processor};
use rt_model::{ModelError, Task, TaskId, TaskSet};

use crate::SchedError;

/// Lazily computed, immutable derived data about an [`Instance`].
///
/// Every field is a pure function of the task set, so the cache is filled on
/// first use and shared for the lifetime of the instance ([`OnceLock`] makes
/// the fills thread-safe, which the parallel solvers rely on). Cached values
/// are *bit-identical* to what the uncached code paths computed: sums are
/// accumulated in task-position order, and the density order uses the same
/// comparator as the greedy algorithms.
#[derive(Debug, Default)]
struct InstanceCache {
    /// Task identifier → position in the task set (replaces the `O(n)`
    /// linear scan of [`TaskSet::get`] on the cost-evaluation hot path).
    index_of: OnceLock<HashMap<TaskId, usize>>,
    /// `Σ vᵢ` over all tasks.
    total_penalty: OnceLock<f64>,
    /// Acceptable tasks sorted by penalty density descending (ties by id).
    density_order: OnceLock<Vec<Task>>,
    /// Break-even utilization of each task of
    /// [`InstanceCache::density_order`] (see [`Instance::break_even`]).
    break_even: OnceLock<Vec<f64>>,
    /// Running `(Σ uᵢ, Σ vᵢ)` over [`InstanceCache::density_order`]:
    /// entry `k` covers the first `k` tasks (entry 0 is `(0, 0)`).
    density_prefix: OnceLock<(Vec<f64>, Vec<f64>)>,
    /// Hyper-period of the full set (the LCM walk is `O(n)` with a gcd per
    /// task, and `energy_for` needs it on every pricing call).
    hyper_period: OnceLock<u64>,
    /// Memoized `E*(u)` keyed by the bit pattern of `u`. Branch & bound and
    /// the admission engine evaluate the same utilization sums over and
    /// over (subset sums collide massively); each entry stores exactly the
    /// value the uncached expression produced on first evaluation, so
    /// replays are bit-identical and insertion order cannot matter.
    energy_memo: RwLock<HashMap<u64, f64>>,
}

/// Cloning snapshots the memo tables; the clone shares no state with the
/// original (plain `HashMap` copies behind fresh locks).
impl Clone for InstanceCache {
    fn clone(&self) -> Self {
        InstanceCache {
            index_of: self.index_of.clone(),
            total_penalty: self.total_penalty.clone(),
            density_order: self.density_order.clone(),
            break_even: self.break_even.clone(),
            density_prefix: self.density_prefix.clone(),
            hyper_period: self.hyper_period.clone(),
            energy_memo: RwLock::new(
                self.energy_memo
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

/// Hard cap on the pricing memo: admission sessions run indefinitely, so the
/// table must not grow without bound. 2¹⁶ entries (~1 MiB) covers every
/// realistic working set; on overflow new values are computed but not stored.
const ENERGY_MEMO_CAP: usize = 1 << 16;

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
    /// Currently infallible for validated inputs; returns `Result` so future
    /// invariants can be added without breaking callers.
    pub fn new(tasks: TaskSet, cpu: Processor) -> Result<Self, SchedError> {
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

    /// Task identifier → position map, built once on first use.
    fn index_map(&self) -> &HashMap<TaskId, usize> {
        self.cache.index_of.get_or_init(|| {
            self.tasks
                .iter()
                .enumerate()
                .map(|(i, t)| (t.id(), i))
                .collect()
        })
    }

    /// Position of a task in the set, if present (`O(1)` after warm-up).
    #[must_use]
    pub fn index_of(&self, id: TaskId) -> Option<usize> {
        self.index_map().get(&id).copied()
    }

    /// Acceptable tasks (`uᵢ ≤ s_max`) in descending penalty-density order,
    /// ties broken by identifier — the canonical order of the greedy
    /// algorithms and the branch & bound, computed once per instance.
    #[must_use]
    pub fn density_order(&self) -> &[Task] {
        self.cache.density_order.get_or_init(|| {
            let mut tasks: Vec<Task> = self
                .tasks
                .iter()
                .filter(|t| self.is_acceptable(t))
                .copied()
                .collect();
            tasks.sort_by(|a, b| {
                b.penalty_density()
                    .partial_cmp(&a.penalty_density())
                    .expect("densities are not NaN")
                    .then(a.id().index().cmp(&b.id().index()))
            });
            tasks
        })
    }

    /// Break-even utilization of each task of [`Instance::density_order`]:
    /// `u*ₖ = utilization_at_marginal(ρₖ / L)`, the total load up to which
    /// the task's penalty density `ρₖ` still outweighs the marginal energy
    /// `L·E*′`. Non-increasing along the order; computed once per instance.
    #[must_use]
    pub fn break_even(&self) -> &[f64] {
        self.cache.break_even.get_or_init(|| {
            let l = self.hyper_period() as f64;
            self.density_order()
                .iter()
                .map(|t| self.cpu.utilization_at_marginal(t.penalty_density() / l))
                .collect()
        })
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

    /// Marks the positions of `accepted` in the task set (duplicates
    /// collapse, like the old [`TaskSet::subset`]-based path).
    ///
    /// # Errors
    ///
    /// [`SchedError::Model`] if an identifier is unknown.
    fn accept_marks(&self, accepted: &[TaskId]) -> Result<Vec<bool>, SchedError> {
        let index = self.index_map();
        let mut marks = vec![false; self.tasks.len()];
        for id in accepted {
            match index.get(id) {
                Some(&i) => marks[i] = true,
                None => {
                    return Err(SchedError::Model(ModelError::UnknownTask {
                        task: id.index(),
                    }))
                }
            }
        }
        Ok(marks)
    }

    /// Sums `(Σ uᵢ, Σ vᵢ)` over the marked tasks in task-position order —
    /// the same order (and therefore the same floating-point result) as
    /// summing over [`TaskSet::subset`].
    fn marked_sums(&self, marks: &[bool]) -> (f64, f64) {
        let (mut u, mut v) = (0.0, 0.0);
        for (t, &m) in self.tasks.iter().zip(marks) {
            if m {
                u += t.utilization();
                v += t.penalty();
            }
        }
        (u, v)
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

    /// Uncached `E*(u)` — the expression the memo table stores verbatim.
    /// Kept as a named public path so tests can pin the memoized result to
    /// it bit for bit.
    ///
    /// # Errors
    ///
    /// [`PowerError`] via [`SchedError::Power`] when `u` is infeasible or
    /// invalid.
    pub fn energy_for_uncached(&self, utilization: f64) -> Result<f64, SchedError> {
        Ok(self.cpu.energy_rate(utilization)? * self.hyper_period() as f64)
    }

    /// Minimum energy per hyper-period to serve utilization `u`:
    /// `E*(u) = L · rate(u)`, memoized on the bit pattern of `u`.
    ///
    /// # Errors
    ///
    /// [`PowerError`] via [`SchedError::Power`] when `u` is infeasible or
    /// invalid.
    pub fn energy_for(&self, utilization: f64) -> Result<f64, SchedError> {
        let key = utilization.to_bits();
        if let Some(&e) = self
            .cache
            .energy_memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(e);
        }
        let e = self.energy_for_uncached(utilization)?;
        // `E*` is a pure function of `u`, so concurrent fills insert the
        // same bits — last-writer-wins is harmless and the table stays
        // deterministic regardless of thread interleaving. Errors are not
        // cached (they carry no value and are off the hot path).
        let mut memo = self
            .cache
            .energy_memo
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.len() < ENERGY_MEMO_CAP {
            memo.insert(key, e);
        }
        Ok(e)
    }

    /// Marginal energy of raising the served utilization from `u` to
    /// `u + du` (both feasible): `E*(u+du) − E*(u)`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Power`] if either point is infeasible.
    pub fn marginal_energy(&self, u: f64, du: f64) -> Result<f64, SchedError> {
        Ok(self.energy_for(u + du)? - self.energy_for(u)?)
    }

    /// Utilization of an accepted set given by task identifiers.
    ///
    /// # Errors
    ///
    /// [`SchedError::Model`] if an identifier is unknown.
    pub fn utilization_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let marks = self.accept_marks(accepted)?;
        Ok(self.marked_sums(&marks).0)
    }

    /// Total penalty of the tasks *not* in `accepted`.
    ///
    /// # Errors
    ///
    /// [`SchedError::Model`] if an identifier is unknown.
    pub fn rejected_penalty_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let marks = self.accept_marks(accepted)?;
        Ok(self.total_penalty() - self.marked_sums(&marks).1)
    }

    /// Full cost of an accepted set: `E*(U(A)) + Σ_{i ∉ A} vᵢ`.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] for unknown identifiers.
    /// * [`SchedError::Power`] if the set is infeasible (`U(A) > s_max`).
    pub fn cost_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let marks = self.accept_marks(accepted)?;
        let (u, accepted_penalty) = self.marked_sums(&marks);
        Ok(self.energy_for(u)? + (self.total_penalty() - accepted_penalty))
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
        assert_eq!(inst.index_of(TaskId::new(0)), Some(0));
        assert_eq!(inst.index_of(TaskId::new(1)), Some(1));
        assert_eq!(inst.index_of(TaskId::new(9)), None);
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
    fn memoized_energy_replays_uncached_bits() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10).unwrap()]).unwrap();
        for cpu in [cubic_ideal(), xscale_ideal()] {
            let inst = Instance::new(tasks.clone(), cpu).unwrap();
            for k in 0..=100 {
                let u = k as f64 / 100.0;
                let memo1 = inst.energy_for(u).unwrap();
                let memo2 = inst.energy_for(u).unwrap(); // replay from table
                let naive = inst.energy_for_uncached(u).unwrap();
                assert_eq!(memo1.to_bits(), naive.to_bits(), "first fill at u={u}");
                assert_eq!(memo2.to_bits(), naive.to_bits(), "replay at u={u}");
            }
            // Infeasible demand still errors after warm-up.
            assert!(inst.energy_for(2.0).is_err());
        }
    }

    #[test]
    fn memoized_marginal_energy_matches_uncached() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10).unwrap()]).unwrap();
        let inst = Instance::new(tasks, xscale_ideal()).unwrap();
        for k in 0..90 {
            let u = k as f64 / 100.0;
            let m = inst.marginal_energy(u, 0.07).unwrap();
            let naive =
                inst.energy_for_uncached(u + 0.07).unwrap() - inst.energy_for_uncached(u).unwrap();
            assert_eq!(m.to_bits(), naive.to_bits(), "at u={u}");
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
        let _ = a.index_of(TaskId::new(0));
        let b = instance();
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.total_penalty(), a.total_penalty());
    }
}
