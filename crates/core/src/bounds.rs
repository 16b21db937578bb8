//! Lower bounds via convex (fractional) relaxation.
//!
//! Allowing tasks to be *fractionally* accepted turns the rejection problem
//! into a convex program: for a total accepted utilization `t`, the largest
//! penalty that can be sheltered is the fractional-knapsack value `W(t)`
//! (concave, piecewise linear), and the relaxed cost
//!
//! ```text
//! f(t) = E*(b + t) + V − W(t)
//! ```
//!
//! is convex in `t` (convex `E*` plus convex `−W`), with `b` the utilization
//! already committed. Its minimum over `t ∈ [0, s_max − b]` is a valid lower
//! bound on the integral optimum — used by the experiments to normalise
//! heuristic costs when the exact optimum is out of reach, and by
//! [`BranchBound`](crate::algorithms::BranchBound) for pruning.
//!
//! `W` is linear between its kinks, with the density `ρₖ` of the marginal
//! task as its slope, so the minimum lies where the marginal energy
//! `E*′(b + t)` meets `ρₖ`: at each task's break-even utilization
//! ([`break_even_fn`]), or at a kink. [`stationary_point`] finds it in
//! one pass in density order and `f` is evaluated once (docs/THEORY.md §6).
//! Branch & bound reads the break-evens its [`View`] carries;
//! [`fractional_lower_bound`] sorts its own copy and computes only the ones
//! it walks past.

use dvs_power::Processor;
use rt_model::{Task, TaskSet};

use crate::{Instance, SchedError, View};

/// A task's break-even utilization on `cpu` at hyper-period `L`:
/// `utilization_at_marginal(ρᵢ / L)`, the total load up to which its
/// penalty density `ρᵢ` still outweighs the marginal energy `L·E*′`. The
/// one formula behind [`Instance::break_even`] and every other
/// [`View`]'s break-evens.
pub fn break_even_fn(cpu: &Processor, hyper_period: u64) -> impl Fn(&Task) -> f64 + '_ {
    let l = hyper_period as f64;
    let at_marginal = cpu.utilization_at_marginal_fn();
    move |t| at_marginal(t.penalty_density() / l)
}

/// Marginal energy on `cpu` over `L` ticks of raising the served
/// utilization from `u` to `u + du` (both feasible):
/// `L·rate(u+du) − L·rate(u)`. The one formula behind
/// [`Instance::marginal_energy`] and every online admission price.
///
/// # Errors
///
/// [`SchedError::Power`] if either point is infeasible.
pub fn marginal_energy(
    cpu: &Processor,
    hyper_period: u64,
    u: f64,
    du: f64,
) -> Result<f64, SchedError> {
    let l = hyper_period as f64;
    Ok(cpu.energy_rate(u + du)? * l - cpu.energy_rate(u)? * l)
}

/// Where a relaxation over a density-ordered task slice attains its
/// minimum, and what the slice contributes there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stationary {
    /// Fractionally accepted utilization `t` at the minimum.
    pub t: f64,
    /// `W(t)`: the penalty sheltered at `t`, zero-utilization tasks included.
    pub sheltered: f64,
    /// `Σ vᵢ` over the slice, summed left to right.
    pub penalty: f64,
}

/// Minimises `g(t) + Σv − W(t)` over `t ∈ [0, cap]` for a convex energy
/// term `g`, without evaluating `g`.
///
/// `pieces` are the tasks' `(uₖ, vₖ)` in descending penalty density.
/// `break_even(k)` is the load `base + t` at which `g′` reaches the density
/// of piece `k` (non-increasing in `k`). On the piece of `W` where task `k`
/// is the marginal one, `f` falls until `base + t` reaches `break_even(k)`
/// and rises after it; the pieces before the first one that reaches its
/// break-even (or `cap`) only fall. So the minimiser is that break-even,
/// clamped to the piece and to `cap`. Zero-utilization tasks are sheltered
/// for free.
pub fn stationary_point(
    pieces: impl IntoIterator<Item = (f64, f64)>,
    base: f64,
    cap: f64,
    break_even: impl Fn(usize) -> f64,
) -> Stationary {
    // Σv of zero-utilization tasks, Σv and Σu of the whole pieces before
    // the marginal one.
    let (mut free, mut whole, mut below) = (0.0, 0.0, 0.0);
    let mut at = None;
    let mut penalty = 0.0;
    for (k, (u, v)) in pieces.into_iter().enumerate() {
        penalty += v;
        if u <= 0.0 {
            free += v;
            continue;
        }
        if at.is_some() {
            continue;
        }
        let above = below + u;
        let target = break_even(k);
        if base + above >= target || above >= cap {
            let t = (target - base).max(below).min(above.min(cap));
            at = Some((t, whole + v * ((t - below) / u).min(1.0)));
        } else {
            below = above;
            whole += v;
        }
    }
    let (t, partial) = at.unwrap_or((below, whole));
    Stationary {
        t,
        sheltered: free + partial,
        penalty,
    }
}

/// [`stationary_point`] over a whole task set, sorted into density order
/// here, for an energy term whose break-even load at penalty density `ρ`
/// is `break_even(ρ)`; only the pieces walked evaluate it.
pub fn task_set_stationary_point(
    tasks: &TaskSet,
    cap: f64,
    break_even: impl Fn(f64) -> f64,
) -> Stationary {
    let mut order: Vec<(f64, f64, f64)> = tasks
        .iter()
        .map(|t| (t.penalty_density(), t.utilization(), t.penalty()))
        .collect();
    order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("densities are not NaN"));
    stationary_point(order.iter().map(|&(_, u, v)| (u, v)), 0.0, cap, |k| {
        break_even(order[k].0)
    })
}

/// Lower bound on the optimal cost of `instance` by convex relaxation:
/// `min_t E*(t) + V − W(t)` over `t ∈ [0, s_max]`, with `W` over every task.
///
/// # Errors
///
/// [`SchedError::Power`] only on internal oracle failures (cannot occur for
/// budgets within `[0, s_max]`).
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::bounds::fractional_lower_bound;
/// use reject_sched::Instance;
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = WorkloadSpec::new(10, 1.5).seed(3).generate()?;
/// let inst = Instance::new(tasks, cubic_ideal())?;
/// let lb = fractional_lower_bound(&inst)?;
/// assert!(lb >= 0.0);
/// // Any concrete solution costs at least the bound.
/// # Ok(())
/// # }
/// ```
pub fn fractional_lower_bound(instance: &Instance) -> Result<f64, SchedError> {
    let cpu = instance.processor();
    let l = instance.hyper_period() as f64;
    let at_marginal = cpu.utilization_at_marginal_fn();
    let at = task_set_stationary_point(instance.tasks(), cpu.max_speed(), |rho| {
        at_marginal(rho / l)
    });
    let energy = instance.energy_rate(at.t.min(cpu.max_speed()))? * l;
    Ok(energy + instance.total_penalty() - at.sheltered)
}

/// A relaxed subproblem's minimum, and the penalty of its undecided tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relaxation {
    /// `min_t E*(base_u + t) + Σ v(undecided) − W(t)`.
    pub cost: f64,
    /// `Σ v(undecided)`, summed in density order.
    pub penalty: f64,
}

/// Relaxed cost of the *subproblem* where utilization `base_u` is already
/// committed (decided-accepted tasks) and the tasks of `view.order[from..]`
/// are undecided and may be accepted fractionally.
///
/// Decided-rejected penalties are **not** included; branch & bound adds them
/// on top.
///
/// # Errors
///
/// [`SchedError::Power`] only on internal oracle failures.
///
/// # Panics
///
/// If `from` exceeds the length of the view's order.
pub fn relaxed_cost(view: &View<'_>, base_u: f64, from: usize) -> Result<Relaxation, SchedError> {
    let s_max = view.cpu.max_speed();
    let break_even = &view.break_even[from..];
    let undecided = view.order[from..].iter();
    let at = stationary_point(
        undecided.map(|t| (t.utilization(), t.penalty())),
        base_u,
        (s_max - base_u).max(0.0),
        |k| break_even[k],
    );
    let energy = view.energy((base_u + at.t).min(s_max))?;
    Ok(Relaxation {
        cost: energy + at.penalty - at.sheltered,
        penalty: at.penalty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BranchBound;
    use crate::anytime::{BudgetedPolicy, SolveBudget};
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::{generator::WorkloadSpec, Task};

    fn instance(parts: &[(f64, u64, f64)]) -> Instance {
        let tasks = TaskSet::try_from_tasks(
            parts
                .iter()
                .enumerate()
                .map(|(i, &(c, p, v))| Task::new(i, c, p).unwrap().with_penalty(v)),
        )
        .unwrap();
        Instance::new(tasks, cubic_ideal()).unwrap()
    }

    fn pieces(tasks: &[Task]) -> impl Iterator<Item = (f64, f64)> + '_ {
        tasks.iter().map(|t| (t.utilization(), t.penalty()))
    }

    /// `W(t)` of a density-ordered slice: a break-even of `t` everywhere
    /// puts the stationary point at `t` itself.
    fn sheltered(tasks: &[Task], t: f64) -> f64 {
        let at = stationary_point(pieces(tasks), 0.0, f64::INFINITY, |_| t);
        assert_eq!(at.t, t.min(tasks.iter().map(Task::utilization).sum()));
        at.sheltered
    }

    #[test]
    fn knapsack_shelters_by_density() {
        let tasks = [
            Task::new(0, 1.0, 10).unwrap().with_penalty(10.0), // u=0.1, density 100
            Task::new(1, 5.0, 10).unwrap().with_penalty(5.0),  // u=0.5, density 10
        ];
        assert!((sheltered(&tasks, 0.1) - 10.0).abs() < 1e-12);
        assert!((sheltered(&tasks, 0.35) - 12.5).abs() < 1e-12); // half of τ1
        assert!((sheltered(&tasks, 1.0) - 15.0).abs() < 1e-12);
        assert_eq!(sheltered(&tasks, 0.0), 0.0);
        // The cap binds before a later break-even does.
        let at = stationary_point(pieces(&tasks), 0.0, 0.35, |_| 1.0);
        assert_eq!((at.t, at.penalty), (0.35, 15.0));
        assert!((at.sheltered - 12.5).abs() < 1e-12);
    }

    #[test]
    fn zero_utilization_tasks_always_sheltered() {
        let tasks = [
            Task::new(0, 0.0, 10).unwrap().with_penalty(7.0),
            Task::new(1, 5.0, 10).unwrap().with_penalty(5.0),
            Task::new(2, 0.0, 10).unwrap().with_penalty(1.0),
        ];
        // No room at all, and a zero-utilization task past the stop.
        let at = stationary_point(pieces(&tasks), 0.0, 0.0, |_| 1.0);
        assert_eq!((at.t, at.sheltered, at.penalty), (0.0, 8.0, 13.0));
    }

    #[test]
    fn sheltered_is_monotone_and_concave() {
        let ts = WorkloadSpec::new(20, 2.0).seed(9).generate().unwrap();
        let inst = Instance::new(ts, cubic_ideal()).unwrap();
        let tasks = inst.density_order();
        let mut last = -1.0;
        let mut last_delta = f64::INFINITY;
        for k in 0..=100 {
            let t = 2.0 * k as f64 / 100.0;
            let w = sheltered(tasks, t);
            assert!(w + 1e-12 >= last, "not monotone at {t}");
            if k > 0 {
                let delta = w - last;
                assert!(delta <= last_delta + 1e-9, "not concave at {t}");
                last_delta = delta;
            }
            last = w;
        }
    }

    #[test]
    fn bound_never_exceeds_any_concrete_cost() {
        // Exhaustive check on a small instance.
        let inst = instance(&[
            (2.0, 10, 1.0),
            (3.0, 10, 2.0),
            (4.0, 10, 0.5),
            (5.0, 10, 3.0),
        ]);
        let lb = fractional_lower_bound(&inst).unwrap();
        let ids: Vec<_> = inst.tasks().iter().map(|t| t.id()).collect();
        for mask in 0u32..16 {
            let accepted: Vec<_> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, id)| *id)
                .collect();
            if let Ok(cost) = inst.cost_of(&accepted) {
                assert!(
                    lb <= cost + 1e-9,
                    "lb {lb} beats cost {cost} of mask {mask}"
                );
            }
        }
    }

    #[test]
    fn bound_tight_for_single_task() {
        // One task, penalty below its energy: optimum rejects it.
        let inst = instance(&[(8.0, 10, 0.1)]);
        let lb = fractional_lower_bound(&inst).unwrap();
        // Fractional acceptance could shelter part of the penalty, so the
        // bound is ≤ 0.1 but must be positive-ish and below both corners.
        assert!(lb <= 0.1 + 1e-12);
        assert!(lb >= 0.0);
    }

    #[test]
    fn bound_equals_optimum_when_everything_fits_cheaply() {
        // Low load, huge penalties: accepting everything is optimal and the
        // relaxation agrees exactly (W saturates at V_total).
        let inst = instance(&[(1.0, 10, 100.0), (1.0, 10, 100.0)]);
        let lb = fractional_lower_bound(&inst).unwrap();
        let opt = inst.cost_of(&[0.into(), 1.into()]).unwrap();
        assert!((lb - opt).abs() < 1e-6);
    }

    #[test]
    fn relaxed_cost_respects_committed_utilization() {
        let inst = instance(&[(5.0, 10, 1.0), (5.0, 10, 1.0)]);
        // With τ0 committed at u=0.5, only 0.5 capacity remains for τ1.
        let bound = relaxed_cost(&inst.view(), 0.5, 1).unwrap();
        // Accepting τ1 fully: E(1.0) = 10·1 = 10; rejecting: E(0.5)+1 = 2.25.
        assert!((bound.cost - 2.25).abs() < 1e-6);
        assert_eq!(bound.penalty, 1.0);
    }

    #[test]
    fn reaches_is_exact_when_penalties_overflow() {
        // Σv = ∞ makes f infinite, and ∞ − ∞ = NaN where W saturates: a NaN
        // bound must never prune.
        let inst = instance(&[
            (0.0, 10, f64::MAX),
            (3.0, 10, f64::MAX),
            (4.0, 10, f64::MAX),
        ]);
        for base_u in [0.0, 0.2] {
            let bound = relaxed_cost(&inst.view(), base_u, 0).unwrap();
            assert_eq!(bound.penalty, f64::INFINITY);
            assert!(bound.cost.is_nan(), "{base_u}: {}", bound.cost);
            for threshold in [0.0, 1e300, f64::INFINITY, f64::NAN] {
                let prunes = 1.0 + bound.cost >= threshold;
                assert!(!prunes, "{base_u} {threshold}");
            }
        }
        // Every node's bound is NaN, so the search visits the whole tree.
        let full = BranchBound
            .solve_within(&inst, &SolveBudget::unlimited())
            .unwrap();
        assert_eq!(full.nodes_used, 15);
    }

    #[test]
    fn bound_scales_with_leakage_model() {
        let ts = WorkloadSpec::new(12, 1.2).seed(4).generate().unwrap();
        let a = Instance::new(ts.clone(), cubic_ideal()).unwrap();
        let b = Instance::new(ts, xscale_ideal()).unwrap();
        let lb_a = fractional_lower_bound(&a).unwrap();
        let lb_b = fractional_lower_bound(&b).unwrap();
        // The leaky processor can only be more expensive.
        assert!(lb_b >= lb_a - 1e-9);
    }
}
