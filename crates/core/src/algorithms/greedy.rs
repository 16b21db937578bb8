//! Greedy heuristics and baselines.

use dvs_power::Processor;
use rt_model::Task;

use crate::algorithms::{Hull, RejectionPolicy, PRUNE_SLACK};
use crate::{Instance, SchedError, Solution};

/// The densest tasks that fit: walks [`Instance::density_order`] and marks
/// each task the processor can still serve.
fn feasible_by_density(instance: &Instance) -> Vec<bool> {
    let order = instance.density_order();
    let mut u = 0.0;
    let mut accept = vec![false; order.len()];
    for (t, take) in order.iter().zip(&mut accept) {
        if instance.processor().is_feasible(u + t.utilization()) {
            u += t.utilization();
            *take = true;
        }
    }
    accept
}

/// Baseline that rejects every task: cost = `Σ vᵢ`, zero energy.
///
/// Serves as the degenerate upper bound every sensible algorithm must beat
/// whenever accepting anything is worthwhile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectAll;

impl RejectionPolicy for RejectAll {
    fn name(&self) -> &'static str {
        "reject-all"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        Solution::from_marks(instance, self.name(), &vec![false; instance.len()])
    }
}

/// Baseline that accepts everything it can: tasks are dropped in ascending
/// penalty-density order *only* until the remainder fits on the processor.
/// No energy reasoning — this is what a deadline-only admission controller
/// would do, and the natural straw man for the energy-aware heuristics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptAllFeasible;

impl RejectionPolicy for AcceptAllFeasible {
    fn name(&self) -> &'static str {
        "accept-all-feasible"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let accept = feasible_by_density(instance);
        Solution::from_marks(instance, self.name(), &instance.density_marks(&accept))
    }
}

/// Density-ordered rejection with a cost check (descending greedy).
///
/// Starts from the [`AcceptAllFeasible`] acceptance, then walks the accepted
/// tasks in *ascending* density order and rejects each one whose rejection
/// lowers the total cost (penalty paid < energy saved). A single ascending
/// pass suffices: by convexity of `E*`, the energy saved by removing a task
/// only shrinks as the accepted utilization drops, so once a rejection stops
/// paying off, later (denser) ones cannot pay off either — except through
/// penalty heterogeneity, which the explicit cost check handles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensityGreedy;

impl RejectionPolicy for DensityGreedy {
    fn name(&self) -> &'static str {
        "density-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let order = instance.density_order();
        let mut accept = feasible_by_density(instance);
        // Ascending density: cheapest-to-reject first.
        let accepted: Vec<usize> = (0..order.len()).rev().filter(|&k| accept[k]).collect();
        let mut u: f64 = accepted.iter().map(|&k| order[k].utilization()).sum();
        for k in accepted {
            let t = &order[k];
            // Energy saved by rejecting t from the current acceptance.
            // (Clamp: float cancellation can leave a tiny negative rest.)
            let rest = (u - t.utilization()).max(0.0);
            let saved = instance.marginal_energy(rest, t.utilization())?;
            if t.penalty() < saved {
                u = rest; // reject
                accept[k] = false;
            }
        }
        Solution::from_marks(instance, self.name(), &instance.density_marks(&accept))
    }
}

/// Ascending construction: consider tasks in descending penalty density and
/// accept each one whose penalty exceeds the marginal energy of serving it
/// (and which still fits).
///
/// This is the paper-style myopic heuristic: it reasons about the *marginal*
/// trade `ΔE = E*(U+uᵢ) − E*(U)` versus `vᵢ` at every step. It evaluates
/// `E*` only where convexity does not decide that trade, near the
/// break-even: `O(log n)` evaluations to bracket it plus the few tasks
/// around it (docs/THEORY.md §7), one pass over the order besides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarginalGreedy;

impl RejectionPolicy for MarginalGreedy {
    fn name(&self) -> &'static str {
        "marginal-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let order = instance.density_order();
        let accept = marginal_walk(order, instance.processor(), |u| instance.energy_for(u))?.accept;
        Solution::from_marks(instance, self.name(), &instance.density_marks(&accept))
    }
}

/// What [`marginal_walk`] decided, and the work it did.
pub(crate) struct Walk {
    /// Whether each task of the order is accepted.
    pub(crate) accept: Vec<bool>,
    /// `energy` evaluations (read by the work pin).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) priced: u64,
}

/// A certified lead of a density `order` (docs/THEORY.md §7, "The walk's
/// lead"): task `m`'s step over `[Uₘ, Uₘ₊₁]` has both ends priced and on
/// the hull, and `ρₘ ≥ (1 + η)·S_R` for its secant slope `S_R`, rounded
/// up. By convexity every earlier task then pays for its step with a
/// margin of `η`. Here `U₀ = 0, Uₖ₊₁ = Uₖ + uₖ` are the sums the walk
/// reaches while it accepts every task.
struct Lead {
    m: usize,
    /// `E*(Uₘ)` and `E*(Uₘ₊₁)`.
    e_m: f64,
    e_next: f64,
    /// `S_R`.
    slope: f64,
}

impl Lead {
    /// Searches for the largest `m` whose step certifies; `prefix(k)` is
    /// `Uₖ` while it fits. Where the number `K` of steps that fit is known
    /// the search bisects `1..K`; otherwise it gallops over `m = 1, 3, 7, …`
    /// to the first step that does not certify and bisects below it, so
    /// the walk sums only about `2m` utilizations. Every probe prices two
    /// points, and any certified `m` is valid, so the bisection needs no
    /// monotonicity.
    fn find(
        order: &[Task],
        hull: Hull,
        mut prefix: impl FnMut(usize) -> Option<f64>,
        steps: Option<usize>,
        mut price: impl FnMut(f64) -> Result<f64, SchedError>,
    ) -> Result<Option<Lead>, SchedError> {
        let mut certify = |m: usize| -> Result<Option<Lead>, SchedError> {
            let (Some(a), Some(b)) = (prefix(m), prefix(m + 1)) else {
                return Ok(None);
            };
            if !(a < b && hull.contains(a) && hull.contains(b)) {
                return Ok(None);
            }
            let (e_m, e_next) = (price(a)?, price(b)?);
            let slope = (e_next - e_m + 32.0 * f64::EPSILON * e_next) / (b - a);
            let certified = order[m].penalty_density() >= (1.0 + PRUNE_SLACK) * slope;
            Ok(certified.then_some(Lead {
                m,
                e_m,
                e_next,
                slope,
            }))
        };
        let (mut lead, mut lo) = (None, 0);
        let mut hi = match steps {
            Some(steps) => steps,
            None => loop {
                let m = 2 * lo + 1;
                match certify(m)? {
                    Some(found) => (lead, lo) = (Some(found), m),
                    None => break m,
                }
            },
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            match certify(mid)? {
                Some(found) => (lead, lo) = (Some(found), mid),
                None => hi = mid,
            }
        }
        Ok(lead)
    }

    /// The rounding floor a lead task's `η·vₖ` must clear to be accepted
    /// unpriced: `64ε·E*(Uₘ) + ε·S_R·s_max`.
    fn floor(&self, hull: Hull) -> f64 {
        let eps = f64::EPSILON;
        64.0 * eps * self.e_m + eps * self.slope * hull.s_max
    }
}

/// [`MarginalGreedy`]'s walk over a density `order` on `cpu` with
/// `energy(u) = E*(u)`: in order, each task that fits is accepted when its
/// penalty covers its marginal energy `E*(u + uᵢ) − E*(u)`. Branch & bound
/// walks a [`View`](crate::View)'s fields; the plain solve and `ScaledDp`'s
/// incumbent walk the instance's and so never compute the break-evens a
/// view carries. `order` must be in descending penalty density, as
/// [`View::order`](crate::View::order) is.
///
/// The walk prices only near the break-even, where convexity does not
/// decide (docs/THEORY.md §7):
///
/// - *The lead.* A gallop and a bisection find a task `m` whose step
///   certifies ([`Lead`]). Every earlier task is accepted without pricing
///   where `η·vₖ` clears the floor `64ε·E*(Uₘ) + ε·S_R·s_max` and `Uₖ`
///   reads on the hull (`η = PRUNE_SLACK`); the others are priced as
///   before, and a priced rejection ends the lead there. The walk resumes
///   at `m`.
/// - *The stop.* After a priced rejection of a task of density `ρₖ`, let
///   `S` be the slope of `E*` over the last accepted step, less its
///   rounding error: a left secant at `u`, priced already. If
///   `S ≥ (1 + η)·ρₖ`, every later task `j` costs a marginal energy of at
///   least `(1 + η)·vⱼ`, now and after any later accept, and is rejected
///   without pricing where `η·vⱼ` clears the rounding floor
///   `64ε·E*(u) + ε·S·s_max` and its demand reads on the hull.
///
/// The accepted set is the full walk's. The walk makes at most the full
/// walk's `n + 1` evaluations plus the search's `4⌊log₂ n⌋`, and on the
/// benchmark's n = 2 000 instances about 2 % of the full walk's.
pub(crate) fn marginal_walk(
    order: &[Task],
    cpu: &Processor,
    energy: impl Fn(f64) -> Result<f64, SchedError>,
) -> Result<Walk, SchedError> {
    let mut priced = 0;
    let mut price = |u: f64| {
        priced += 1;
        energy(u)
    };
    let mut accept = vec![false; order.len()];
    let hull = Hull::of(cpu);
    // `Uₖ`, summed on demand as far as the lead's search reaches and while
    // it is at most `s_max`: a lead ends on the hull.
    let mut sums = Vec::with_capacity(order.len() + 1);
    sums.push(0.0);
    let prefix = |k: usize| {
        while sums.len() <= k {
            let u = sums[sums.len() - 1] + order.get(sums.len() - 1)?.utilization();
            if u > hull.s_max {
                return None;
            }
            sums.push(u);
        }
        Some(sums[k])
    };
    let lead = Lead::find(order, hull, prefix, None, &mut price)?;
    // `e_u = E*(u)` rides along with `u`: both move only on an accept, to
    // the point `e_next` was priced at, so `e_next − e_u` has the bits of
    // `marginal_energy(u, uᵢ)` with one evaluation per task. The walk
    // resumes at task `start`; `next` is `E*` at its demand, if the lead
    // priced it.
    let (mut start, mut u, mut e_u, mut next) = match &lead {
        Some(lead) => (lead.m, sums[lead.m], lead.e_m, Some(lead.e_next)),
        None => (0, 0.0, price(0.0)?, None),
    };
    if let Some(lead) = &lead {
        let floor = lead.floor(hull);
        // `E*(Uₖ)`, when the previous task was priced.
        let mut e_k = None;
        for (k, t) in order[..lead.m].iter().enumerate() {
            let (a, b) = (sums[k], sums[k + 1]);
            if PRUNE_SLACK * t.penalty() > floor && hull.contains(a) {
                accept[k] = true; // pays for its step: accepted
                e_k = None;
                continue;
            }
            let e_a = match e_k {
                Some(e) => e,
                None => price(a)?,
            };
            let e_b = if k + 1 == lead.m { lead.e_m } else { price(b)? };
            if t.penalty() >= e_b - e_a {
                accept[k] = true;
                e_k = Some(e_b);
            } else {
                (start, u, e_u, next) = (k + 1, a, e_a, None);
                break;
            }
        }
    }
    // `left` is the last point `u` moved from whose rate reads on the hull:
    // the left end of a secant at `u`. `stop` holds `ε·S·s_max` once the
    // stop is certified.
    let (mut left, mut stop) = (None, None);
    let eps = f64::EPSILON;
    for (t, take) in order.iter().zip(&mut accept).skip(start) {
        let p = u + t.utilization();
        if !cpu.is_feasible(p) {
            continue;
        }
        let clears_floor = stop.is_some_and(|g| PRUNE_SLACK * t.penalty() > 64.0 * eps * e_u + g);
        if clears_floor && hull.contains(p) {
            continue; // costs more than `(1 + η)·vⱼ`: rejected
        }
        let e_next = match next.take() {
            Some(e) => e,
            None => price(p)?,
        };
        if t.penalty() >= e_next - e_u {
            if p > u && hull.contains(u) {
                left = Some((u, e_u));
            }
            (u, e_u) = (p, e_next);
            *take = true;
        } else if let Some((u_l, e_l)) = left.filter(|_| stop.is_none()) {
            // The secant from `left` to `u`, less the rounding of its ends.
            let s = (e_u - e_l - 32.0 * eps * e_u) / (u - u_l);
            if s >= (1.0 + PRUNE_SLACK) * t.penalty_density() {
                stop = Some(eps * s * hull.s_max);
            }
        }
    }
    Ok(Walk { accept, priced })
}

/// Exact optimum over the restricted space "reject at most one task"
/// (plus the all-rejected fallback), in `O(n)` cost evaluations.
///
/// On lightly loaded instances where at most one task is mispriced this is
/// already optimal; combined with a constructive greedy it yields the
/// S-GREEDY-style [`SafeGreedy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestOfSingle;

impl RejectionPolicy for BestOfSingle {
    fn name(&self) -> &'static str {
        "best-of-single"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let n = instance.len();
        // Scan order: the full set, then each leave-one-out set; the
        // earliest strictly best wins. One mask serves every candidate: a
        // leave-one-out set clears its entry and restores it after.
        let mut best = Solution::from_marks(instance, self.name(), &vec![false; n])?;
        let mut marks = vec![true; n];
        for skip in std::iter::once(None).chain((0..n).map(Some)) {
            if let Some(i) = skip {
                marks[i] = false;
            }
            match Solution::from_marks(instance, self.name(), &marks) {
                Ok(s) if s.cost() < best.cost() => best = s,
                // Infeasible candidates are simply skipped.
                Ok(_) | Err(SchedError::Power(_)) => {}
                Err(e) => return Err(e),
            }
            if let Some(i) = skip {
                marks[i] = true;
            }
        }
        Ok(best)
    }
}

/// Exact optimum over the restricted space of **density prefixes**: for
/// every `k`, evaluate accepting the `k` densest feasible tasks, and return
/// the best. One sort, then `O(log n)` cost evaluations to bracket the
/// break-even and a handful near it (docs/THEORY.md §7, "The sweep").
///
/// This is the Lagrangian view of the problem: pricing capacity at `λ`
/// accepts exactly the tasks with `vᵢ/uᵢ ≥ λ`, i.e. a density prefix;
/// sweeping `λ` over its `n` breakpoints explores the whole dual family.
/// Exact for identical tasks (every subset is a prefix up to symmetry) and
/// a strong heuristic in general — only the knapsack-style packing residual
/// (which subset sums are reachable) separates it from the optimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DensitySweep;

impl RejectionPolicy for DensitySweep {
    fn name(&self) -> &'static str {
        "density-sweep"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let best = density_sweep(instance)?.best;
        let prefix = instance.density_positions()[..best].iter();
        let marks = instance.marks_at(prefix.map(|&p| (p as usize, true)));
        Solution::from_marks(instance, self.name(), &marks)
    }
}

/// What [`density_sweep`] decided, and the work it did.
pub(crate) struct Sweep {
    /// The length of the best density prefix.
    pub(crate) best: usize,
    /// `energy_for` evaluations (read by the work pin).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) priced: u64,
}

/// The positions `k ∈ range` whose prefix `pu[k]` is not in `hull`, in
/// order: by bisection on the nondecreasing `pu`, with
/// [`Hull::contains`]'s compares.
fn off_hull(hull: Hull, pu: &[f64], range: std::ops::Range<usize>) -> Vec<usize> {
    let above = |x: f64| range.start + pu[range.clone()].partition_point(|&p| p <= x);
    let mut ks: Vec<usize> = (hull.levels.iter())
        .flat_map(|&s| above(s)..above(s + PRUNE_SLACK))
        .chain(above(hull.s_max)..range.end)
        .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

/// [`DensitySweep`]'s pick: the earliest strict minimum of
/// `cost(k) = E*(Uₖ) + Σv − Vₖ` over the feasible prefixes `k = 0..=kmax`,
/// where the empty prefix costs `Σv`. It prices only the prefixes that
/// convexity does not rule out (docs/THEORY.md §7, "The sweep"):
///
/// - *The lead.* With the walk's certified lead `m` ([`Lead`]), every
///   prefix `k < m` whose certified decrease to `m`, `η·(Vₘ − Vₖ)/2`, clears
///   the rounding margin costs more than `m` and is skipped, unless `Uₖ` is
///   off the hull. The skipped prefixes are an initial run, found by
///   bisection on `V`.
/// - *The stop.* After `m` (from the start without a lead), once a priced
///   prefix `k` has a left secant `S ≥ (1 + η)·ρₖ` and its cost exceeds
///   the best by more than the penalties of the remaining tasks too small
///   to move `U` and the rounding margin, no later prefix on the hull can
///   come back below the best; only the prefixes off the hull are priced
///   after it.
pub(crate) fn density_sweep(instance: &Instance) -> Result<Sweep, SchedError> {
    let order = instance.density_order();
    let (pu, pv) = instance.density_prefix();
    let total = instance.total_penalty();
    let cpu = instance.processor();
    let hull = Hull::of(cpu);
    let (eps, s_max) = (f64::EPSILON, hull.s_max);
    // A strict prefix that no longer fits makes every longer prefix
    // infeasible as well (they all contain this task), so the sweep
    // covers prefixes `1..=kmax` only.
    let kmax = pu[1..].partition_point(|&u| cpu.is_feasible(u));
    let mut priced = 0;
    let mut price = |u: f64| {
        priced += 1;
        instance.energy_for(u)
    };
    let offer = |best: &mut (f64, usize), k: usize, e: f64| {
        let cost = e + total - pv[k];
        if cost < best.0 {
            *best = (cost, k);
        }
        cost
    };
    let mut best = (total, 0); // the empty prefix
    let lead = Lead::find(order, hull, |k| Some(pu[k]), Some(kmax), &mut price)?;
    // Prefixes `from..=kmax` are left; `left` is the last priced one on the
    // hull, and `next` the energy of `from` if the lead priced it.
    let (mut from, mut left, mut next) = (1, None, None);
    if let Some(lead) = &lead {
        let m = lead.m;
        let margin = eps
            * (m as f64 * (2.0 * lead.slope * s_max + 4.0 * pv[m])
                + 128.0 * (lead.e_m + total + pv[m]));
        let k0 = 1 + pv[1..m].partition_point(|&v| PRUNE_SLACK * (pv[m] - v) > margin);
        for k in off_hull(hull, pu, 1..k0).into_iter().chain(k0..m) {
            offer(&mut best, k, price(pu[k])?);
        }
        offer(&mut best, m, lead.e_m);
        (from, left, next) = (m + 1, Some((m, lead.e_m)), Some(lead.e_next));
    }
    for k in from..=kmax {
        let e = match next.take() {
            Some(e) => e,
            None => price(pu[k])?,
        };
        let cost = offer(&mut best, k, e);
        if !hull.contains(pu[k]) {
            continue;
        }
        if let Some((l, e_l)) = left.filter(|&(l, _)| k < kmax && pu[l] < pu[k]) {
            let slope = (e - e_l - 32.0 * eps * e) / (pu[k] - pu[l]);
            let rho = order[k].penalty_density();
            let rest = (kmax - k) as f64;
            // The remaining tasks with `uⱼ < 2ε·s_max/η` may lower the cost
            // by their penalties, each below `ρ·2ε·s_max/η`.
            let small = 2.0 * rest * rho * (2.0 * eps * s_max / PRUNE_SLACK);
            let margin = small
                + eps * (2.0 * rest * pv[kmax] + 64.0 * (best.0.abs() + total + pv[kmax] + e));
            if slope >= (1.0 + PRUNE_SLACK) * rho && cost - best.0 > margin {
                for k in off_hull(hull, pu, k + 1..kmax + 1) {
                    offer(&mut best, k, price(pu[k])?);
                }
                break;
            }
        }
        left = Some((k, e));
    }
    Ok(Sweep {
        best: best.1,
        priced,
    })
}

/// The better of [`MarginalGreedy`] and [`BestOfSingle`] — the classic
/// guard combination: the constructive greedy handles deep overload, the
/// reject-at-most-one scan handles the regime where greedy's density order
/// is misleading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafeGreedy;

impl RejectionPolicy for SafeGreedy {
    fn name(&self) -> &'static str {
        "safe-greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let a = MarginalGreedy.solve(instance)?;
        let b = BestOfSingle.solve(instance)?;
        let pick = if a.cost() <= b.cost() { a } else { b };
        Ok(pick.relabelled(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::{TaskId, TaskSet};

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

    #[test]
    fn reject_all_costs_total_penalty() {
        let inst = instance(&[(2.0, 10, 1.0), (3.0, 10, 2.0)]);
        let s = RejectAll.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        assert!((s.cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn accept_all_feasible_keeps_everything_underload() {
        let inst = instance(&[(2.0, 10, 1.0), (3.0, 10, 2.0)]);
        let s = AcceptAllFeasible.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 2);
        assert!((s.penalty() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn accept_all_feasible_drops_cheap_tasks_under_overload() {
        // u = 0.8 + 0.8: only one fits; the denser (higher v/u) survives.
        let inst = instance(&[(8.0, 10, 1.0), (8.0, 10, 5.0)]);
        let s = AcceptAllFeasible.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(1)]);
    }

    #[test]
    fn marginal_greedy_rejects_unprofitable_tasks() {
        // Heavy task with negligible penalty: energy to run it (≈ E(0.9))
        // far exceeds v = 0.01 → reject even though it fits.
        let inst = instance(&[(9.0, 10, 0.01)]);
        let s = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        // Same task but precious → accept.
        let inst = instance(&[(9.0, 10, 100.0)]);
        let s = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 1);
    }

    #[test]
    fn density_greedy_prunes_beyond_feasibility() {
        // Both fit together (u = 0.5+0.4), but the light-penalty one is not
        // worth its energy.
        let inst = instance(&[(5.0, 10, 50.0), (4.0, 10, 0.05)]);
        let s = DensityGreedy.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(0)]);
    }

    #[test]
    fn best_of_single_finds_the_one_bad_apple() {
        let inst = instance(&[(3.0, 10, 9.0), (3.0, 10, 8.0), (3.0, 10, 0.001)]);
        let s = BestOfSingle.solve(&inst).unwrap();
        assert_eq!(s.accepted(), &[TaskId::new(0), TaskId::new(1)]);
    }

    #[test]
    fn best_of_single_accepts_all_when_everything_is_precious() {
        let inst = instance(&[(3.0, 10, 9.0), (3.0, 10, 8.0)]);
        let s = BestOfSingle.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 2);
    }

    #[test]
    fn safe_greedy_at_least_as_good_as_components() {
        for inst in crate::algorithms::test_support::standard_instances() {
            let sg = SafeGreedy.solve(&inst).unwrap().cost();
            let mg = MarginalGreedy.solve(&inst).unwrap().cost();
            let bs = BestOfSingle.solve(&inst).unwrap().cost();
            assert!(sg <= mg + 1e-9 && sg <= bs + 1e-9);
        }
    }

    #[test]
    fn unacceptable_tasks_are_auto_rejected() {
        // u = 1.5 can never fit on s_max = 1.
        let inst = instance(&[(15.0, 10, 100.0), (1.0, 10, 1.0)]);
        for policy in [
            &MarginalGreedy as &dyn RejectionPolicy,
            &DensityGreedy,
            &AcceptAllFeasible,
        ] {
            let s = policy.solve(&inst).unwrap();
            assert!(
                !s.accepts(TaskId::new(0)),
                "{} accepted impossible task",
                policy.name()
            );
        }
    }

    #[test]
    fn greedy_respects_critical_speed_economics() {
        // On a leaky CPU, tiny tasks cost at least e* = P(s*)/s* per cycle.
        // A task whose penalty is below that should be rejected.
        let cpu = xscale_ideal();
        let e_star = {
            let s = cpu.critical_speed();
            cpu.power().power(s) / s
        };
        let cycles = 1.0;
        let cheap = TaskSet::try_from_tasks(vec![Task::new(0, cycles, 100)
            .unwrap()
            .with_penalty(0.5 * e_star * cycles)])
        .unwrap();
        let inst = Instance::new(cheap, cpu.clone()).unwrap();
        assert_eq!(MarginalGreedy.solve(&inst).unwrap().accepted().len(), 0);

        let dear = TaskSet::try_from_tasks(vec![Task::new(0, cycles, 100)
            .unwrap()
            .with_penalty(2.0 * e_star * cycles)])
        .unwrap();
        let inst = Instance::new(dear, cpu).unwrap();
        assert_eq!(MarginalGreedy.solve(&inst).unwrap().accepted().len(), 1);
    }

    #[test]
    fn density_sweep_explores_all_prefixes() {
        // Three equal-density tasks; the best prefix length depends on the
        // energy curve: accepting two of three is optimal here.
        let inst = instance(&[(4.0, 10, 2.0), (4.0, 10, 2.0), (4.0, 10, 2.0)]);
        // Prefix costs (L = 10, P = s³): k=0 → 6.0; k=1 → 0.64+4 = 4.64;
        // k=2 → 5.12+2 = 7.12... recompute: E(0.4)=10·0.064=0.64;
        // E(0.8)=10·0.512=5.12; k=3 infeasible (U=1.2).
        let s = DensitySweep.solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 1);
        assert!((s.cost() - 4.64).abs() < 1e-9);
    }

    #[test]
    fn density_sweep_optimal_for_identical_tasks() {
        use crate::algorithms::Exhaustive;
        // With identical tasks every subset is (up to symmetry) a prefix,
        // so the sweep is exact for any penalty level k.
        for k in 1..6 {
            let parts: Vec<(f64, u64, f64)> = (0..8).map(|_| (1.0, 10, 0.1 * k as f64)).collect();
            let inst = instance(&parts);
            let sweep = DensitySweep.solve(&inst).unwrap().cost();
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            assert!(
                (sweep - opt).abs() < 1e-9,
                "k = {k}: sweep {sweep} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn density_sweep_near_optimal_for_equal_densities() {
        use crate::algorithms::Exhaustive;
        // Equal densities but different sizes: the capacity constraint
        // makes subset *packing* matter, so prefixes are only near-optimal
        // (they can land between two achievable utilization levels).
        for k in 1..6 {
            let parts: Vec<(f64, u64, f64)> = (0..8)
                .map(|i| ((i + 1) as f64, 10, (i + 1) as f64 * k as f64))
                .collect();
            let inst = instance(&parts);
            let sweep = DensitySweep.solve(&inst).unwrap().cost();
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            assert!(sweep >= opt - 1e-9);
            assert!(
                sweep <= opt * 1.1 + 1e-9,
                "k = {k}: sweep {sweep} vs OPT {opt}"
            );
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        let inst = instance(&[(5.0, 10, 1.0), (5.0, 10, 1.0), (5.0, 10, 1.0)]);
        let a = MarginalGreedy.solve(&inst).unwrap();
        let b = MarginalGreedy.solve(&inst).unwrap();
        assert_eq!(a, b);
    }

    /// `energy` evaluations of the walk on one basket-shaped n = 2 000
    /// instance per load (the benchmark's `MarginalGreedy` entries). The
    /// full walk makes 2 001: `E*(0)` and every task; with the stop alone
    /// the walk made 952 / 431. The lead's gallop and bisection make 38 /
    /// 34 of these.
    #[test]
    fn marginal_walk_work_is_pinned() {
        use crate::algorithms::test_support::basket_shaped;
        for (load, priced) in [(1.2, 43), (3.0, 49)] {
            let inst = basket_shaped(2000, load, 0);
            let walk = marginal_walk(inst.density_order(), inst.processor(), |u| {
                inst.energy_for(u)
            })
            .unwrap();
            assert_eq!(walk.priced, priced, "load {load}");
        }
    }

    /// `energy_for` evaluations of the sweep on the same two instances. The
    /// full sweep prices every feasible prefix: 1 620 / 638.
    #[test]
    fn density_sweep_work_is_pinned() {
        use crate::algorithms::test_support::basket_shaped;
        for (load, priced) in [(1.2, 23), (3.0, 19)] {
            let inst = basket_shaped(2000, load, 0);
            assert_eq!(density_sweep(&inst).unwrap().priced, priced, "load {load}");
        }
    }

    /// The lead and the stop on `E*(u) = 10·u³`. The gallop probes the
    /// steps of tasks 0, 2 and 6 and the bisection those of tasks 4 and 5,
    /// two evaluations each; the lead ends at task 4 (density 100 against
    /// a secant of 6.1). The leader 11 and tasks 0–3 are accepted unpriced,
    /// and task 4 is decided from the probe's values. The walk then prices
    /// task 5, whose rejection at `u = 0.5` (density 5, below the last
    /// accept's secant slope 6.1) certifies the stop. It skips the tie 6
    /// and the task 7 that fills `s_max`, and still prices 8 (a penalty
    /// below the rounding floor), 9 (zero penalty) and 10 (zero
    /// utilization and penalty): 14 evaluations. The full walk makes 12:
    /// on a dozen tasks the search costs more than it saves.
    #[test]
    fn marginal_walk_skips_only_what_the_stop_decides() {
        let mut parts = vec![(1.0, 10, 10.0); 5];
        parts.extend([
            (1.0, 10, 0.5),
            (1.0, 10, 0.5),
            (5.0, 10, 2.0),
            (1e-19, 10, 1e-25),
            (1.0, 10, 0.0),
            (0.0, 10, 0.0),
            (0.0, 10, 1.0),
        ]);
        let inst = instance(&parts);
        let walk = marginal_walk(inst.density_order(), inst.processor(), |u| {
            inst.energy_for(u)
        })
        .unwrap();
        let accepted: Vec<usize> = inst
            .density_order()
            .iter()
            .zip(&walk.accept)
            .filter_map(|(t, &a)| a.then_some(t.id().index()))
            .collect();
        assert_eq!(accepted, [11, 0, 1, 2, 3, 4, 8, 10]);
        assert_eq!(walk.priced, 14);
    }
}
