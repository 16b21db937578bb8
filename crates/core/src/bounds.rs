//! Lower bounds via convex (fractional) relaxation.
//!
//! Allowing tasks to be *fractionally* accepted turns the rejection problem
//! into a convex program: for a total accepted utilization `t`, the largest
//! penalty that can be sheltered is the fractional-knapsack value `W(t)`
//! (concave, piecewise linear), and the relaxed cost
//!
//! ```text
//! f(t) = E*(t) + V_total − W(t)
//! ```
//!
//! is convex in `t` (convex `E*` plus convex `−W`). Its minimum over
//! `t ∈ [0, min(s_max, U_total)]` is a valid lower bound on the integral
//! optimum — used by the experiments to normalise heuristic costs when the
//! exact optimum is out of reach, and by
//! [`BranchBound`](crate::algorithms::BranchBound) for pruning.

use rt_model::Task;

use crate::{Instance, SchedError};

/// Iterations of ternary search over the convex relaxed cost; combined with
/// the kink-point scan this brackets the minimiser far below cost tolerance.
const TERNARY_ITERS: usize = 120;

/// Sorted fractional-knapsack view of a set of tasks: supports `W(t)`,
/// the maximum penalty shelterable within utilization budget `t`.
#[derive(Debug, Clone)]
pub struct FractionalKnapsack {
    /// `(utilization, penalty)` sorted by density (v/u) descending,
    /// zero-utilization tasks folded into `base_penalty`.
    items: Vec<(f64, f64)>,
    prefix_u: Vec<f64>,
    prefix_v: Vec<f64>,
    base_penalty: f64,
    total_penalty: f64,
}

impl FractionalKnapsack {
    /// Builds the relaxation view over the given tasks.
    #[must_use]
    pub fn new<'a>(tasks: impl IntoIterator<Item = &'a Task>) -> Self {
        let mut base_penalty = 0.0;
        let mut items: Vec<(f64, f64)> = Vec::new();
        let mut total_penalty = 0.0;
        for t in tasks {
            total_penalty += t.penalty();
            if t.utilization() <= 0.0 {
                base_penalty += t.penalty();
            } else {
                items.push((t.utilization(), t.penalty()));
            }
        }
        items.sort_by(|a, b| {
            let da = a.1 / a.0;
            let db = b.1 / b.0;
            db.partial_cmp(&da).expect("finite densities")
        });
        let mut prefix_u = Vec::with_capacity(items.len() + 1);
        let mut prefix_v = Vec::with_capacity(items.len() + 1);
        prefix_u.push(0.0);
        prefix_v.push(0.0);
        for &(u, v) in &items {
            prefix_u.push(prefix_u.last().unwrap() + u);
            prefix_v.push(prefix_v.last().unwrap() + v);
        }
        FractionalKnapsack {
            items,
            prefix_u,
            prefix_v,
            base_penalty,
            total_penalty,
        }
    }

    /// Maximum penalty shelterable within utilization budget `t`
    /// (fractional acceptance allowed).
    #[must_use]
    pub fn sheltered(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.base_penalty;
        }
        // Find how many whole items fit.
        let k = self.prefix_u.partition_point(|&u| u <= t) - 1;
        let mut value = self.prefix_v[k];
        if k < self.items.len() {
            let (u, v) = self.items[k];
            let room = t - self.prefix_u[k];
            value += v * (room / u).min(1.0);
        }
        self.base_penalty + value
    }

    /// Total penalty of all tasks in the view.
    #[must_use]
    pub fn total_penalty(&self) -> f64 {
        self.total_penalty
    }

    /// Total utilization of all (positive-utilization) items.
    #[must_use]
    pub fn total_utilization(&self) -> f64 {
        *self.prefix_u.last().unwrap()
    }

    /// The kink points of `W` (prefix utilizations), for exact minimisation
    /// of piecewise objectives.
    #[must_use]
    pub fn kinks(&self) -> &[f64] {
        &self.prefix_u
    }
}

/// Lower bound on the optimal cost of `instance` by convex relaxation.
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
    relaxed_cost(instance, 0.0, instance.tasks().iter())
}

/// Relaxed cost of the *subproblem* where utilization `base_u` is already
/// committed (decided-accepted tasks) and `undecided` tasks may be accepted
/// fractionally: `min_t E*(base_u + t) + Σ v(undecided) − W(t)`.
///
/// Decided-rejected penalties are **not** included; branch & bound adds them
/// on top.
///
/// # Errors
///
/// [`SchedError::Power`] if `base_u` alone is already infeasible.
pub fn relaxed_cost<'a>(
    instance: &Instance,
    base_u: f64,
    undecided: impl IntoIterator<Item = &'a Task>,
) -> Result<f64, SchedError> {
    let relaxation = Relaxation::new(instance, base_u, undecided);
    let kink_min = min_value(&relaxation.kink_samples()?);
    Ok(kink_min.min(relaxation.ternary()?))
}

/// Slack of a prune decision, relative to the numbers it is computed
/// from: `δ = PRUNE_SLACK · (1 + |threshold| + |offset + m| + V)`, with
/// `m` the golden-section estimate and `V` the undecided penalty.
///
/// Error argument. [`relaxed_cost`] is `min(kink_min, T)` with `T` the
/// objective at the point its ternary search converges to; the
/// golden-section estimate `m` and its spread `S` (see
/// [`relaxed_cost_reaches`]) bracket the true minimum `f*` as
/// `m − φ·S ≤ f* ≤ m` (convexity). `T` and that bracket differ from the
/// exact `f*` by (a) float noise: `f = E·L + V − W` is rounded at the
/// scale of its terms, `E·L ≤ f + V` and `W ≤ V`, so a few ulps of
/// `f + V` (≈ 1e-13 at 10³), and even a ternary search misled at every
/// one of its 120 steps loses under 1e-12 of `f + V`; and (b) on
/// discrete speed sets, the sliver where `Processor::energy_rate` accepts
/// a level up to 1e-9 below the demand, which moves `f` by at most
/// `1e-9 · L · E′` — under 1e-8 of `f` for every preset (`E′/E ≤ 10` on
/// the XScale and uniform-level hulls). Both stay an order of magnitude
/// below δ, so a margin beyond δ decides the comparison exactly; anything
/// closer is decided by running the ternary search itself.
pub(crate) const PRUNE_SLACK: f64 = 1e-7;

/// Whether `offset + relaxed_cost(instance, base_u, undecided) >=
/// threshold` — exactly that comparison, including its rounding — but
/// computed only as far as the answer needs.
///
/// This is branch & bound's prune test. The kink scan of
/// [`relaxed_cost`] runs first (same evaluations, same order); if its
/// minimum already falls below the threshold the answer is `false`,
/// because rounding of `+` is monotone. Otherwise a golden-section search
/// in the bracket around the best kink narrows the interior minimum until
/// it is certainly above or below the threshold by more than a slack δ
/// of 1e-7 of the magnitudes involved (`PRUNE_SLACK`, whose error argument
/// is docs/THEORY.md §6); a near tie runs [`relaxed_cost`]'s ternary
/// search and compares exactly.
///
/// # Errors
///
/// As [`relaxed_cost`].
pub fn relaxed_cost_reaches<'a>(
    instance: &Instance,
    base_u: f64,
    undecided: impl IntoIterator<Item = &'a Task>,
    offset: f64,
    threshold: f64,
) -> Result<bool, SchedError> {
    let relaxation = Relaxation::new(instance, base_u, undecided);
    let samples = relaxation.kink_samples()?;
    let kink_min = min_value(&samples);
    if offset + kink_min < threshold {
        return Ok(false);
    }
    // For convex f the minimiser lies between the neighbours of the best
    // sample (the first one, on ties).
    let best = samples.iter().position(|&(_, v)| v == kink_min);
    if let Some(best) = best.filter(|_| relaxation.cap > 0.0) {
        let lo = samples[best.saturating_sub(1)];
        let hi = samples[(best + 1).min(samples.len() - 1)];
        if let Some(answer) = relaxation.golden_decides(lo, hi, offset, threshold)? {
            return Ok(answer);
        }
    }
    // A near tie, `cap = 0` (the ternary search is the single point t = 0)
    // or no finite sample: the comparison itself.
    Ok(offset + kink_min.min(relaxation.ternary()?) >= threshold)
}

/// Smallest value among `(t, f(t))` samples.
fn min_value(samples: &[(f64, f64)]) -> f64 {
    samples
        .iter()
        .fold(f64::INFINITY, |best, &(_, v)| best.min(v))
}

/// The relaxed subproblem `f(t) = E*(base_u + t) + Σ v(undecided) − W(t)`
/// over `t ∈ [0, cap]`, convex in `t`.
struct Relaxation<'i> {
    instance: &'i Instance,
    ks: FractionalKnapsack,
    base_u: f64,
    cap: f64,
    hyper_period: f64,
}

impl<'i> Relaxation<'i> {
    fn new<'a>(
        instance: &'i Instance,
        base_u: f64,
        undecided: impl IntoIterator<Item = &'a Task>,
    ) -> Self {
        let ks = FractionalKnapsack::new(undecided);
        let cap = (instance.processor().max_speed() - base_u)
            .max(0.0)
            .min(ks.total_utilization());
        Relaxation {
            instance,
            ks,
            base_u,
            cap,
            hyper_period: instance.hyper_period() as f64,
        }
    }

    fn at(&self, t: f64) -> Result<f64, SchedError> {
        let max_speed = self.instance.processor().max_speed();
        let energy = self
            .instance
            .energy_rate((self.base_u + t).min(max_speed))?
            * self.hyper_period;
        Ok(energy + self.ks.total_penalty() - self.ks.sheltered(t))
    }

    /// `f` at 0, at `cap` and at every kink of `W` strictly between them
    /// (evaluated in that order), returned in ascending `t`.
    fn kink_samples(&self) -> Result<Vec<(f64, f64)>, SchedError> {
        let mut samples = vec![(0.0, self.at(0.0)?)];
        let last = (self.cap, self.at(self.cap)?);
        for &k in self.ks.kinks() {
            if k > 0.0 && k < self.cap {
                samples.push((k, self.at(k)?));
            }
        }
        samples.push(last);
        Ok(samples)
    }

    /// `f` at the point a ternary search over `[0, cap]` converges to, to
    /// catch minimisers interior to a linear piece of `W`. Each step is a
    /// pure function of `(lo, hi)`, so once a step leaves both unchanged
    /// every later one would too, and stopping there is bit-identical to
    /// running all [`TERNARY_ITERS`].
    fn ternary(&self) -> Result<f64, SchedError> {
        let (mut lo, mut hi) = (0.0f64, self.cap);
        for _ in 0..TERNARY_ITERS {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            let next = if self.at(m1)? <= self.at(m2)? {
                (lo, m2)
            } else {
                (m1, hi)
            };
            if next == (lo, hi) {
                break;
            }
            (lo, hi) = next;
        }
        self.at(0.5 * (lo + hi))
    }

    /// Golden-section search for `min f` on the bracket `[lo, hi]` (points
    /// with their values), stopped as soon as `offset + min f` is certainly
    /// on one side of `threshold`: `Some(answer)`, or `None` for a near
    /// tie the caller settles exactly.
    ///
    /// With bracket points `a < c < d < b` in golden proportion, values in
    /// `[m, m + S]` and `f` convex, every `f` on `[a, b]` is at least
    /// `m − φ·S` (extend the chord through the two nearest points), so
    /// the minimum lies in `[m − φ·S, m]`.
    fn golden_decides(
        &self,
        (mut a, mut fa): (f64, f64),
        (mut b, mut fb): (f64, f64),
        offset: f64,
        threshold: f64,
    ) -> Result<Option<bool>, SchedError> {
        let inv_phi = (5f64.sqrt() - 1.0) / 2.0;
        let phi = 1.0 + inv_phi;
        let mut c = b - inv_phi * (b - a);
        let mut d = a + inv_phi * (b - a);
        let (mut fc, mut fd) = (self.at(c)?, self.at(d)?);
        loop {
            let m = fa.min(fb).min(fc).min(fd);
            let spread = fa.max(fb).max(fc).max(fd) - m;
            let reach = offset + m;
            let delta =
                PRUNE_SLACK * (1.0 + threshold.abs() + reach.abs() + self.ks.total_penalty());
            if reach - phi * spread - threshold > delta {
                return Ok(Some(true));
            }
            if reach - threshold < -delta {
                return Ok(Some(false));
            }
            if spread <= delta / 4.0 {
                return Ok(None);
            }
            let bracket = (a, b);
            if fc <= fd {
                (b, fb) = (d, fd);
                (d, fd) = (c, fc);
                c = b - inv_phi * (b - a);
                fc = self.at(c)?;
            } else {
                (a, fa) = (c, fc);
                (c, fc) = (d, fd);
                d = a + inv_phi * (b - a);
                fd = self.at(d)?;
            }
            if (a, b) == bracket {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
    use rt_model::{generator::WorkloadSpec, TaskSet};

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
    fn knapsack_shelters_by_density() {
        let tasks = [
            Task::new(0, 1.0, 10).unwrap().with_penalty(10.0), // u=0.1, density 100
            Task::new(1, 5.0, 10).unwrap().with_penalty(5.0),  // u=0.5, density 10
        ];
        let ks = FractionalKnapsack::new(tasks.iter());
        assert!((ks.sheltered(0.1) - 10.0).abs() < 1e-12);
        assert!((ks.sheltered(0.35) - 12.5).abs() < 1e-12); // half of τ1
        assert!((ks.sheltered(1.0) - 15.0).abs() < 1e-12);
        assert_eq!(ks.sheltered(0.0), 0.0);
    }

    #[test]
    fn zero_utilization_tasks_always_sheltered() {
        let tasks = [
            Task::new(0, 0.0, 10).unwrap().with_penalty(7.0),
            Task::new(1, 5.0, 10).unwrap().with_penalty(5.0),
        ];
        let ks = FractionalKnapsack::new(tasks.iter());
        assert!((ks.sheltered(0.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn sheltered_is_monotone_and_concave() {
        let ts = WorkloadSpec::new(20, 2.0).seed(9).generate().unwrap();
        let ks = FractionalKnapsack::new(ts.iter());
        let mut last = -1.0;
        let mut last_delta = f64::INFINITY;
        for k in 0..=100 {
            let t = 2.0 * k as f64 / 100.0;
            let w = ks.sheltered(t);
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
        let undecided: Vec<&Task> = inst.tasks().iter().skip(1).collect();
        // With τ0 committed at u=0.5, only 0.5 capacity remains for τ1.
        let bound = relaxed_cost(&inst, 0.5, undecided).unwrap();
        // Accepting τ1 fully: E(1.0) = 10·1 = 10; rejecting: E(0.5)+1 = 2.25.
        assert!((bound - 2.25).abs() < 1e-6);
    }

    #[test]
    fn reaches_is_exact_when_penalties_overflow() {
        // Σv = ∞ makes f infinite, and ∞ − ∞ = NaN where W saturates:
        // the prune test must still be exactly the comparison.
        let inst = instance(&[
            (0.0, 10, f64::MAX),
            (3.0, 10, f64::MAX),
            (4.0, 10, f64::MAX),
        ]);
        for base_u in [0.0, 0.2] {
            let undecided: Vec<&Task> = inst.tasks().iter().collect();
            let bound = relaxed_cost(&inst, base_u, undecided.iter().copied()).unwrap();
            for threshold in [0.0, 1e300, f64::INFINITY, f64::NAN] {
                let fast =
                    relaxed_cost_reaches(&inst, base_u, undecided.iter().copied(), 1.0, threshold)
                        .unwrap();
                assert_eq!(fast, 1.0 + bound >= threshold, "{base_u} {threshold}");
            }
        }
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
