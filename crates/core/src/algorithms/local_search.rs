//! Local-search improvement on top of any seed policy.

use rt_model::Task;

use crate::algorithms::{acceptable_tasks, Hull, RejectionPolicy, PRUNE_SLACK};
use crate::{Instance, SchedError, Solution};

/// One neighborhood move over the acceptable-task list.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Flip acceptance of task `i`.
    Toggle(usize),
    /// Reject accepted task `.0`, accept rejected task `.1`.
    Swap(usize, usize),
}

impl Move {
    /// `(out, into)`: the task the move rejects and the one it accepts,
    /// with `None` for a task of zero utilization and penalty, so that a
    /// toggle is a swap with that task.
    fn ends(self, accepted: &[bool]) -> (Option<usize>, Option<usize>) {
        match self {
            Move::Toggle(i) if accepted[i] => (Some(i), None),
            Move::Toggle(i) => (None, Some(i)),
            Move::Swap(out, into) => (Some(out), Some(into)),
        }
    }
}

/// Shared read-only context for O(1) neighbor-cost evaluation.
///
/// A full [`Instance::cost_of`] re-evaluation is `Θ(n)` per candidate; with
/// the accepted utilization `u` and sheltered penalty `avoided` of the
/// current solution known, any toggle/swap neighbor differs by one or two
/// tasks, so its cost is a constant-time update plus one energy-rate query.
struct Neighborhood<'a> {
    instance: &'a Instance,
    tasks: &'a [Task],
    horizon: f64,
    total_penalty: f64,
}

impl Neighborhood<'_> {
    /// Cost of applying `mv` to the acceptance vector `accepted` whose
    /// sums are `u` / `avoided`. Infeasible neighbors cost `+∞`.
    fn move_cost(&self, accepted: &[bool], u: f64, avoided: f64, mv: Move) -> f64 {
        let (nu, navoided) = match mv {
            Move::Toggle(i) => {
                let t = &self.tasks[i];
                if accepted[i] {
                    (u - t.utilization(), avoided - t.penalty())
                } else {
                    (u + t.utilization(), avoided + t.penalty())
                }
            }
            Move::Swap(out, into) => (
                u - self.tasks[out].utilization() + self.tasks[into].utilization(),
                avoided - self.tasks[out].penalty() + self.tasks[into].penalty(),
            ),
        };
        // Float cancellation can leave a tiny negative residue when the
        // last accepted task is removed.
        match self.instance.energy_rate(nu.max(0.0)) {
            Ok(rate) => rate * self.horizon + (self.total_penalty - navoided),
            Err(_) => f64::INFINITY, // infeasible move
        }
    }
}

/// A lower bound on every move's cost from one round's convexity data,
/// so that a scan can skip the moves it proves cannot be picked, and
/// enumerate only the others.
///
/// `E*` is convex and nondecreasing in `u` on every processor (the power
/// function's convexity is checked at construction; docs/THEORY.md §7), so
/// with `r = Instance::energy_rate` and secant slopes `s_L ≤ r′(u⁻)`,
/// `s_R ≥ r′(u⁺)` taken a step `h` either side of the current `u`,
/// `r(x) ≥ r(u) + s_L·(x−u)` for `x > u` and `r(x) ≥ r(u) + s_R·(x−u)` for
/// `x < u`. A swap `(o, i)` therefore costs at least
/// `C_u − [(vᵢ−v_o) − L·s·(uᵢ−u_o)] = C_u − (aᵢ − a_o)`, with
/// `a_k = v_k − L·s·u_k` and `C_u` the current cost. A toggle is a swap
/// with a task of zero utilization and penalty (`a = 0`).
struct SwapBound {
    /// `C_u = L·r(u) + V − avoided`, priced as [`Neighborhood::move_cost`]
    /// prices a move.
    current: f64,
    /// `a_k` with `s_L`, for moves that do not lower `u`.
    raise: Vec<f64>,
    /// `a_k` with `s_R`, for moves that lower `u`; `None` when the right
    /// secant is unavailable, and such moves are then never skipped.
    lower: Option<Vec<f64>>,
    /// `V`, the instance's total penalty (a scale of the slack).
    total_penalty: f64,
    /// `C_u − θ − δ` for the current threshold `θ`: a move with
    /// `aᵢ − a_o` below it costs more than `θ`.
    cut: f64,
    /// `(raise, index)` of the round's rejected tasks, by `raise`
    /// descending.
    by_raise: Vec<(f64, usize)>,
    /// `(lower, index)` of the round's rejected tasks, by `lower`
    /// descending; `(utilization, index)`, ascending, when there is no
    /// right secant.
    by_lower: Vec<(f64, usize)>,
}

impl SwapBound {
    /// The bound around utilization `u` with sheltered penalty `avoided`,
    /// secants `h` wide, against threshold `theta`, over the round's
    /// `rejected` tasks; `None` if `r(u)` cannot be priced.
    fn new(
        nb: &Neighborhood<'_>,
        h: f64,
        u: f64,
        avoided: f64,
        theta: f64,
        rejected: &[usize],
        utils: &[f64],
    ) -> Option<Self> {
        let instance = nb.instance;
        let r_u = instance.energy_rate(u).ok()?;
        // A secant end must lie on the hull: `1/h` would amplify a sliver.
        let rate = |p: f64| {
            instance
                .energy_rate(p)
                .ok()
                .filter(|_| Hull::of(instance.processor()).contains(p))
        };
        // `E*` is nondecreasing, so `0` is a valid left slope where the
        // secant is unavailable (`u < h`).
        let s_l = rate(u - h).map_or(0.0, |r| (r_u - r) / h);
        let s_r = rate(u + h).map(|r| (r - r_u) / h);
        let slopes = |s: f64| -> Vec<f64> {
            nb.tasks
                .iter()
                .map(|t| t.penalty() - nb.horizon * s * t.utilization())
                .collect()
        };
        let raise = slopes(s_l);
        let lower = s_r.map(slopes);
        let keyed =
            |a: &[f64]| -> Vec<(f64, usize)> { rejected.iter().map(|&i| (a[i], i)).collect() };
        let descending = |a: &[f64]| {
            let mut order = keyed(a);
            order.sort_unstable_by(|x, y| y.0.total_cmp(&x.0));
            order
        };
        let by_raise = descending(&raise);
        let by_lower = match &lower {
            Some(a) => descending(a),
            None => {
                let mut order = keyed(utils);
                order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
                order
            }
        };
        let mut bound = SwapBound {
            current: r_u * nb.horizon + (nb.total_penalty - avoided),
            raise,
            lower,
            total_penalty: nb.total_penalty,
            cut: f64::NEG_INFINITY,
            by_raise,
            by_lower,
        };
        bound.set_threshold(theta);
        Some(bound)
    }

    /// Sets `θ`, with `δ = PRUNE_SLACK·(1 + |θ| + |C_u| + V)` absorbing
    /// the rounding and secant error (docs/THEORY.md §7).
    fn set_threshold(&mut self, theta: f64) {
        let slack = PRUNE_SLACK * (1.0 + theta.abs() + self.current.abs() + self.total_penalty);
        self.cut = self.current - theta - slack;
    }

    /// Whether the bound proves the move with ends `(out, into)`
    /// ([`Move::ends`]) costs more than `θ`.
    fn rules_out(&self, (out, into): (Option<usize>, Option<usize>), utils: &[f64]) -> bool {
        let u = |k: Option<usize>| k.map_or(0.0, |k| utils[k]);
        let gain = |a: &[f64]| into.map_or(0.0, |i| a[i]) - out.map_or(0.0, |o| a[o]);
        if u(into) >= u(out) {
            gain(&self.raise) < self.cut
        } else {
            self.lower.as_deref().is_some_and(|a| gain(a) < self.cut)
        }
    }

    /// Appends to `found` every rejected `into` whose swap with `out` the
    /// bound does not rule out, in no particular order. `aᵢ − a_o < cut`
    /// is monotone in `aᵢ` (float subtraction rounds monotonically), so
    /// on each side of `u_out` those are a prefix of `by_raise` or
    /// `by_lower`, found by bisection with the complement of the same
    /// compare (no `a` or `cut` is NaN).
    fn survivors(&self, out: usize, utils: &[f64], found: &mut Vec<usize>) {
        let keeps = |key: f64, a: &[f64]| key - a[out] >= self.cut;
        let end = self
            .by_raise
            .partition_point(|&(key, _)| keeps(key, &self.raise));
        let raising = self.by_raise[..end].iter().map(|&(_, i)| i);
        found.extend(raising.filter(|&i| utils[i] >= utils[out]));
        let end = match &self.lower {
            Some(a) => self.by_lower.partition_point(|&(key, _)| keeps(key, a)),
            None => self.by_lower.partition_point(|&(u, _)| u < utils[out]),
        };
        let lowering = self.by_lower[..end].iter().map(|&(_, i)| i);
        found.extend(lowering.filter(|&i| utils[i] < utils[out]));
    }
}

/// What one [`LocalSearch`] solve did: the work the bound leaves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Moves priced with an energy-rate query.
    pub(crate) priced: u64,
    /// Rounds whose bound had no right secant (`u + h` beyond the hull),
    /// so every swap that lowers `u` was priced.
    pub(crate) without_right_slope: u64,
}

/// Hill-climbing improvement: starting from a seed policy's solution,
/// repeatedly applies the best improving move among
///
/// * **toggle** — accept one rejected task or reject one accepted task, and
/// * **swap** — exchange one accepted task for one rejected task,
///
/// until a local optimum (or the iteration cap) is reached. With a greedy
/// seed this recovers a large share of the gap to optimal; it is the
/// workhorse "polish" step of the experiment suite. Each round prices only
/// the moves a convexity bound cannot rule out (docs/THEORY.md §7): the
/// swaps are enumerated per accepted task from two sorted orders of the
/// rejected ones, so a round costs `O(n log n)` plus the moves it prices,
/// and picks the same move the full scan picks.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::{LocalSearch, MarginalGreedy};
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(20, 2.0).seed(5).generate()?, cubic_ideal())?;
/// let greedy = MarginalGreedy::default().solve(&inst)?;
/// let polished = LocalSearch::around(MarginalGreedy::default()).solve(&inst)?;
/// assert!(polished.cost() <= greedy.cost() + 1e-9);
/// # Ok(())
/// # }
/// ```
pub struct LocalSearch {
    seed: Box<dyn RejectionPolicy>,
    max_rounds: usize,
}

impl std::fmt::Debug for LocalSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalSearch")
            .field("seed", &self.seed.name())
            .field("max_rounds", &self.max_rounds)
            .finish()
    }
}

impl LocalSearch {
    /// Cap on improvement rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 1_000;

    /// Creates a local search seeded by `seed`.
    #[must_use]
    pub fn around(seed: impl RejectionPolicy + 'static) -> Self {
        LocalSearch {
            seed: Box::new(seed),
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
        }
    }

    /// The solve, and the work it did.
    fn polish(&self, instance: &Instance) -> Result<(Solution, Work), SchedError> {
        let seed = self.seed.solve(instance)?;
        let (positions, tasks): (Vec<usize>, Vec<Task>) =
            acceptable_tasks(instance).into_iter().unzip();
        let n = tasks.len();
        let (seed_marks, _) = instance.merge_marks(seed.accepted());
        let mut accepted: Vec<bool> = positions.iter().map(|&p| seed_marks[p]).collect();
        let mut cost = seed.cost();
        let nb = Neighborhood {
            instance,
            tasks: &tasks,
            horizon: instance.hyper_period() as f64,
            total_penalty: instance.total_penalty(),
        };
        let mut work = Work::default();

        // The secant step: the smallest positive task utilization, the
        // finest step in `u` a move can take, kept within
        // `[√PRUNE_SLACK, 1]·s_max` so that the secants' rounding error,
        // which grows as `1/h`, stays far below the prune slack.
        let utils: Vec<f64> = tasks.iter().map(Task::utilization).collect();
        let s_max = instance.processor().max_speed();
        let h = utils
            .iter()
            .copied()
            .filter(|&u| u > 0.0)
            .fold(s_max, f64::min)
            .max(PRUNE_SLACK.sqrt() * s_max);

        let mut found = Vec::new();
        for _ in 0..self.max_rounds {
            // Re-derive the exact sums once per round so delta errors never
            // accumulate across moves.
            let (mut u, mut avoided) = (0.0, 0.0);
            for ((t, &u_t), &a) in tasks.iter().zip(&utils).zip(&accepted) {
                if a {
                    u += u_t;
                    avoided += t.penalty();
                }
            }
            // The pick is the earliest strictly best improvement in scan
            // order: all toggles, then the out→in swaps by `(out, into)`.
            // A move the bound proves costs more than `θ = min(cost −
            // 1e-12, best so far)` could not pass the compare below, so
            // leaving it unpriced leaves the pick unchanged.
            let rejected: Vec<usize> = (0..n).filter(|&i| !accepted[i]).collect();
            let mut bound = SwapBound::new(&nb, h, u, avoided, cost - 1e-12, &rejected, &utils);
            work.without_right_slope +=
                u64::from(bound.as_ref().is_some_and(|b| b.lower.is_none()));
            let mut best: Option<(Move, f64)> = None;
            // Prices `mv` unless the bound rules it out; a new best move
            // tightens the bound.
            let mut visit =
                |bound: &mut Option<SwapBound>, best: &mut Option<(Move, f64)>, mv: Move| {
                    if bound
                        .as_ref()
                        .is_some_and(|b| b.rules_out(mv.ends(&accepted), &utils))
                    {
                        return;
                    }
                    let c = nb.move_cost(&accepted, u, avoided, mv);
                    work.priced += 1;
                    if c < cost - 1e-12 && best.is_none_or(|(_, bc)| c < bc) {
                        *best = Some((mv, c));
                        if let Some(b) = bound {
                            b.set_threshold(c);
                        }
                    }
                };
            for i in 0..n {
                visit(&mut bound, &mut best, Move::Toggle(i));
            }
            for out in (0..n).filter(|&i| accepted[i]) {
                found.clear();
                match &bound {
                    Some(b) => b.survivors(out, &utils, &mut found),
                    None => found.extend(&rejected),
                }
                found.sort_unstable();
                for &into in &found {
                    visit(&mut bound, &mut best, Move::Swap(out, into));
                }
            }
            match best {
                Some((mv, c)) => {
                    match mv {
                        Move::Toggle(i) => accepted[i] = !accepted[i],
                        Move::Swap(out, into) => {
                            accepted[out] = false;
                            accepted[into] = true;
                        }
                    }
                    cost = c;
                }
                None => break,
            }
        }
        let marks = instance.marks_at(positions.into_iter().zip(accepted));
        Ok((Solution::from_marks(instance, self.name(), &marks)?, work))
    }
}

impl RejectionPolicy for LocalSearch {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        Ok(self.polish(instance)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AcceptAllFeasible, Exhaustive, MarginalGreedy, RejectAll};
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::{PenaltyModel, WorkloadSpec};

    fn inst(seed: u64, n: usize, load: f64) -> Instance {
        Instance::new(
            WorkloadSpec::new(n, load)
                .penalty_model(PenaltyModel::Uniform { lo: 0.05, hi: 0.8 })
                .seed(seed)
                .generate()
                .unwrap(),
            cubic_ideal(),
        )
        .unwrap()
    }

    #[test]
    fn improves_or_preserves_any_seed() {
        for seed in 0..5 {
            let instance = inst(seed, 15, 2.0);
            for policy in [
                Box::new(MarginalGreedy) as Box<dyn RejectionPolicy>,
                Box::new(AcceptAllFeasible),
                Box::new(RejectAll),
            ] {
                let base = policy.solve(&instance).unwrap().cost();
                let ls = LocalSearch {
                    seed: policy,
                    max_rounds: 100,
                };
                let improved = ls.solve(&instance).unwrap();
                improved.verify(&instance).unwrap();
                assert!(improved.cost() <= base + 1e-9);
            }
        }
    }

    #[test]
    fn reaches_optimum_from_reject_all_on_small_instances() {
        // Toggle/swap moves explore enough of the neighbourhood that the
        // optimum is reached on easy instances even from the worst seed.
        for seed in 0..5 {
            let instance = inst(seed, 8, 1.4);
            let opt = Exhaustive::default().solve(&instance).unwrap().cost();
            let ls = LocalSearch::around(RejectAll)
                .solve(&instance)
                .unwrap()
                .cost();
            assert!(
                ls <= opt * 1.15 + 1e-9,
                "seed {seed}: local search {ls} far from optimum {opt}"
            );
        }
    }

    /// Regression guard for the incremental evaluator: every toggle/swap
    /// neighbor cost computed in O(1) must agree with a full
    /// [`Instance::cost_of`] re-evaluation of the mutated set.
    #[test]
    fn delta_evaluation_matches_full_reevaluation() {
        use rt_model::rng::Rng;
        use rt_model::TaskId;
        let mut rng = Rng::seed_from_u64(0xD317A);
        for seed in 0..6 {
            let instance = inst(seed, 14, 2.0);
            let tasks: Vec<Task> = instance
                .tasks()
                .iter()
                .filter(|t| instance.is_acceptable(t))
                .copied()
                .collect();
            let nb = Neighborhood {
                instance: &instance,
                tasks: &tasks,
                horizon: instance.hyper_period() as f64,
                total_penalty: instance.total_penalty(),
            };
            for _ in 0..8 {
                let accepted: Vec<bool> = tasks.iter().map(|_| rng.next_u64() & 1 == 1).collect();
                let (mut u, mut avoided) = (0.0, 0.0);
                for (i, t) in tasks.iter().enumerate() {
                    if accepted[i] {
                        u += t.utilization();
                        avoided += t.penalty();
                    }
                }
                let full = |acc: &[bool]| -> f64 {
                    let ids: Vec<TaskId> = tasks
                        .iter()
                        .zip(acc)
                        .filter(|(_, &a)| a)
                        .map(|(t, _)| t.id())
                        .collect();
                    instance.cost_of(&ids).unwrap_or(f64::INFINITY)
                };
                let check = |mv: Move, mutated: Vec<bool>| {
                    let delta = nb.move_cost(&accepted, u, avoided, mv);
                    let exact = full(&mutated);
                    if exact.is_infinite() || delta.is_infinite() {
                        // Feasibility may only disagree within float noise of
                        // s_max; both sides must then be within a hair of it.
                        if exact.is_finite() != delta.is_finite() {
                            let nu: f64 = tasks
                                .iter()
                                .zip(&mutated)
                                .filter(|(_, &a)| a)
                                .map(|(t, _)| t.utilization())
                                .sum();
                            let s_max = instance.processor().max_speed();
                            assert!(
                                (nu - s_max).abs() < 1e-9,
                                "feasibility verdicts diverge away from the boundary"
                            );
                        }
                        return;
                    }
                    assert!(
                        (delta - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                        "seed {seed}: delta {delta} vs full {exact} for {mv:?}"
                    );
                };
                for i in 0..tasks.len() {
                    let mut m = accepted.clone();
                    m[i] = !m[i];
                    check(Move::Toggle(i), m);
                }
                for out in 0..tasks.len() {
                    if !accepted[out] {
                        continue;
                    }
                    for into in 0..tasks.len() {
                        if accepted[into] {
                            continue;
                        }
                        let mut m = accepted.clone();
                        m[out] = false;
                        m[into] = true;
                        check(Move::Swap(out, into), m);
                    }
                }
            }
        }
    }

    #[test]
    fn terminates_at_local_optimum() {
        let instance = inst(7, 12, 1.8);
        let a = LocalSearch::around(MarginalGreedy)
            .solve(&instance)
            .unwrap();
        // Running again from the same seed is deterministic.
        let b = LocalSearch::around(MarginalGreedy)
            .solve(&instance)
            .unwrap();
        assert_eq!(a.accepted(), b.accepted());
    }

    /// The moves priced by a greedy-seeded solve of one basket-shaped
    /// n = 500 instance per load (the benchmark's `LocalSearch` entries):
    /// the bound leaves a few dozen of the round's toggles and swaps.
    #[test]
    fn local_search_work_is_pinned() {
        use crate::algorithms::test_support::basket_shaped;
        for (load, priced) in [(1.2, 54), (3.0, 29)] {
            let (_, work) = LocalSearch::around(MarginalGreedy)
                .polish(&basket_shaped(500, load, 0))
                .unwrap();
            assert_eq!(work.priced, priced, "load {load}");
            assert_eq!(work.without_right_slope, 0);
        }
    }

    /// Where the current `u` lies within `h` of `s_max`, there is no right
    /// secant: the swaps that lower `u` are then read off the
    /// by-utilization order and all priced. On this basket-shaped instance
    /// the accept-all seed runs one such round, and it picks a swap that
    /// lowers `u` (`offline_pins.rs` compares the result with the full
    /// scan).
    #[test]
    fn rounds_without_a_right_slope_price_every_swap_that_lowers_u() {
        use crate::algorithms::test_support::basket_shaped;
        let (_, work) = LocalSearch::around(AcceptAllFeasible)
            .polish(&basket_shaped(12, 1.5, 8))
            .unwrap();
        assert_eq!(
            work,
            Work {
                priced: 53,
                without_right_slope: 1
            }
        );
    }
}
