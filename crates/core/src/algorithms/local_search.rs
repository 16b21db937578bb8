//! Local-search improvement on top of any seed policy.

use rt_model::Task;

use crate::algorithms::RejectionPolicy;
use crate::{Instance, SchedError, Solution};

/// Relative slack of a swap prune: `δ = PRUNE_SLACK · (1 + |θ| + |C_u| +
/// V)` (docs/THEORY.md §7). It absorbs (a) float noise: the costs compared
/// are rounded at the scale of their terms, a few ulps of `C_u + V`; and
/// (b) on discrete speed sets, the sliver where `Processor::energy_rate`
/// accepts a level up to 1e-9 below the demand, which moves a cost by at
/// most `1e-9 · L · E′` — under 1e-8 of it for every preset (`E′/E ≤ 10`
/// on the XScale and uniform-level hulls). Both stay an order of magnitude
/// below δ.
const PRUNE_SLACK: f64 = 1e-7;

/// One neighborhood move over the acceptable-task list.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Flip acceptance of task `i`.
    Toggle(usize),
    /// Reject accepted task `.0`, accept rejected task `.1`.
    Swap(usize, usize),
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

/// A lower bound on every swap's cost from one round's convexity data,
/// so that a scan can skip the swaps it proves cannot be picked.
///
/// `E*` is convex and nondecreasing in `u` on every processor (the power
/// function's convexity is checked at construction; docs/THEORY.md §7), so
/// with `r = Instance::energy_rate` and secant slopes `s_L ≤ r′(u⁻)`,
/// `s_R ≥ r′(u⁺)` taken a step `h` either side of the current `u`,
/// `r(x) ≥ r(u) + s_L·(x−u)` for `x > u` and `r(x) ≥ r(u) + s_R·(x−u)` for
/// `x < u`. A swap `(o, i)` therefore costs at least
/// `C_u − [(vᵢ−v_o) − L·s·(uᵢ−u_o)] = C_u − (aᵢ − a_o)`, with
/// `a_k = v_k − L·s·u_k` and `C_u` the current cost.
struct SwapBound {
    /// `C_u = L·r(u) + V − avoided`, priced as [`Neighborhood::move_cost`]
    /// prices a move.
    current: f64,
    /// `a_k` with `s_L`, for swaps that do not lower `u`.
    raise: Vec<f64>,
    /// `a_k` with `s_R`, for swaps that lower `u`; `None` when the right
    /// secant is unavailable, and such swaps are then never skipped.
    lower: Option<Vec<f64>>,
    /// `V`, the instance's total penalty (a scale of the slack).
    total_penalty: f64,
    /// `C_u − θ − δ` for the current threshold `θ`: a swap with
    /// `aᵢ − a_o` below it costs more than `θ`.
    cut: f64,
}

impl SwapBound {
    /// The bound around utilization `u` with sheltered penalty `avoided`,
    /// secants `h` wide, against threshold `theta`; `None` if `r(u)`
    /// cannot be priced.
    fn new(nb: &Neighborhood<'_>, h: f64, u: f64, avoided: f64, theta: f64) -> Option<Self> {
        let instance = nb.instance;
        let cpu = instance.processor();
        let r_u = instance.energy_rate(u).ok()?;
        // A secant end must be feasible and not beyond `s_max` (where
        // `energy_rate` is flat over the demand tolerance), nor within
        // `PRUNE_SLACK` above a discrete level (where it accepts a level up
        // to 1e-9 below the demand and reads below the convex hull): `1/h`
        // would amplify either.
        let rate = |p: f64| {
            let on_hull = p <= cpu.max_speed()
                && cpu
                    .domain()
                    .levels()
                    .is_none_or(|levels| !levels.iter().any(|&s| s < p && p <= s + PRUNE_SLACK));
            instance.energy_rate(p).ok().filter(|_| on_hull)
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
        let mut bound = SwapBound {
            current: r_u * nb.horizon + (nb.total_penalty - avoided),
            raise: slopes(s_l),
            lower: s_r.map(slopes),
            total_penalty: nb.total_penalty,
            cut: f64::NEG_INFINITY,
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

    /// Whether the bound proves swap `(out, into)` costs more than `θ`.
    fn rules_out(&self, out: usize, into: usize, utils: &[f64]) -> bool {
        if utils[into] >= utils[out] {
            self.raise[into] - self.raise[out] < self.cut
        } else {
            self.lower
                .as_ref()
                .is_some_and(|a| a[into] - a[out] < self.cut)
        }
    }
}

/// Hill-climbing improvement: starting from a seed policy's solution,
/// repeatedly applies the best improving move among
///
/// * **toggle** — accept one rejected task or reject one accepted task, and
/// * **swap** — exchange one accepted task for one rejected task,
///
/// until a local optimum (or the iteration cap) is reached. With a greedy
/// seed this recovers a large share of the gap to optimal at quadratic cost
/// per round; it is the workhorse "polish" step of the experiment suite.
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
}

impl RejectionPolicy for LocalSearch {
    fn name(&self) -> &'static str {
        "local-search"
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let seed = self.seed.solve(instance)?;
        let tasks: Vec<Task> = instance
            .tasks()
            .iter()
            .filter(|t| instance.is_acceptable(t))
            .copied()
            .collect();
        let n = tasks.len();
        let mut accepted: Vec<bool> = tasks.iter().map(|t| seed.accepts(t.id())).collect();
        let mut cost = seed.cost();
        let nb = Neighborhood {
            instance,
            tasks: &tasks,
            horizon: instance.hyper_period() as f64,
            total_penalty: instance.total_penalty(),
        };

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

        for _ in 0..self.max_rounds {
            // Re-derive the exact sums once per round so delta errors never
            // accumulate across moves.
            let (mut u, mut avoided) = (0.0, 0.0);
            for (i, t) in tasks.iter().enumerate() {
                if accepted[i] {
                    u += t.utilization();
                    avoided += t.penalty();
                }
            }
            // Scan the whole neighborhood — all toggles, then all out→in
            // swaps — keeping the earliest strictly best improvement. A
            // swap the bound proves costs more than `θ = min(cost − 1e-12,
            // best so far)` could not pass `consider`, so skipping it
            // leaves the pick unchanged.
            let mut best: Option<(Move, f64)> = None;
            // Whether `mv` became the best move so far.
            let consider = |best: &mut Option<(Move, f64)>, mv: Move| {
                let c = nb.move_cost(&accepted, u, avoided, mv);
                let better = c < cost - 1e-12 && best.is_none_or(|(_, bc)| c < bc);
                if better {
                    *best = Some((mv, c));
                }
                better
            };
            for i in 0..n {
                consider(&mut best, Move::Toggle(i));
            }
            // A best move already beats `cost − 1e-12`, so it is `θ`.
            let theta = |best: Option<(Move, f64)>| best.map_or(cost - 1e-12, |(_, bc)| bc);
            let mut bound = SwapBound::new(&nb, h, u, avoided, theta(best));
            let rejected: Vec<usize> = (0..n).filter(|&i| !accepted[i]).collect();
            for out in (0..n).filter(|&i| accepted[i]) {
                for &into in &rejected {
                    if bound
                        .as_ref()
                        .is_some_and(|b| b.rules_out(out, into, &utils))
                    {
                        continue;
                    }
                    if consider(&mut best, Move::Swap(out, into)) {
                        if let Some(b) = &mut bound {
                            b.set_threshold(theta(best));
                        }
                    }
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
        let ids = tasks
            .iter()
            .zip(&accepted)
            .filter(|(_, &a)| a)
            .map(|(t, _)| t.id());
        Solution::for_accepted(instance, self.name(), ids)
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
}
