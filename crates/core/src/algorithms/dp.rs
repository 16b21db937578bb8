//! Scaled dynamic programming (FPTAS-style approximation).

use rt_model::{Task, TaskId};

use crate::algorithms::{acceptable_tasks, MarginalGreedy, RejectionPolicy};
use crate::anytime::{AnytimeSolution, BudgetMeter, BudgetedPolicy, SolveBudget, SolveQuality};
use crate::{Instance, SchedError, Solution};

/// Hard caps on the DP table, to bound memory at 256 MiB per array: the
/// reconstruction bits `n · (V̂+1)` at 2³¹ and the `f64` level array
/// `V̂+1` at 2²⁵ entries.
const MAX_TABLE_BITS: u128 = 1 << 31;
const MAX_LEVELS: usize = 1 << 25;

/// Scaled dynamic program over penalty values.
///
/// Penalties are scaled to integers `ŵᵢ = ⌊vᵢ/μ⌋` with `μ = ε·v_max/n`;
/// the DP computes, for every achievable scaled sheltered value `v̂`, the
/// minimum accepted utilization `D[v̂]`, then picks the value level whose
/// exact cost `E*(D[v̂]) + (V_total − A(v̂))` is smallest.
///
/// **Guarantee**: the returned cost is at most `OPT + ε·v_max` (the rounding
/// forfeits less than `μ` per task across at most `n` tasks). Utilizations
/// and energies are exact throughout — only penalties are quantised.
/// Running time is `O(n²·(n/ε))`, i.e. polynomial in `n` and `1/ε`.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::ScaledDp;
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = Instance::new(WorkloadSpec::new(40, 2.0).seed(3).generate()?, cubic_ideal())?;
/// let near_opt = ScaledDp::new(0.05)?.solve(&inst)?;
/// near_opt.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledDp {
    epsilon: f64,
}

impl ScaledDp {
    /// Creates the approximation scheme with quality parameter `ε > 0`.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] unless `ε` is finite and positive.
    pub fn new(epsilon: f64) -> Result<Self, SchedError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(SchedError::InvalidParameter {
                name: "ε",
                value: epsilon,
            });
        }
        Ok(ScaledDp { epsilon })
    }

    /// The quality parameter `ε`.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

/// Packed 2-D bit matrix for DP reconstruction.
struct TakeBits {
    words: Vec<u64>,
    stride: usize,
}

impl TakeBits {
    fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        TakeBits {
            words: vec![0; rows.max(1) * stride],
            stride,
        }
    }

    fn get(&self, row: usize, col: usize) -> bool {
        self.words[row * self.stride + col / 64] & (1 << (col % 64)) != 0
    }
}

/// The 0/1 knapsack table over scaled values that [`ScaledDp`] and
/// [`crate::budget::solve_budget_dp`] share: `d[v]` is the least total
/// utilization of a subset whose weights sum to exactly `v` and that fits
/// `limit`, `+∞` if none does.
pub(crate) struct LevelTable {
    d: Vec<f64>,
    take: TakeBits,
}

impl LevelTable {
    /// Fills the table layer by layer in task order. Charges `meter` the
    /// full width `V̂+1−wᵢ` before layer `i` and stops at the first layer
    /// it refuses (the table then covers the completed layers only).
    ///
    /// Layer `i` visits only the levels `v ∈ [wᵢ, min(V̂, hi + wᵢ)]`, with
    /// `hi` the highest level written so far: above that `d[v−wᵢ] = +∞`,
    /// so `cand < d[v]` is false and the full-width sweep would write
    /// nothing there either. The levels are updated 64 at a time, one
    /// `take` word per block: the block's `d[v−wᵢ]` are read before any of
    /// its levels is written, so every read sees the previous layer, as in
    /// a descending in-place sweep, for any `wᵢ ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`SchedError::TooLarge`] (naming `algorithm`) if the table would
    /// exceed either memory cap.
    pub(crate) fn build(
        tasks: &[Task],
        weights: &[usize],
        limit: f64,
        meter: &mut BudgetMeter,
        algorithm: &'static str,
    ) -> Result<Self, SchedError> {
        let n = tasks.len();
        let v_hat = weights.iter().fold(0usize, |sum, &w| sum.saturating_add(w));
        if v_hat >= MAX_LEVELS || (n as u128) * (v_hat as u128 + 1) > MAX_TABLE_BITS {
            return Err(SchedError::TooLarge {
                n,
                limit: 0,
                algorithm,
            });
        }
        let limit = limit * (1.0 + 1e-9);
        let mut d = vec![f64::INFINITY; v_hat + 1];
        d[0] = 0.0;
        let mut take = TakeBits::new(n, v_hat + 1);
        let mut hi = 0;
        for (i, t) in tasks.iter().enumerate() {
            let w = weights[i];
            if w == 0 {
                // Value rounds to zero: within the ε·v_max budget we may
                // ignore it (accepting would only add energy).
                continue;
            }
            if !meter.charge((v_hat + 1 - w) as u64) {
                break;
            }
            let u = t.utilization();
            let top = v_hat.min(hi + w);
            let row = &mut take.words[i * take.stride..(i + 1) * take.stride];
            for k in (w / 64..=top / 64).rev() {
                let lo = w.max(64 * k);
                let len = top.min(64 * k + 63) + 1 - lo;
                let mut src = [0.0; 64];
                src[..len].copy_from_slice(&d[lo - w..lo - w + len]);
                let mut mask = 0u64;
                for (j, (slot, &below)) in d[lo..lo + len].iter_mut().zip(&src).enumerate() {
                    let cand = below + u;
                    let better = cand < *slot && cand <= limit;
                    *slot = if better { cand } else { *slot };
                    mask |= u64::from(better) << j;
                }
                if mask != 0 {
                    let mask = mask << (lo % 64);
                    row[k] |= mask;
                    hi = hi.max(64 * k + 63 - mask.leading_zeros() as usize);
                }
            }
        }
        Ok(LevelTable { d, take })
    }

    /// `d[v]` per value level `v ∈ [0, V̂]`.
    pub(crate) fn levels(&self) -> &[f64] {
        &self.d
    }

    /// Appends to `out` the identifiers of the subset that realises level
    /// `v` (walking the layers backwards), which must be finite.
    pub(crate) fn reconstruct(
        &self,
        tasks: &[Task],
        weights: &[usize],
        mut v: usize,
        out: &mut Vec<TaskId>,
    ) {
        for i in (0..tasks.len()).rev() {
            if v > 0 && weights[i] > 0 && weights[i] <= v && self.take.get(i, v) {
                out.push(tasks[i].id());
                v -= weights[i];
            }
        }
        debug_assert_eq!(v, 0, "reconstruction must land on the zero level");
    }
}

impl ScaledDp {
    /// The DP core, shared by the plain and budgeted solves. Charges the
    /// meter one unit per cell of the full-width table (cells the sweep
    /// skips included, so the charge does not depend on the trimming);
    /// when the budget expires, the
    /// remaining task layers are skipped and the best level of the *partial*
    /// table is reconstructed (still a valid solution — just without the
    /// `ε` guarantee).
    fn solve_inner(
        &self,
        instance: &Instance,
        meter: &mut BudgetMeter,
        name: &'static str,
    ) -> Result<Solution, SchedError> {
        let tasks = acceptable_tasks(instance);
        // Zero-utilization tasks are free shelter: always accept.
        let (free, tasks): (Vec<Task>, Vec<Task>) =
            tasks.into_iter().partition(|t| t.utilization() <= 0.0);
        let mut accepted: Vec<TaskId> = free.iter().map(Task::id).collect();

        let v_max = tasks.iter().map(Task::penalty).fold(0.0, f64::max);
        if tasks.is_empty() || v_max <= 0.0 {
            // Without penalties, accepting anything only costs energy.
            return Solution::for_accepted(instance, name, accepted);
        }
        let n = tasks.len();
        let mu = self.epsilon * v_max / n as f64;
        let weights: Vec<usize> = tasks.iter().map(|t| (t.penalty() / mu) as usize).collect();
        let s_max = instance.processor().max_speed();
        let table = LevelTable::build(&tasks, &weights, s_max, meter, "scaled-dp")?;

        // Pick the scaled level with the best (slightly pessimistic but
        // consistent) cost estimate, then reconstruct that level exactly.
        let l = instance.hyper_period() as f64;
        let total_penalty = instance.total_penalty();
        let free_penalty: f64 = free.iter().map(Task::penalty).sum();
        let mut best_v = 0usize;
        let mut best_est = f64::INFINITY;
        for (v, &u) in table.levels().iter().enumerate() {
            if !u.is_finite() {
                continue;
            }
            let Ok(rate) = instance.energy_rate(u.min(s_max)) else {
                continue;
            };
            let est = rate * l + (total_penalty - free_penalty - v as f64 * mu);
            if est < best_est {
                best_est = est;
                best_v = v;
            }
        }
        table.reconstruct(&tasks, &weights, best_v, &mut accepted);
        Solution::for_accepted(instance, name, accepted)
    }
}

impl RejectionPolicy for ScaledDp {
    fn name(&self) -> &'static str {
        "scaled-dp"
    }

    /// # Errors
    ///
    /// [`SchedError::TooLarge`] if the scaled table would exceed the memory
    /// cap (shrink `n` or raise `ε`).
    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError> {
        let mut meter = BudgetMeter::new(&SolveBudget::unlimited());
        self.solve_inner(instance, &mut meter, self.name())
    }
}

impl BudgetedPolicy for ScaledDp {
    /// Budgeted (anytime) scaled DP: one work unit per cell of the
    /// full-width table. On
    /// expiry the partial table's best level is reconstructed and compared
    /// against the [`MarginalGreedy`] seed — the cheaper of the two is
    /// returned, flagged [`SolveQuality::Degraded`]. An instance whose
    /// table would blow the memory cap degrades the same way instead of
    /// erroring.
    ///
    /// # Errors
    ///
    /// Propagates instance/oracle failures; never fails on budget expiry or
    /// table size.
    fn solve_within(
        &self,
        instance: &Instance,
        budget: &SolveBudget,
    ) -> Result<AnytimeSolution, SchedError> {
        const NAME: &str = "anytime-scaled-dp";
        let seed = MarginalGreedy.solve(instance)?;
        let mut meter = BudgetMeter::new(budget);
        let dp = match self.solve_inner(instance, &mut meter, NAME) {
            Ok(dp) => Some(dp),
            // Graceful degradation: an oversized table falls back to the
            // greedy seed rather than refusing to answer.
            Err(SchedError::TooLarge { .. }) => None,
            Err(e) => return Err(e),
        };
        let degraded = meter.expired() || dp.is_none();
        let solution = match dp {
            Some(dp) if dp.cost() <= seed.cost() => dp,
            _ => Solution::for_accepted(instance, NAME, seed.accepted().to_vec())?,
        };
        Ok(AnytimeSolution {
            solution,
            quality: if degraded {
                SolveQuality::Degraded
            } else {
                SolveQuality::Exact
            },
            nodes_used: meter.used(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Exhaustive;
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::WorkloadSpec;
    use rt_model::TaskSet;

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
    fn epsilon_validation() {
        assert!(ScaledDp::new(0.0).is_err());
        assert!(ScaledDp::new(-1.0).is_err());
        assert!(ScaledDp::new(f64::NAN).is_err());
        assert!(ScaledDp::new(0.01).is_ok());
    }

    #[test]
    fn tight_epsilon_matches_optimum_on_small_instances() {
        for seed in 0..5 {
            let tasks = WorkloadSpec::new(10, 1.5).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            let dp = ScaledDp::new(0.001).unwrap().solve(&inst).unwrap().cost();
            let v_max = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
            assert!(
                dp <= opt + 0.001 * v_max + 1e-9,
                "seed {seed}: {dp} vs {opt}"
            );
        }
    }

    #[test]
    fn zero_penalties_yield_empty_acceptance() {
        let inst = instance(&[(2.0, 10, 0.0), (3.0, 10, 0.0)]);
        let s = ScaledDp::new(0.1).unwrap().solve(&inst).unwrap();
        assert_eq!(s.accepted().len(), 0);
        assert_eq!(s.cost(), 0.0);
    }

    #[test]
    fn zero_utilization_tasks_always_accepted() {
        let inst = instance(&[(0.0, 10, 5.0), (9.0, 10, 0.01)]);
        let s = ScaledDp::new(0.1).unwrap().solve(&inst).unwrap();
        assert!(s.accepts(TaskId::new(0)));
        assert!(!s.accepts(TaskId::new(1)));
    }

    #[test]
    fn reconstruction_is_consistent() {
        for seed in 0..10 {
            let tasks = WorkloadSpec::new(25, 2.2).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let s = ScaledDp::new(0.05).unwrap().solve(&inst).unwrap();
            s.verify(&inst).unwrap();
        }
    }

    #[test]
    fn smaller_epsilon_is_no_worse() {
        for seed in 0..5 {
            let tasks = WorkloadSpec::new(30, 1.8).seed(seed).generate().unwrap();
            let inst = Instance::new(tasks, cubic_ideal()).unwrap();
            let coarse = ScaledDp::new(0.5).unwrap().solve(&inst).unwrap().cost();
            let fine = ScaledDp::new(0.01).unwrap().solve(&inst).unwrap().cost();
            // Not strictly guaranteed pointwise, but with the shared
            // reconstruction rule finer grids dominate in practice; allow
            // the ε·v_max theoretical slack.
            let v_max = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
            assert!(fine <= coarse + 0.01 * v_max + 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn memory_guard_trips_for_absurd_parameters() {
        let tasks = WorkloadSpec::new(200, 10.0).seed(1).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let err = ScaledDp::new(1e-7).unwrap().solve(&inst).unwrap_err();
        assert!(matches!(err, SchedError::TooLarge { .. }));
    }

    #[test]
    fn handles_large_instances_fast() {
        let tasks = WorkloadSpec::new(300, 4.0).seed(2).generate().unwrap();
        let inst = Instance::new(tasks, cubic_ideal()).unwrap();
        let s = ScaledDp::new(0.1).unwrap().solve(&inst).unwrap();
        s.verify(&inst).unwrap();
        assert!(s.cost().is_finite());
    }
}
