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

/// Relaxes one 64-level block against the previous layer's levels `src`:
/// `dst[j] = src[j] + u` wherever that is strictly smaller. Returns the
/// written levels as a bit mask (bit `j` for `dst[j]`). Branch-free, so
/// the compare-and-select vectorises on baseline x86-64; the eight
/// `better` bytes of a chunk are packed into mask bits by one multiply
/// (byte `j` lands on bit `56 + j`).
fn relax_block(dst: &mut [f64; 64], src: &[f64; 64], u: f64) -> u64 {
    let mut mask = 0u64;
    for (k, (dst, src)) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)).enumerate() {
        let mut better = [0u8; 8];
        for ((slot, &below), flag) in dst.iter_mut().zip(src).zip(&mut better) {
            let cand = below + u;
            let b = cand < *slot;
            *slot = if b { cand } else { *slot };
            *flag = u8::from(b);
        }
        let bits = u64::from_le_bytes(better).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        mask |= bits << (8 * k);
    }
    mask
}

impl LevelTable {
    /// Fills the table layer by layer in task order. Charges `meter` the
    /// full width `V̂+1−wᵢ` before layer `i` and stops at the first layer
    /// it refuses (the table then covers the completed layers only).
    ///
    /// Layer `i` visits only the levels `v ∈ [wᵢ, min(V̂, hi + wᵢ)]`, with
    /// `hi` the highest level written so far: above that `d[v−wᵢ]` is
    /// unreached, so the full-width sweep would write nothing there either.
    /// During the sweep an unreached level holds the sentinel
    /// `limit.next_up()` rather than `+∞`, so one compare `cand < d[v]`
    /// also enforces `cand ≤ limit` (docs/THEORY.md §7); the sentinels
    /// become `+∞` once the layers are done. The levels are updated in
    /// aligned blocks of 64, one `take` word per block, from the top down,
    /// and a block's `d[v−wᵢ]` are read before any of its levels is
    /// written, so every read sees the previous layer, as in a descending
    /// in-place sweep, for any `wᵢ ≥ 1`.
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
        let unreached = limit.next_up();
        let mut d = vec![unreached; v_hat + 1];
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
                let base = 64 * k;
                let lo = w.max(base);
                let len = top.min(base + 63) + 1 - lo;
                let mask = if len == 64 && w >= 64 {
                    // The sources lie wholly below the block: borrow both.
                    let (below, block) = d.split_at_mut(base);
                    let dst = (&mut block[..64]).try_into().expect("a full block");
                    let src = below[base - w..][..64].try_into().expect("a full block");
                    relax_block(dst, src, u)
                } else {
                    // A partial block, or sources that overlap it: copy
                    // both in at their block offsets, padded with the
                    // sentinel (which never relaxes), and copy back.
                    let off = lo - base;
                    let mut dst = [unreached; 64];
                    let mut src = [unreached; 64];
                    dst[off..off + len].copy_from_slice(&d[lo..lo + len]);
                    src[off..off + len].copy_from_slice(&d[lo - w..lo - w + len]);
                    let mask = relax_block(&mut dst, &src, u);
                    d[lo..lo + len].copy_from_slice(&dst[off..off + len]);
                    mask
                };
                if mask != 0 {
                    row[k] |= mask;
                    hi = hi.max(base + 63 - mask.leading_zeros() as usize);
                }
            }
        }
        // Level 0 is never written; every other level above `limit` was
        // never reached and still holds the sentinel.
        for level in &mut d[1..] {
            if *level > limit {
                *level = f64::INFINITY;
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

    /// `LevelTable::build` as the plain full-width sweep: unreached levels
    /// are `+∞`, every layer visits every level `v ∈ [wᵢ, V̂]` in
    /// descending order with two compares, and the meter is charged as in
    /// `build`. Returns the levels and one `take` row per task.
    fn reference_table(
        tasks: &[Task],
        weights: &[usize],
        limit: f64,
        meter: &mut BudgetMeter,
    ) -> (Vec<f64>, Vec<Vec<bool>>) {
        let v_hat: usize = weights.iter().sum();
        let limit = limit * (1.0 + 1e-9);
        let mut d = vec![f64::INFINITY; v_hat + 1];
        d[0] = 0.0;
        let mut take = vec![vec![false; v_hat + 1]; tasks.len()];
        for (i, t) in tasks.iter().enumerate() {
            let w = weights[i];
            if w == 0 {
                continue;
            }
            if !meter.charge((v_hat + 1 - w) as u64) {
                break;
            }
            for v in (w..=v_hat).rev() {
                let cand = d[v - w] + t.utilization();
                if cand < d[v] && cand <= limit {
                    d[v] = cand;
                    take[i][v] = true;
                }
            }
        }
        (d, take)
    }

    /// Builds the table both ways under `budget` and compares every level
    /// bit, every `take` bit and the meter; returns the library's table and
    /// whether the meter expired.
    fn assert_table_matches(
        what: &str,
        tasks: &[Task],
        weights: &[usize],
        limit: f64,
        budget: &SolveBudget,
    ) -> (LevelTable, bool) {
        let mut meter = BudgetMeter::new(budget);
        let table = LevelTable::build(tasks, weights, limit, &mut meter, "test").unwrap();
        let mut ref_meter = BudgetMeter::new(budget);
        let (d, take) = reference_table(tasks, weights, limit, &mut ref_meter);
        let bits = |levels: &[f64]| levels.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(table.levels()), bits(&d), "{what}: levels");
        for (i, row) in take.iter().enumerate() {
            for (v, &bit) in row.iter().enumerate() {
                assert_eq!(table.take.get(i, v), bit, "{what}: take[{i}][{v}]");
            }
        }
        assert_eq!(meter.used(), ref_meter.used(), "{what}: work");
        assert_eq!(meter.expired(), ref_meter.expired(), "{what}: expiry");
        (table, meter.expired())
    }

    /// Tasks with utilizations `us` (period 1000).
    fn tasks_with(us: &[f64]) -> Vec<Task> {
        us.iter()
            .enumerate()
            .map(|(i, &u)| Task::new(i, u * 1000.0, 1000).unwrap())
            .collect()
    }

    #[test]
    fn level_table_matches_the_full_width_sweep() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut tables = 0;
        for w in [1, 63, 64, 65, 128, 300] {
            for seed in 0..4 {
                // Weight `w` alternates with weights drawn from `[0, 2w]`,
                // so the tops and block starts land anywhere in a block
                // (and at small `w` some weights are zero).
                let n = 6 + 3 * seed;
                let weights: Vec<usize> = (0..n)
                    .map(|i| {
                        if i % 2 == 0 {
                            w
                        } else {
                            next(2 * w as u64 + 1) as usize
                        }
                    })
                    .collect();
                let us: Vec<f64> = (0..n).map(|_| (1 + next(400)) as f64 / 1000.0).collect();
                let tasks = tasks_with(&us);
                let total: f64 = us.iter().sum();
                // Non-binding, binding mid-table, and tight limits.
                for limit in [total + 1.0, total / 2.0, total / 7.0] {
                    let what = format!("w={w} seed={seed} limit={limit}");
                    let unlimited = SolveBudget::unlimited();
                    assert_table_matches(&what, &tasks, &weights, limit, &unlimited);
                    tables += 1;
                }
            }
        }
        assert_eq!(tables, 6 * 4 * 3);
    }

    #[test]
    fn level_table_limit_binds_inside_a_partial_block() {
        // 100 unit weights of u = 0.01 under a limit of 0.7: levels up to
        // 70 are reachable, and level 70 lies in the partial block 64..=100.
        let tasks = tasks_with(&[0.01; 100]);
        let weights = [1; 100];
        let unlimited = SolveBudget::unlimited();
        let (table, _) = assert_table_matches("unit weights", &tasks, &weights, 0.7, &unlimited);
        let last = table.levels().iter().rposition(|d| d.is_finite()).unwrap();
        assert!((65..100).contains(&last), "highest reachable level {last}");
    }

    #[test]
    fn level_table_stops_where_the_meter_refuses() {
        let tasks = tasks_with(&[0.3, 0.05, 0.2, 0.01, 0.4, 0.1, 0.25, 0.15]);
        let weights = [70, 3, 0, 64, 130, 1, 65, 40];
        let v_hat: u64 = weights.iter().sum::<usize>() as u64;
        let full: u64 = weights
            .iter()
            .filter(|&&w| w > 0)
            .map(|&w| v_hat + 1 - w as u64)
            .sum();
        for nodes in [0, 1, full / 3, full / 2, full - 1, full] {
            let (_, expired) = assert_table_matches(
                &format!("budget {nodes}"),
                &tasks,
                &weights,
                0.6,
                &SolveBudget::nodes(nodes),
            );
            assert_eq!(expired, nodes < full, "budget {nodes}");
        }
    }

    #[test]
    fn level_table_admits_free_tasks_under_a_zero_cap() {
        // `solve_budget_dp`'s degenerate case: a cap of 0 admits only
        // subsets of zero-utilization tasks.
        let tasks = tasks_with(&[0.0, 0.2, 0.0, 0.0, 0.1, 0.0]);
        let weights = [5, 64, 70, 1, 3, 0];
        let unlimited = SolveBudget::unlimited();
        let (table, _) = assert_table_matches("zero cap", &tasks, &weights, 0.0, &unlimited);
        assert_eq!(table.levels()[76], 0.0, "tasks 0, 2 and 3 together");
        assert_eq!(table.levels()[64], f64::INFINITY);
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
