//! Synthetic workload generation.
//!
//! The evaluation methodology of the target paper's research line uses
//! synthetic periodic task sets: per-task utilizations drawn by
//! **UUniFast** (Bini & Buttazzo) to hit a prescribed total demand, periods
//! drawn from a harmonic-friendly set (so hyper-periods stay small and
//! exact), and rejection penalties drawn from a configurable model.
//!
//! Generation is fully deterministic given a seed, so every experiment in
//! `bench-suite` is reproducible.
//!
//! # Examples
//!
//! ```
//! use rt_model::generator::{PenaltyModel, WorkloadSpec};
//!
//! # fn main() -> Result<(), rt_model::ModelError> {
//! let ts = WorkloadSpec::new(8, 1.6)          // 8 tasks, total demand 1.6 (overload)
//!     .penalty_model(PenaltyModel::UtilizationProportional { scale: 2.0, jitter: 0.5 })
//!     .seed(42)
//!     .generate()?;
//! assert_eq!(ts.len(), 8);
//! assert!((ts.utilization() - 1.6).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use crate::rng::Rng;
use crate::{FrameInstance, FrameTask, ModelError, Task, TaskSet};

/// Periods are drawn from this harmonic-friendly set by default; its LCM is
/// 1000 ticks, so hyper-periods remain exact and job counts stay small. It
/// is also the admission engine's default billing horizon: every generated
/// period divides it, so a re-solve's hyper-period never moves.
pub const DEFAULT_PERIOD_SET: &[u64] = &[10, 20, 25, 40, 50, 100, 125, 200, 250, 500, 1000];

/// How rejection penalties `vᵢ` are assigned to generated tasks.
///
/// Penalties are *per hyper-period*, so models that should be commensurable
/// with energy scale with the hyper-period length `L` (energy over a
/// hyper-period is `L·U·P(s)/s`, i.e. also linear in `L`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PenaltyModel {
    /// `vᵢ ~ Uniform[lo, hi] · L` — penalties unrelated to the task's demand.
    Uniform {
        /// Lower bound of the per-tick penalty rate.
        lo: f64,
        /// Upper bound of the per-tick penalty rate.
        hi: f64,
    },
    /// `vᵢ = scale · uᵢ · L · Uniform[1−jitter, 1+jitter]` — heavy tasks are
    /// also valuable tasks. With `scale ≈ P(s_max)/s_max` the penalty of a
    /// task is comparable to the energy it costs to run, placing instances in
    /// the interesting regime where rejection decisions are non-trivial.
    UtilizationProportional {
        /// Penalty per unit of utilization per tick.
        scale: f64,
        /// Relative jitter in `[0, 1)` applied multiplicatively.
        jitter: f64,
    },
    /// `vᵢ = scale · (u_max − uᵢ + u_min) · L · Uniform[1−jitter, 1+jitter]`
    /// — *adversarial*: heavy tasks are cheap to reject and light tasks are
    /// precious. Density-greedy heuristics are expected to do well here;
    /// the inverse regime stresses them elsewhere.
    InverseUtilization {
        /// Penalty rate multiplier.
        scale: f64,
        /// Relative jitter in `[0, 1)`.
        jitter: f64,
    },
}

impl Default for PenaltyModel {
    fn default() -> Self {
        PenaltyModel::UtilizationProportional {
            scale: 1.5,
            jitter: 0.5,
        }
    }
}

/// Builder describing a synthetic periodic workload.
///
/// See the [module documentation](self) for an example.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    n: usize,
    total_utilization: f64,
    periods: Vec<u64>,
    penalty_model: PenaltyModel,
    max_task_utilization: f64,
    seed: u64,
}

impl WorkloadSpec {
    /// Creates a spec for `n` tasks with the given total utilization demand
    /// (cycles per tick; values above the processor's `s_max` model
    /// overload).
    ///
    /// Defaults: periods from [`DEFAULT_PERIOD_SET`], the default
    /// [`PenaltyModel`], no per-task utilization cap, seed 0.
    #[must_use]
    pub fn new(n: usize, total_utilization: f64) -> Self {
        WorkloadSpec {
            n,
            total_utilization,
            periods: DEFAULT_PERIOD_SET.to_vec(),
            penalty_model: PenaltyModel::default(),
            max_task_utilization: f64::INFINITY,
            seed: 0,
        }
    }

    /// Replaces the candidate period set (ticks).
    ///
    /// # Panics
    ///
    /// Panics if `periods` is empty or contains 0.
    #[must_use]
    pub fn periods(mut self, periods: impl Into<Vec<u64>>) -> Self {
        let periods = periods.into();
        assert!(!periods.is_empty(), "period set must not be empty");
        assert!(periods.iter().all(|&p| p > 0), "periods must be positive");
        self.periods = periods;
        self
    }

    /// Replaces the penalty model.
    #[must_use]
    pub fn penalty_model(mut self, model: PenaltyModel) -> Self {
        self.penalty_model = model;
        self
    }

    /// Caps each task's individual utilization (UUniFast-discard): vectors
    /// with any `uᵢ > cap` are redrawn.
    ///
    /// # Panics
    ///
    /// Panics if the cap makes the target total unreachable
    /// (`cap · n < total_utilization`).
    #[must_use]
    pub fn max_task_utilization(mut self, cap: f64) -> Self {
        assert!(
            cap * self.n as f64 >= self.total_utilization,
            "cap {cap} × {} tasks cannot reach total utilization {}",
            self.n,
            self.total_utilization
        );
        self.max_task_utilization = cap;
        self
    }

    /// Sets the RNG seed (generation is deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the periodic task set.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from task construction (cannot occur for
    /// valid specs; kept for API uniformity).
    pub fn generate(&self) -> Result<TaskSet, ModelError> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let utils = uunifast_discard(
            &mut rng,
            self.n,
            self.total_utilization,
            self.max_task_utilization,
        );
        let mut tasks = Vec::with_capacity(self.n);
        for (i, &u) in utils.iter().enumerate() {
            let period = self.periods[rng.gen_index(self.periods.len())];
            tasks.push(Task::new(i, u * period as f64, period)?);
        }
        let set = TaskSet::try_from_tasks(tasks)?;
        Ok(self.assign_penalties(&mut rng, set))
    }

    fn assign_penalties(&self, rng: &mut Rng, set: TaskSet) -> TaskSet {
        let l = set.hyper_period().max(1) as f64;
        let u_min = set
            .iter()
            .map(Task::utilization)
            .fold(f64::INFINITY, f64::min);
        let u_max = set.iter().map(Task::utilization).fold(0.0, f64::max);
        let tasks: Vec<Task> = set
            .into_iter()
            .map(|t| {
                let v = match self.penalty_model {
                    PenaltyModel::Uniform { lo, hi } => {
                        let rate = rng.gen_f64(lo, hi);
                        rate * l
                    }
                    PenaltyModel::UtilizationProportional { scale, jitter } => {
                        scale * t.utilization() * l * jitter_factor(rng, jitter)
                    }
                    PenaltyModel::InverseUtilization { scale, jitter } => {
                        scale
                            * (u_max - t.utilization() + u_min).max(0.0)
                            * l
                            * jitter_factor(rng, jitter)
                    }
                };
                t.with_penalty(v.max(0.0))
            })
            .collect();
        TaskSet::try_from_tasks(tasks).expect("identifiers unchanged")
    }

    /// Generates a frame-based instance with the same machinery: tasks get a
    /// common deadline `deadline` and cycles `uᵢ · deadline`.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from construction.
    pub fn generate_frame(&self, deadline: u64) -> Result<FrameInstance, ModelError> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let utils = uunifast_discard(
            &mut rng,
            self.n,
            self.total_utilization,
            self.max_task_utilization,
        );
        let d = deadline as f64;
        let u_min = utils.iter().copied().fold(f64::INFINITY, f64::min);
        let u_max = utils.iter().copied().fold(0.0, f64::max);
        let mut tasks = Vec::with_capacity(self.n);
        for (i, &u) in utils.iter().enumerate() {
            let v = match self.penalty_model {
                PenaltyModel::Uniform { lo, hi } => rng.gen_f64(lo, hi) * d,
                PenaltyModel::UtilizationProportional { scale, jitter } => {
                    scale * u * d * jitter_factor(&mut rng, jitter)
                }
                PenaltyModel::InverseUtilization { scale, jitter } => {
                    scale * (u_max - u + u_min).max(0.0) * d * jitter_factor(&mut rng, jitter)
                }
            };
            tasks.push(FrameTask::new(i, u * d)?.with_penalty(v.max(0.0)));
        }
        FrameInstance::new(deadline, tasks)
    }
}

fn jitter_factor(rng: &mut Rng, jitter: f64) -> f64 {
    if jitter > 0.0 {
        rng.gen_f64(1.0 - jitter, 1.0 + jitter)
    } else {
        1.0
    }
}

/// UUniFast (Bini & Buttazzo 2005): draws `n` non-negative utilizations that
/// sum exactly (up to floating point) to `total`, uniformly over the simplex.
///
/// # Panics
///
/// Panics if `n == 0` and `total > 0`, or if `total` is negative/non-finite.
#[must_use]
pub fn uunifast(rng: &mut Rng, n: usize, total: f64) -> Vec<f64> {
    assert!(
        total.is_finite() && total >= 0.0,
        "total utilization must be finite and non-negative"
    );
    if n == 0 {
        assert!(
            total == 0.0,
            "cannot distribute positive utilization over zero tasks"
        );
        return Vec::new();
    }
    let mut utils = Vec::with_capacity(n);
    let mut remaining = total;
    for i in 1..n {
        let exp = 1.0 / (n - i) as f64;
        let next = remaining * rng.next_f64().powf(exp);
        utils.push(remaining - next);
        remaining = next;
    }
    utils.push(remaining);
    utils
}

/// UUniFast with discard: redraws until every utilization is `≤ cap`
/// (at most 10 000 attempts, then the offending values are clamped by
/// redistributing the excess — a deterministic fallback so generation always
/// terminates).
#[must_use]
pub fn uunifast_discard(rng: &mut Rng, n: usize, total: f64, cap: f64) -> Vec<f64> {
    if !cap.is_finite() {
        return uunifast(rng, n, total);
    }
    for _ in 0..10_000 {
        let utils = uunifast(rng, n, total);
        if utils.iter().all(|&u| u <= cap) {
            return utils;
        }
    }
    // Fallback: clamp to cap and spread the excess over unsaturated tasks.
    let mut utils = uunifast(rng, n, total);
    for _ in 0..n {
        let mut excess = 0.0;
        for u in utils.iter_mut() {
            if *u > cap {
                excess += *u - cap;
                *u = cap;
            }
        }
        if excess <= 1e-12 {
            break;
        }
        let slack: f64 = utils.iter().map(|&u| cap - u).sum();
        if slack <= 0.0 {
            break;
        }
        let utils_snapshot = utils.clone();
        for (u, &orig) in utils.iter_mut().zip(&utils_snapshot) {
            *u += excess * (cap - orig) / slack;
        }
    }
    utils
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uunifast_sums_to_total() {
        let mut rng = Rng::seed_from_u64(1);
        for &total in &[0.5, 1.0, 2.7] {
            for &n in &[1usize, 2, 5, 20] {
                let u = uunifast(&mut rng, n, total);
                assert_eq!(u.len(), n);
                let sum: f64 = u.iter().sum();
                assert!((sum - total).abs() < 1e-9, "sum {sum} != {total}");
                assert!(u.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn uunifast_discard_respects_cap() {
        let mut rng = Rng::seed_from_u64(2);
        let u = uunifast_discard(&mut rng, 10, 3.0, 0.5);
        let sum: f64 = u.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9);
        assert!(u.iter().all(|&x| x <= 0.5 + 1e-9));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::new(6, 1.2).seed(7);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        let c = WorkloadSpec::new(6, 1.2).seed(8).generate().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_set_hits_target_utilization() {
        let ts = WorkloadSpec::new(12, 2.4).seed(3).generate().unwrap();
        assert_eq!(ts.len(), 12);
        assert!((ts.utilization() - 2.4).abs() < 1e-9);
        assert!(ts.hyper_period() > 0);
    }

    #[test]
    fn penalties_are_positive_under_all_models() {
        for model in [
            PenaltyModel::Uniform { lo: 0.1, hi: 1.0 },
            PenaltyModel::UtilizationProportional {
                scale: 2.0,
                jitter: 0.3,
            },
            PenaltyModel::InverseUtilization {
                scale: 2.0,
                jitter: 0.3,
            },
        ] {
            let ts = WorkloadSpec::new(8, 1.5)
                .penalty_model(model)
                .seed(11)
                .generate()
                .unwrap();
            assert!(ts
                .iter()
                .all(|t| t.penalty() >= 0.0 && t.penalty().is_finite()));
            assert!(ts.total_penalty() > 0.0);
        }
    }

    #[test]
    fn inverse_model_orders_penalties_against_utilization() {
        let ts = WorkloadSpec::new(16, 2.0)
            .penalty_model(PenaltyModel::InverseUtilization {
                scale: 1.0,
                jitter: 0.0,
            })
            .seed(5)
            .generate()
            .unwrap();
        let mut tasks: Vec<_> = ts.iter().collect();
        tasks.sort_by(|a, b| a.utilization().partial_cmp(&b.utilization()).unwrap());
        // With zero jitter, penalties must be non-increasing in utilization.
        for w in tasks.windows(2) {
            assert!(w[0].penalty() >= w[1].penalty() - 1e-9);
        }
    }

    #[test]
    fn frame_generation_matches_spec() {
        let f = WorkloadSpec::new(5, 0.9)
            .seed(4)
            .generate_frame(200)
            .unwrap();
        assert_eq!(f.len(), 5);
        assert!((f.required_speed() - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "cannot reach total utilization")]
    fn impossible_cap_panics() {
        let _ = WorkloadSpec::new(4, 2.0).max_task_utilization(0.4);
    }

    #[test]
    fn custom_period_set_is_used() {
        let ts = WorkloadSpec::new(10, 1.0)
            .periods(vec![8u64, 16])
            .seed(9)
            .generate()
            .unwrap();
        assert!(ts.iter().all(|t| t.period() == 8 || t.period() == 16));
        assert!(ts.hyper_period() <= 16);
    }
}
