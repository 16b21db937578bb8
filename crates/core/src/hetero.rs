//! Tasks with **different power characteristics** (heterogeneous model).
//!
//! When task `τᵢ` has its own power function `Pᵢ(s)` (e.g. `ρᵢ·s^αᵢ` —
//! different effective switched capacitance per task), running every
//! accepted task at one common speed is no longer optimal. Each task gets
//! its own constant speed `sᵢ`, subject to the EDF *time-utilization*
//! feasibility condition
//!
//! ```text
//! Σ_{τᵢ ∈ A} uᵢ / sᵢ ≤ 1,        sᵢ ≤ s_max,
//! ```
//!
//! (a job of `τᵢ` occupies `cᵢ/sᵢ` time out of each period `pᵢ`), and the
//! energy per hyper-period is `L · Σ uᵢ·Pᵢ(sᵢ)/sᵢ`.
//!
//! The optimal speed assignment for a fixed accepted set is a classic
//! KKT/water-filling problem: price processor time with a multiplier
//! `λ ≥ 0`; each task independently runs at the *uplifted critical speed*
//! `sᵢ(λ) = argmin (Pᵢ(s)+λ)/s`, and `λ` is bisected until the time budget
//! `Σ uᵢ/sᵢ(λ) = 1` (or `λ = 0` if the unconstrained critical speeds
//! already fit). On top of this oracle the module provides a marginal-cost
//! greedy and an exhaustive solver for the rejection decision.

use std::collections::BTreeMap;

use dvs_power::{PowerFunction, Processor};
use edf_sim::{SimReport, Simulator, SpeedProfile};
use rt_model::{Task, TaskId, TaskSet};

use crate::{SchedError, View};

/// Iterations of λ-bisection (relative time-budget error < 1e-12).
const BISECT_ITERS: usize = 200;

/// A rejection-scheduling instance in which every task has its own power
/// function.
///
/// # Examples
///
/// ```
/// use dvs_power::{PowerFunction, Processor, SpeedDomain};
/// use reject_sched::hetero::HeteroInstance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::try_from_tasks(vec![
///     Task::new(0, 4.0, 10)?.with_penalty(3.0),
///     Task::new(1, 4.0, 10)?.with_penalty(3.0),
/// ])?;
/// let powers = vec![
///     PowerFunction::polynomial(0.0, 1.0, 3.0)?,   // cheap task
///     PowerFunction::polynomial(0.0, 4.0, 3.0)?,   // power-hungry task
/// ];
/// let cpu = Processor::new(PowerFunction::polynomial(0.0, 1.0, 3.0)?,
///                          SpeedDomain::continuous(0.0, 1.0)?);
/// let inst = HeteroInstance::new(tasks, powers, cpu)?;
/// let sol = inst.solve_greedy()?;
/// sol.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HeteroInstance {
    tasks: TaskSet,
    powers: Vec<PowerFunction>,
    cpu: Processor,
}

/// A solution of the heterogeneous problem: accepted set plus per-task
/// speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSolution {
    accepted: Vec<TaskId>,
    speeds: Vec<(TaskId, f64)>,
    energy: f64,
    penalty: f64,
}

impl HeteroInstance {
    /// Creates a heterogeneous instance; `powers[k]` belongs to
    /// `tasks.as_slice()[k]`. The processor supplies the speed domain
    /// (continuous domains only) — its own power function is unused.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidParameter`] if the lengths differ or the domain
    /// is discrete.
    pub fn new(
        tasks: TaskSet,
        powers: Vec<PowerFunction>,
        cpu: Processor,
    ) -> Result<Self, SchedError> {
        if powers.len() != tasks.len() {
            return Err(SchedError::InvalidParameter {
                name: "powers.len",
                value: powers.len() as f64,
            });
        }
        if !cpu.domain().is_continuous() {
            return Err(SchedError::InvalidParameter {
                name: "domain",
                value: f64::NAN,
            });
        }
        Ok(HeteroInstance { tasks, powers, cpu })
    }

    /// The task set.
    #[must_use]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// The power function of the task at position `k`.
    #[must_use]
    pub fn power_of(&self, k: usize) -> &PowerFunction {
        &self.powers[k]
    }

    /// The processor (speed domain provider).
    #[must_use]
    pub fn processor(&self) -> &Processor {
        &self.cpu
    }

    /// Hyper-period of the full set.
    #[must_use]
    pub fn hyper_period(&self) -> u64 {
        self.tasks.hyper_period()
    }

    fn indexed(&self, accepted: &[TaskId]) -> Result<Vec<(usize, Task)>, SchedError> {
        let mut out = Vec::with_capacity(accepted.len());
        for id in accepted {
            let k = self
                .tasks
                .iter()
                .position(|t| t.id() == *id)
                .ok_or(rt_model::ModelError::UnknownTask { task: id.index() })?;
            out.push((k, self.tasks[k]));
        }
        Ok(out)
    }

    /// Optimal per-task speeds and total energy (per hyper-period) for an
    /// accepted set, by λ-bisection over the time budget.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] for unknown identifiers.
    /// * [`SchedError::Power`] if the set is infeasible
    ///   (`Σ uᵢ > s_max`, equivalently `Σ uᵢ/s_max > 1`).
    pub fn optimal_assignment(
        &self,
        accepted: &[TaskId],
    ) -> Result<(Vec<(TaskId, f64)>, f64), SchedError> {
        let items = self.indexed(accepted)?;
        let s_max = self.cpu.max_speed();
        let total_u: f64 = items.iter().map(|(_, t)| t.utilization()).sum();
        if !self.cpu.is_feasible(total_u) {
            return Err(dvs_power::PowerError::InfeasibleDemand {
                utilization: total_u,
                max_speed: s_max,
            }
            .into());
        }
        let l = self.hyper_period() as f64;
        let speeds_for = |lambda: f64| -> Vec<f64> {
            items
                .iter()
                .map(|(k, _)| {
                    self.powers[*k]
                        .critical_speed_with_uplift(lambda, s_max)
                        .clamp(0.0, s_max)
                })
                .collect()
        };
        let budget = |speeds: &[f64]| -> f64 {
            items
                .iter()
                .zip(speeds)
                .map(|((_, t), &s)| {
                    if s > 0.0 {
                        t.utilization() / s
                    } else {
                        if t.utilization() > 0.0 {
                            f64::INFINITY
                        } else {
                            0.0
                        }
                    }
                })
                .sum()
        };
        // λ = 0: unconstrained critical speeds.
        let mut speeds = speeds_for(0.0);
        if budget(&speeds) > 1.0 {
            // Grow an upper bracket, then bisect.
            let mut hi = 1.0;
            while budget(&speeds_for(hi)) > 1.0 && hi < 1e18 {
                hi *= 4.0;
            }
            let mut lo = 0.0;
            for _ in 0..BISECT_ITERS {
                let mid = 0.5 * (lo + hi);
                if budget(&speeds_for(mid)) > 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            speeds = speeds_for(hi);
        }
        let energy: f64 = items
            .iter()
            .zip(&speeds)
            .map(|((k, t), &s)| {
                if t.utilization() == 0.0 || s == 0.0 {
                    0.0
                } else {
                    l * t.utilization() * self.powers[*k].power(s) / s
                }
            })
            .sum();
        let assignment = items
            .iter()
            .zip(&speeds)
            .map(|((_, t), &s)| (t.id(), s))
            .collect();
        Ok((assignment, energy))
    }

    /// Minimum energy per hyper-period for an accepted set.
    ///
    /// # Errors
    ///
    /// Same as [`HeteroInstance::optimal_assignment`].
    pub fn energy_for(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        Ok(self.optimal_assignment(accepted)?.1)
    }

    /// Full cost `E*(A) + Σ_{i∉A} vᵢ` of an accepted set.
    ///
    /// # Errors
    ///
    /// Same as [`HeteroInstance::optimal_assignment`].
    pub fn cost_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let energy = self.energy_for(accepted)?;
        let accepted_penalty: f64 = self
            .indexed(accepted)?
            .iter()
            .map(|(_, t)| t.penalty())
            .sum();
        Ok(energy + self.tasks.total_penalty() - accepted_penalty)
    }

    fn build_solution(&self, accepted: Vec<TaskId>) -> Result<HeteroSolution, SchedError> {
        let (speeds, energy) = self.optimal_assignment(&accepted)?;
        let accepted_penalty: f64 = self
            .indexed(&accepted)?
            .iter()
            .map(|(_, t)| t.penalty())
            .sum();
        let mut accepted = accepted;
        accepted.sort();
        Ok(HeteroSolution {
            accepted,
            speeds,
            energy,
            penalty: self.tasks.total_penalty() - accepted_penalty,
        })
    }

    /// Marginal-cost greedy for the rejection decision: tasks in descending
    /// penalty density; accept when the exact marginal energy (computed via
    /// the assignment oracle) is below the penalty.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn solve_greedy(&self) -> Result<HeteroSolution, SchedError> {
        let mut order: Vec<Task> = self
            .tasks
            .iter()
            .filter(|t| self.cpu.is_feasible(t.utilization()))
            .copied()
            .collect();
        order.sort_by(View::order_cmp);
        let mut accepted: Vec<TaskId> = Vec::new();
        let mut u = 0.0;
        let mut energy = 0.0;
        for t in &order {
            if !self.cpu.is_feasible(u + t.utilization()) {
                continue;
            }
            let mut cand = accepted.clone();
            cand.push(t.id());
            let cand_energy = self.energy_for(&cand)?;
            if cand_energy - energy <= t.penalty() {
                accepted = cand;
                energy = cand_energy;
                u += t.utilization();
            }
        }
        self.build_solution(accepted)
    }

    /// Exact rejection decision by exhaustive search (limit 20 tasks).
    ///
    /// # Errors
    ///
    /// [`SchedError::TooLarge`] beyond 20 tasks.
    pub fn solve_exhaustive(&self) -> Result<HeteroSolution, SchedError> {
        let ids: Vec<TaskId> = self.tasks.iter().map(Task::id).collect();
        if ids.len() > 20 {
            return Err(SchedError::TooLarge {
                n: ids.len(),
                limit: 20,
                algorithm: "hetero-exhaustive",
            });
        }
        let mut best: Option<(f64, Vec<TaskId>)> = None;
        for mask in 0u32..(1u32 << ids.len()) {
            let accepted: Vec<TaskId> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, id)| *id)
                .collect();
            match self.cost_of(&accepted) {
                Ok(c) => {
                    if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                        best = Some((c, accepted));
                    }
                }
                Err(SchedError::Power(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        let (_, accepted) = best.expect("the empty set is always feasible");
        self.build_solution(accepted)
    }
}

impl HeteroSolution {
    /// The accepted task identifiers, sorted.
    #[must_use]
    pub fn accepted(&self) -> &[TaskId] {
        &self.accepted
    }

    /// Per-task optimal speeds of the accepted tasks.
    #[must_use]
    pub fn speeds(&self) -> &[(TaskId, f64)] {
        &self.speeds
    }

    /// Energy component per hyper-period.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Penalty component per hyper-period.
    #[must_use]
    pub fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Total cost.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.energy + self.penalty
    }

    /// Analytic verification: the per-task speeds respect the speed bound
    /// and the EDF time budget, and the stored costs match the oracles.
    ///
    /// # Errors
    ///
    /// [`SchedError::VerificationFailed`] naming the violated property.
    pub fn verify(&self, instance: &HeteroInstance) -> Result<(), SchedError> {
        let s_max = instance.processor().max_speed();
        let mut time_budget = 0.0;
        for (id, s) in &self.speeds {
            let task = instance
                .tasks()
                .get(*id)
                .ok_or_else(|| SchedError::VerificationFailed {
                    reason: format!("speed assigned to unknown task {id}"),
                })?;
            if !instance.processor().is_feasible(*s) {
                return Err(SchedError::VerificationFailed {
                    reason: format!("task {id} speed {s} exceeds s_max {s_max}"),
                });
            }
            if task.utilization() > 0.0 {
                if *s <= 0.0 {
                    return Err(SchedError::VerificationFailed {
                        reason: format!("task {id} has work but zero speed"),
                    });
                }
                time_budget += task.utilization() / s;
            }
        }
        if time_budget > 1.0 + 1e-6 {
            return Err(SchedError::VerificationFailed {
                reason: format!("time budget {time_budget} exceeds 1"),
            });
        }
        let expect = instance.cost_of(&self.accepted)?;
        if (expect - self.cost()).abs() > 1e-6 * expect.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored cost {} but oracle says {expect}", self.cost()),
            });
        }
        Ok(())
    }

    /// Empirical verification: EDF-simulates the accepted tasks with their
    /// per-task constant speeds and checks deadlines.
    ///
    /// Energy reported by the simulator uses the *processor's* power
    /// function, not the per-task ones, so only the deadline check is
    /// meaningful here.
    ///
    /// # Errors
    ///
    /// Simulation errors, or [`SchedError::VerificationFailed`] on a miss.
    pub fn replay(&self, instance: &HeteroInstance) -> Result<SimReport, SchedError> {
        let subset = instance.tasks().subset(&self.accepted)?;
        if subset.is_empty() {
            return Err(SchedError::VerificationFailed {
                reason: "cannot replay a solution that rejects every task".into(),
            });
        }
        let mut profiles = BTreeMap::new();
        for (id, s) in &self.speeds {
            if *s > 0.0 {
                profiles.insert(*id, SpeedProfile::constant(*s)?);
            } else {
                // Zero-work tasks: any valid speed does.
                profiles.insert(
                    *id,
                    SpeedProfile::constant(instance.processor().max_speed())?,
                );
            }
        }
        let report = Simulator::new(&subset, instance.processor())
            .with_task_profiles(profiles)
            .run_hyper_period()?;
        if let Some(miss) = report.misses().first() {
            return Err(SchedError::VerificationFailed {
                reason: format!("replay observed a deadline miss: {miss}"),
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_power::SpeedDomain;

    fn cpu() -> Processor {
        Processor::new(
            PowerFunction::polynomial(0.0, 1.0, 3.0).unwrap(),
            SpeedDomain::continuous(0.0, 1.0).unwrap(),
        )
    }

    fn instance(parts: &[(f64, u64, f64, f64)]) -> HeteroInstance {
        // (cycles, period, penalty, rho)
        let tasks = TaskSet::try_from_tasks(
            parts
                .iter()
                .enumerate()
                .map(|(i, &(c, p, v, _))| Task::new(i, c, p).unwrap().with_penalty(v)),
        )
        .unwrap();
        let powers = parts
            .iter()
            .map(|&(_, _, _, rho)| PowerFunction::polynomial(0.0, rho, 3.0).unwrap())
            .collect();
        HeteroInstance::new(tasks, powers, cpu()).unwrap()
    }

    #[test]
    fn length_mismatch_rejected() {
        let tasks = TaskSet::try_from_tasks(vec![Task::new(0, 1.0, 10).unwrap()]).unwrap();
        assert!(HeteroInstance::new(tasks, vec![], cpu()).is_err());
    }

    #[test]
    fn uniform_powers_match_common_speed_optimum() {
        // With identical power functions and full acceptance, the KKT
        // assignment degenerates to the common speed U (per-task speeds all
        // equal the total utilization when the budget binds).
        let inst = instance(&[(4.0, 10, 1.0, 1.0), (4.0, 10, 1.0, 1.0)]);
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        let (speeds, energy) = inst.optimal_assignment(&ids).unwrap();
        for (_, s) in &speeds {
            assert!((s - 0.8).abs() < 1e-6, "expected common speed 0.8, got {s}");
        }
        // Energy = L·U·P(U)/U = L·P(U) = 10·0.8³.
        assert!((energy - 10.0 * 0.8f64.powi(3)).abs() < 1e-6);
    }

    #[test]
    fn hungry_tasks_run_slower() {
        // Same workload, but τ1 burns 8× the power: KKT gives it a lower
        // speed than τ0 (its marginal energy is steeper).
        let inst = instance(&[(4.0, 10, 1.0, 1.0), (4.0, 10, 1.0, 8.0)]);
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        let (speeds, _) = inst.optimal_assignment(&ids).unwrap();
        let s0 = speeds.iter().find(|(id, _)| id.index() == 0).unwrap().1;
        let s1 = speeds.iter().find(|(id, _)| id.index() == 1).unwrap().1;
        assert!(s1 < s0, "hungry task should run slower: s0={s0}, s1={s1}");
        // Time budget must be fully used (binding constraint).
        let y = 0.4 / s0 + 0.4 / s1;
        assert!((y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn kkt_beats_common_speed_for_heterogeneous_tasks() {
        let inst = instance(&[(4.0, 10, 1.0, 1.0), (4.0, 10, 1.0, 8.0)]);
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        let (_, kkt_energy) = inst.optimal_assignment(&ids).unwrap();
        // Common speed 0.8 for both:
        let common =
            10.0 * (0.4 * (1.0 * 0.8f64.powi(3)) / 0.8 + 0.4 * (8.0 * 0.8f64.powi(3)) / 0.8);
        assert!(kkt_energy < common - 1e-9);
    }

    #[test]
    fn infeasible_set_is_error() {
        let inst = instance(&[(8.0, 10, 1.0, 1.0), (8.0, 10, 1.0, 1.0)]);
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        assert!(matches!(
            inst.optimal_assignment(&ids),
            Err(SchedError::Power(_))
        ));
    }

    #[test]
    fn greedy_matches_exhaustive_on_easy_instances() {
        let inst = instance(&[
            (2.0, 10, 5.0, 1.0),
            (3.0, 10, 0.001, 6.0), // hungry and worthless → reject
            (4.0, 10, 4.0, 1.5),
        ]);
        let g = inst.solve_greedy().unwrap();
        let e = inst.solve_exhaustive().unwrap();
        g.verify(&inst).unwrap();
        e.verify(&inst).unwrap();
        assert!(!e.accepted().contains(&TaskId::new(1)));
        assert!((g.cost() - e.cost()).abs() < 1e-6 * e.cost().max(1.0));
    }

    #[test]
    fn greedy_never_beats_exhaustive() {
        for seed in 0..4u64 {
            use rt_model::rng::Rng;
            let mut rng = Rng::seed_from_u64(seed);
            let parts: Vec<(f64, u64, f64, f64)> = (0..8)
                .map(|_| {
                    (
                        rng.gen_f64(0.5, 3.0),
                        10,
                        rng.gen_f64(0.01, 2.0),
                        rng.gen_f64(0.5, 4.0),
                    )
                })
                .collect();
            let inst = instance(&parts);
            let g = inst.solve_greedy().unwrap().cost();
            let e = inst.solve_exhaustive().unwrap().cost();
            assert!(g >= e - 1e-9, "seed {seed}: greedy {g} beat exhaustive {e}");
        }
    }

    #[test]
    fn replay_meets_deadlines() {
        let inst = instance(&[(2.0, 10, 5.0, 1.0), (4.0, 10, 4.0, 2.0)]);
        let sol = inst.solve_greedy().unwrap();
        assert!(!sol.accepted().is_empty());
        let report = sol.replay(&inst).unwrap();
        assert!(report.misses().is_empty());
    }

    #[test]
    fn exhaustive_size_limit() {
        let parts: Vec<(f64, u64, f64, f64)> = (0..21).map(|_| (0.1, 10, 1.0, 1.0)).collect();
        let inst = instance(&parts);
        assert!(matches!(
            inst.solve_exhaustive(),
            Err(SchedError::TooLarge { .. })
        ));
    }

    #[test]
    fn verify_catches_overbudget_speeds() {
        let inst = instance(&[(4.0, 10, 1.0, 1.0), (4.0, 10, 1.0, 1.0)]);
        let ids: Vec<TaskId> = inst.tasks().iter().map(Task::id).collect();
        let mut sol = inst.solve_exhaustive().unwrap();
        let _ = ids;
        // Tamper: slow every task down to 0.1 → time budget blows up.
        sol.speeds = sol.speeds.iter().map(|(id, _)| (*id, 0.1)).collect();
        if sol.accepted().len() == 2 {
            assert!(matches!(
                sol.verify(&inst),
                Err(SchedError::VerificationFailed { .. })
            ));
        }
    }
}
