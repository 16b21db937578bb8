//! Rejection scheduling for **constrained-deadline** task sets (`dᵢ ≤ pᵢ`).
//!
//! With implicit deadlines the minimum-energy schedule of an accepted set
//! runs at one constant speed, so energy is a function `E*(U)` of total
//! utilization alone. A constrained deadline breaks this: demand peaks
//! force temporarily higher speeds, and the optimal schedule is the YDS
//! construction ([`edf_sim::yds`]). This module wires that oracle into the
//! rejection problem:
//!
//! ```text
//! cost(A) = E_yds(A) + Σ_{τᵢ ∉ A} vᵢ
//! ```
//!
//! where `E_yds(A)` evaluates the YDS per-job speeds of `A`'s hyper-period
//! jobs, clamped up to the processor's critical speed (dormant-enable
//! leakage correction) and realised on the processor's speed domain
//! (discrete domains round each job speed up to the next level).
//!
//! Since energy now depends on the accepted *set* rather than a scalar, the
//! DP/knapsack machinery does not transfer; the module provides the greedy
//! heuristic and an exhaustive solver, mirroring [`hetero`](crate::hetero).

use std::collections::BTreeMap;

use dvs_power::Processor;
use edf_sim::yds::{yds_speeds, JobSpeeds};
use edf_sim::{SimReport, Simulator, SpeedProfile};
use rt_model::{Task, TaskId, TaskSet};

use crate::SchedError;

/// Per-job realised speeds: `((task, job index), speed)` in job order.
type RealisedSpeeds = Vec<((TaskId, u64), f64)>;

/// A rejection instance whose tasks may have constrained deadlines.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::constrained::ConstrainedInstance;
/// use rt_model::{Task, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::try_from_tasks(vec![
///     Task::new(0, 2.0, 10)?.with_deadline(4)?.with_penalty(5.0),
///     Task::new(1, 3.0, 10)?.with_penalty(4.0),
/// ])?;
/// let inst = ConstrainedInstance::new(tasks, cubic_ideal())?;
/// let sol = inst.solve_exhaustive()?;
/// sol.verify(&inst)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConstrainedInstance {
    tasks: TaskSet,
    cpu: Processor,
}

/// A solution of the constrained-deadline problem: accepted set plus the
/// realised YDS job speeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedSolution {
    accepted: Vec<TaskId>,
    /// Realised speed per (task, job index) over the *accepted subset's*
    /// hyper-period.
    job_speeds: Vec<((TaskId, u64), f64)>,
    energy: f64,
    penalty: f64,
}

impl ConstrainedInstance {
    /// Creates an instance.
    ///
    /// # Errors
    ///
    /// Currently infallible; `Result` reserved for future invariants.
    pub fn new(tasks: TaskSet, cpu: Processor) -> Result<Self, SchedError> {
        Ok(ConstrainedInstance { tasks, cpu })
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

    /// Hyper-period of the full set (costs are per full hyper-period).
    #[must_use]
    pub fn hyper_period(&self) -> u64 {
        self.tasks.hyper_period()
    }

    /// Realises YDS speeds on this processor: clamp up to the critical
    /// speed, then up into the speed domain. Returns the per-job realised
    /// speeds and the energy over the subset's hyper-period, or `None` if
    /// some job demands more than `s_max`.
    fn realise(&self, subset: &TaskSet, speeds: &JobSpeeds) -> Option<(RealisedSpeeds, f64)> {
        let floor = self.cpu.critical_speed();
        let s_max = self.cpu.max_speed();
        let mut realised = Vec::with_capacity(speeds.len());
        let mut energy = 0.0;
        for job in subset.hyper_period_jobs() {
            let s = speeds.speed_of(job.task(), job.index())?;
            if !self.cpu.is_feasible(s) {
                return None;
            }
            if job.cycles() <= 0.0 {
                realised.push(((job.task(), job.index()), 0.0));
                continue;
            }
            let s = self.cpu.domain().clamp_up(s.max(floor).min(s_max));
            energy += job.cycles() * self.cpu.power().power(s) / s;
            realised.push(((job.task(), job.index()), s));
        }
        Some((realised, energy))
    }

    /// Minimum (YDS-realised) energy per **full** hyper-period for an
    /// accepted set.
    ///
    /// # Errors
    ///
    /// * [`SchedError::Model`] for unknown identifiers.
    /// * [`SchedError::Power`] if the set's demand peak exceeds `s_max`.
    pub fn energy_for(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        if accepted.is_empty() {
            return Ok(0.0);
        }
        let subset = self.tasks.subset(accepted)?;
        let jobs = subset.hyper_period_jobs();
        let speeds = yds_speeds(&jobs);
        let (_, energy) =
            self.realise(&subset, &speeds)
                .ok_or(dvs_power::PowerError::InfeasibleDemand {
                    utilization: speeds.max_speed(),
                    max_speed: self.cpu.max_speed(),
                })?;
        let scale = self.hyper_period() as f64 / subset.hyper_period().max(1) as f64;
        Ok(energy * scale)
    }

    /// Full cost `E_yds(A) + Σ_{i∉A} vᵢ` per full hyper-period.
    ///
    /// # Errors
    ///
    /// Same as [`ConstrainedInstance::energy_for`].
    pub fn cost_of(&self, accepted: &[TaskId]) -> Result<f64, SchedError> {
        let energy = self.energy_for(accepted)?;
        let accepted_penalty: f64 = self.tasks.subset(accepted)?.iter().map(Task::penalty).sum();
        Ok(energy + self.tasks.total_penalty() - accepted_penalty)
    }

    fn build_solution(&self, mut accepted: Vec<TaskId>) -> Result<ConstrainedSolution, SchedError> {
        accepted.sort();
        accepted.dedup();
        let energy = self.energy_for(&accepted)?;
        let job_speeds = if accepted.is_empty() {
            Vec::new()
        } else {
            let subset = self.tasks.subset(&accepted)?;
            let speeds = yds_speeds(&subset.hyper_period_jobs());
            self.realise(&subset, &speeds)
                .expect("energy_for already validated feasibility")
                .0
        };
        let accepted_penalty: f64 = self
            .tasks
            .subset(&accepted)?
            .iter()
            .map(Task::penalty)
            .sum();
        Ok(ConstrainedSolution {
            accepted,
            job_speeds,
            energy,
            penalty: self.tasks.total_penalty() - accepted_penalty,
        })
    }

    /// Marginal-cost greedy: tasks in descending penalty density
    /// (`vᵢ/density` with `density = cᵢ/dᵢ`), accept when the exact YDS
    /// marginal energy is below the penalty.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn solve_greedy(&self) -> Result<ConstrainedSolution, SchedError> {
        let mut order: Vec<Task> = self
            .tasks
            .iter()
            .filter(|t| self.cpu.is_feasible(t.density()))
            .copied()
            .collect();
        order.sort_by(|a, b| {
            let da = if a.density() > 0.0 {
                a.penalty() / a.density()
            } else {
                f64::INFINITY
            };
            let db = if b.density() > 0.0 {
                b.penalty() / b.density()
            } else {
                f64::INFINITY
            };
            db.partial_cmp(&da)
                .expect("densities are not NaN")
                .then(a.id().index().cmp(&b.id().index()))
        });
        let mut accepted: Vec<TaskId> = Vec::new();
        let mut energy = 0.0;
        for t in &order {
            let mut cand = accepted.clone();
            cand.push(t.id());
            match self.energy_for(&cand) {
                Ok(cand_energy) => {
                    if cand_energy - energy <= t.penalty() {
                        accepted = cand;
                        energy = cand_energy;
                    }
                }
                Err(SchedError::Power(_)) => continue, // demand peak too high
                Err(e) => return Err(e),
            }
        }
        self.build_solution(accepted)
    }

    /// Exact rejection decision by exhaustive search (limit 15 tasks — the
    /// YDS oracle is polynomial but not cheap per subset).
    ///
    /// # Errors
    ///
    /// [`SchedError::TooLarge`] beyond 15 tasks.
    pub fn solve_exhaustive(&self) -> Result<ConstrainedSolution, SchedError> {
        let ids: Vec<TaskId> = self.tasks.iter().map(Task::id).collect();
        if ids.len() > 15 {
            return Err(SchedError::TooLarge {
                n: ids.len(),
                limit: 15,
                algorithm: "constrained-exhaustive",
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

impl ConstrainedSolution {
    /// The accepted task identifiers, sorted.
    #[must_use]
    pub fn accepted(&self) -> &[TaskId] {
        &self.accepted
    }

    /// The realised per-job speeds over the accepted subset's hyper-period.
    #[must_use]
    pub fn job_speeds(&self) -> &[((TaskId, u64), f64)] {
        &self.job_speeds
    }

    /// Energy component (per full hyper-period).
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Penalty component.
    #[must_use]
    pub fn penalty(&self) -> f64 {
        self.penalty
    }

    /// Total cost.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.energy + self.penalty
    }

    /// Analytic verification against the instance.
    ///
    /// # Errors
    ///
    /// [`SchedError::VerificationFailed`] naming the violated property.
    pub fn verify(&self, instance: &ConstrainedInstance) -> Result<(), SchedError> {
        for ((id, _), s) in &self.job_speeds {
            if instance.tasks().get(*id).is_none() {
                return Err(SchedError::VerificationFailed {
                    reason: format!("speed assigned to unknown task {id}"),
                });
            }
            if !instance.processor().is_feasible(*s) {
                return Err(SchedError::VerificationFailed {
                    reason: format!("job of {id} exceeds s_max with speed {s}"),
                });
            }
        }
        let expect = instance.cost_of(&self.accepted)?;
        if (expect - self.cost()).abs() > 1e-6 * expect.abs().max(1.0) {
            return Err(SchedError::VerificationFailed {
                reason: format!("stored cost {} but oracle says {expect}", self.cost()),
            });
        }
        Ok(())
    }

    /// Empirical verification: EDF-simulates the accepted subset with the
    /// realised per-job speeds over its hyper-period and checks deadlines.
    ///
    /// # Errors
    ///
    /// Simulation errors, or [`SchedError::VerificationFailed`] on a miss
    /// or when the solution accepts nothing.
    pub fn replay(&self, instance: &ConstrainedInstance) -> Result<SimReport, SchedError> {
        let subset = instance.tasks().subset(&self.accepted)?;
        if subset.is_empty() {
            return Err(SchedError::VerificationFailed {
                reason: "cannot replay a solution that rejects every task".into(),
            });
        }
        let mut profiles = BTreeMap::new();
        let fallback = instance.processor().max_speed();
        for (key, s) in &self.job_speeds {
            let speed = if *s > 0.0 { *s } else { fallback };
            profiles.insert(*key, SpeedProfile::constant(speed)?);
        }
        let report = Simulator::new(&subset, instance.processor())
            .with_job_profiles(profiles)
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
    use crate::algorithms::Exhaustive;
    use crate::{Instance, RejectionPolicy};
    use dvs_power::presets::{cubic_ideal, xscale_ideal, xscale_levels};

    fn tasks(parts: &[(f64, u64, u64, f64)]) -> TaskSet {
        // (cycles, period, deadline, penalty)
        TaskSet::try_from_tasks(parts.iter().enumerate().map(|(i, &(c, p, d, v))| {
            Task::new(i, c, p)
                .unwrap()
                .with_deadline(d)
                .unwrap()
                .with_penalty(v)
        }))
        .unwrap()
    }

    #[test]
    fn implicit_deadlines_match_the_scalar_oracle() {
        // With d = p the YDS oracle must equal Instance::energy_for(U).
        let ts = tasks(&[(2.0, 10, 10, 3.0), (3.0, 10, 10, 4.0)]);
        for cpu in [cubic_ideal(), xscale_ideal()] {
            let cons = ConstrainedInstance::new(ts.clone(), cpu.clone()).unwrap();
            let plain = Instance::new(ts.clone(), cpu).unwrap();
            let ids: Vec<TaskId> = ts.iter().map(Task::id).collect();
            let a = cons.energy_for(&ids).unwrap();
            let b = plain.energy_for(0.5).unwrap();
            assert!((a - b).abs() < 1e-6 * b.max(1.0), "yds {a} vs scalar {b}");
        }
    }

    #[test]
    fn implicit_deadline_optima_agree() {
        let ts = tasks(&[(2.0, 10, 10, 0.5), (6.0, 10, 10, 2.0), (4.0, 10, 10, 9.0)]);
        let cons = ConstrainedInstance::new(ts.clone(), cubic_ideal()).unwrap();
        let plain = Instance::new(ts, cubic_ideal()).unwrap();
        let a = cons.solve_exhaustive().unwrap();
        let b = Exhaustive::default().solve(&plain).unwrap();
        assert!((a.cost() - b.cost()).abs() < 1e-6 * b.cost().max(1.0));
        assert_eq!(a.accepted(), b.accepted());
    }

    #[test]
    fn tight_deadline_makes_a_task_more_expensive() {
        // Same cycles/period, but the constrained variant forces a speed
        // peak → strictly more energy.
        let relaxed = tasks(&[(4.0, 10, 10, 1.0)]);
        let tight = tasks(&[(4.0, 10, 5, 1.0)]);
        let e_relaxed = ConstrainedInstance::new(relaxed, cubic_ideal())
            .unwrap()
            .energy_for(&[TaskId::new(0)])
            .unwrap();
        let e_tight = ConstrainedInstance::new(tight, cubic_ideal())
            .unwrap()
            .energy_for(&[TaskId::new(0)])
            .unwrap();
        assert!(e_tight > e_relaxed, "{e_tight} should exceed {e_relaxed}");
        // 4 cycles in 5 ticks at 0.8 vs 4 cycles in 10 ticks at 0.4.
        assert!((e_tight - 4.0 * 0.64).abs() < 1e-9);
        assert!((e_relaxed - 4.0 * 0.16).abs() < 1e-9);
    }

    #[test]
    fn tight_deadlines_flip_the_rejection_decision() {
        // A task worth accepting with a relaxed deadline becomes worth
        // rejecting when its deadline (and hence speed peak) tightens:
        // relaxed energy = 6·P(0.6)/0.6 = 2.16 < v = 3 < 6 = 6·P(1)/1.
        let mk = |d: u64| tasks(&[(6.0, 10, d, 3.0)]);
        let relaxed = ConstrainedInstance::new(mk(10), cubic_ideal()).unwrap();
        let tight = ConstrainedInstance::new(mk(6), cubic_ideal()).unwrap();
        assert_eq!(relaxed.solve_exhaustive().unwrap().accepted().len(), 1);
        assert_eq!(tight.solve_exhaustive().unwrap().accepted().len(), 0);
    }

    #[test]
    fn infeasible_peak_auto_rejected() {
        // 6 cycles due in 4 ticks needs speed 1.5 > s_max: never acceptable.
        let ts = tasks(&[(6.0, 10, 4, 100.0), (1.0, 10, 10, 1.0)]);
        let inst = ConstrainedInstance::new(ts, cubic_ideal()).unwrap();
        let sol = inst.solve_exhaustive().unwrap();
        assert!(!sol.accepted().contains(&TaskId::new(0)));
        assert!(sol.accepted().contains(&TaskId::new(1)));
    }

    #[test]
    fn greedy_never_beats_exhaustive() {
        let cases = [
            tasks(&[(2.0, 8, 3, 2.0), (1.0, 4, 4, 1.5), (3.0, 8, 8, 0.3)]),
            tasks(&[
                (1.0, 5, 2, 1.0),
                (2.0, 10, 6, 3.0),
                (0.5, 5, 5, 0.2),
                (2.0, 10, 10, 1.4),
            ]),
        ];
        for ts in cases {
            let inst = ConstrainedInstance::new(ts, xscale_ideal()).unwrap();
            let g = inst.solve_greedy().unwrap();
            let e = inst.solve_exhaustive().unwrap();
            g.verify(&inst).unwrap();
            e.verify(&inst).unwrap();
            assert!(g.cost() >= e.cost() - 1e-9);
        }
    }

    #[test]
    fn solutions_replay_without_misses() {
        let ts = tasks(&[(2.0, 8, 3, 5.0), (1.0, 4, 4, 4.0), (1.0, 8, 6, 3.0)]);
        for cpu in [cubic_ideal(), xscale_ideal(), xscale_levels()] {
            let inst = ConstrainedInstance::new(ts.clone(), cpu).unwrap();
            let sol = inst.solve_exhaustive().unwrap();
            if sol.accepted().is_empty() {
                continue;
            }
            let report = sol.replay(&inst).unwrap();
            assert!(report.misses().is_empty());
        }
    }

    #[test]
    fn discrete_realisation_rounds_up_and_costs_more() {
        let ts = tasks(&[(2.0, 8, 3, 5.0), (1.0, 4, 4, 4.0)]);
        let ids: Vec<TaskId> = ts.iter().map(Task::id).collect();
        let cont = ConstrainedInstance::new(ts.clone(), xscale_ideal()).unwrap();
        let disc = ConstrainedInstance::new(ts, xscale_levels()).unwrap();
        let e_cont = cont.energy_for(&ids).unwrap();
        let e_disc = disc.energy_for(&ids).unwrap();
        assert!(e_disc >= e_cont - 1e-9);
    }

    #[test]
    fn exhaustive_size_limit() {
        let parts: Vec<(f64, u64, u64, f64)> = (0..16).map(|_| (0.1, 10, 10, 1.0)).collect();
        let inst = ConstrainedInstance::new(tasks(&parts), cubic_ideal()).unwrap();
        assert!(matches!(
            inst.solve_exhaustive(),
            Err(SchedError::TooLarge { .. })
        ));
    }

    #[test]
    fn hyper_period_scaling_is_consistent() {
        // Accepting only the period-4 task: its subset hyper-period is 4
        // but the cost is reported over the full hyper-period 8.
        let ts = tasks(&[(1.0, 4, 4, 5.0), (2.0, 8, 8, 0.0)]);
        let inst = ConstrainedInstance::new(ts, cubic_ideal()).unwrap();
        let e = inst.energy_for(&[TaskId::new(0)]).unwrap();
        // Two jobs of 1 cycle at speed 0.25 over 8 ticks: 2·1·P(0.25)/0.25.
        let expect = 2.0 * (0.25f64 * 0.25);
        assert!((e - expect).abs() < 1e-9, "{e} vs {expect}");
    }
}
