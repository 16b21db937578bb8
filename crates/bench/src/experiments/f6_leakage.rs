//! **F6 — leakage, dormant mode, and procrastination.**
//!
//! The leakage-aware experiment (mirroring the companion paper's
//! `LA+LTF(+FF)(+PROC)` comparison, restricted to one processor): for
//! growing leakage power β₁ and switch energies `E_sw`, simulate the
//! accepted task set under four run-time strategies and report energies
//! normalised to the analytic overhead-free optimum:
//!
//! * `slowdown-only` — run at the utilization speed, never sleep
//!   (all leakage is burnt; the classic DVS-only strategy).
//! * `race-to-sleep` — run at `s_max`, sleep across idle gaps.
//! * `critical-speed` — run at the leakage-aware optimal speed
//!   `max(U, s*)`, sleep across idle gaps.
//! * `critical+proc` — same plus procrastinated wake-ups (fewer, longer
//!   sleeps).
//!
//! Expected shape: `slowdown-only` wins for β₁ ≈ 0 but degrades linearly in
//! β₁; `critical-speed` tracks the optimum; procrastination's extra saving
//! grows with `E_sw` (it amortises switch energy over fewer transitions) —
//! the same crossover the companion paper reports between `…+PROC` and
//! `…+FF` when `E_sw` moves from 4 mJ to 12 mJ.

use dvs_power::{DormantMode, IdleMode, PowerFunction, Processor, SpeedDomain};
use edf_sim::{procrastination_budget, Simulator, SleepPolicy, SpeedProfile};
use reject_sched::algorithms::BranchBound;
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::WorkloadSpec;

use crate::experiments::default_penalties;
use crate::{mean, Scale, Table};

/// Number of tasks.
pub const N: usize = 8;
/// Light load so idle management matters.
pub const LOAD: f64 = 0.3;
/// Mode-switch time in ticks.
pub const T_SW: f64 = 1.0;

/// The β₁ grid.
#[must_use]
pub fn betas(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.02, 0.32, 0.64],
        Scale::Full => vec![0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28],
    }
}

/// The switch-energy grid (normalised units; the companion paper evaluates
/// the 4 mJ / 12 mJ pair).
#[must_use]
pub fn switch_energies(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![4.0, 12.0],
        Scale::Full => vec![1.0, 4.0, 12.0, 24.0],
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on solver/simulator failures or on a deadline miss (all
/// strategies are deadline-safe by construction).
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("F6: leakage & dormant strategies (n = {N}, load {LOAD}, t_sw = {T_SW})"),
        &[
            "beta1",
            "e_sw",
            "strategy",
            "avg_norm_energy",
            "avg_sleeps",
            "avg_sleep_time",
        ],
    );
    for &beta1 in &betas(scale) {
        for &e_sw in &switch_energies(scale) {
            let mut norm: Vec<Vec<f64>> = vec![Vec::new(); 4];
            let mut sleeps: Vec<Vec<f64>> = vec![Vec::new(); 4];
            let mut sleep_time: Vec<Vec<f64>> = vec![Vec::new(); 4];
            for seed in 0..scale.seeds() {
                let power = PowerFunction::polynomial(beta1, 1.52, 3.0).expect("valid");
                let domain = SpeedDomain::continuous(0.0, 1.0).expect("valid");
                let cpu = Processor::new(power, domain.clone()).with_idle_mode(IdleMode::Sleep(
                    DormantMode::new(T_SW, e_sw).expect("valid overheads"),
                ));
                let tasks = WorkloadSpec::new(N, LOAD)
                    .penalty_model(default_penalties(4.0)) // precious tasks: accept most
                    .seed(seed)
                    .generate()
                    .expect("valid spec");
                let inst = Instance::new(tasks, cpu.clone()).expect("valid instance");
                let sol = BranchBound.solve(&inst).expect("n within limits");
                let subset = inst.tasks().subset(sol.accepted()).expect("valid ids");
                if subset.is_empty() {
                    continue;
                }
                let u = subset.utilization();
                let s_crit = cpu.critical_speed().max(u).min(1.0);
                // Analytic overhead-free optimum as the normaliser.
                let ideal = inst.energy_for(u).expect("feasible");

                let strategies: [(SpeedProfile, SleepPolicy); 4] = [
                    (
                        SpeedProfile::constant(u.max(1e-9)).expect("valid"),
                        SleepPolicy::NeverSleep,
                    ),
                    (
                        SpeedProfile::constant(1.0).expect("valid"),
                        SleepPolicy::SleepOnIdle,
                    ),
                    (
                        SpeedProfile::constant(s_crit).expect("valid"),
                        SleepPolicy::SleepOnIdle,
                    ),
                    (
                        SpeedProfile::constant(s_crit).expect("valid"),
                        SleepPolicy::Procrastinate {
                            budget: procrastination_budget(&subset, s_crit),
                        },
                    ),
                ];
                for (k, (profile, policy)) in strategies.into_iter().enumerate() {
                    let report = Simulator::new(&subset, &cpu)
                        .with_profile(profile)
                        .with_sleep_policy(policy)
                        .run_hyper_period()
                        .expect("valid config");
                    assert!(
                        report.misses().is_empty(),
                        "strategy {k} missed a deadline (β₁={beta1}, E_sw={e_sw}, seed {seed})"
                    );
                    norm[k].push(report.energy() / ideal.max(1e-12));
                    sleeps[k].push(report.sleep_transitions() as f64);
                    sleep_time[k].push(report.sleep_time());
                }
            }
            let names = [
                "slowdown-only",
                "race-to-sleep",
                "critical-speed",
                "critical+proc",
            ];
            for (k, name) in names.iter().enumerate() {
                if norm[k].is_empty() {
                    continue;
                }
                table.push(&[
                    format!("{beta1}"),
                    format!("{e_sw}"),
                    (*name).to_string(),
                    format!("{:.4}", mean(&norm[k])),
                    format!("{:.2}", mean(&sleeps[k])),
                    format!("{:.1}", mean(&sleep_time[k]).max(0.0)),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(t: &Table, beta: &str, esw: &str, strat: &str, col: usize) -> f64 {
        t.rows()
            .iter()
            .find(|r| r[0] == beta && r[1] == esw && r[2] == strat)
            .and_then(|r| r[col].parse().ok())
            .unwrap_or(f64::NAN)
    }

    #[test]
    fn procrastinated_critical_speed_beats_slowdown_under_heavy_leakage() {
        // Without consolidation the idle gaps of this workload are often
        // shorter than the break-even time, so plain sleep-on-idle burns
        // leakage awake; procrastination batches the gaps into long sleeps
        // and must beat the slowdown-only strategy once leakage dominates.
        let t = run(Scale::Quick);
        let slow = get(&t, "0.64", "4", "slowdown-only", 3);
        let proc = get(&t, "0.64", "4", "critical+proc", 3);
        assert!(
            proc < slow,
            "critical+proc {proc} should beat slowdown {slow} at β₁ = 0.64"
        );
    }

    #[test]
    fn procrastination_sleeps_at_least_as_long() {
        // Procrastination converts awake-idle into dormancy: it may take
        // *more* transitions (each short gap becomes sleepable), but the
        // total time asleep can only grow.
        let t = run(Scale::Quick);
        for beta in ["0.02", "0.32", "0.64"] {
            for esw in ["4", "12"] {
                let plain = get(&t, beta, esw, "critical-speed", 5);
                let proc = get(&t, beta, esw, "critical+proc", 5);
                assert!(
                    proc >= plain - 1e-6,
                    "β₁={beta}, E_sw={esw}: proc sleep time {proc} < plain {plain}"
                );
            }
        }
    }

    #[test]
    fn procrastination_never_costs_more_energy() {
        let t = run(Scale::Quick);
        for beta in ["0.02", "0.32", "0.64"] {
            for esw in ["4", "12"] {
                let plain = get(&t, beta, esw, "critical-speed", 3);
                let proc = get(&t, beta, esw, "critical+proc", 3);
                assert!(proc <= plain + 1e-6);
            }
        }
    }
}
