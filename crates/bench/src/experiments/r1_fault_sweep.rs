//! **R1 (robustness) — fault intensity vs total cost per recovery policy.**
//!
//! The analytic objective `E*(U(A)) + Σ v_i` assumes WCETs hold, the DVS
//! actuator is perfect, and releases are punctual. This experiment measures
//! what each recovery policy buys when those assumptions break: a single
//! *intensity* knob `x ∈ [0, 1]` scales every fault model of
//! [`edf_sim::FaultScenario`] simultaneously (WCET overruns, actuator
//! error/quantization, transient thermal throttling, release jitter), and
//! the greedy-accepted set is replayed under each [`RecoveryPolicy`]:
//!
//! * `none` — faults land unmitigated; overload shows up as deadline misses,
//! * `late-reject` — sheds the lowest penalty-density job when the EDF
//!   backlog turns infeasible, charging its penalty (the paper's objective,
//!   applied at run time),
//! * `elastic` — rescales speed within the feasible band to absorb overruns,
//! * `full` — late rejection + elastic rescaling + dormant-mode fallback.
//!
//! Expected shape: at `x = 0` all policies coincide with the fault-free
//! run (no misses, no charged penalties). As `x` grows, `none` accumulates
//! deadline misses while the recovery policies trade them for bounded
//! extra energy (elastic) or explicitly charged penalties (late-reject),
//! keeping the *accounted* total cost — energy plus charged penalties —
//! honest about the degradation.

use dvs_power::presets::cubic_ideal;
use edf_sim::{FaultScenario, RecoveryPolicy, Simulator, SpeedProfile};
use reject_sched::algorithms::MarginalGreedy;
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::WorkloadSpec;

use crate::experiments::{default_penalties, par_seed_sweep};
use crate::{mean, Scale, Table};

/// Number of tasks per instance.
pub const N: usize = 10;
/// WCET load offered to the admission step (overloaded: rejection happens).
pub const LOAD: f64 = 1.3;

/// The fault-intensity grid.
#[must_use]
pub fn intensities(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.0, 0.5, 1.0],
        Scale::Full => vec![0.0, 0.25, 0.5, 0.75, 1.0],
    }
}

/// The recovery-policy roster, in presentation order.
#[must_use]
pub fn policies() -> [RecoveryPolicy; 4] {
    [
        RecoveryPolicy::none(),
        RecoveryPolicy::late_rejection(),
        RecoveryPolicy::elastic(),
        RecoveryPolicy::full(),
    ]
}

/// Builds the composite fault scenario for intensity `x ∈ [0, 1]`.
///
/// Every fault model scales linearly with `x`; at `x = 0` the scenario is
/// empty (bit-identical to a fault-free run).
///
/// # Panics
///
/// Panics if `x` is outside `[0, 1]` (the builders reject the parameters).
#[must_use]
pub fn scenario(x: f64, seed: u64) -> FaultScenario {
    let mut s = FaultScenario::new(seed ^ 0xFA17);
    if x > 0.0 {
        s = s
            .with_overrun(0.3 * x, 1.0 + 0.6 * x)
            .expect("valid overrun")
            .with_actuator_error(0.04 * x, 0.05)
            .expect("valid actuator")
            .with_thermal_throttle(16.0, 2.0 * x, 0.75)
            .expect("valid throttle")
            .with_release_jitter(0.2 * x)
            .expect("valid jitter");
    }
    s
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics on generator or simulator configuration failures (the sweep uses
/// only valid parameters).
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("R1: fault intensity vs total cost per recovery policy (n = {N}, load = {LOAD})"),
        &[
            "intensity",
            "policy",
            "avg_energy",
            "avg_charged_penalty",
            "avg_total_cost",
            "avg_misses",
            "avg_late_rejections",
        ],
    );
    let roster = policies();
    for &x in &intensities(scale) {
        // Per seed: (energy, charged penalty, total cost, misses, sheds)
        // for each policy, merged in seed order.
        let per_seed = par_seed_sweep(scale, |seed| {
            // One processor per seed: its critical-speed cell is not `Sync`.
            let cpu = cubic_ideal();
            let tasks = WorkloadSpec::new(N, LOAD)
                .penalty_model(default_penalties(1.0))
                .seed(seed)
                .generate()
                .expect("valid spec");
            let inst = Instance::new(tasks, cpu.clone()).expect("valid instance");
            let sol = MarginalGreedy.solve(&inst).expect("greedy never fails");
            let subset = inst.tasks().subset(sol.accepted()).expect("valid ids");
            if subset.is_empty() {
                return None;
            }
            let u = subset.utilization();
            let rows: Vec<[f64; 5]> = roster
                .iter()
                .map(|&policy| {
                    let report = Simulator::new(&subset, &cpu)
                        .with_profile(SpeedProfile::constant(u.max(1e-9)).expect("positive"))
                        .with_faults(scenario(x, seed))
                        .with_recovery(policy)
                        .run_hyper_period()
                        .expect("valid config");
                    [
                        report.energy(),
                        report.charged_penalty(),
                        report.total_cost(),
                        report.misses().len() as f64,
                        report.late_rejections().len() as f64,
                    ]
                })
                .collect();
            Some(rows)
        });
        for (k, policy) in roster.iter().enumerate() {
            let cols: Vec<Vec<f64>> = (0..5)
                .map(|j| {
                    per_seed
                        .iter()
                        .flatten()
                        .map(|rows| rows[k][j])
                        .collect::<Vec<f64>>()
                })
                .collect();
            if cols[0].is_empty() {
                continue;
            }
            table.push(&[
                format!("{x}"),
                policy.label().to_string(),
                format!("{:.4}", mean(&cols[0])),
                format!("{:.4}", mean(&cols[1])),
                format!("{:.4}", mean(&cols[2])),
                format!("{:.2}", mean(&cols[3])),
                format!("{:.2}", mean(&cols[4])),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(t: &Table, x: &str, policy: &str, col: usize) -> f64 {
        t.rows()
            .iter()
            .find(|r| r[0] == x && r[1] == policy)
            .and_then(|r| r[col].parse().ok())
            .unwrap_or_else(|| panic!("missing row ({x}, {policy})"))
    }

    #[test]
    fn zero_intensity_is_fault_free_for_every_policy() {
        let t = run(Scale::Quick);
        for p in ["none", "late-reject", "elastic", "full"] {
            assert_eq!(get(&t, "0", p, 5), 0.0, "{p}: misses at x = 0");
            assert_eq!(get(&t, "0", p, 6), 0.0, "{p}: sheds at x = 0");
        }
        // With no faults the recovery machinery must not perturb the run.
        let base = get(&t, "0", "none", 4);
        for p in ["late-reject", "elastic", "full"] {
            let c = get(&t, "0", p, 4);
            assert!((c - base).abs() < 1e-9, "{p}: cost {c} vs none {base}");
        }
    }

    #[test]
    fn recovery_reduces_misses_under_full_intensity() {
        let t = run(Scale::Quick);
        let unmitigated = get(&t, "1", "none", 5);
        for p in ["late-reject", "full"] {
            assert!(
                get(&t, "1", p, 5) <= unmitigated + 1e-9,
                "{p} should not miss more than none"
            );
        }
    }

    #[test]
    fn only_rejecting_policies_charge_penalties() {
        let t = run(Scale::Quick);
        for x in ["0", "0.5", "1"] {
            // Policies that never shed must never charge a penalty...
            for p in ["none", "elastic"] {
                assert_eq!(get(&t, x, p, 3), 0.0, "{p} charged a penalty at x = {x}");
                assert_eq!(get(&t, x, p, 6), 0.0, "{p} shed a job at x = {x}");
            }
            // ...and for every policy the reported total cost decomposes.
            for p in ["none", "late-reject", "elastic", "full"] {
                let e = get(&t, x, p, 2);
                let v = get(&t, x, p, 3);
                let c = get(&t, x, p, 4);
                assert!((e + v - c).abs() < 2e-4, "{p}@{x}: {e} + {v} != {c}");
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a.rows(), b.rows());
    }
}
