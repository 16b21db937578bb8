//! **F4 — the ε/quality/runtime trade-off of the scaled DP.**
//!
//! Sweep ε of [`reject_sched::algorithms::ScaledDp`] on instances
//! solved exactly by branch & bound, reporting the achieved cost ratio and
//! the running time. Expected shape: the empirical ratio sits far below the
//! `1 + ε·v_max/OPT` worst case and runtime grows ~1/ε.

use std::time::Instant;

use reject_sched::algorithms::{BranchBound, ScaledDp};
use reject_sched::RejectionPolicy;

use crate::experiments::{normalized, standard_instance};
use crate::{mean, Scale, Table};

/// Number of tasks (branch & bound ground truth).
pub const N: usize = 30;
/// Fixed system load for the sweep.
pub const LOAD: f64 = 1.8;

/// The ε grid.
#[must_use]
pub fn epsilons(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.02, 0.2, 1.0],
        Scale::Full => vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0],
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a solver fails on a generated instance.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("F4: ScaledDp ε sweep (n = {N}, load {LOAD}, optimum = branch-bound)"),
        &["epsilon", "avg_norm_cost", "max_norm_cost", "avg_ms"],
    );
    // Pre-solve the references once.
    let mut cases = Vec::new();
    for seed in 0..scale.seeds() {
        let inst = standard_instance(N, LOAD, 1.0, seed);
        let opt = BranchBound.solve(&inst).expect("n within limits").cost();
        cases.push((inst, opt));
    }
    for &eps in &epsilons(scale) {
        let dp = ScaledDp::new(eps).expect("valid ε");
        let mut ratios = Vec::new();
        let mut times = Vec::new();
        for (inst, opt) in &cases {
            let t0 = Instant::now();
            let s = dp.solve(inst).expect("dp is total here");
            times.push(t0.elapsed().as_secs_f64() * 1e3);
            ratios.push(normalized(s.cost(), *opt));
        }
        let max = ratios.iter().copied().fold(0.0, f64::max);
        table.push(&[
            format!("{eps}"),
            format!("{:.4}", mean(&ratios)),
            format!("{max:.4}"),
            format!("{:.3}", mean(&times)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_at_least_one_and_bounded() {
        for row in run(Scale::Quick).rows() {
            let avg: f64 = row[1].parse().unwrap();
            assert!(avg >= 1.0 - 1e-6);
            assert!(avg < 1.5, "ε = {} ratio {avg} suspiciously bad", row[0]);
        }
    }

    #[test]
    fn finer_epsilon_is_tighter() {
        let t = run(Scale::Quick);
        let first: f64 = t.rows().first().unwrap()[1].parse().unwrap(); // ε = 0.02
        let last: f64 = t.rows().last().unwrap()[1].parse().unwrap(); // ε = 1.0
        assert!(first <= last + 1e-6);
    }
}
