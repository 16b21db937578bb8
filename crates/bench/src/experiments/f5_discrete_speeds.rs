//! **F5 — non-ideal processors: discrete speed levels vs continuous.**
//!
//! The same rejection problem on processors with `k` evenly spaced speed
//! levels (plus the real XScale 5-level table), normalised to the ideal
//! continuous processor. Expected shape: the two-adjacent-level split keeps
//! the gap small and it shrinks quickly with `k` (the classic
//! Ishihara–Yasuura effect); coarse grids (k = 2) pay a visible premium.

use dvs_power::presets::{uniform_levels, xscale_ideal, xscale_levels};
use dvs_power::Processor;
use reject_sched::algorithms::BranchBound;
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::WorkloadSpec;

use crate::experiments::{default_penalties, normalized};
use crate::{mean, Scale, Table};

/// Number of tasks.
pub const N: usize = 16;
/// Fixed system load.
pub const LOAD: f64 = 1.2;

/// The level-count grid.
#[must_use]
pub fn level_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![2, 4, 8],
        Scale::Full => vec![2, 3, 4, 6, 8, 12, 16],
    }
}

fn instance_on(cpu: Processor, seed: u64) -> Instance {
    let tasks = WorkloadSpec::new(N, LOAD)
        .penalty_model(default_penalties(1.0))
        .seed(seed)
        .generate()
        .expect("valid spec");
    Instance::new(tasks, cpu).expect("valid instance")
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a solver fails on a generated instance.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!("F5: discrete speed levels vs continuous (n = {N}, load {LOAD}, branch-bound)"),
        &["domain", "avg_norm_cost"],
    );
    let solver = BranchBound;
    // Continuous reference per seed.
    let mut reference = Vec::new();
    for seed in 0..scale.seeds() {
        let inst = instance_on(xscale_ideal(), seed);
        reference.push(solver.solve(&inst).expect("n within limits").cost());
    }
    let mut eval = |label: String, cpu_for_seed: &dyn Fn(u64) -> Processor| {
        let mut ratios = Vec::new();
        for seed in 0..scale.seeds() {
            let inst = instance_on(cpu_for_seed(seed), seed);
            let c = solver.solve(&inst).expect("n within limits").cost();
            ratios.push(normalized(c, reference[seed as usize]));
        }
        table.push(&[label, format!("{:.4}", mean(&ratios))]);
    };
    for &k in &level_counts(scale) {
        eval(format!("uniform-{k}"), &|_| uniform_levels(k));
    }
    eval("xscale-5-level".to_string(), &|_| xscale_levels());
    eval("continuous".to_string(), &|_| xscale_ideal());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_never_beats_continuous() {
        for row in run(Scale::Quick).rows() {
            let v: f64 = row[1].parse().unwrap();
            assert!(
                v >= 1.0 - 1e-6,
                "{} beat the continuous reference: {v}",
                row[0]
            );
        }
    }

    #[test]
    fn more_levels_shrink_the_gap() {
        let t = run(Scale::Quick);
        let get = |label: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == label)
                .and_then(|r| r[1].parse().ok())
                .unwrap()
        };
        assert!(get("uniform-8") <= get("uniform-2") + 1e-6);
        assert!((get("continuous") - 1.0).abs() < 1e-9);
    }
}
