//! **E1 (extension) — the price of online admission.**
//!
//! Tasks arrive one at a time and must be admitted or rejected
//! irrevocably. Sweep the load and compare the myopic online rule and
//! hedged thresholds against the offline optimum. Expected shape: near
//! offline at light load (no contention → myopic is fine), a growing gap
//! through the overload knee, with moderate hedging (θ ≈ 1.5) recovering
//! part of it by reserving capacity for denser late arrivals.

use reject_sched::algorithms::BranchBound;
use reject_sched::online::{run_online, OnlineGreedy, ThresholdPolicy};
use reject_sched::RejectionPolicy;
use rt_model::Task;

use crate::experiments::{normalized, standard_instance};
use crate::{mean, Scale, Table};

/// Number of tasks.
pub const N: usize = 20;

/// The load grid.
#[must_use]
pub fn loads(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.8, 1.6, 2.4],
        Scale::Full => (4..=14).map(|k| k as f64 * 0.2).collect(), // 0.8 … 2.8
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
        format!("E1: online admission vs offline optimum (n = {N})"),
        &["load", "policy", "avg_norm_cost"],
    );
    let thetas = [1.0, 1.5, 2.0];
    for &load in &loads(scale) {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); thetas.len() + 1];
        for seed in 0..scale.seeds() {
            let inst = standard_instance(N, load, 1.0, seed);
            let order: Vec<_> = inst.tasks().iter().map(Task::id).collect();
            let offline = BranchBound.solve(&inst).expect("n within limits").cost();
            let c = run_online(&inst, &order, &OnlineGreedy)
                .expect("policy is total")
                .cost();
            per[0].push(normalized(c, offline));
            for (k, &theta) in thetas.iter().enumerate() {
                let p = ThresholdPolicy::new(theta).expect("θ ≥ 1");
                let c = run_online(&inst, &order, &p)
                    .expect("policy is total")
                    .cost();
                per[k + 1].push(normalized(c, offline));
            }
        }
        table.push(&[
            format!("{load:.1}"),
            "online-greedy".to_string(),
            format!("{:.4}", mean(&per[0])),
        ]);
        for (k, &theta) in thetas.iter().enumerate() {
            table.push(&[
                format!("{load:.1}"),
                format!("threshold(θ={theta})"),
                format!("{:.4}", mean(&per[k + 1])),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_never_beats_offline() {
        for row in run(Scale::Quick).rows() {
            let v: f64 = row[2].parse().unwrap();
            assert!(v >= 1.0 - 1e-6, "online beat offline: {row:?}");
        }
    }

    #[test]
    fn theta_one_matches_online_greedy_row() {
        let t = run(Scale::Quick);
        for load in ["0.8", "1.6", "2.4"] {
            let get = |policy: &str| -> f64 {
                t.rows()
                    .iter()
                    .find(|r| r[0] == load && r[1] == policy)
                    .and_then(|r| r[2].parse().ok())
                    .unwrap()
            };
            assert!((get("online-greedy") - get("threshold(θ=1)")).abs() < 1e-9);
        }
    }
}
