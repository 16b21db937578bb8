//! **T2 — running time vs number of tasks.**
//!
//! Wall-clock scaling of the polynomial algorithms (greedy, scaled DP)
//! against the exact solvers: branch & bound at every n, exhaustive only up
//! to 18 tasks (its 2ⁿ enumeration). Branch & bound has no size limit; its
//! time is the nodes an instance needs (1 to ~10⁵ across the n = 2000
//! seeds) times an `O(n)` relaxation per node, so hard instances, not n,
//! bound exact search. The scaled DP's table guard refuses n = 2000.

use std::time::Instant;

use reject_sched::algorithms::{BranchBound, Exhaustive, MarginalGreedy, ScaledDp};
use reject_sched::RejectionPolicy;

use crate::experiments::standard_instance;
use crate::{mean, Scale, Table};

/// Fixed system load for the runtime sweep.
pub const LOAD: f64 = 1.6;

/// Runs the experiment.
///
/// # Panics
///
/// Panics if a solver fails unexpectedly.
#[must_use]
pub fn run(scale: Scale) -> Table {
    let ns: &[usize] = match scale {
        Scale::Quick => &[10, 50, 200],
        Scale::Full => &[10, 20, 50, 100, 200, 500, 1000, 2000],
    };
    let mut table = Table::new(
        format!("T2: runtime (ms) vs n (load {LOAD})"),
        &["n", "algorithm", "avg_ms"],
    );
    for &n in ns {
        let mut cells: Vec<(&'static str, Vec<f64>)> = vec![
            ("marginal-greedy", Vec::new()),
            ("scaled-dp(0.1)", Vec::new()),
            ("branch-bound", Vec::new()),
            ("exhaustive", Vec::new()),
        ];
        for seed in 0..scale.seeds().min(5) {
            let inst = standard_instance(n, LOAD, 1.0, seed);
            // The instance caches its density order on first use; build it
            // before any column is timed, so no solver pays for the sort.
            let _ = inst.density_order();
            let timed = |p: &dyn RejectionPolicy| -> Option<f64> {
                let t0 = Instant::now();
                match p.solve(&inst) {
                    Ok(_) => Some(t0.elapsed().as_secs_f64() * 1e3),
                    // The scaled DP's table guard.
                    Err(reject_sched::SchedError::TooLarge { .. }) => None,
                    Err(e) => panic!("{} failed: {e}", p.name()),
                }
            };
            if let Some(ms) = timed(&MarginalGreedy) {
                cells[0].1.push(ms);
            }
            if let Some(ms) = timed(&ScaledDp::new(0.1).expect("valid ε")) {
                cells[1].1.push(ms);
            }
            if let Some(ms) = timed(&BranchBound) {
                cells[2].1.push(ms);
            }
            if n <= 18 {
                if let Some(ms) = timed(&Exhaustive::default()) {
                    cells[3].1.push(ms);
                }
            }
        }
        for (name, samples) in &cells {
            if samples.is_empty() {
                table.push(&[n.to_string(), (*name).to_string(), "-".to_string()]);
            } else {
                table.push(&[
                    n.to_string(),
                    (*name).to_string(),
                    format!("{:.3}", mean(samples)),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polynomial_algorithms_scale_to_hundreds_of_tasks() {
        let t = run(Scale::Quick);
        let greedy_at_200: f64 = t
            .rows()
            .iter()
            .find(|r| r[0] == "200" && r[1] == "marginal-greedy")
            .and_then(|r| r[2].parse().ok())
            .expect("greedy timed at n=200");
        assert!(
            greedy_at_200 < 1_000.0,
            "greedy too slow: {greedy_at_200} ms"
        );
        // Branch & bound is timed at every n: it has no size limit.
        let bb_rows: Vec<_> = t.rows().iter().filter(|r| r[1] == "branch-bound").collect();
        assert_eq!(bb_rows.len(), 3);
        assert!(bb_rows.iter().all(|r| r[2] != "-"), "{bb_rows:?}");
    }
}
