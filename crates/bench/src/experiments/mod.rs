//! One module per experiment. Each exposes `run(Scale) -> Table`; the
//! helpers below build the workloads and rosters they share.
//!
//! The experiment ids (T1, T2, F1–F9, E1–E7, R1) are defined in
//! `EXPERIMENTS.md`; the mapping to the paper's evaluation style is
//! documented there. [`REGISTRY`] lists them in presentation order.

pub mod e1_online;
pub mod e2_hetero;
pub mod e3_slack_reclaim;
pub mod e4_constrained;
pub mod e5_budget;
pub mod e6_synthesis;
pub mod e7_admission_replay;
pub mod f1_load_sweep;
pub mod f2_penalty_scale;
pub mod f3_acceptance;
pub mod f4_fptas_tradeoff;
pub mod f5_discrete_speeds;
pub mod f6_leakage;
pub mod f7_multiproc;
pub mod f8_consolidation;
pub mod f9_switch_ablation;
pub mod r1_fault_sweep;
pub mod t1_normalized_cost;
pub mod t2_runtime;

use dvs_power::presets::xscale_ideal;
use reject_sched::algorithms::{
    AcceptAllFeasible, DensityGreedy, DensitySweep, LocalSearch, MarginalGreedy, SafeGreedy,
    ScaledDp, SimulatedAnnealing,
};
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::{PenaltyModel, WorkloadSpec};

use crate::{Scale, Table};

/// An experiment: builds its table at the given scale.
pub type Run = fn(Scale) -> Table;

/// Every experiment as `(id, run)`, in presentation order. The id names
/// the CSV file (`<id>.csv`) and, upper-cased, prefixes the table title.
pub const REGISTRY: [(&str, Run); 19] = [
    ("t1", t1_normalized_cost::run),
    ("t2", t2_runtime::run),
    ("f1", f1_load_sweep::run),
    ("f2", f2_penalty_scale::run),
    ("f3", f3_acceptance::run),
    ("f4", f4_fptas_tradeoff::run),
    ("f5", f5_discrete_speeds::run),
    ("f6", f6_leakage::run),
    ("f7", f7_multiproc::run),
    ("f8", f8_consolidation::run),
    ("f9", f9_switch_ablation::run),
    ("e1", e1_online::run),
    ("e2", e2_hetero::run),
    ("e3", e3_slack_reclaim::run),
    ("e4", e4_constrained::run),
    ("e5", e5_budget::run),
    ("e6", e6_synthesis::run),
    ("e7", e7_admission_replay::run),
    ("r1", r1_fault_sweep::run),
];

/// Runs the experiment registered under `id`, or `None` for an unknown id.
#[must_use]
pub fn one(id: &str, scale: Scale) -> Option<Table> {
    REGISTRY
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, run)| run(scale))
}

/// Evaluates `f` once per seed of `scale`, in parallel, returning the
/// results in seed order.
///
/// This is the grain most experiments parallelise at: each seed is an
/// independent instance solved by the whole roster, so per-seed fan-out
/// keeps every worker busy without reordering any accumulation — callers
/// merge the returned per-seed rows in seed order, exactly as the old
/// sequential loop did, so the emitted tables are bit-identical.
pub fn par_seed_sweep<T, F>(scale: Scale, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    dvs_exec::par_map_indices(scale.seeds() as usize, |s| f(s as u64))
}

/// The heuristic roster every comparison experiment evaluates.
#[must_use]
pub fn heuristic_roster() -> Vec<Box<dyn RejectionPolicy>> {
    vec![
        Box::new(AcceptAllFeasible),
        Box::new(DensityGreedy),
        Box::new(DensitySweep),
        Box::new(MarginalGreedy),
        Box::new(SafeGreedy),
        Box::new(ScaledDp::new(0.1).expect("valid ε")),
        Box::new(LocalSearch::around(MarginalGreedy)),
        Box::new(
            SimulatedAnnealing::new(1)
                .with_iterations(4_000)
                .expect("positive iterations"),
        ),
    ]
}

/// The default penalty model of the evaluation: penalties commensurable
/// with energy (scale ~ `P(1)`), with 50% jitter.
#[must_use]
pub fn default_penalties(scale: f64) -> PenaltyModel {
    PenaltyModel::UtilizationProportional {
        scale: 1.6 * scale,
        jitter: 0.5,
    }
}

/// A standard synthetic instance on the normalised XScale processor.
#[must_use]
pub fn standard_instance(n: usize, load: f64, penalty_scale: f64, seed: u64) -> Instance {
    let tasks = WorkloadSpec::new(n, load)
        .penalty_model(default_penalties(penalty_scale))
        .seed(seed)
        .generate()
        .expect("valid spec");
    Instance::new(tasks, xscale_ideal()).expect("valid instance")
}

/// Cost normalised to a reference (`≥ 1` when the reference is a lower
/// bound or optimum).
pub(crate) fn normalized(cost: f64, reference: f64) -> f64 {
    if reference <= 0.0 {
        if cost <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cost / reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn standard_instance_is_deterministic() {
        let a = standard_instance(10, 1.5, 1.0, 3);
        let b = standard_instance(10, 1.5, 1.0, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn normalization_edge_cases() {
        assert_eq!(normalized(0.0, 0.0), 1.0);
        assert_eq!(normalized(1.0, 0.0), f64::INFINITY);
        assert!((normalized(3.0, 2.0) - 1.5).abs() < 1e-12);
    }

    /// Every registered experiment runs through [`one`] at quick scale,
    /// yields rows and titles its table with its own id. T2 times
    /// wall-clock work; it has its own test below.
    #[test]
    fn all_experiments_produce_rows() {
        for (id, _) in REGISTRY.iter().filter(|(id, _)| *id != "t2") {
            let t = one(id, Scale::Quick).expect("registered id");
            assert!(!t.rows().is_empty(), "{} has no rows", t.title());
            assert!(
                t.title().starts_with(&format!("{}:", id.to_uppercase())),
                "{id} runs {:?}",
                t.title()
            );
        }
    }

    #[test]
    fn runtime_experiment_runs() {
        let t = one("t2", Scale::Quick).expect("registered id");
        assert!(!t.rows().is_empty());
        assert!(t.title().starts_with("T2:"));
    }

    /// Ids are unique, so `one` reaches each entry by its own id, and `one`
    /// refuses every id that is not registered.
    #[test]
    fn registry_ids_are_unique_and_unknown_ids_are_refused() {
        for (k, (id, _)) in REGISTRY.iter().enumerate() {
            assert_eq!(
                REGISTRY.iter().position(|(known, _)| known == id),
                Some(k),
                "{id} is registered twice"
            );
        }
        for unknown in ["", "T1", "f10", "e8", "r3", "baseline"] {
            assert!(one(unknown, Scale::Quick).is_none(), "{unknown:?}");
        }
    }
}
