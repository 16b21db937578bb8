//! One module per experiment. Each exposes `run(Scale) -> Table`; the
//! helpers below build the workloads and rosters they share.
//!
//! The experiment ids (T1, T2, F1–F9, E1–E10, R1–R3) are defined in
//! `EXPERIMENTS.md`; the mapping to the paper's evaluation style is
//! documented there.

pub mod e10_reshard;
pub mod e1_online;
pub mod e2_hetero;
pub mod e3_slack_reclaim;
pub mod e4_constrained;
pub mod e5_budget;
pub mod e6_synthesis;
pub mod e7_admission_replay;
pub mod e8_hotpath;
pub mod e9_cluster;
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
pub mod r2_chaos;
pub mod r3_failover;
pub mod t1_normalized_cost;
pub mod t2_runtime;

use dvs_power::presets::xscale_ideal;
use reject_sched::algorithms::{
    AcceptAllFeasible, DensityGreedy, DensitySweep, LocalSearch, MarginalGreedy, SafeGreedy,
    ScaledDp, SimulatedAnnealing,
};
use reject_sched::{Instance, RejectionPolicy};
use rt_model::generator::{PenaltyModel, WorkloadSpec};

use crate::Scale;

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

    /// Smoke test: every experiment runs at quick scale and yields rows.
    #[test]
    fn all_experiments_produce_rows() {
        let tables = [
            t1_normalized_cost::run(Scale::Quick),
            f1_load_sweep::run(Scale::Quick),
            f2_penalty_scale::run(Scale::Quick),
            f3_acceptance::run(Scale::Quick),
            f4_fptas_tradeoff::run(Scale::Quick),
            f5_discrete_speeds::run(Scale::Quick),
            f6_leakage::run(Scale::Quick),
            f7_multiproc::run(Scale::Quick),
            f8_consolidation::run(Scale::Quick),
            f9_switch_ablation::run(Scale::Quick),
            e1_online::run(Scale::Quick),
            e2_hetero::run(Scale::Quick),
            e3_slack_reclaim::run(Scale::Quick),
            e4_constrained::run(Scale::Quick),
            e5_budget::run(Scale::Quick),
            e6_synthesis::run(Scale::Quick),
            r1_fault_sweep::run(Scale::Quick),
        ];
        for t in &tables {
            assert!(!t.rows().is_empty(), "{} has no rows", t.title());
        }
    }

    /// T2 exercises wall-clock timing; keep it separate (slower).
    #[test]
    fn runtime_experiment_runs() {
        let t = t2_runtime::run(Scale::Quick);
        assert!(!t.rows().is_empty());
    }

    /// E8 also times wall-clock work; keep it out of the parallel batch.
    #[test]
    fn hotpath_experiment_runs() {
        let t = e8_hotpath::run(Scale::Quick);
        assert!(!t.rows().is_empty());
    }

    /// E9 times real sockets; keep it out of the parallel batch too.
    #[test]
    fn cluster_experiment_runs() {
        let t = e9_cluster::run(Scale::Quick);
        assert!(!t.rows().is_empty());
    }

    /// E10 times real sockets too; same treatment.
    #[test]
    fn reshard_experiment_runs() {
        let t = e10_reshard::run(Scale::Quick);
        assert!(!t.rows().is_empty());
    }
}
