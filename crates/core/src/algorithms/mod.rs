//! The algorithm suite: exact solvers, the scaled dynamic program, greedy
//! heuristics, baselines, and local-search improvement.
//!
//! Every algorithm implements [`RejectionPolicy`] and returns a
//! [`Solution`]; all cost evaluation goes through the
//! [`Instance`] oracles, so algorithms are agnostic to the
//! power model (leakage, discrete speeds, idle modes).
//!
//! | Algorithm | Kind | Guarantee |
//! |---|---|---|
//! | [`Exhaustive`] | exact | optimal (n ≤ 26) |
//! | [`BranchBound`] | exact | optimal, convex-relaxation pruning |
//! | [`ScaledDp`] | approximation | cost ≤ OPT + ε·v_max |
//! | [`MarginalGreedy`] | heuristic | accepts while marginal energy < penalty |
//! | [`DensityGreedy`] | heuristic | density-ordered rejection with cost check |
//! | [`DensitySweep`] | restricted exact | best density prefix (Lagrangian dual sweep) |
//! | [`BestOfSingle`] | restricted exact | best among "reject ≤ 1 task" |
//! | [`SafeGreedy`] | heuristic | min(MarginalGreedy, BestOfSingle) |
//! | [`AcceptAllFeasible`] | baseline | rejection only to restore feasibility |
//! | [`RejectAll`] | baseline | degenerate upper bound |
//! | [`LocalSearch`] | improvement | toggle/swap hill-climbing on any seed |
//! | [`SimulatedAnnealing`] | metaheuristic | seeded toggle-move annealing |

mod anneal;
mod branch_bound;
mod dp;
mod exhaustive;
mod greedy;
mod local_search;

pub use anneal::SimulatedAnnealing;
pub use branch_bound::BranchBound;
pub use dp::ScaledDp;
pub use exhaustive::Exhaustive;
pub use greedy::{
    AcceptAllFeasible, BestOfSingle, DensityGreedy, DensitySweep, MarginalGreedy, RejectAll,
    SafeGreedy,
};
pub use local_search::LocalSearch;

use crate::{Instance, SchedError, Solution};

/// A task-rejection algorithm: consumes an [`Instance`], produces a
/// [`Solution`].
///
/// The trait is object-safe, so policies can be boxed and tabulated by the
/// experiment harness:
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use reject_sched::algorithms::{MarginalGreedy, RejectAll};
/// use reject_sched::{Instance, RejectionPolicy};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let instance = Instance::new(
///     WorkloadSpec::new(8, 1.2).seed(1).generate()?,
///     cubic_ideal(),
/// )?;
/// let policies: Vec<Box<dyn RejectionPolicy>> =
///     vec![Box::new(MarginalGreedy), Box::new(RejectAll)];
/// for p in &policies {
///     let solution = p.solve(&instance)?;
///     solution.verify(&instance)?;
/// }
/// # Ok(())
/// # }
/// ```
///
/// `Send + Sync` are supertraits so boxed rosters can be shared across the
/// worker threads of the experiment harness's seed sweeps; every policy is
/// a plain value type, so this costs implementors nothing.
pub trait RejectionPolicy: Send + Sync {
    /// Short stable identifier of the algorithm (used in reports).
    fn name(&self) -> &'static str;

    /// Solves the instance.
    ///
    /// # Errors
    ///
    /// Algorithm-specific; see the concrete types. All algorithms may
    /// propagate [`SchedError::Model`]/[`SchedError::Power`] from the cost
    /// oracles.
    fn solve(&self, instance: &Instance) -> Result<Solution, SchedError>;
}

/// Tasks that can ever be accepted (`uᵢ ≤ s_max`), in instance order.
pub(crate) fn acceptable_tasks(instance: &Instance) -> Vec<rt_model::Task> {
    instance
        .tasks()
        .iter()
        .filter(|t| instance.is_acceptable(t))
        .copied()
        .collect()
}

#[cfg(test)]
pub(crate) mod test_support {
    use dvs_power::presets::cubic_ideal;
    use rt_model::generator::{PenaltyModel, WorkloadSpec};

    use crate::Instance;

    /// A deterministic batch of mixed under/overloaded instances for
    /// cross-algorithm tests.
    pub fn standard_instances() -> Vec<Instance> {
        let mut out = Vec::new();
        for (i, &load) in [0.5, 0.9, 1.2, 1.8, 2.5].iter().enumerate() {
            for (j, model) in [
                PenaltyModel::Uniform { lo: 0.05, hi: 1.0 },
                PenaltyModel::UtilizationProportional {
                    scale: 1.5,
                    jitter: 0.5,
                },
                PenaltyModel::InverseUtilization {
                    scale: 1.0,
                    jitter: 0.3,
                },
            ]
            .into_iter()
            .enumerate()
            {
                let tasks = WorkloadSpec::new(10, load)
                    .penalty_model(model)
                    .seed((i * 10 + j) as u64)
                    .generate()
                    .expect("valid spec");
                out.push(Instance::new(tasks, cubic_ideal()).expect("valid instance"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::standard_instances;
    use super::*;

    /// Every policy produces a verifiable solution on every standard
    /// instance, and exact policies agree with each other.
    #[test]
    fn all_policies_verify_everywhere() {
        let policies: Vec<Box<dyn RejectionPolicy>> = vec![
            Box::new(Exhaustive::default()),
            Box::new(BranchBound::default()),
            Box::new(ScaledDp::new(0.1).unwrap()),
            Box::new(MarginalGreedy),
            Box::new(DensityGreedy),
            Box::new(DensitySweep),
            Box::new(SafeGreedy),
            Box::new(BestOfSingle),
            Box::new(AcceptAllFeasible),
            Box::new(RejectAll),
            Box::new(SimulatedAnnealing::new(1).with_iterations(2_000).unwrap()),
        ];
        for inst in standard_instances() {
            for p in &policies {
                let s = p
                    .solve(&inst)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
                s.verify(&inst)
                    .unwrap_or_else(|e| panic!("{} produced invalid solution: {e}", p.name()));
            }
        }
    }

    #[test]
    fn exact_solvers_agree() {
        for inst in standard_instances() {
            let a = Exhaustive::default().solve(&inst).unwrap();
            let b = BranchBound::default().solve(&inst).unwrap();
            assert!(
                (a.cost() - b.cost()).abs() < 1e-6 * a.cost().max(1.0),
                "exhaustive {} vs branch-bound {} on {inst}",
                a.cost(),
                b.cost()
            );
        }
    }

    #[test]
    fn heuristics_never_beat_the_optimum() {
        let heuristics: Vec<Box<dyn RejectionPolicy>> = vec![
            Box::new(MarginalGreedy),
            Box::new(DensityGreedy),
            Box::new(DensitySweep),
            Box::new(SafeGreedy),
            Box::new(AcceptAllFeasible),
            Box::new(RejectAll),
            Box::new(ScaledDp::new(0.25).unwrap()),
            Box::new(SimulatedAnnealing::new(2).with_iterations(2_000).unwrap()),
        ];
        for inst in standard_instances() {
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            for h in &heuristics {
                let c = h.solve(&inst).unwrap().cost();
                assert!(
                    c >= opt - 1e-6 * opt.max(1.0),
                    "{} beat OPT: {c} < {opt}",
                    h.name()
                );
            }
        }
    }

    #[test]
    fn scaled_dp_respects_additive_guarantee() {
        for inst in standard_instances() {
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            for &eps in &[0.01, 0.1, 0.5] {
                let v_max = inst
                    .tasks()
                    .iter()
                    .map(rt_model::Task::penalty)
                    .fold(0.0, f64::max);
                let dp = ScaledDp::new(eps).unwrap().solve(&inst).unwrap().cost();
                assert!(
                    dp <= opt + eps * v_max + 1e-6,
                    "ScaledDp(ε={eps}) cost {dp} exceeds OPT {opt} + ε·v_max {}",
                    eps * v_max
                );
            }
        }
    }

    #[test]
    fn lower_bound_below_optimum() {
        for inst in standard_instances() {
            let opt = Exhaustive::default().solve(&inst).unwrap().cost();
            let lb = crate::bounds::fractional_lower_bound(&inst).unwrap();
            assert!(lb <= opt + 1e-6 * opt.max(1.0), "lb {lb} above OPT {opt}");
        }
    }
}
