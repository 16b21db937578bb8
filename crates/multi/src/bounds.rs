//! Fluid lower bound for the multiprocessor rejection problem.

use reject_sched::bounds::task_set_stationary_point;
use reject_sched::SchedError;

use crate::MultiInstance;

/// Lower bound on the optimal multiprocessor cost by **fluid relaxation**:
/// tasks may be accepted fractionally, and an accepted utilization `t` may
/// be spread arbitrarily over the `m` processors. By convexity of the
/// energy rate the balanced spread `t/m` per processor is energetically
/// optimal, so the relaxed cost is
///
/// ```text
/// f(t) = m · L · rate(t/m) + V_total − W(t),     t ∈ [0, min(m·s_max, U)]
/// ```
///
/// with `W` the fractional-knapsack shelter function. `f` is convex; its
/// minimum is a valid lower bound on any partitioned (or even global)
/// schedule's cost, and is the normaliser used by experiment F7. Its slope
/// is `L·rate′(t/m) − ρ`, so each task's break-even load is `m` times its
/// single-processor one, and the one pass of
/// [`task_set_stationary_point`] finds the minimum.
///
/// # Errors
///
/// [`SchedError::Power`] only on internal oracle failures.
///
/// # Examples
///
/// ```
/// use dvs_power::presets::cubic_ideal;
/// use multi_sched::{fractional_lower_bound_multi, MultiInstance};
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MultiInstance::new(WorkloadSpec::new(20, 3.0).seed(4).generate()?,
///                              cubic_ideal(), 4)?;
/// let lb = fractional_lower_bound_multi(&sys)?;
/// assert!(lb >= 0.0);
/// # Ok(())
/// # }
/// ```
pub fn fractional_lower_bound_multi(instance: &MultiInstance) -> Result<f64, SchedError> {
    let cpu = instance.processor();
    let m = instance.processors() as f64;
    let l = instance.hyper_period() as f64;
    let at = task_set_stationary_point(instance.tasks(), instance.capacity(), |rho| {
        m * cpu.utilization_at_marginal(rho / l)
    });
    let rate = cpu.energy_rate((at.t / m).min(cpu.max_speed()))?;
    Ok(m * l * rate + instance.total_penalty() - at.sheltered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_global_greedy, solve_partitioned, PartitionStrategy};
    use dvs_power::presets::cubic_ideal;
    use reject_sched::algorithms::MarginalGreedy;
    use rt_model::generator::WorkloadSpec;

    fn sys(seed: u64, n: usize, load: f64, m: usize) -> MultiInstance {
        MultiInstance::new(
            WorkloadSpec::new(n, load).seed(seed).generate().unwrap(),
            cubic_ideal(),
            m,
        )
        .unwrap()
    }

    #[test]
    fn bound_below_every_concrete_solution() {
        for seed in 0..6 {
            let instance = sys(seed, 20, 4.0, 4);
            let lb = fractional_lower_bound_multi(&instance).unwrap();
            for sol in [
                solve_partitioned(
                    &instance,
                    PartitionStrategy::LargestTaskFirst,
                    &MarginalGreedy,
                )
                .unwrap(),
                solve_partitioned(&instance, PartitionStrategy::Unsorted, &MarginalGreedy).unwrap(),
                solve_global_greedy(&instance).unwrap(),
            ] {
                assert!(
                    lb <= sol.cost() + 1e-6,
                    "seed {seed}: lb {lb} above {} = {}",
                    sol.label(),
                    sol.cost()
                );
            }
        }
    }

    #[test]
    fn bound_grows_with_load() {
        let mut last = 0.0;
        for &load in &[1.0, 2.0, 4.0, 8.0] {
            let instance = sys(1, 20, load, 4);
            let lb = fractional_lower_bound_multi(&instance).unwrap();
            assert!(lb >= last - 1e-9, "load {load}");
            last = lb;
        }
    }

    #[test]
    fn more_processors_lower_bound() {
        let tasks = WorkloadSpec::new(20, 4.0).seed(2).generate().unwrap();
        let lb2 = fractional_lower_bound_multi(
            &MultiInstance::new(tasks.clone(), cubic_ideal(), 2).unwrap(),
        )
        .unwrap();
        let lb8 =
            fractional_lower_bound_multi(&MultiInstance::new(tasks, cubic_ideal(), 8).unwrap())
                .unwrap();
        assert!(lb8 <= lb2 + 1e-9);
    }
}
