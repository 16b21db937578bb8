//! `solve_offline`: the paper's contribution, in process. A basket of
//! instances is solved over and over for a fixed time; every solution is
//! verified, and heuristic costs are held against the optimum (n=20) or
//! the fractional lower bound (larger n).

use std::time::Instant;

use dvs_power::presets::xscale_ideal;
use multi_sched::{solve_partitioned, MultiInstance, PartitionStrategy};
use reject_sched::algorithms::{
    BranchBound, DensitySweep, Exhaustive, LocalSearch, MarginalGreedy, ScaledDp,
};
use reject_sched::bounds::fractional_lower_bound;
use reject_sched::{Instance, RejectionPolicy, Solution};
use rt_model::generator::{PenaltyModel, WorkloadSpec};
use rt_model::TaskSet;

/// Offered loads of every basket instance: light overload, where most
/// tasks fit, and the serving workloads' heavy overload.
pub const LOADS: [f64; 2] = [1.2, 3.0];
/// `DVS_THREADS` of the end-to-end run.
pub const THREADS: &str = "1";
/// Slack for comparing floating-point costs and utilisations.
const EPS: f64 = 1e-9;

/// What a basket entry solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    BranchBound,
    GreedySmall,
    ScaledDp,
    Greedy,
    Sweep,
    LocalSearch,
    Partitioned,
    Simulate,
}

impl Solver {
    /// The span name (and per-layer metric stem) of this entry.
    pub fn span(self) -> &'static str {
        match self {
            Solver::BranchBound => "core.bb_n20",
            Solver::GreedySmall => "core.greedy_n20",
            Solver::ScaledDp => "core.dp_n200",
            Solver::Greedy => "core.greedy_n2000",
            Solver::Sweep => "core.sweep_n2000",
            Solver::LocalSearch => "core.ls_n500",
            Solver::Partitioned => "multi.solve_m4_n40",
            Solver::Simulate => "sim.hyper_period_n20",
        }
    }

    /// Whether the entry's cost counts towards `cost_ratio`.
    fn heuristic(self) -> bool {
        matches!(
            self,
            Solver::GreedySmall
                | Solver::ScaledDp
                | Solver::Greedy
                | Solver::Sweep
                | Solver::LocalSearch
        )
    }
}

/// One instance of the basket with the reference its costs are held
/// against.
pub struct Item {
    pub instance: Instance,
    /// Optimum (n=20) or fractional lower bound (larger n).
    pub reference: f64,
    pub solvers: &'static [Solver],
}

pub struct Basket {
    pub items: Vec<Item>,
    /// The n=40 instances for the partitioned solver, with their bound.
    pub multi: Vec<MultiInstance>,
    /// The first n=2000 task set, saved for the `dvs_reject` cold start.
    pub large: TaskSet,
}

fn task_set(n: usize, load: f64, seed: u64) -> TaskSet {
    WorkloadSpec::new(n, load)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 1.6,
            jitter: 0.5,
        })
        .seed(seed)
        .generate()
        .expect("a valid workload spec")
}

/// `(n, solvers, instances per load)`. The counts are chosen so that no
/// solver owns most of a pass, so that one seed's hard branch-and-bound
/// instances (its times are heavy-tailed) do not set the basket's time,
/// and so that the median entry is a greedy solve and the 90th-percentile
/// entry a middling local search — the dense part of a cluster rather
/// than the gap between two solvers.
const SIZES: [(usize, &[Solver], usize); 4] = [
    (
        20,
        &[Solver::BranchBound, Solver::GreedySmall, Solver::Simulate],
        32,
    ),
    (200, &[Solver::ScaledDp], 24),
    (500, &[Solver::LocalSearch], 48),
    (2000, &[Solver::Greedy, Solver::Sweep], 128),
];
/// Partitioned n=40, m=4 instances per load.
const MULTI_COPIES: usize = 16;

impl Basket {
    /// Generates the basket from `seed` and computes every reference.
    pub fn generate(seed: u64) -> Basket {
        let mut next = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut fresh = || {
            next = next.wrapping_add(1);
            next
        };
        let mut items = Vec::new();
        let mut multi = Vec::new();
        let mut large = None;
        for load in LOADS {
            for (n, solvers, copies) in SIZES {
                for _ in 0..copies {
                    let tasks = task_set(n, load, fresh());
                    if n == 2000 && large.is_none() {
                        large = Some(tasks.clone());
                    }
                    let instance = Instance::new(tasks, xscale_ideal()).expect("a valid instance");
                    let reference = if n == 20 {
                        Exhaustive::default()
                            .solve(&instance)
                            .expect("n=20 is within the limit")
                            .cost()
                    } else {
                        fractional_lower_bound(&instance).expect("bound")
                    };
                    items.push(Item {
                        instance,
                        reference,
                        solvers,
                    });
                }
            }
            for _ in 0..MULTI_COPIES {
                // Four processors' worth of the same load per processor.
                let tasks = task_set(40, load * 4.0, fresh());
                multi.push(
                    MultiInstance::new(tasks, xscale_ideal(), 4).expect("a valid multi instance"),
                );
            }
        }
        Basket {
            items,
            multi,
            large: large.expect("the basket has an n=2000 instance"),
        }
    }

    /// Entries one pass solves.
    pub fn entries(&self) -> usize {
        self.items.iter().map(|i| i.solvers.len()).sum::<usize>() + self.multi.len()
    }
}

/// What one pass over the basket measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// `(span name, seconds)` per entry, in basket order.
    pub entries: Vec<(&'static str, f64)>,
    /// `(entries done, machine speed)` samples taken along the pass.
    pub speeds: Vec<(usize, f64)>,
    /// Σ heuristic cost / reference, and how many were summed.
    pub ratio_sum: f64,
    pub ratio_count: usize,
    pub jobs_simulated: u64,
    pub deadline_misses: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Value levels of every DP table. `ScaledDp`'s table is `n/ε · Σv/v_max`
/// levels wide, so at a fixed `ε` its time follows the seed's largest
/// penalty; fixing the width instead makes the work `n · DP_LEVELS` cells
/// on every instance, and `ε` comes out near 0.3.
const DP_LEVELS: f64 = 20_000.0;

fn fixed_width_dp(inst: &Instance) -> ScaledDp {
    let total = inst.total_penalty();
    let largest = inst.tasks().iter().map(|t| t.penalty()).fold(0.0, f64::max);
    let epsilon = inst.len() as f64 * total / (largest * DP_LEVELS);
    ScaledDp::new(epsilon).expect("penalties are positive and finite")
}

fn verify(item: &Item, solver: Solver, s: &Solution) -> Result<(), String> {
    let inst = &item.instance;
    s.verify(inst)
        .map_err(|e| format!("{}: {e}", solver.span()))?;
    let u = inst
        .utilization_of(s.accepted())
        .map_err(|e| e.to_string())?;
    if u > inst.processor().max_speed() + EPS {
        return Err(format!("{}: U(A) = {u} exceeds s_max", solver.span()));
    }
    let floor = item.reference * (1.0 - EPS) - EPS;
    if s.cost() < floor {
        return Err(format!(
            "{}: cost {} below the reference {}",
            solver.span(),
            s.cost(),
            item.reference
        ));
    }
    if solver == Solver::BranchBound && s.cost() > item.reference * (1.0 + 1e-6) + EPS {
        return Err(format!(
            "{}: cost {} is not the optimum {}",
            solver.span(),
            s.cost(),
            item.reference
        ));
    }
    Ok(())
}

impl Pass {
    /// Seconds per entry at nominal machine speed: each entry's time is
    /// scaled by the mean of the speed samples on either side of it (see
    /// `stack::Interval`); as timed if no samples were taken.
    pub fn nominal_seconds(&self) -> Vec<f64> {
        let mut next = 0;
        self.entries
            .iter()
            .enumerate()
            .map(|(i, (_, seconds))| {
                while next < self.speeds.len() && self.speeds[next].0 <= i {
                    next += 1;
                }
                let before = next.checked_sub(1).map(|b| self.speeds[b].1);
                let after = self.speeds.get(next).map(|a| a.1);
                let speed = match (before, after) {
                    (Some(b), Some(a)) => (a + b) / 2.0,
                    (Some(s), None) | (None, Some(s)) => s,
                    (None, None) => 1.0,
                };
                seconds * speed
            })
            .collect()
    }
}

/// Solves every entry of the basket once, verifying each solution.
/// `speed(forced)` is asked for a machine-speed sample before the first
/// entry and after the last (`forced`) and offered the chance after every
/// other one.
pub fn pass(basket: &Basket, mut speed: impl FnMut(bool) -> Option<f64>) -> Pass {
    let mut out = Pass::default();
    out.speeds.extend(speed(true).map(|s| (0, s)));
    let local = LocalSearch::around(MarginalGreedy);
    for item in &basket.items {
        let inst = &item.instance;
        let mut optimum: Option<Solution> = None;
        for &solver in item.solvers {
            let started = Instant::now();
            let solved: Result<Option<Solution>, String> = match solver {
                Solver::BranchBound => BranchBound::default()
                    .solve(inst)
                    .map(Some)
                    .map_err(|e| e.to_string()),
                Solver::GreedySmall | Solver::Greedy => MarginalGreedy
                    .solve(inst)
                    .map(Some)
                    .map_err(|e| e.to_string()),
                Solver::ScaledDp => fixed_width_dp(inst)
                    .solve(inst)
                    .map(Some)
                    .map_err(|e| e.to_string()),
                Solver::Sweep => DensitySweep
                    .solve(inst)
                    .map(Some)
                    .map_err(|e| e.to_string()),
                Solver::LocalSearch => local.solve(inst).map(Some).map_err(|e| e.to_string()),
                Solver::Simulate => match optimum.as_ref().filter(|s| !s.accepted().is_empty()) {
                    // An EDF hyper-period of the optimum's accepted set at
                    // its planned speeds: `replay` fails on any miss.
                    Some(s) => s
                        .replay(inst)
                        .map(|report| {
                            out.jobs_simulated += report.completed_jobs();
                            out.deadline_misses += report.misses().len() as u64;
                            None
                        })
                        .map_err(|e| e.to_string()),
                    None => Ok(None),
                },
                Solver::Partitioned => unreachable!("partitioned entries live in `multi`"),
            };
            out.entries
                .push((solver.span(), started.elapsed().as_secs_f64()));
            out.speeds
                .extend(speed(false).map(|s| (out.entries.len(), s)));
            match solved
                .and_then(|s| s.map_or(Ok(None), |s| verify(item, solver, &s).map(|()| Some(s))))
            {
                Ok(Some(s)) => {
                    if solver.heuristic() {
                        out.ratio_sum += s.cost() / item.reference;
                        out.ratio_count += 1;
                    }
                    if solver == Solver::BranchBound {
                        optimum = Some(s);
                    }
                }
                Ok(None) => {}
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                }
            }
        }
    }
    for sys in &basket.multi {
        let started = Instant::now();
        let solved = solve_partitioned(sys, PartitionStrategy::LargestTaskFirst, &MarginalGreedy);
        out.entries
            .push((Solver::Partitioned.span(), started.elapsed().as_secs_f64()));
        if let Err(e) = solved
            .map_err(|e| e.to_string())
            .and_then(|s| s.verify(sys).map_err(|e| e.to_string()))
        {
            out.failed += 1;
            out.errors
                .push(format!("{}: {e}", Solver::Partitioned.span()));
        }
    }
    out.speeds
        .extend(speed(true).map(|s| (out.entries.len(), s)));
    out
}

/// [`pass`] with the machine's speed sampled every 25 ms along it: a pass
/// lasts about as long as the box keeps one speed.
pub fn sampled_pass(basket: &Basket) -> Pass {
    let mut sampled = Instant::now();
    pass(basket, |forced| {
        (forced || sampled.elapsed().as_millis() >= 25).then(|| {
            let speed = crate::stack::speed_sample();
            sampled = Instant::now();
            speed
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_scaled_by_the_speed_samples_around_them() {
        let pass = Pass {
            entries: vec![("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)],
            speeds: vec![(0, 1.0), (2, 0.5), (4, 0.7)],
            ..Pass::default()
        };
        let nominal = pass.nominal_seconds();
        assert_eq!(nominal, vec![0.75, 0.75, 0.6, 0.6]);
        let untouched = Pass {
            entries: vec![("a", 2.0)],
            ..Pass::default()
        };
        assert_eq!(untouched.nominal_seconds(), vec![2.0]);
    }
}
