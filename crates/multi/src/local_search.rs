//! Cross-processor local search.
//!
//! Partition-then-reject decides placement and admission separately, so its
//! solutions leave two kinds of money on the table: a task may sit on the
//! wrong processor (placement), or the wrong task may be rejected because
//! its processor was crowded while another had room (admission). This pass
//! polishes any [`MultiSolution`] with best-improvement moves:
//!
//! * **migrate** — move an accepted task to another processor,
//! * **reject** — drop an accepted task (pay its penalty),
//! * **admit** — place a rejected task on a processor with room,
//! * **swap** — exchange two accepted tasks between processors.
//!
//! Costs are evaluated with the same per-processor energy oracle the
//! solvers use, so the result is directly comparable (and never worse than
//! the seed).

use reject_sched::SchedError;
use rt_model::{Task, TaskId};

use crate::solver::solution_from_buckets;
use crate::{MultiInstance, MultiSolution};

#[derive(Debug, Clone)]
struct State<'a> {
    instance: &'a MultiInstance,
    buckets: Vec<Vec<TaskId>>,
    loads: Vec<f64>,
    rejected: Vec<TaskId>,
}

impl State<'_> {
    fn rate(&self, u: f64) -> Result<f64, SchedError> {
        Ok(self.instance.processor().energy_rate(u.max(0.0))?)
    }

    fn task(&self, id: TaskId) -> &Task {
        self.instance
            .tasks()
            .get(id)
            .expect("ids come from the instance")
    }

    fn fits(&self, k: usize, extra: f64) -> bool {
        self.instance.processor().is_feasible(self.loads[k] + extra)
    }
}

/// Polishes `seed` with best-improvement migrate/reject/admit/swap moves
/// until a local optimum (or `max_rounds`).
///
/// # Errors
///
/// Propagates oracle errors (cannot occur for a verified seed).
///
/// # Examples
///
/// ```
/// use dvs_power::presets::xscale_ideal;
/// use multi_sched::{improve, solve_partitioned, MultiInstance, PartitionStrategy};
/// use reject_sched::algorithms::MarginalGreedy;
/// use rt_model::generator::WorkloadSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = MultiInstance::new(WorkloadSpec::new(16, 3.2).seed(2).generate()?,
///                              xscale_ideal(), 4)?;
/// let seed = solve_partitioned(&sys, PartitionStrategy::Unsorted, &MarginalGreedy)?;
/// let polished = improve(&sys, &seed, 200)?;
/// polished.verify(&sys)?;
/// assert!(polished.cost() <= seed.cost() + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn improve(
    instance: &MultiInstance,
    seed: &MultiSolution,
    max_rounds: usize,
) -> Result<MultiSolution, SchedError> {
    let accepted_ids = seed.accepted();
    let mut state = State {
        instance,
        buckets: seed
            .per_processor()
            .iter()
            .map(|s| s.accepted().to_vec())
            .collect(),
        loads: Vec::new(),
        rejected: instance
            .tasks()
            .iter()
            .map(Task::id)
            .filter(|id| accepted_ids.binary_search(id).is_err())
            .collect(),
    };
    // Normalise bucket count to m (consolidated seeds may differ — pad).
    while state.buckets.len() < instance.processors() {
        state.buckets.push(Vec::new());
    }
    state.loads = state
        .buckets
        .iter()
        .map(|ids| ids.iter().map(|id| state.task(*id).utilization()).sum())
        .collect();

    let l = instance.hyper_period() as f64;
    for _ in 0..max_rounds {
        // Best-improvement scan against the round-start state: each accepted
        // task's migrate/swap/reject moves, then each rejected task's admit
        // moves; the earliest strictly best move wins.
        let mut best_gain = 1e-12;
        let mut best_move: Option<Move> = None;
        let mut consider = |gain: f64, mv: Move| {
            if gain > best_gain {
                best_gain = gain;
                best_move = Some(mv);
            }
        };
        for from in 0..state.buckets.len() {
            for ti in 0..state.buckets[from].len() {
                let id = state.buckets[from][ti];
                let u = state.task(id).utilization();
                let from_saving =
                    l * (state.rate(state.loads[from])? - state.rate(state.loads[from] - u)?);
                for to in 0..state.buckets.len() {
                    if to == from {
                        continue;
                    }
                    // Migrate.
                    if state.fits(to, u) {
                        let to_cost =
                            l * (state.rate(state.loads[to] + u)? - state.rate(state.loads[to])?);
                        consider(from_saving - to_cost, Move::Migrate { from, ti, to });
                    }
                    // Swap with each task over there.
                    for tj in 0..state.buckets[to].len() {
                        let jd = state.buckets[to][tj];
                        let w = state.task(jd).utilization();
                        if !state.fits(from, w - u) || !state.fits(to, u - w) {
                            continue;
                        }
                        let gain = l
                            * (state.rate(state.loads[from])? + state.rate(state.loads[to])?
                                - state.rate(state.loads[from] - u + w)?
                                - state.rate(state.loads[to] - w + u)?);
                        consider(gain, Move::Swap { from, ti, to, tj });
                    }
                }
                // Reject.
                let gain = from_saving - state.task(id).penalty();
                consider(gain, Move::Reject { from, ti });
            }
        }
        for ri in 0..state.rejected.len() {
            let id = state.rejected[ri];
            let u = state.task(id).utilization();
            for to in 0..state.buckets.len() {
                if !state.fits(to, u) {
                    continue;
                }
                let cost = l * (state.rate(state.loads[to] + u)? - state.rate(state.loads[to])?);
                consider(state.task(id).penalty() - cost, Move::Admit { ri, to });
            }
        }
        match best_move {
            None => break,
            Some(mv) => apply(&mut state, mv),
        }
    }

    let label = format!("{}+LS", seed.label());
    solution_from_buckets(instance, label, state.buckets)
}

#[derive(Debug, Clone, Copy)]
enum Move {
    Migrate {
        from: usize,
        ti: usize,
        to: usize,
    },
    Swap {
        from: usize,
        ti: usize,
        to: usize,
        tj: usize,
    },
    Reject {
        from: usize,
        ti: usize,
    },
    Admit {
        ri: usize,
        to: usize,
    },
}

fn apply(state: &mut State<'_>, mv: Move) {
    match mv {
        Move::Migrate { from, ti, to } => {
            let id = state.buckets[from].swap_remove(ti);
            let u = state.task(id).utilization();
            state.loads[from] -= u;
            state.loads[to] += u;
            state.buckets[to].push(id);
        }
        Move::Swap { from, ti, to, tj } => {
            let a = state.buckets[from][ti];
            let b = state.buckets[to][tj];
            let (ua, ub) = (state.task(a).utilization(), state.task(b).utilization());
            state.buckets[from][ti] = b;
            state.buckets[to][tj] = a;
            state.loads[from] += ub - ua;
            state.loads[to] += ua - ub;
        }
        Move::Reject { from, ti } => {
            let id = state.buckets[from].swap_remove(ti);
            state.loads[from] -= state.task(id).utilization();
            state.rejected.push(id);
        }
        Move::Admit { ri, to } => {
            let id = state.rejected.swap_remove(ri);
            state.loads[to] += state.task(id).utilization();
            state.buckets[to].push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fractional_lower_bound_multi, solve_partitioned, PartitionStrategy};
    use dvs_power::presets::{cubic_ideal, xscale_ideal};
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
    fn never_worse_than_the_seed() {
        for seed in 0..6 {
            let instance = sys(seed, 20, 4.5, 4);
            for strat in [
                PartitionStrategy::LargestTaskFirst,
                PartitionStrategy::Unsorted,
            ] {
                let base = solve_partitioned(&instance, strat, &MarginalGreedy).unwrap();
                let polished = improve(&instance, &base, 300).unwrap();
                polished.verify(&instance).unwrap();
                assert!(polished.cost() <= base.cost() + 1e-9);
            }
        }
    }

    #[test]
    fn closes_part_of_the_gap_to_the_fluid_bound() {
        let mut base_total = 0.0;
        let mut polished_total = 0.0;
        let mut bound_total = 0.0;
        for seed in 0..8 {
            let instance = sys(seed, 24, 5.0, 4);
            let base =
                solve_partitioned(&instance, PartitionStrategy::Unsorted, &MarginalGreedy).unwrap();
            let polished = improve(&instance, &base, 500).unwrap();
            base_total += base.cost();
            polished_total += polished.cost();
            bound_total += fractional_lower_bound_multi(&instance).unwrap();
        }
        let gap_before = base_total / bound_total;
        let gap_after = polished_total / bound_total;
        assert!(
            gap_after < gap_before - 1e-4,
            "local search should visibly improve: {gap_before:.4} → {gap_after:.4}"
        );
    }

    #[test]
    fn admits_wrongly_rejected_tasks() {
        // One crowded CPU forces a rejection that another CPU could host:
        // LTF avoids this by construction, so build the bad seed by hand
        // with the Unsorted strategy on an adversarial order.
        let tasks = rt_model::TaskSet::try_from_tasks(vec![
            rt_model::Task::new(0, 6.0, 10).unwrap().with_penalty(10.0),
            rt_model::Task::new(1, 6.0, 10).unwrap().with_penalty(10.0),
            rt_model::Task::new(2, 6.0, 10).unwrap().with_penalty(10.0),
        ])
        .unwrap();
        let instance = MultiInstance::new(tasks, cubic_ideal(), 3).unwrap();
        // Unsorted min-load placement spreads them 1/1/1 — fine. Seed with
        // a deliberately bad 2-processor-style packing instead:
        let bad =
            solve_partitioned(&instance, PartitionStrategy::FirstFit, &MarginalGreedy).unwrap();
        let polished = improve(&instance, &bad, 100).unwrap();
        polished.verify(&instance).unwrap();
        // All three tasks fit one-per-CPU; local search must not reject any.
        assert_eq!(polished.accepted().len(), 3);
    }

    #[test]
    fn respects_feasibility_throughout() {
        for seed in 0..4 {
            let instance = MultiInstance::new(
                WorkloadSpec::new(18, 5.5).seed(seed).generate().unwrap(),
                xscale_ideal(),
                3,
            )
            .unwrap();
            let base =
                solve_partitioned(&instance, PartitionStrategy::Unsorted, &MarginalGreedy).unwrap();
            let polished = improve(&instance, &base, 200).unwrap();
            polished.verify(&instance).unwrap();
        }
    }

    #[test]
    fn round_cap_terminates() {
        let instance = sys(0, 20, 4.0, 4);
        let base =
            solve_partitioned(&instance, PartitionStrategy::Unsorted, &MarginalGreedy).unwrap();
        let one = improve(&instance, &base, 1).unwrap();
        one.verify(&instance).unwrap();
        assert!(one.cost() <= base.cost() + 1e-9);
    }
}
