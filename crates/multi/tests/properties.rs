//! Randomized property tests for the multiprocessor extension.
//!
//! Formerly expressed with `proptest`; rewritten on the vendored
//! [`rt_model::rng::Rng`] so the suite runs fully offline.

use dvs_power::presets::{cubic_ideal, xscale_ideal};
use multi_sched::{
    fractional_lower_bound_multi, improve, partition_tasks, solve_global_greedy, solve_partitioned,
    MultiInstance, PartitionStrategy,
};
use reject_sched::algorithms::MarginalGreedy;
use rt_model::generator::WorkloadSpec;
use rt_model::rng::Rng;
use rt_model::{Task, TaskId, TaskSet};

const CASES: u64 = 48;

fn random_system(rng: &mut Rng) -> MultiInstance {
    let n = 2 + rng.gen_index(14);
    let m = 2 + rng.gen_index(4);
    let tasks = TaskSet::try_from_tasks((0..n).map(|i| {
        let u = rng.gen_f64(0.05, 0.9);
        let v = rng.gen_f64(0.0, 6.0);
        let period = 10 * (1 + (i as u64 % 2));
        Task::new(i, u * period as f64, period)
            .unwrap()
            .with_penalty(v)
    }))
    .unwrap();
    MultiInstance::new(tasks, cubic_ideal(), m).unwrap()
}

/// Every partition strategy assigns every task exactly once.
#[test]
fn partitions_are_exact_covers() {
    let mut rng = Rng::seed_from_u64(0x3001);
    for _ in 0..CASES {
        let sys = random_system(&mut rng);
        for strat in [
            PartitionStrategy::LargestTaskFirst,
            PartitionStrategy::Unsorted,
            PartitionStrategy::FirstFit,
        ] {
            let p = partition_tasks(sys.tasks(), sys.processors(), 1.0, strat);
            assert_eq!(p.len(), sys.processors());
            let mut ids: Vec<TaskId> = p.buckets().iter().flatten().copied().collect();
            ids.sort();
            let mut expect: Vec<TaskId> = sys.tasks().iter().map(Task::id).collect();
            expect.sort();
            assert_eq!(ids, expect);
        }
    }
}

/// All pipelines produce verifiable solutions and respect the fluid
/// lower bound.
#[test]
fn pipelines_verify_and_respect_the_bound() {
    let mut rng = Rng::seed_from_u64(0x3002);
    for _ in 0..CASES {
        let sys = random_system(&mut rng);
        let lb = fractional_lower_bound_multi(&sys).unwrap();
        for sol in [
            solve_partitioned(&sys, PartitionStrategy::LargestTaskFirst, &MarginalGreedy).unwrap(),
            solve_partitioned(&sys, PartitionStrategy::Unsorted, &MarginalGreedy).unwrap(),
            solve_partitioned(&sys, PartitionStrategy::FirstFit, &MarginalGreedy).unwrap(),
            solve_global_greedy(&sys).unwrap(),
        ] {
            sol.verify(&sys).unwrap();
            assert!(
                sol.cost() >= lb - 1e-6 * lb.max(1.0),
                "{} = {} beat the fluid bound {lb}",
                sol.label(),
                sol.cost()
            );
            assert!(sol.penalty() >= -1e-9);
        }
    }
}

/// Accepted sets never overlap across processors, and every accepted
/// bucket is individually feasible.
#[test]
fn per_processor_feasibility() {
    let mut rng = Rng::seed_from_u64(0x3003);
    for _ in 0..CASES {
        let sys = random_system(&mut rng);
        let sol =
            solve_partitioned(&sys, PartitionStrategy::LargestTaskFirst, &MarginalGreedy).unwrap();
        for sub in sol.per_processor() {
            let bucket = sys.tasks().subset(sub.accepted()).unwrap();
            assert!(bucket.utilization() <= sys.processor().max_speed() * (1.0 + 1e-9));
        }
        let all = sol.accepted();
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
    }
}

/// LTF workload balance: the spread never exceeds the largest task's
/// utilization (the classic list-scheduling property).
#[test]
fn ltf_imbalance_bounded_by_largest_task() {
    let mut rng = Rng::seed_from_u64(0x3004);
    for _ in 0..CASES {
        let sys = random_system(&mut rng);
        let p = partition_tasks(
            sys.tasks(),
            sys.processors(),
            1.0,
            PartitionStrategy::LargestTaskFirst,
        );
        let u_max = sys
            .tasks()
            .iter()
            .map(Task::utilization)
            .fold(0.0, f64::max);
        assert!(p.imbalance(sys.tasks()) <= u_max + 1e-9);
    }
}

/// Partitioning plus local search is a pure function of the instance:
/// two runs give the same accepted set and the same cost bits (a
/// `HashSet`-ordered `MultiSolution` once did not).
#[test]
fn partition_local_search_repeats_bit_identically() {
    for seed in 0..4u64 {
        for (m, cpu) in [(3, cubic_ideal()), (4, xscale_ideal())] {
            let tasks = WorkloadSpec::new(22, 4.6).seed(seed).generate().unwrap();
            let sys = MultiInstance::new(tasks, cpu, m).unwrap();
            for strat in [
                PartitionStrategy::LargestTaskFirst,
                PartitionStrategy::Unsorted,
            ] {
                let run = || {
                    let base = solve_partitioned(&sys, strat, &MarginalGreedy).unwrap();
                    improve(&sys, &base, 300).unwrap()
                };
                let (a, b) = (run(), run());
                assert_eq!(a.accepted(), b.accepted(), "seed {seed} m {m}");
                assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "seed {seed} m {m}");
            }
        }
    }
}
