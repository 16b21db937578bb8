//! End-to-end integration tests spanning every crate: workload generation →
//! rejection solving → analytic verification → cycle-accurate replay.

use dvs_rejection::model::generator::{PenaltyModel, WorkloadSpec};
use dvs_rejection::model::{Task, TaskSet};
use dvs_rejection::multi::{
    fractional_lower_bound_multi, solve_partitioned, MultiInstance, PartitionStrategy,
};
use dvs_rejection::power::presets::{uniform_levels, xscale_ideal, xscale_levels};
use dvs_rejection::power::{DormantMode, IdleMode, PowerFunction, Processor, SpeedDomain};
use dvs_rejection::sched::algorithms::{
    BranchBound, Exhaustive, LocalSearch, MarginalGreedy, SafeGreedy, ScaledDp,
};
use dvs_rejection::sched::bounds::fractional_lower_bound;
use dvs_rejection::sched::hardness::{Knapsack, KnapsackItem};
use dvs_rejection::sched::{Instance, RejectionPolicy};
use dvs_rejection::sim::{Simulator, SleepPolicy, SpeedProfile};

/// The full pipeline on a realistic overloaded workload, across processor
/// models: generate → solve (several algorithms) → verify → replay, with
/// the cost chain OPT ≤ heuristics and LB ≤ OPT intact.
#[test]
fn pipeline_across_processor_models() {
    let processors = vec![
        ("ideal-xscale", xscale_ideal()),
        ("xscale-levels", xscale_levels()),
        ("coarse-levels", uniform_levels(3)),
        (
            "leaky-overhead",
            Processor::new(
                PowerFunction::polynomial(0.2, 1.52, 3.0).unwrap(),
                SpeedDomain::continuous(0.0, 1.0).unwrap(),
            )
            .with_idle_mode(IdleMode::Sleep(DormantMode::new(1.0, 2.0).unwrap())),
        ),
    ];
    for (name, cpu) in processors {
        for seed in 0..3 {
            let tasks = WorkloadSpec::new(12, 1.7)
                .penalty_model(PenaltyModel::UtilizationProportional {
                    scale: 2.0,
                    jitter: 0.5,
                })
                .seed(seed)
                .generate()
                .unwrap();
            let instance = Instance::new(tasks, cpu.clone()).unwrap();
            let lb = fractional_lower_bound(&instance).unwrap();
            let opt = Exhaustive::default().solve(&instance).unwrap();
            opt.verify(&instance).unwrap();
            assert!(
                lb <= opt.cost() + 1e-6 * opt.cost().max(1.0),
                "{name}: lb above OPT"
            );
            for policy in [
                &MarginalGreedy as &dyn RejectionPolicy,
                &SafeGreedy,
                &ScaledDp::new(0.05).unwrap(),
                &BranchBound,
            ] {
                let s = policy.solve(&instance).unwrap();
                s.verify(&instance).unwrap();
                assert!(
                    s.cost() >= opt.cost() - 1e-6 * opt.cost().max(1.0),
                    "{name}/{}: beat the optimum",
                    policy.name()
                );
                if !s.accepted().is_empty() {
                    let report = s.replay(&instance).unwrap();
                    assert!(report.misses().is_empty(), "{name}/{}", policy.name());
                }
            }
        }
    }
}

/// Analytic energy agrees with the simulator across the whole stack,
/// including two-level discrete plans.
#[test]
fn analytic_energy_is_simulator_accurate() {
    for seed in 0..5 {
        let tasks = WorkloadSpec::new(8, 0.9).seed(seed).generate().unwrap();
        for cpu in [xscale_ideal(), xscale_levels(), uniform_levels(4)] {
            let instance = Instance::new(tasks.clone(), cpu).unwrap();
            let sol = MarginalGreedy.solve(&instance).unwrap();
            if sol.accepted().is_empty() {
                continue;
            }
            let report = sol.replay(&instance).unwrap();
            assert!(
                (report.energy() - sol.energy()).abs() < 1e-6 * sol.energy().max(1.0),
                "seed {seed}: simulated {} vs analytic {}",
                report.energy(),
                sol.energy()
            );
        }
    }
}

/// Three tasks sharing the period 1000 (a common deadline): 1250 cycles
/// demanded per period overload the processor, so branch & bound drops the
/// cheap task and the replay of the rest misses no deadline.
#[test]
fn equal_period_overload_drops_the_cheap_task_end_to_end() {
    let tasks = TaskSet::try_from_tasks(vec![
        Task::new(0, 400.0, 1000).unwrap().with_penalty(1500.0),
        Task::new(1, 500.0, 1000).unwrap().with_penalty(1800.0),
        Task::new(2, 350.0, 1000).unwrap().with_penalty(20.0),
    ])
    .unwrap();
    let instance = Instance::new(tasks, xscale_ideal()).unwrap();
    let sol = BranchBound.solve(&instance).unwrap();
    sol.verify(&instance).unwrap();
    assert!(sol.accepts(0.into()) && sol.accepts(1.into()));
    assert!(!sol.accepts(2.into()));
    let report = sol.replay(&instance).unwrap();
    assert_eq!(report.misses().len(), 0);
}

/// The knapsack reduction connects the combinatorial core to the
/// scheduling stack: solving the reduced instance solves the knapsack.
#[test]
fn hardness_reduction_end_to_end() {
    let ks = Knapsack::new(
        vec![
            KnapsackItem {
                weight: 31,
                profit: 70.0,
            },
            KnapsackItem {
                weight: 27,
                profit: 60.0,
            },
            KnapsackItem {
                weight: 42,
                profit: 90.0,
            },
            KnapsackItem {
                weight: 25,
                profit: 55.0,
            },
            KnapsackItem {
                weight: 18,
                profit: 40.0,
            },
        ],
        100,
    )
    .unwrap();
    let dp_opt = ks.solve_exact();
    let instance = ks.to_rejection_instance().unwrap();
    let sched = BranchBound.solve(&instance).unwrap();
    assert!((ks.profit_from_cost(sched.cost()) - dp_opt).abs() < 1e-3);
    // The accepted tasks form a feasible packing.
    let weight: u64 = sched
        .accepted()
        .iter()
        .map(|id| ks.items()[id.index()].weight)
        .sum();
    assert!(weight <= ks.capacity());
}

/// Multiprocessor pipeline: partition + per-CPU rejection + fluid bound +
/// per-processor replay on the simulator.
#[test]
fn multiprocessor_end_to_end() {
    let tasks = WorkloadSpec::new(18, 3.6)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 2.0,
            jitter: 0.5,
        })
        .max_task_utilization(1.0)
        .seed(5)
        .generate()
        .unwrap();
    let sys = MultiInstance::new(tasks, xscale_ideal(), 3).unwrap();
    let lb = fractional_lower_bound_multi(&sys).unwrap();
    let sol =
        solve_partitioned(&sys, PartitionStrategy::LargestTaskFirst, &MarginalGreedy).unwrap();
    sol.verify(&sys).unwrap();
    assert!(sol.cost() >= lb - 1e-6);
    // Replay every processor's accepted bucket.
    for sub in sol.per_processor() {
        if sub.accepted().is_empty() {
            continue;
        }
        let bucket = sys.tasks().subset(sub.accepted()).unwrap();
        let plan = sys.processor().plan(bucket.utilization()).unwrap();
        let report = Simulator::new(&bucket, sys.processor())
            .with_profile(SpeedProfile::from_plan(&plan))
            .run_hyper_period()
            .unwrap();
        assert!(report.misses().is_empty());
    }
}

/// Local search composed over a weak seed closes most of the optimality gap
/// on a hard adversarial instance.
#[test]
fn local_search_recovers_adversarial_instance() {
    // Density order misleads: the big task looks dense but blocks two tasks
    // whose combined penalty exceeds it.
    let tasks = TaskSet::try_from_tasks(vec![
        Task::new(0, 9.0, 10).unwrap().with_penalty(11.0),
        Task::new(1, 5.0, 10).unwrap().with_penalty(7.0),
        Task::new(2, 5.0, 10).unwrap().with_penalty(7.0),
    ])
    .unwrap();
    let instance = Instance::new(tasks, xscale_ideal()).unwrap();
    let opt = Exhaustive::default().solve(&instance).unwrap();
    let polished = LocalSearch::around(MarginalGreedy)
        .solve(&instance)
        .unwrap();
    assert!(
        (polished.cost() - opt.cost()).abs() < 1e-9,
        "local search should find the swap"
    );
}

/// The dormant-mode stack: an accepted set scheduled at the critical speed,
/// slept with procrastination, stays deadline-clean and saves energy over
/// staying awake.
#[test]
fn dormant_procrastination_end_to_end() {
    let cpu = Processor::new(
        PowerFunction::polynomial(0.4, 1.52, 3.0).unwrap(),
        SpeedDomain::continuous(0.0, 1.0).unwrap(),
    )
    .with_idle_mode(IdleMode::Sleep(DormantMode::new(1.0, 3.0).unwrap()));
    let tasks = WorkloadSpec::new(6, 0.25)
        .penalty_model(PenaltyModel::Uniform { lo: 5.0, hi: 9.0 })
        .seed(2)
        .generate()
        .unwrap();
    let instance = Instance::new(tasks, cpu.clone()).unwrap();
    let sol = BranchBound.solve(&instance).unwrap();
    let subset = instance.tasks().subset(sol.accepted()).unwrap();
    assert!(!subset.is_empty());
    let speed = cpu.critical_speed().max(subset.utilization());
    let budget = dvs_rejection::sim::procrastination_budget(&subset, speed);
    let awake = Simulator::new(&subset, &cpu)
        .with_profile(SpeedProfile::constant(speed).unwrap())
        .with_sleep_policy(SleepPolicy::NeverSleep)
        .run_hyper_period()
        .unwrap();
    let proc = Simulator::new(&subset, &cpu)
        .with_profile(SpeedProfile::constant(speed).unwrap())
        .with_sleep_policy(SleepPolicy::Procrastinate { budget })
        .run_hyper_period()
        .unwrap();
    assert!(proc.misses().is_empty());
    assert!(
        proc.energy() < awake.energy(),
        "sleeping should save energy"
    );
}
