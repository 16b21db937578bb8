//! Property-style coverage for `reject_sched::online`: the threshold
//! family's relationship to the myopic greedy rule on generated workloads.
//!
//! Two properties are pinned:
//!
//! * `ThresholdPolicy{θ=1}` is *extensionally equal* to [`OnlineGreedy`]:
//!   identical decisions on every generated workload, load level, and
//!   arrival order (forward, reversed, shuffled).
//! * θ > 1 is *monotonically more conservative*: at any committed
//!   utilization, any task a higher-θ policy admits is also admitted by
//!   every lower-θ policy (the admit predicate is antitone in θ), and in
//!   the limit a huge θ admits nothing with positive marginal energy.

use dvs_power::presets::{cubic_ideal, xscale_ideal};
use reject_sched::online::{run_online, AdmissionPolicy, OnlineGreedy, ThresholdPolicy};
use reject_sched::Instance;
use rt_model::generator::WorkloadSpec;
use rt_model::rng::Rng;
use rt_model::{Task, TaskId};

fn generated_instances() -> Vec<Instance> {
    let mut out = Vec::new();
    for &load in &[0.6, 1.2, 1.8, 2.6] {
        for seed in 0..6u64 {
            let tasks = WorkloadSpec::new(14, load).seed(seed).generate().unwrap();
            let cpu = if seed % 2 == 0 {
                cubic_ideal()
            } else {
                xscale_ideal()
            };
            out.push(Instance::new(tasks, cpu).unwrap());
        }
    }
    out
}

/// Deterministic Fisher–Yates shuffle of the instance's arrival order.
fn shuffled_order(instance: &Instance, seed: u64) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = instance.tasks().iter().map(Task::id).collect();
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

#[test]
fn theta_one_decides_identically_to_online_greedy() {
    for instance in generated_instances() {
        let theta_one = ThresholdPolicy::new(1.0).unwrap();
        let forward: Vec<TaskId> = instance.tasks().iter().map(Task::id).collect();
        let reversed: Vec<TaskId> = forward.iter().rev().copied().collect();
        let shuffled = shuffled_order(&instance, 42);
        for order in [&forward, &reversed, &shuffled] {
            let greedy = run_online(&instance, order, &OnlineGreedy).unwrap();
            let hedged = run_online(&instance, order, &theta_one).unwrap();
            assert_eq!(
                greedy.accepted(),
                hedged.accepted(),
                "θ=1 diverged from online-greedy on {instance}"
            );
            assert_eq!(greedy.cost().to_bits(), hedged.cost().to_bits());
        }
    }
}

#[test]
fn higher_theta_is_decisionwise_more_conservative() {
    let thetas = [1.0, 1.25, 1.5, 2.0, 4.0, 16.0];
    for instance in generated_instances() {
        let (cpu, horizon) = (instance.processor(), instance.hyper_period());
        let s_max = cpu.max_speed();
        // Sample committed-utilization levels across the feasible band.
        for k in 0..8 {
            let u = s_max * k as f64 / 10.0;
            for task in instance.tasks().iter() {
                let mut prev_admitted = true;
                for &theta in &thetas {
                    let policy = ThresholdPolicy::new(theta).unwrap();
                    let admitted = policy.admit(cpu, horizon, u, task).unwrap();
                    assert!(
                        prev_admitted || !admitted,
                        "θ={theta} admitted {} at u={u:.2} after a lower θ rejected it",
                        task.id()
                    );
                    prev_admitted = admitted;
                }
            }
        }
    }
}

#[test]
fn extreme_theta_rejects_every_costly_task() {
    for instance in generated_instances() {
        let order: Vec<TaskId> = instance.tasks().iter().map(Task::id).collect();
        let policy = ThresholdPolicy::new(1e12).unwrap();
        let s = run_online(&instance, &order, &policy).unwrap();
        // Only tasks with (numerically) zero marginal energy can survive an
        // effectively infinite hedge.
        for id in s.accepted() {
            let t = instance.tasks().get(*id).unwrap();
            assert!(
                instance.marginal_energy(0.0, t.utilization()).unwrap() < 1e-9,
                "θ→∞ accepted a task with positive marginal energy"
            );
        }
    }
}

#[test]
fn conservatism_shows_up_as_lower_commitment_on_average() {
    // Decision-wise conservatism does not force set inclusion run-by-run
    // (trajectories diverge), but averaged over workloads the committed
    // utilization must be non-increasing in θ. This pins the run-level
    // direction of the hedge without overclaiming a pointwise property.
    let thetas = [1.0, 1.5, 2.0, 4.0];
    let mut avg = vec![0.0f64; thetas.len()];
    let instances = generated_instances();
    for instance in &instances {
        let order: Vec<TaskId> = instance.tasks().iter().map(Task::id).collect();
        for (k, &theta) in thetas.iter().enumerate() {
            let policy = ThresholdPolicy::new(theta).unwrap();
            let s = run_online(instance, &order, &policy).unwrap();
            avg[k] += instance.utilization_of(s.accepted()).unwrap();
        }
    }
    for a in &mut avg {
        *a /= instances.len() as f64;
    }
    for w in avg.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "average committed utilization increased with θ: {avg:?}"
        );
    }
}
