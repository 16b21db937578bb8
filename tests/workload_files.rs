//! The shipped sample workload files stay parseable and solvable — the
//! contract behind the `dvs-reject` CLI walkthroughs in the README.

use dvs_rejection::model::io::{format_task_set, load_task_set, parse_task_set};
use dvs_rejection::power::presets::xscale_ideal;
use dvs_rejection::sched::algorithms::BranchBound;
use dvs_rejection::sched::constrained::ConstrainedInstance;
use dvs_rejection::sched::{Instance, RejectionPolicy};

#[test]
fn media_server_workload_round_trips_and_solves() {
    let tasks = load_task_set("examples/workloads/media_server.tasks").unwrap();
    assert_eq!(tasks.len(), 10);
    assert!(tasks.iter().all(rt_model_is_implicit));
    let again = parse_task_set(&format_task_set(&tasks)).unwrap();
    assert_eq!(tasks, again);

    let instance = Instance::new(tasks, xscale_ideal()).unwrap();
    assert!(instance.is_overloaded());
    let sol = BranchBound.solve(&instance).unwrap();
    sol.verify(&instance).unwrap();
    assert!(!sol.accepted().is_empty());
    let report = sol.replay(&instance).unwrap();
    assert!(report.misses().is_empty());
}

#[test]
fn control_loops_workload_uses_the_yds_oracle() {
    let tasks = load_task_set("examples/workloads/control_loops.tasks").unwrap();
    assert!(tasks.iter().any(|t| !t.is_implicit_deadline()));
    let inst = ConstrainedInstance::new(tasks, xscale_ideal()).unwrap();
    let greedy = inst.solve_greedy().unwrap();
    let opt = inst.solve_exhaustive().unwrap();
    greedy.verify(&inst).unwrap();
    opt.verify(&inst).unwrap();
    assert!(greedy.cost() >= opt.cost() - 1e-9);
    let report = opt.replay(&inst).unwrap();
    assert!(report.misses().is_empty());
}

fn rt_model_is_implicit(t: &dvs_rejection::model::Task) -> bool {
    t.is_implicit_deadline()
}
