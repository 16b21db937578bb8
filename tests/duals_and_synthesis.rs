//! Integration tests tying the primal rejection problem to its duals:
//! energy budgets, acceptance prices, capacity values, and processor-count
//! synthesis.

use dvs_rejection::model::generator::{PenaltyModel, WorkloadSpec};
use dvs_rejection::model::transform;
use dvs_rejection::multi::synthesis::{energy_floor, min_processors};
use dvs_rejection::power::presets::{cubic_ideal, xscale_ideal};
use dvs_rejection::sched::algorithms::BranchBound;
use dvs_rejection::sched::analysis::{acceptance_price, capacity_value};
use dvs_rejection::sched::budget::{solve_budget_dp, utilization_cap_for_budget};
use dvs_rejection::sched::{Instance, RejectionPolicy};
use rt_model::Task;

/// Weak duality across the whole stack: for every budget, the value served
/// by the budget DP plus the penalties of the tasks it leaves out is an
/// upper bound certificate consistent with the primal optimum.
#[test]
fn budget_frontier_brackets_the_primal_optimum() {
    for seed in 0..4 {
        let tasks = WorkloadSpec::new(12, 1.8).seed(seed).generate().unwrap();
        let inst = Instance::new(tasks, xscale_ideal()).unwrap();
        let primal = BranchBound.solve(&inst).unwrap();
        // Pose the dual at the primal's own energy: it must shelter at
        // least as much value as the primal does.
        let dual = solve_budget_dp(&inst, primal.energy() * (1.0 + 1e-9), 0.01).unwrap();
        let primal_served = inst.total_penalty() - primal.penalty();
        let v_max = inst.tasks().iter().map(Task::penalty).fold(0.0, f64::max);
        assert!(
            dual.value() >= primal_served - 0.01 * v_max - 1e-6,
            "seed {seed}: dual value {} below primal served {primal_served}",
            dual.value()
        );
        // And the primal cost decomposes as E + (V_total − served).
        assert!(
            (primal.cost() - (primal.energy() + inst.total_penalty() - primal_served)).abs() < 1e-9
        );
    }
}

/// Acceptance prices are consistent with the primal optimum: tasks priced
/// well below their actual penalty are accepted, tasks priced well above
/// are rejected.
#[test]
fn acceptance_prices_predict_the_optimal_decisions() {
    let tasks = WorkloadSpec::new(8, 1.2)
        .penalty_model(PenaltyModel::Uniform { lo: 0.1, hi: 1.2 })
        .seed(3)
        .generate()
        .unwrap();
    let inst = Instance::new(tasks, cubic_ideal()).unwrap();
    let opt = BranchBound.solve(&inst).unwrap();
    for t in inst.tasks().iter() {
        let Some(price) = acceptance_price(&inst, t.id(), 1e-4).unwrap() else {
            assert!(!opt.accepts(t.id()));
            continue;
        };
        if t.penalty() > price + 1e-3 {
            assert!(
                opt.accepts(t.id()),
                "{} priced {price} < v {} but rejected",
                t.id(),
                t.penalty()
            );
        }
        if t.penalty() < price - 1e-3 {
            assert!(
                !opt.accepts(t.id()),
                "{} priced {price} > v {} but accepted",
                t.id(),
                t.penalty()
            );
        }
    }
}

/// The capacity value matches a finite-difference of the budget frontier:
/// scaling the load down is equivalent to scaling capacity up.
#[test]
fn capacity_value_consistent_with_load_scaling() {
    let tasks = WorkloadSpec::new(10, 2.0)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 20.0,
            jitter: 0.2,
        })
        .seed(2)
        .generate()
        .unwrap();
    let inst = Instance::new(tasks.clone(), xscale_ideal()).unwrap();
    let v = capacity_value(&inst, 0.05).unwrap();
    assert!(v > 0.0);
    // Equivalent view: shrink every task by 1/(1+δ) — cost must fall by at
    // least as much as the capacity value predicts for small δ (energy of
    // the boosted processor differs only through the speed range).
    let shrunk = transform::scale_load(&tasks, 1.0 / 1.05).unwrap();
    let inst2 = Instance::new(shrunk, xscale_ideal()).unwrap();
    let c1 = BranchBound.solve(&inst).unwrap().cost();
    let c2 = BranchBound.solve(&inst2).unwrap().cost();
    assert!(c2 < c1, "shrinking demand must reduce the optimal cost");
}

/// Synthesis sanity chain: the count at the floor budget serves every task
/// at (near) the critical speed, and generous budgets recover the capacity
/// bound; the budget inversion agrees with the per-processor oracle.
#[test]
fn synthesis_and_budget_inversion_agree_with_the_oracles() {
    let cpu = xscale_ideal();
    let tasks = WorkloadSpec::new(12, 2.2)
        .max_task_utilization(1.0)
        .seed(7)
        .generate()
        .unwrap();
    let floor = energy_floor(&tasks, &cpu).unwrap();
    let at_floor = min_processors(&tasks, &cpu, floor * (1.0 + 1e-6), 64)
        .unwrap()
        .expect("floor budget is reachable with enough processors");
    let generous = min_processors(&tasks, &cpu, f64::INFINITY, 64)
        .unwrap()
        .unwrap();
    assert!(at_floor.processors() >= generous.processors());
    assert_eq!(generous.processors(), 3); // ⌈2.2⌉

    // Budget inversion on one of those processors: the cap at the energy
    // of serving u equals u (round trip through E*).
    let inst = Instance::new(tasks, cpu).unwrap();
    for &u in &[0.2, 0.5, 0.9] {
        let e = inst.energy_for(u).unwrap();
        let cap = utilization_cap_for_budget(&inst, e).unwrap();
        assert!(
            (cap - u).abs() < 1e-6,
            "round trip failed at u = {u}: cap {cap}"
        );
    }
}
