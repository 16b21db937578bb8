//! Online admission control: tasks arrive one at a time.
//!
//! Scenario: a gateway accepts periodic client flows as they subscribe.
//! Decisions are irrevocable; compare the myopic marginal rule and hedged
//! thresholds against the offline optimum computed in hindsight.
//!
//! ```text
//! cargo run --example admission_control
//! ```

use dvs_rejection::model::generator::{PenaltyModel, WorkloadSpec};
use dvs_rejection::model::Task;
use dvs_rejection::power::presets::xscale_ideal;
use dvs_rejection::sched::algorithms::BranchBound;
use dvs_rejection::sched::online::{run_online, AdmissionPolicy, OnlineGreedy, ThresholdPolicy};
use dvs_rejection::sched::{Instance, RejectionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tasks = WorkloadSpec::new(16, 2.0)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 2.0,
            jitter: 0.6,
        })
        .seed(13)
        .generate()?;
    let instance = Instance::new(tasks, xscale_ideal())?;
    let order: Vec<_> = instance.tasks().iter().map(Task::id).collect();
    println!("{instance}\narrival order = generation order; demand 2.0× capacity\n");

    let offline = BranchBound.solve(&instance)?;
    println!(
        "{:<22} {:>9} {:>10} {:>9}",
        "policy", "accepted", "cost", "vs OPT"
    );
    println!(
        "{:<22} {:>6}/{:<2} {:>10.2} {:>9.3}",
        "offline optimum",
        offline.accepted().len(),
        instance.len(),
        offline.cost(),
        1.0
    );
    let hedged15 = ThresholdPolicy::new(1.5)?;
    let hedged20 = ThresholdPolicy::new(2.0)?;
    let policies: Vec<&dyn AdmissionPolicy> = vec![&OnlineGreedy, &hedged15, &hedged20];
    let labels = ["online-greedy (θ=1)", "threshold θ=1.5", "threshold θ=2.0"];
    for (policy, label) in policies.iter().zip(labels) {
        let s = run_online(&instance, &order, *policy)?;
        s.verify(&instance)?;
        println!(
            "{:<22} {:>6}/{:<2} {:>10.2} {:>9.3}",
            label,
            s.accepted().len(),
            instance.len(),
            s.cost(),
            s.cost() / offline.cost()
        );
    }
    println!("\n(hedging reserves capacity for denser flows that arrive later)");
    Ok(())
}
