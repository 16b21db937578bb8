//! Non-ideal processors: rejection scheduling on real frequency tables.
//!
//! Scenario: the same overloaded workload deployed on (a) an ideal
//! continuous-speed core, (b) the 5-step XScale frequency table, and
//! (c) a crude 2-step governor. Shows the two-adjacent-level split at work
//! and how coarser tables raise both energy and the value of rejection.
//!
//! ```text
//! cargo run --example discrete_levels
//! ```

use dvs_rejection::model::generator::{PenaltyModel, WorkloadSpec};
use dvs_rejection::power::presets::{uniform_levels, xscale_ideal, xscale_levels};
use dvs_rejection::sched::algorithms::BranchBound;
use dvs_rejection::sched::{Instance, RejectionPolicy};
use dvs_rejection::sim::SpeedProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tasks = WorkloadSpec::new(10, 1.3)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 2.5,
            jitter: 0.4,
        })
        .seed(3)
        .generate()?;
    let cpus = [
        ("ideal continuous", xscale_ideal()),
        ("xscale 5-level", xscale_levels()),
        ("2-level governor", uniform_levels(2)),
    ];
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>22}",
        "speed domain", "accepted", "energy", "cost", "plan"
    );
    for (name, cpu) in cpus {
        let instance = Instance::new(tasks.clone(), cpu)?;
        let sol = BranchBound.solve(&instance)?;
        sol.verify(&instance)?;
        let plan = sol.plan(&instance)?;
        let plan_desc = plan
            .as_ref()
            .map(|p| {
                p.segments()
                    .iter()
                    .map(|s| format!("{:.2}@{:.2}", s.speed, s.fraction))
                    .collect::<Vec<_>>()
                    .join(" + ")
            })
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<18} {:>6}/{:<2} {:>9.3} {:>9.3} {:>22}",
            name,
            sol.accepted().len(),
            instance.len(),
            sol.energy(),
            sol.cost(),
            plan_desc
        );
        // Replay the two-level plan on the simulator to show it is real.
        if let Some(plan) = &plan {
            let subset = instance.tasks().subset(sol.accepted())?;
            let report = dvs_rejection::sim::Simulator::new(&subset, instance.processor())
                .with_profile(SpeedProfile::from_plan(plan))
                .run_hyper_period()?;
            assert!(report.misses().is_empty(), "replay must meet deadlines");
        }
    }
    println!("\n(plan column: speed@time-share segments of the optimal execution plan)");
    Ok(())
}
