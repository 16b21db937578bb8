//! Quickstart: build a workload, solve the rejection problem with several
//! algorithms, verify and replay the best solution.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dvs_rejection::model::generator::{PenaltyModel, WorkloadSpec};
use dvs_rejection::power::presets::xscale_ideal;
use dvs_rejection::sched::algorithms::{
    AcceptAllFeasible, BranchBound, MarginalGreedy, RejectAll, ScaledDp,
};
use dvs_rejection::sched::{Instance, RejectionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 12 periodic tasks demanding 180% of the processor: rejection is forced.
    let tasks = WorkloadSpec::new(12, 1.8)
        .penalty_model(PenaltyModel::UtilizationProportional {
            scale: 2.0,
            jitter: 0.5,
        })
        .seed(42)
        .generate()?;
    let instance = Instance::new(tasks, xscale_ideal())?;
    println!("instance: {instance}");
    println!(
        "overloaded: {} (demand {:.2} vs s_max {:.2})\n",
        instance.is_overloaded(),
        instance.total_utilization(),
        instance.processor().max_speed()
    );

    let policies: Vec<Box<dyn RejectionPolicy>> = vec![
        Box::new(RejectAll),
        Box::new(AcceptAllFeasible),
        Box::new(MarginalGreedy),
        Box::new(ScaledDp::new(0.05)?),
        Box::new(BranchBound),
    ];
    println!(
        "{:<22} {:>9} {:>10} {:>10} {:>10}",
        "algorithm", "accepted", "energy", "penalty", "cost"
    );
    let mut best: Option<dvs_rejection::sched::Solution> = None;
    for p in &policies {
        let s = p.solve(&instance)?;
        s.verify(&instance)?;
        println!(
            "{:<22} {:>6}/{:<2} {:>10.3} {:>10.3} {:>10.3}",
            p.name(),
            s.accepted().len(),
            instance.len(),
            s.energy(),
            s.penalty(),
            s.cost()
        );
        if best.as_ref().is_none_or(|b| s.cost() < b.cost()) {
            best = Some(s);
        }
    }

    // Replay the winner on the cycle-accurate EDF simulator.
    let best = best.expect("at least one policy ran");
    let report = best.replay(&instance)?;
    println!(
        "\nreplayed `{}` on the EDF simulator: {} jobs completed, {} deadline misses,",
        best.algorithm(),
        report.completed_jobs(),
        report.misses().len()
    );
    println!(
        "measured energy {:.3} vs analytic {:.3} over one hyper-period of {} ticks",
        report.energy(),
        best.energy(),
        instance.hyper_period()
    );
    Ok(())
}
