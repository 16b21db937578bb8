//! Overload triage for a media server.
//!
//! Scenario: a streaming appliance decodes subscriber channels. Each
//! channel is a periodic task (frame decode every period); its rejection
//! penalty models the refund paid if the channel is dropped. During a flash
//! event the subscribed workload reaches 2.5× processor capacity and the
//! admission controller must pick which channels to serve — trading refund
//! money against the energy bill of the DVS processor.
//!
//! ```text
//! cargo run --example overload_triage
//! ```

use dvs_rejection::model::{Task, TaskSet};
use dvs_rejection::power::presets::xscale_ideal;
use dvs_rejection::sched::algorithms::{BranchBound, MarginalGreedy};
use dvs_rejection::sched::bounds::fractional_lower_bound;
use dvs_rejection::sched::{Instance, RejectionPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (name, cycles per frame, frame period in ticks, refund per hyper-period, ×3 scaled)
    let channels = [
        ("news-sd", 12.0, 100, 30.0),
        ("news-hd", 45.0, 100, 55.0),
        ("sports-hd", 60.0, 100, 160.0),
        ("sports-4k", 140.0, 200, 220.0),
        ("movies-sd", 15.0, 100, 18.0),
        ("movies-hd", 50.0, 100, 60.0),
        ("kids-sd", 10.0, 50, 26.0),
        ("docu-hd", 40.0, 100, 35.0),
        ("music-sd", 8.0, 50, 20.0),
        ("shopping-sd", 14.0, 100, 2.0),
    ];
    let tasks = TaskSet::try_from_tasks(
        channels
            .iter()
            .enumerate()
            .map(|(i, &(_, c, p, v))| Task::new(i, c, p).map(|t| t.with_penalty(3.0 * v)))
            .collect::<Result<Vec<_>, _>>()?,
    )?;
    let instance = Instance::new(tasks, xscale_ideal())?;
    println!("{instance}");
    println!(
        "flash crowd: demand {:.2}× capacity\n",
        instance.total_utilization() / instance.processor().max_speed()
    );

    let greedy = MarginalGreedy.solve(&instance)?;
    let exact = BranchBound.solve(&instance)?;
    let bound = fractional_lower_bound(&instance)?;

    println!(
        "{:<14} {:>8} {:>9} {:>8}",
        "channel", "demand", "refund", "served?"
    );
    for (i, &(name, c, p, v)) in channels.iter().enumerate() {
        let u = c / p as f64;
        println!(
            "{:<14} {:>8.3} {:>9.1} {:>8}",
            name,
            u,
            v,
            if exact.accepts(i.into()) {
                "yes"
            } else {
                "DROP"
            }
        );
    }
    println!(
        "\ngreedy cost {:.2}  |  optimal cost {:.2}  |  fractional bound {:.2}",
        greedy.cost(),
        exact.cost(),
        bound
    );
    let report = exact.replay(&instance)?;
    println!(
        "optimal line-up replayed: {} frames decoded, {} misses, energy {:.2}",
        report.completed_jobs(),
        report.misses().len(),
        report.energy()
    );
    Ok(())
}
