//! `dvs-reject` — command-line front end for the rejection scheduler.
//!
//! ```text
//! dvs-reject <taskset-file> [--alg ALG] [--power MODEL] [--levels K] [--budget N]
//!            [--replay] [--all]
//!
//!   ALG:   greedy (default) | sweep | dp | bb | exhaustive | anneal |
//!          local | accept-all | reject-all
//!   MODEL: xscale (default, P = 0.08 + 1.52 s³) | cubic (P = s³) |
//!          xscale-table (measured 5-level table)
//!   --levels K   quantise the speed domain to K even levels
//!   --budget N   anytime solve: cap bb/dp at N work units (nodes / DP
//!                cells), returning the flagged best incumbent on expiry
//!   --replay     validate the solution on the EDF simulator
//!   --all        print a comparison table of every algorithm
//! ```
//!
//! The task-set file format is documented in `rt_model::io` (one task per
//! line: `id cycles period deadline penalty`, `-` for implicit deadlines).

use std::process::ExitCode;

use dvs_rejection::model::io::load_task_set;
use dvs_rejection::power::presets::by_name;
use dvs_rejection::power::{Processor, SpeedDomain};
use dvs_rejection::sched::algorithms::{
    AcceptAllFeasible, BranchBound, DensitySweep, Exhaustive, LocalSearch, MarginalGreedy,
    RejectAll, ScaledDp, SimulatedAnnealing,
};
use dvs_rejection::sched::anytime::{AnytimeSolution, BudgetedPolicy, SolveBudget, SolveQuality};
use dvs_rejection::sched::constrained::ConstrainedInstance;
use dvs_rejection::sched::{Instance, RejectionPolicy};

fn policy(name: &str) -> Result<Box<dyn RejectionPolicy>, String> {
    Ok(match name {
        "greedy" => Box::new(MarginalGreedy),
        "sweep" => Box::new(DensitySweep),
        "dp" => Box::new(ScaledDp::new(0.05).map_err(|e| e.to_string())?),
        "bb" => Box::new(BranchBound),
        "exhaustive" => Box::new(Exhaustive::default()),
        "anneal" => Box::new(SimulatedAnnealing::new(0)),
        "local" => Box::new(LocalSearch::around(MarginalGreedy)),
        "accept-all" => Box::new(AcceptAllFeasible),
        "reject-all" => Box::new(RejectAll),
        _ => return Err(format!("unknown algorithm {name} (see --help)")),
    })
}

/// The budgeted (anytime) solver for `--budget`, where one exists.
fn budgeted(name: &str) -> Result<Box<dyn BudgetedPolicy>, String> {
    Ok(match name {
        "dp" => Box::new(ScaledDp::new(0.05).map_err(|e| e.to_string())?),
        "bb" => Box::new(BranchBound),
        _ => return Err(format!("--budget applies only to bb and dp, not {name}")),
    })
}

fn processor(model: &str, levels: Option<usize>) -> Result<Processor, String> {
    let base = by_name(model).ok_or_else(|| format!("unknown power model {model} (see --help)"))?;
    let Some(k) = levels else {
        return Ok(base);
    };
    if base.domain().levels().is_some() {
        return Err(format!(
            "--levels quantises a continuous-speed model; {model} already has fixed levels"
        ));
    }
    let levels: Vec<f64> = (1..=k).map(|i| i as f64 / k as f64).collect();
    let domain = SpeedDomain::discrete(levels).map_err(|e| format!("--levels {k}: {e}"))?;
    Ok(Processor::new(*base.power(), domain))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut alg = "greedy".to_string();
    let mut model = "xscale".to_string();
    let mut levels = None;
    let mut budget: Option<u64> = None;
    let mut replay = false;
    let mut all = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--alg" => alg = it.next().ok_or("--alg needs a value")?.clone(),
            "--power" => model = it.next().ok_or("--power needs a value")?.clone(),
            "--levels" => {
                levels = Some(
                    it.next()
                        .ok_or("--levels needs a value")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --levels: {e}"))?,
                );
            }
            "--budget" => {
                budget = Some(
                    it.next()
                        .ok_or("--budget needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --budget: {e}"))?,
                );
            }
            "--replay" => replay = true,
            "--all" => all = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: dvs-reject <taskset-file> [--alg ALG] [--power xscale|cubic|xscale-table] \
                     [--levels K] [--budget N] [--replay] [--all]"
                );
                return Ok(());
            }
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let file = file.ok_or("missing task-set file (see --help)")?;
    let tasks = load_task_set(&file).map_err(|e| e.to_string())?;
    let cpu = processor(&model, levels)?;

    // Constrained deadlines need the YDS-based oracle, not the scalar one.
    if tasks.iter().any(|t| !t.is_implicit_deadline()) {
        let inst = ConstrainedInstance::new(tasks, cpu).map_err(|e| e.to_string())?;
        println!(
            "constrained-deadline instance: n = {}, L = {} (YDS oracle; --alg is ignored, \
             greedy + exhaustive run)",
            inst.tasks().len(),
            inst.hyper_period()
        );
        let greedy = inst.solve_greedy().map_err(|e| e.to_string())?;
        greedy.verify(&inst).map_err(|e| e.to_string())?;
        println!(
            "{:<20} accepted {:>2}/{:<2}  energy {:>10.4}  penalty {:>10.4}  cost {:>10.4}",
            "constrained-greedy",
            greedy.accepted().len(),
            inst.tasks().len(),
            greedy.energy(),
            greedy.penalty(),
            greedy.cost()
        );
        if inst.tasks().len() <= 15 {
            let opt = inst.solve_exhaustive().map_err(|e| e.to_string())?;
            println!(
                "{:<20} accepted {:>2}/{:<2}  energy {:>10.4}  penalty {:>10.4}  cost {:>10.4}",
                "constrained-optimal",
                opt.accepted().len(),
                inst.tasks().len(),
                opt.energy(),
                opt.penalty(),
                opt.cost()
            );
            if replay && !opt.accepted().is_empty() {
                let report = opt.replay(&inst).map_err(|e| e.to_string())?;
                println!(
                    "replay: {} jobs completed, {} misses, measured energy {:.4}",
                    report.completed_jobs(),
                    report.misses().len(),
                    report.energy()
                );
            }
        }
        return Ok(());
    }

    let instance = Instance::new(tasks, cpu).map_err(|e| e.to_string())?;
    println!("{instance}");

    if budget.is_some() && all {
        return Err("--budget cannot be combined with --all".to_string());
    }
    let algs: Vec<String> = if all {
        ["greedy", "sweep", "dp", "bb", "accept-all", "reject-all"]
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    } else {
        vec![alg]
    };
    for name in &algs {
        let solution = if let Some(n) = budget {
            let p = budgeted(name)?;
            let AnytimeSolution {
                solution,
                quality,
                nodes_used,
            } = p
                .solve_within(&instance, &SolveBudget::nodes(n))
                .map_err(|e| format!("{name}: {e}"))?;
            let label = match quality {
                SolveQuality::Exact => "exact",
                SolveQuality::Degraded => "degraded (budget expired; best incumbent)",
            };
            println!("anytime: {nodes_used} work units used, result {label}");
            solution
        } else {
            policy(name)?
                .solve(&instance)
                .map_err(|e| format!("{name}: {e}"))?
        };
        solution
            .verify(&instance)
            .map_err(|e| format!("{name}: {e}"))?;
        println!(
            "{:<20} accepted {:>2}/{:<2}  energy {:>10.4}  penalty {:>10.4}  cost {:>10.4}",
            solution.algorithm(),
            solution.accepted().len(),
            instance.len(),
            solution.energy(),
            solution.penalty(),
            solution.cost()
        );
        if !all {
            let rejected = solution.rejected(&instance);
            if !rejected.is_empty() {
                let list: Vec<String> = rejected.iter().map(ToString::to_string).collect();
                println!("rejected: {}", list.join(", "));
            }
            if replay && !solution.accepted().is_empty() {
                let report = solution.replay(&instance).map_err(|e| e.to_string())?;
                println!(
                    "replay: {} jobs completed, {} misses, measured energy {:.4}",
                    report.completed_jobs(),
                    report.misses().len(),
                    report.energy()
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
