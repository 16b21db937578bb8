//! Results: what a run reports, how it is printed, the JSON the driver
//! and `benchmark/out/result.json` carry, and the `--check-repeat`
//! comparison of two runs of the same code.

use std::fmt::Write as _;

use crate::stats::{quartiles, rel_diff};
use crate::workloads::{Gated, Metric, END_TO_END, EXTRA, PER_LAYER};

/// A metric's value over the repetitions of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Median and quartiles over repetitions.
    pub fn over(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            median,
            q1,
            q3,
            samples: values.len(),
        }
    }

    /// A value measured once.
    pub fn single(value: f64) -> Summary {
        Summary::over(&[value])
    }
}

/// One workload's untraced run.
#[derive(Debug, Clone, Default)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub repetitions: usize,
    pub threads: String,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end and extra metrics by name.
    pub metrics: Vec<(Metric, Summary)>,
    /// Median `ops_per_s` as timed, before scaling to nominal machine
    /// speed, and the median speed the scaling used.
    pub raw_ops_per_s: f64,
    pub machine_speed: f64,
    /// Counters that must repeat exactly on one seed.
    pub exact: Vec<(&'static str, f64)>,
    /// `ops_per_s` of each discarded warm-up repetition, in order.
    pub warmup_ops_per_s: Vec<f64>,
    pub errors: Vec<String>,
}

impl Run {
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, s)| s)
    }

    /// Every end-to-end metric has a finite value and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.missing().is_empty()
    }

    /// End-to-end metrics the run could not measure.
    pub fn missing(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .map(|g| g.metric.name)
            .filter(|n| !self.get(n).is_some_and(|s| s.median.is_finite()))
            .collect()
    }
}

/// One workload's traced run: every per-layer metric by name.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    pub workload: &'static str,
    pub seed: u64,
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Traced {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|l| l.metric.name)
            .filter(|n| !self.get(n).is_some_and(f64::is_finite))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.errors.is_empty()
            && self.attempted > 0
            && self.missing().is_empty()
    }
}

fn metric_json(value: f64, unit: &str) -> String {
    format!("{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[String]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The driver's result line of an untraced run: exactly the end-to-end
/// metrics.
pub fn driver_line(run: &Run) -> String {
    let metrics: Vec<String> = END_TO_END
        .iter()
        .filter_map(|g| {
            run.get(g.metric.name).map(|s| {
                format!(
                    "\"{}\":{}",
                    g.metric.name,
                    metric_json(s.median, g.metric.unit)
                )
            })
        })
        .collect();
    result_line(run.correct(), run.attempted, run.failed, &metrics)
}

/// The driver's result line of a traced run: exactly the per-layer
/// metrics.
pub fn driver_line_traced(t: &Traced) -> String {
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .filter_map(|l| {
            t.get(l.metric.name)
                .map(|v| format!("\"{}\":{}", l.metric.name, metric_json(v, l.metric.unit)))
        })
        .collect();
    result_line(t.correct(), t.attempted, t.failed, &metrics)
}

/// Prints a run: every metric by name with unit, median, quartiles and
/// sample count.
pub fn print_run(run: &Run) {
    println!(
        "== {}  seed {}  {} repetition(s)  DVS_THREADS {}  ops_attempted {}  ops_failed {}",
        run.workload, run.seed, run.repetitions, run.threads, run.attempted, run.failed
    );
    for (m, s) in &run.metrics {
        println!(
            "   {:<26} {:>16.4} {:<6} [q1 {:.4}, q3 {:.4}, n {}; {} is better]",
            m.name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.samples,
            m.better.as_str()
        );
    }
    println!(
        "   machine speed {:.3} of nominal; ops_per_s as timed {:.4}",
        run.machine_speed, run.raw_ops_per_s
    );
    for (name, value) in &run.exact {
        println!("   {name:<26} {value:>16} (exact)");
    }
    if !run.warmup_ops_per_s.is_empty() {
        let list: Vec<String> = run
            .warmup_ops_per_s
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect();
        println!("   warm-up ops_per_s          {}", list.join(", "));
    }
    for e in &run.errors {
        println!("   ERROR {e}");
    }
}

/// Prints a traced run: every per-layer metric with the end-to-end metric
/// it should move, or (`all = false`, the suite's later workloads, whose
/// ladder is the same walk) only the workload's own `trace.*` lines.
pub fn print_traced(t: &Traced, all: bool) {
    println!(
        "== {} (traced)  seed {}  ops_attempted {}  ops_failed {}",
        t.workload, t.seed, t.attempted, t.failed
    );
    for l in PER_LAYER
        .iter()
        .filter(|l| all || l.metric.name.starts_with("trace."))
    {
        if let Some(v) = t.get(l.metric.name) {
            println!(
                "   {:<30} {:>16.4} {:<6} -> {}",
                l.metric.name, v, l.metric.unit, l.moves
            );
        }
    }
    for e in &t.errors {
        println!("   ERROR {e}");
    }
}

/// `benchmark/out/result.json`: everything a suite run measured.
pub fn suite_json(seed: u64, quick: bool, runs: &[Run], traced: &[Traced]) -> String {
    let mut out = String::new();
    let cores = crate::stack::allowed_cpus().len();
    let _ = write!(
        out,
        "{{\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \"workloads\": ["
    );
    for (i, run) in runs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\n      \"name\": \"{}\",\n      \"repetitions\": {},\n      \"dvs_threads\": \"{}\",\n      \"correct\": {},\n      \"ops_attempted\": {},\n      \"ops_failed\": {},\n      \"end_to_end\": {{",
            run.workload,
            run.repetitions,
            run.threads,
            run.correct(),
            run.attempted,
            run.failed
        );
        for (j, (m, s)) in run.metrics.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                m.name, s.median, m.unit, s.q1, s.q3, s.samples
            );
        }
        out.push_str("\n      },\n      \"exact\": {");
        let exact: Vec<String> = run
            .exact
            .iter()
            .map(|(n, v)| format!("\"{n}\": {v}"))
            .collect();
        out.push_str(&exact.join(", "));
        let warm: Vec<String> = run.warmup_ops_per_s.iter().map(f64::to_string).collect();
        let _ = write!(
            out,
            "}},\n      \"machine_speed\": {},\n      \"ops_per_s_as_timed\": {},\n      \"warmup_ops_per_s\": [{}],\n      \"per_layer\": {{",
            run.machine_speed,
            run.raw_ops_per_s,
            warm.join(", ")
        );
        if let Some(t) = traced.iter().find(|t| t.workload == run.workload) {
            for (j, (n, v)) in t.values.iter().enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let unit = PER_LAYER
                    .iter()
                    .find(|l| l.metric.name == *n)
                    .map_or("", |l| l.metric.unit);
                let _ = write!(
                    out,
                    "{sep}\n        \"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        let errors: Vec<String> = run
            .errors
            .iter()
            .chain(
                traced
                    .iter()
                    .filter(|t| t.workload == run.workload)
                    .flat_map(|t| t.errors.iter()),
            )
            .map(|e| format!("\"{}\"", dvs_admit::json::escape(e)))
            .collect();
        let _ = write!(
            out,
            "\n      }},\n      \"errors\": [{}]\n    }}",
            errors.join(", ")
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The bound `--check-repeat` holds a metric to, and whether it is gated
/// on `workload` at all.
fn gates(workload: &str) -> Vec<Gated> {
    let mut out: Vec<Gated> = END_TO_END.to_vec();
    out.extend(
        EXTRA
            .iter()
            .filter(|(_, on)| on.contains(&workload))
            .map(|(g, _)| *g),
    );
    out
}

/// A metric whose two same-code sets differ by more than this is demoted
/// to a per-layer metric: still printed, not gated.
pub const DEMOTE_ABOVE: f64 = 0.10;

/// Compares two suite runs of the same code and seed. Prints the
/// per-metric relative difference against each bound and returns how many
/// gated metrics or exact counters disagree.
pub fn check_repeat(
    first: &[Run],
    second: &[Run],
    first_traced: &[Traced],
    second_traced: &[Traced],
) -> usize {
    let mut disagreements = 0;
    println!("== check-repeat: two sets of runs of the same code and seed");
    for (a, b) in first.iter().zip(second) {
        for g in gates(a.workload) {
            let (Some(x), Some(y)) = (a.get(g.metric.name), b.get(g.metric.name)) else {
                println!("   {:<14} {:<26} missing", a.workload, g.metric.name);
                disagreements += 1;
                continue;
            };
            let diff = rel_diff(x.median, y.median);
            // setup_s carries the largest bound and is never demoted: a
            // later change is held to it whatever its own noise.
            let verdict = if diff <= g.bound {
                "ok"
            } else if diff > DEMOTE_ABOVE && g.metric.name != "setup_s" && g.bound > 0.0 {
                "DEMOTED (printed, not gated)"
            } else {
                disagreements += 1;
                "DISAGREES"
            };
            println!(
                "   {:<14} {:<26} {:>14.4} vs {:>14.4}  diff {:>7.3}%  bound {:>5.1}%  {verdict}",
                a.workload,
                g.metric.name,
                x.median,
                y.median,
                diff * 100.0,
                g.bound * 100.0
            );
        }
        for ((name, x), (_, y)) in a.exact.iter().zip(&b.exact) {
            if x != y {
                println!(
                    "   {:<14} {name:<26} {x} vs {y}  EXACT COUNTER DIFFERS",
                    a.workload
                );
                disagreements += 1;
            }
        }
    }
    for (a, b) in first_traced.iter().zip(second_traced) {
        for l in PER_LAYER.iter().filter(|l| l.exact) {
            let (x, y) = (a.get(l.metric.name), b.get(l.metric.name));
            if x != y {
                println!(
                    "   {:<14} {:<26} {x:?} vs {y:?}  EXACT COUNTER DIFFERS",
                    a.workload, l.metric.name
                );
                disagreements += 1;
            }
        }
    }
    println!("   {disagreements} disagreement(s)");
    disagreements
}
