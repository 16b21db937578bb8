//! `dvs-bench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--seed S]
//!     [--workload NAME] [--seconds T] [--trace 0|1] [--quick] [--check-repeat]
//! ```
//!
//! Run from the repository root. Without `--workload` the whole suite runs
//! (every workload untraced, then traced) and `benchmark/out/result.json`
//! and `benchmark/out/trace-<workload>.jsonl` are written. With
//! `--workload` one workload runs, untraced (`--trace 0`, end-to-end
//! metrics) or traced (`--trace 1`, per-layer metrics), and the last line
//! of standard output is the driver's result object. See
//! `benchmark/README.md`.

mod ladder;
mod offline;
mod oracle;
mod report;
mod serve;
mod session;
mod span;
mod stack;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Run, Summary, Traced};
use serve::Ctx;
use workloads::{
    Kind, Metric, Serve, Workload, END_TO_END, EXTRA, MIN_REPETITIONS, WARMUP_SECONDS, WORKLOADS,
    WORKLOAD_CAP_SECONDS,
};

/// Times a run generates its inputs (and their oracle or references).
const SETUPS: usize = 3;
/// Cold starts timed for `restart_ms` where one costs milliseconds.
const COLD_STARTS: usize = 25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

const USAGE: &str = "usage: dvs-bench [--seed S] [--workload NAME] [--seconds T] [--trace 0|1] [--quick] [--check-repeat]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: workloads::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (want 0 or 1)")),
                }
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::find(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name} (have {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn metric(name: &str) -> Metric {
    END_TO_END
        .iter()
        .map(|g| g.metric)
        .chain(EXTRA.iter().map(|(g, _)| g.metric))
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not declared in workloads.rs"))
}

/// Runs `step` until `warm` seconds have passed (at least once unless
/// `warm` is zero), discarding what it returns except through `note`.
fn warm_up<T>(warm: f64, mut step: impl FnMut() -> T, mut note: impl FnMut(T)) {
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < warm {
        note(step());
    }
}

/// Runs timed repetitions of `step` for `seconds` (at least `min`), never
/// past the workload's hard cap.
fn repeat<T>(seconds: f64, min: usize, cap: &Instant, mut step: impl FnMut(usize) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    loop {
        let t0 = Instant::now();
        out.push(step(out.len()));
        last = t0.elapsed().as_secs_f64().max(last);
        let spent = started.elapsed().as_secs_f64();
        let capped = cap.elapsed().as_secs_f64() + last > WORKLOAD_CAP_SECONDS;
        // Stop when another repetition would overrun the time asked for.
        if capped || (out.len() >= min && spent + last / 2.0 >= seconds) {
            return out;
        }
    }
}

fn serve_run(ctx: &Ctx<'_>, w: &Workload, s: &Serve, seed: u64, seconds: f64, quick: bool) -> Run {
    let began = Instant::now();
    let _awake = stack::KeepAwake::start();
    stack::on_client_cpu();
    let mut run = Run {
        workload: w.name,
        seed,
        threads: stack::SERVER_THREADS.to_string(),
        ..Run::default()
    };
    let (stream_len, sync_len) = if quick {
        (s.stream_len.min(s.traced_len), s.sync_len.min(200))
    } else {
        (s.stream_len, s.sync_len)
    };
    // Set up several times, so that its time is a median too.
    let mut inputs = serve::prepare(s, seed, stream_len, sync_len);
    let mut prepares = vec![inputs.prepare_s];
    while !quick && prepares.len() < SETUPS {
        inputs = serve::prepare(s, seed, stream_len, sync_len);
        prepares.push(inputs.prepare_s);
    }
    let prepare_s = stats::median(&prepares);
    if !inputs.oracle.ok.iter().all(|&ok| ok) {
        run.errors
            .push("the oracle refused a generated line".to_string());
    }
    if !quick {
        let mut n = 0;
        warm_up(
            WARMUP_SECONDS,
            || {
                n += 1;
                // The sync phase is cut short: warm-up is about the stream path.
                serve::repetition(
                    ctx,
                    s,
                    &inputs,
                    stream_len,
                    sync_len / 10,
                    &format!("warm{n}"),
                )
            },
            |rep| run.warmup_ops_per_s.push(rep.events_per_s),
        );
    }
    let min = if quick { 1 } else { MIN_REPETITIONS };
    let seconds = if quick { 0.0 } else { seconds };
    let reps = repeat(seconds, min, &began, |i| {
        serve::repetition(ctx, s, &inputs, stream_len, sync_len, &format!("rep{i}"))
    });
    run.repetitions = reps.len();
    for rep in &reps {
        run.attempted += rep.attempted;
        run.failed += rep.failed;
        run.errors.extend(rep.error.clone());
    }
    // Fresh stack, same session: the deterministic counters of every
    // repetition must be equal.
    if reps.windows(2).any(|p| {
        p[0].counters != p[1].counters
            || p[0].journal_bytes_per_event != p[1].journal_bytes_per_event
    }) {
        run.errors
            .push("deterministic counters differ between repetitions".to_string());
    }
    let good: Vec<&serve::Rep> = reps.iter().filter(|r| r.error.is_none()).collect();
    if good.is_empty() {
        return run;
    }
    let over = |f: &dyn Fn(&serve::Rep) -> f64| {
        Summary::over(&good.iter().map(|r| f(r)).collect::<Vec<f64>>())
    };
    let setup = over(&|r| r.setup_s + prepare_s);
    run.metrics.push((metric("setup_s"), setup));
    run.metrics
        .push((metric("ops_per_s"), over(&|r| r.events_per_s)));
    run.raw_ops_per_s = stats::median(
        &good
            .iter()
            .map(|r| r.raw_events_per_s)
            .collect::<Vec<f64>>(),
    );
    run.machine_speed = stats::median(&good.iter().map(|r| r.machine_speed).collect::<Vec<f64>>());
    for (name, p) in [
        ("latency_p50_us", 50.0),
        ("latency_p90_us", 90.0),
        ("latency_p99_us", 99.0),
    ] {
        // Reported only if every repetition supports the percentile.
        let per_rep: Option<Vec<f64>> = good
            .iter()
            .map(|r| stats::percentile(&r.latencies_us, p))
            .collect();
        if let Some(values) = per_rep {
            run.metrics.push((metric(name), Summary::over(&values)));
        }
    }
    // A stateless stack restarts in milliseconds, so a handful of
    // repetitions is a thin sample: take more cold starts on their own.
    let mut restarts: Vec<f64> = good.iter().map(|r| r.restart_ms).collect();
    while !quick && s.stack != workloads::Stack::Durable && restarts.len() < COLD_STARTS {
        match serve::cold_start(ctx, s) {
            Ok(ms) => restarts.push(ms),
            Err(e) => {
                run.errors.push(e);
                break;
            }
        }
    }
    run.attempted += (restarts.len() - good.len()) as u64;
    run.metrics
        .push((metric("restart_ms"), Summary::over(&restarts)));
    run.metrics
        .push((metric("peak_rss_mb"), over(&|r| r.peak_rss_mb)));
    run.metrics
        .push((metric("cost_ratio"), over(&|r| r.cost_ratio)));
    if good[0].journal_bytes_per_event.is_some() {
        run.metrics.push((
            metric("journal_bytes_per_event"),
            over(&|r| r.journal_bytes_per_event.unwrap_or(f64::NAN)),
        ));
    }
    if let Some(c) = &good[0].counters {
        run.exact = vec![
            ("stream_events", stream_len as f64),
            ("arrivals", c.arrivals as f64),
            ("accepted", c.accepted as f64),
            ("rejected", c.rejected as f64),
            ("standing_shed", c.standing_shed as f64),
            ("shed_total", c.shed_total as f64),
            ("readmitted", c.readmitted as f64),
            ("resolves", c.resolves as f64),
            ("resolves_skipped", c.resolves_skipped as f64),
            ("resolve_nodes", c.resolve_nodes as f64),
            ("cost_ratio", good[0].cost_ratio),
        ];
    }
    run
}

/// `restart_ms` of `solve_offline`: a cold start of the `dvs_reject` CLI
/// on the saved n=2000 task set, until it has printed the cost the
/// in-process greedy solver gets.
fn reject_cold_start(ctx: &Ctx<'_>, file: &Path, expected_cost: f64) -> Result<f64, String> {
    // The child inherits this thread's CPU, so its time scales with it.
    let (out, seconds, _) = stack::at_nominal_speed(|| {
        std::process::Command::new(&ctx.bins.reject)
            .arg(file)
            .args(["--alg", "greedy"])
            .env(dvs_exec::THREADS_ENV, stack::SERVER_THREADS)
            .output()
    });
    let out = out.map_err(|e| format!("spawn dvs_reject: {e}"))?;
    let ms = seconds * 1e3;
    let text = String::from_utf8_lossy(&out.stdout);
    let want = format!("{expected_cost:.4}");
    let printed = text
        .lines()
        .find(|l| l.starts_with("marginal-greedy"))
        .and_then(|l| l.split_whitespace().last());
    if !out.status.success() || printed != Some(want.as_str()) {
        return Err(format!(
            "dvs_reject printed cost {printed:?}, the library gets {want}"
        ));
    }
    Ok(ms)
}

fn offline_run(ctx: &Ctx<'_>, w: &Workload, seed: u64, seconds: f64, quick: bool) -> Run {
    use reject_sched::RejectionPolicy;
    let began = Instant::now();
    // One solver thread on one CPU: on this box `exec`'s per-call thread
    // fan-out makes the basket several times slower and its time follow
    // the scheduler, so `exec` is measured by the traced run instead.
    std::env::set_var(dvs_exec::THREADS_ENV, offline::THREADS);
    stack::on_client_cpu();
    let mut run = Run {
        workload: w.name,
        seed,
        threads: offline::THREADS.to_string(),
        ..Run::default()
    };
    // Set-up: generate the basket and its references; several times, so
    // the figure is a median.
    let mut setups = Vec::new();
    let mut basket = None;
    for _ in 0..if quick { 1 } else { SETUPS } {
        let (generated, seconds, _) = stack::at_nominal_speed(|| offline::Basket::generate(seed));
        basket = Some(generated);
        setups.push(seconds);
    }
    let basket = basket.expect("generated at least once");
    let entries = basket.entries() as f64;

    if !quick {
        warm_up(WARMUP_SECONDS, || offline::pass(&basket, |_| None), |_| {});
    }
    let min = if quick { 1 } else { MIN_REPETITIONS };
    let mut rss_kb = stack::own_rss_kb();
    let timed = repeat(if quick { 0.0 } else { seconds }, min, &began, |_| {
        let pass = offline::sampled_pass(&basket);
        rss_kb = rss_kb.max(stack::own_rss_kb());
        pass
    });
    run.repetitions = timed.len();
    let mut rates = Vec::new();
    let (mut p50, mut p90, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw, mut speeds) = (Vec::new(), Vec::new());
    for pass in &timed {
        run.attempted += pass.entries.len() as u64;
        run.failed += pass.failed;
        run.errors.extend(pass.errors.iter().cloned());
        let nominal = pass.nominal_seconds();
        let (solving, as_timed) = (
            nominal.iter().sum::<f64>(),
            pass.entries.iter().map(|(_, s)| s).sum::<f64>(),
        );
        rates.push(entries / solving);
        raw.push(entries / as_timed);
        speeds.push(solving / as_timed);
        let mut us: Vec<f64> = nominal.iter().map(|s| s * 1e6).collect();
        us.sort_by(|a, b| a.partial_cmp(b).expect("times are not NaN"));
        p50.extend(stats::percentile(&us, 50.0));
        p90.extend(stats::percentile(&us, 90.0));
        ratios.push(pass.ratio_sum / pass.ratio_count as f64);
        if pass.deadline_misses > 0 {
            run.errors.push(format!(
                "{} deadline misses in the EDF replay",
                pass.deadline_misses
            ));
        }
    }
    if ratios.windows(2).any(|p| p[0] != p[1]) {
        run.errors
            .push("cost_ratio differs between passes".to_string());
    }

    let file = ctx.tmp.file("basket-n2000.tasks");
    let saved = rt_model::io::save_task_set(&file, &basket.large).map_err(|e| e.to_string());
    let instance =
        reject_sched::Instance::new(basket.large.clone(), dvs_power::presets::xscale_ideal())
            .expect("valid");
    let cost = reject_sched::algorithms::MarginalGreedy
        .solve(&instance)
        .expect("greedy")
        .cost();
    let mut restarts = Vec::new();
    for _ in 0..if quick { 1 } else { COLD_STARTS } {
        run.attempted += 1;
        match saved
            .clone()
            .and_then(|()| reject_cold_start(ctx, &file, cost))
        {
            Ok(ms) => restarts.push(ms),
            Err(e) => {
                run.failed += 1;
                run.errors.push(e);
            }
        }
    }

    run.metrics
        .push((metric("setup_s"), Summary::over(&setups)));
    run.metrics
        .push((metric("ops_per_s"), Summary::over(&rates)));
    run.raw_ops_per_s = stats::median(&raw);
    run.machine_speed = stats::median(&speeds);
    if p50.len() == timed.len() && p90.len() == timed.len() {
        run.metrics
            .push((metric("latency_p50_us"), Summary::over(&p50)));
        run.metrics
            .push((metric("latency_p90_us"), Summary::over(&p90)));
    }
    if !restarts.is_empty() {
        run.metrics
            .push((metric("restart_ms"), Summary::over(&restarts)));
    }
    run.metrics.push((
        metric("peak_rss_mb"),
        Summary::single(rss_kb as f64 / 1024.0),
    ));
    run.metrics
        .push((metric("cost_ratio"), Summary::over(&ratios)));
    run.exact = vec![("basket_entries", entries), ("cost_ratio", ratios[0])];
    run
}

fn run_workload(ctx: &Ctx<'_>, w: &Workload, seed: u64, seconds: f64, quick: bool) -> Run {
    match &w.kind {
        Kind::Offline => offline_run(ctx, w, seed, seconds, quick),
        Kind::Serve(s) => serve_run(ctx, w, s, seed, seconds, quick),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs the whole suite once: every workload untraced, then traced.
fn suite(ctx: &Ctx<'_>, out_dir: &Path, args: &Args) -> Result<(Vec<Run>, Vec<Traced>), String> {
    let mut runs = Vec::new();
    let mut traced = Vec::new();
    for w in &WORKLOADS {
        println!("-- {}: {}", w.name, w.why);
        let run = run_workload(ctx, w, args.seed, args.seconds, args.quick);
        report::print_run(&run);
        runs.push(run);
    }
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    for (t, spans) in ladder::trace_workloads(ctx, &all, args.seed, args.quick) {
        report::print_traced(&t, traced.is_empty());
        write_file(
            &out_dir.join(format!("trace-{}.jsonl", t.workload)),
            &spans.to_jsonl(),
        )?;
        traced.push(t);
    }
    write_file(
        &out_dir.join("result.json"),
        &report::suite_json(args.seed, args.quick, &runs, &traced),
    )?;
    Ok((runs, traced))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = PathBuf::from(".");
    if !root.join("benchmark/Cargo.toml").exists() || !root.join("crates/admit").exists() {
        return Err("run dvs-bench from the repository root".to_string());
    }
    // Before anything is pinned: the CPUs this process was given.
    stack::allowed_cpus();
    let bins = stack::build(&root)?;
    let out_dir = root.join("benchmark/out");
    let tmp =
        stack::TmpDir::create(&out_dir).map_err(|e| format!("create scratch directory: {e}"))?;
    let ctx = Ctx {
        bins: &bins,
        tmp: &tmp,
    };

    if let Some(name) = &args.workload {
        let w = workloads::find(name).expect("checked while parsing");
        if args.trace {
            let (t, spans) = ladder::trace_workloads(&ctx, &[w], args.seed, args.quick)
                .pop()
                .expect("one workload was asked for");
            report::print_traced(&t, true);
            write_file(
                &out_dir.join(format!("trace-{}.jsonl", w.name)),
                &spans.to_jsonl(),
            )?;
            if !t.missing().is_empty() {
                return Err(format!(
                    "per-layer metrics not measured: {:?}; {:?}",
                    t.missing(),
                    t.errors
                ));
            }
            println!("{}", report::driver_line_traced(&t));
            // The result line carries the verdict.
            return Ok(true);
        }
        let run = run_workload(&ctx, w, args.seed, args.seconds, args.quick);
        report::print_run(&run);
        if !run.missing().is_empty() {
            return Err(format!(
                "end-to-end metrics not measured: {:?}; {:?}",
                run.missing(),
                run.errors
            ));
        }
        println!("{}", report::driver_line(&run));
        return Ok(true);
    }

    let (runs, traced) = suite(&ctx, &out_dir, &args)?;
    let mut ok = runs.iter().all(Run::correct) && traced.iter().all(Traced::correct);
    if args.check_repeat {
        let (again, again_traced) = suite(&ctx, &out_dir, &args)?;
        ok &= again.iter().all(Run::correct) && again_traced.iter().all(Traced::correct);
        ok &= report::check_repeat(&runs, &again, &traced, &again_traced) == 0;
    }
    Ok(ok || args.quick)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dvs-bench: incorrect output or failed operations (see above)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("dvs-bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
