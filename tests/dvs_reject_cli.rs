//! The `dvs_reject` command line: `--power` names a preset, and
//! `--levels K` quantises a continuous-speed preset to K even levels or
//! is refused — never silently ignored. Branch & bound takes task sets of
//! any size.

use std::process::{Command, Output};

const WORKLOAD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/workloads/media_server.tasks"
);

fn run(args: &[&str]) -> Output {
    run_on(WORKLOAD, args)
}

fn run_on(workload: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvs_reject"))
        .arg(workload)
        .args(args)
        .output()
        .expect("run dvs_reject")
}

/// The cost column of the result line `algorithm` printed.
fn cost_of(stdout: &str, algorithm: &str) -> f64 {
    let line = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(algorithm))
        .unwrap_or_else(|| panic!("no {algorithm} line in:\n{stdout}"));
    line.split_whitespace().last().unwrap().parse().unwrap()
}

#[test]
fn levels_quantise_a_continuous_preset() {
    let plain = run(&["--power", "cubic"]);
    let quantised = run(&["--power", "cubic", "--levels", "3"]);
    assert!(plain.status.success() && quantised.status.success());
    assert_ne!(plain.stdout, quantised.stdout);
}

#[test]
fn levels_that_cannot_apply_and_unknown_presets_are_refused() {
    for (args, message) in [
        (
            &["--power", "xscale-table", "--levels", "3"][..],
            "--levels",
        ),
        (&["--power", "xscale", "--levels", "0"], "--levels 0"),
        (&["--power", "xscale-levels"], "unknown power model"),
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn branch_bound_solves_a_hundred_tasks() {
    let dir = std::env::temp_dir().join(format!("dvs_reject_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("w100.tasks");
    let tasks: String = (0..100)
        .map(|i| {
            let cycles = 2.0 + f64::from(i * 7 % 11);
            let penalty = 3.0 + f64::from(i * 13 % 17);
            format!("{i} {cycles} 100 - {penalty}\n")
        })
        .collect();
    std::fs::write(&path, tasks).unwrap();
    let path = path.to_str().unwrap();
    let bb = run_on(path, &["--alg", "bb"]);
    let all = run_on(path, &["--all"]);
    std::fs::remove_dir_all(&dir).unwrap();
    for out in [&bb, &all] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
    }
    let stdout = String::from_utf8_lossy(&all.stdout);
    assert!(cost_of(&stdout, "branch-bound") <= cost_of(&stdout, "marginal-greedy"));
    assert_eq!(
        cost_of(&String::from_utf8_lossy(&bb.stdout), "branch-bound"),
        cost_of(&stdout, "branch-bound")
    );
    assert!(cost_of(&stdout, "reject-all") >= cost_of(&stdout, "branch-bound"));
}
