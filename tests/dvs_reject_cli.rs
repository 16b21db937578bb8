//! The `dvs_reject` command line: `--power` names a preset, and
//! `--levels K` quantises a continuous-speed preset to K even levels or
//! is refused — never silently ignored.

use std::process::{Command, Output};

const WORKLOAD: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/workloads/media_server.tasks"
);

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvs_reject"))
        .arg(WORKLOAD)
        .args(args)
        .output()
        .expect("run dvs_reject")
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
