//! Fault-injected runs are bit-identical across `DVS_THREADS` settings.
//!
//! The fault layer draws every perturbation from a stateless hash of
//! (seed, domain, task, job), so no draw depends on evaluation order — the
//! guarantee this suite pins down by rendering full simulator traces under
//! 1/2/4/8 workers and comparing the bytes.

use std::sync::Mutex;

use bench_suite::experiments::r1_fault_sweep;
use bench_suite::Scale;
use dvs_power::presets::cubic_ideal;
use edf_sim::{FaultScenario, RecoveryPolicy, Simulator, SpeedProfile};
use rt_model::generator::WorkloadSpec;

/// Serialises tests that touch the global `DVS_THREADS` variable.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: &str, f: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var(dvs_exec::THREADS_ENV, n);
    let out = f();
    std::env::remove_var(dvs_exec::THREADS_ENV);
    out
}

/// Renders one fault-injected trace per seed (via `par_map`, so the worker
/// count is actually exercised) and concatenates the CSV bytes.
fn traces() -> Vec<u8> {
    let per_seed = dvs_exec::par_map_indices(6, |seed| {
        let cpu = cubic_ideal();
        let tasks = WorkloadSpec::new(8, 0.9)
            .seed(seed as u64)
            .generate()
            .expect("valid spec");
        let u = tasks.utilization();
        let faults = FaultScenario::new(seed as u64 ^ 0xFA17)
            .with_overrun(0.5, 1.8)
            .expect("valid overrun")
            .with_actuator_error(0.05, 0.05)
            .expect("valid actuator")
            .with_thermal_throttle(8.0, 1.5, 0.7)
            .expect("valid throttle")
            .with_release_jitter(0.25)
            .expect("valid jitter");
        let report = Simulator::new(&tasks, &cpu)
            .with_profile(SpeedProfile::constant(u.max(1e-9)).expect("positive"))
            .with_faults(faults)
            .with_recovery(RecoveryPolicy::full())
            .run_hyper_period()
            .expect("valid config");
        let mut csv = Vec::new();
        report.write_trace_csv(&mut csv).expect("in-memory write");
        // Fold the recovery bookkeeping into the rendered bytes too: a
        // reordering bug that only moved rejections would otherwise hide.
        for r in report.late_rejections() {
            csv.extend_from_slice(r.to_string().as_bytes());
            csv.push(b'\n');
        }
        csv
    });
    per_seed.concat()
}

#[test]
fn fault_traces_are_bit_identical_across_thread_counts() {
    let reference = with_threads("1", traces);
    assert!(!reference.is_empty());
    for threads in ["2", "4", "8"] {
        let got = with_threads(threads, traces);
        assert_eq!(got, reference, "trace diverged at DVS_THREADS={threads}");
    }
}

#[test]
fn fault_sweep_tables_are_identical_across_thread_counts() {
    let reference = with_threads("1", || r1_fault_sweep::run(Scale::Quick));
    for threads in ["4", "8"] {
        let got = with_threads(threads, || r1_fault_sweep::run(Scale::Quick));
        assert_eq!(
            got.rows(),
            reference.rows(),
            "R1 rows diverged at DVS_THREADS={threads}"
        );
    }
}
