//! The recovery invariant, end to end: kill a journaled engine at an
//! arbitrary point, recover `snapshot + replay of the journal tail`, feed
//! the rest of the trace, and the decision log is bit-identical to an
//! uninterrupted run — across many seeds, and across a real SIGKILL of
//! the `dvs_admitd` process.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use dvs_admit::{AdmissionEngine, EngineConfig, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::EventRecord;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs_admit_crash_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

fn jconfig() -> JournalConfig {
    // A short cadence so even small traces cross several snapshots.
    JournalConfig {
        snapshot_every: 8,
        ..JournalConfig::default()
    }
}

fn journaled_engine(path: &PathBuf) -> AdmissionEngine {
    let _ = std::fs::remove_file(path);
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    let journal = dvs_admit::Journal::create(path, jconfig()).unwrap();
    engine.attach_journal(journal);
    engine
}

/// Run the whole trace uninterrupted; the reference artifacts.
fn uninterrupted(trace: &[EventRecord], path: &PathBuf) -> (String, String) {
    let mut engine = journaled_engine(path);
    for e in trace {
        engine.apply(e).unwrap();
    }
    (
        engine.format_decision_log(),
        engine.metrics().deterministic_summary(),
    )
}

/// Run `cut` events, drop the engine cold (no drain, no final snapshot —
/// the journal has everything because appends flush before the ack),
/// recover from the file, and run the rest.
fn killed_and_recovered(trace: &[EventRecord], cut: usize, path: &PathBuf) -> (String, String) {
    {
        let mut engine = journaled_engine(path);
        for e in &trace[..cut] {
            engine.apply(e).unwrap();
        }
        // Dropped here mid-flight: the crash.
    }
    let recovered = AdmissionEngine::recover(
        path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    assert_eq!(recovered.records_lost, 0, "clean kill must lose nothing");
    let mut engine = recovered.engine;
    assert_eq!(engine.metrics().recoveries, 1);
    for e in &trace[cut..] {
        engine.apply(e).unwrap();
    }
    (
        engine.format_decision_log(),
        engine.metrics().deterministic_summary(),
    )
}

/// ≥10 seeds: a kill at a seed-dependent cut point recovers to a
/// bit-identical decision log and deterministic metrics summary (the
/// balance invariant holds across the recovery boundary because
/// `deterministic_summary` quantifies over it).
#[test]
fn kill_and_recover_is_bit_identical_across_seeds() {
    for seed in 0..10u64 {
        let trace = TraceSpec::new(14, 2.2, seed).generate().unwrap();
        let cut = 1 + (seed as usize * 7 + 3) % (trace.len() - 1);
        let ref_path = tmp(&format!("ref_{seed}.wal"));
        let (ref_log, ref_sum) = uninterrupted(&trace, &ref_path);
        assert!(
            ref_log.contains("accepted") || ref_log.contains("rejected"),
            "seed {seed}: empty decision log"
        );
        let path = tmp(&format!("cut_{seed}.wal"));
        let (log, sum) = killed_and_recovered(&trace, cut, &path);
        assert_eq!(
            log, ref_log,
            "seed {seed} cut {cut}: decision log diverged after recovery"
        );
        assert_eq!(
            sum, ref_sum,
            "seed {seed} cut {cut}: metrics diverged after recovery"
        );
    }
}

/// Killing the engine *again* right after recovery (before any new event)
/// and recovering a second time still converges to the reference log.
#[test]
fn double_kill_double_recover_converges() {
    let trace = TraceSpec::new(14, 2.4, 42).generate().unwrap();
    let ref_path = tmp("double_ref.wal");
    let (ref_log, ref_sum) = uninterrupted(&trace, &ref_path);

    let path = tmp("double_cut.wal");
    {
        let mut engine = journaled_engine(&path);
        for e in &trace[..trace.len() / 3] {
            engine.apply(e).unwrap();
        }
    }
    let once = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    let mut engine = once.engine;
    for e in &trace[trace.len() / 3..2 * trace.len() / 3] {
        engine.apply(e).unwrap();
    }
    drop(engine); // second crash

    let twice = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    let mut engine = twice.engine;
    assert_eq!(engine.metrics().recoveries, 2);
    for e in &trace[2 * trace.len() / 3..] {
        engine.apply(e).unwrap();
    }
    assert_eq!(engine.format_decision_log(), ref_log);
    assert_eq!(engine.metrics().deterministic_summary(), ref_sum);
}

/// A graceful drain (snapshot_now) followed by recovery restores from the
/// snapshot with zero tail replay.
#[test]
fn drain_snapshot_recovers_without_replay() {
    let trace = TraceSpec::new(12, 2.0, 7).generate().unwrap();
    let path = tmp("drain.wal");
    let mut engine = journaled_engine(&path);
    for e in &trace {
        engine.apply(e).unwrap();
    }
    let ref_log = engine.format_decision_log();
    engine.snapshot_now().unwrap();
    drop(engine);

    let recovered = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    assert!(recovered.had_snapshot);
    assert_eq!(recovered.replayed, 0, "drain snapshot covers the whole log");
    assert_eq!(recovered.engine.format_decision_log(), ref_log);
}

/// Recovering a journal path that does not exist yet starts fresh: no
/// recovery counted, engine empty, journal attached and usable.
#[test]
fn recover_missing_journal_starts_fresh() {
    let path = tmp("fresh.wal");
    let _ = std::fs::remove_file(&path);
    let recovered = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    assert!(!recovered.had_snapshot);
    assert_eq!(recovered.replayed, 0);
    let mut engine = recovered.engine;
    assert_eq!(engine.metrics().recoveries, 0);
    let trace = TraceSpec::new(6, 1.5, 1).generate().unwrap();
    for e in &trace {
        engine.apply(e).unwrap();
    }
    assert!(engine.metrics().journal_records > 0);
}

// ---------------------------------------------------------------------------
// Process-level: a real SIGKILL of dvs_admitd over its stdin protocol.
// ---------------------------------------------------------------------------

fn spawn_admitd(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_dvs_admitd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dvs_admitd")
}

/// Feed `lines` one at a time, reading the response after each so every
/// acknowledged request is known to be journaled before we proceed.
fn feed(child: &mut Child, reader: &mut impl BufRead, lines: &[String]) -> Vec<String> {
    let stdin = child.stdin.as_mut().unwrap();
    let mut responses = Vec::new();
    for line in lines {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        assert!(
            resp.contains("\"ok\":true"),
            "request {line:?} failed: {resp}"
        );
        responses.push(resp);
    }
    responses
}

fn request_log(child: &mut Child, reader: &mut impl BufRead) -> String {
    let stdin = child.stdin.as_mut().unwrap();
    writeln!(stdin, "{{\"op\":\"log\"}}").unwrap();
    stdin.flush().unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\":true"), "log request failed: {resp}");
    resp
}

fn trace_requests(seed: u64) -> Vec<String> {
    let trace = TraceSpec::new(10, 2.0, seed).generate().unwrap();
    trace
        .iter()
        .map(|e| {
            use rt_model::io::EventKind;
            match &e.kind {
                EventKind::Arrive(t) => {
                    let deadline = if t.deadline() == t.period() {
                        String::new()
                    } else {
                        format!(",\"deadline\":{}", t.deadline())
                    };
                    format!(
                        "{{\"op\":\"arrive\",\"at\":{},\"id\":{},\"cycles\":{},\"period\":{}{deadline},\"penalty\":{}}}",
                        e.at,
                        t.id().index(),
                        t.wcec(),
                        t.period(),
                        t.penalty()
                    )
                }
                EventKind::Depart(id) => {
                    format!("{{\"op\":\"depart\",\"at\":{},\"id\":{}}}", e.at, id.index())
                }
                EventKind::Tick => format!("{{\"op\":\"tick\",\"at\":{}}}", e.at),
            }
        })
        .collect()
}

/// SIGKILL `dvs_admitd` halfway through a session, restart it with
/// `--recover`, stream the rest: the final decision log matches an
/// uninterrupted server bit for bit.
#[test]
#[cfg(unix)]
fn sigkill_and_recover_matches_uninterrupted_server() {
    for seed in [3u64, 11, 29] {
        let requests = trace_requests(seed);
        let cut = requests.len() / 2;

        // Reference: one server, no interruption.
        let ref_wal = tmp(&format!("proc_ref_{seed}.wal"));
        let _ = std::fs::remove_file(&ref_wal);
        let mut child = spawn_admitd(&["--stdin", "--journal", ref_wal.to_str().unwrap()]);
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        feed(&mut child, &mut reader, &requests);
        let ref_log = request_log(&mut child, &mut reader);
        drop(child.stdin.take());
        child.wait().unwrap();

        // Interrupted: stream half, SIGKILL, restart with --recover.
        let wal = tmp(&format!("proc_cut_{seed}.wal"));
        let _ = std::fs::remove_file(&wal);
        let mut child = spawn_admitd(&["--stdin", "--journal", wal.to_str().unwrap()]);
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        feed(&mut child, &mut reader, &requests[..cut]);
        child.kill().unwrap(); // SIGKILL — no drain, no snapshot
        child.wait().unwrap();

        let mut child = spawn_admitd(&["--stdin", "--journal", wal.to_str().unwrap(), "--recover"]);
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        feed(&mut child, &mut reader, &requests[cut..]);
        let log = request_log(&mut child, &mut reader);
        drop(child.stdin.take());
        child.wait().unwrap();

        assert_eq!(
            log, ref_log,
            "seed {seed}: recovered server's decision log diverged"
        );
    }
}
