//! The recovery invariant, end to end: kill a journaled engine at an
//! arbitrary point, recover `snapshot + replay of the journal tail`, feed
//! the rest of the trace, and the decision log is bit-identical to an
//! uninterrupted run — across many seeds, and across a real SIGKILL of
//! the `dvs_admitd` process.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use dvs_admit::journal::{check_frame, FrameCheck, RecordKind};
use dvs_admit::{AdmissionEngine, EngineConfig, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

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

/// An engine recovers its own journal whatever its configuration holds,
/// and only its own: the snapshot's `config` line, the regret threshold's
/// bits included, must equal the recovering engine's byte for byte.
#[test]
fn regret_threshold_engine_recovers_its_own_journal() {
    let config = config().resolve_every(0).regret_threshold(0.3);
    let trace = TraceSpec::new(12, 2.0, 7).generate().unwrap();
    let path = tmp("regret_threshold.wal");
    let _ = std::fs::remove_file(&path);
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config).unwrap();
    engine.attach_journal(dvs_admit::Journal::create(&path, jconfig()).unwrap());
    for e in &trace {
        engine.apply(e).unwrap();
    }
    assert!(engine.metrics().resolves > 0, "the threshold never fired");
    let ref_log = engine.format_decision_log();
    engine.snapshot_now().unwrap();
    drop(engine);

    let recover = |config| {
        AdmissionEngine::recover(
            &path,
            vec![xscale_ideal()],
            Box::new(OnlineGreedy),
            config,
            jconfig(),
        )
    };
    let recovered =
        recover(config).unwrap_or_else(|e| panic!("the engine refused its own journal: {e}"));
    assert!(recovered.had_snapshot);
    assert_eq!(recovered.engine.format_decision_log(), ref_log);
    let other = config.regret_threshold(0.3 + f64::EPSILON);
    let err = recover(other).expect_err("another threshold's journal is refused");
    assert!(err.to_string().contains("configuration differs"), "{err}");
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
// Delta snapshots: the fold rule (last complete `S`, the deltas after it,
// then the `E` tail) at every cut point, across recoveries, and in size.
// ---------------------------------------------------------------------------

fn recover(path: &PathBuf) -> dvs_admit::Recovered {
    AdmissionEngine::recover(
        path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap()
}

/// The deterministic part of `stats`: everything but the wall-clock rate,
/// the latency histogram and the durability / replication counters, which
/// depend on where the crash fell.
fn stable_stats(engine: &AdmissionEngine) -> String {
    let s = engine.stats_json();
    let rate = s.find("\"events_per_sec\"").unwrap();
    let costs = s.find("\"energy\"").unwrap();
    let durability = s.find("\"journal_records\"").unwrap();
    format!("{}{}", &s[..rate], &s[costs..durability])
}

/// Every frame of a clean journal image: `(kind, start, end)`.
fn frames(bytes: &[u8]) -> Vec<(RecordKind, usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while let FrameCheck::Complete { kind, end, .. } = check_frame(bytes, at) {
        out.push((kind, at, end));
        at = end;
    }
    assert_eq!(at, bytes.len(), "the journal image must be clean");
    out
}

/// For each `S` record of the journal at `path`, whether it is complete
/// (`base 0 0`) rather than a delta.
fn snapshot_completeness(path: &PathBuf) -> Vec<bool> {
    dvs_admit::journal::scan(path)
        .unwrap()
        .records
        .iter()
        .filter(|r| r.kind == RecordKind::Snapshot)
        .map(|r| r.payload.lines().nth(1) == Some("base 0 0"))
        .collect()
}

/// Cut the journal at *every* record boundary and in the middle of every
/// `S` frame, over a run that holds one complete snapshot and several
/// deltas: each prefix recovers, finishes the trace, and ends with the
/// uninterrupted run's log, stats and summary. A torn snapshot — delta or
/// complete — falls back to the previous `S` and a full cadence of replay.
#[test]
fn every_cut_point_recovers_to_the_uninterrupted_run() {
    let trace = TraceSpec::new(14, 2.2, 5).generate().unwrap();
    let ref_path = tmp("cuts_ref.wal");
    let mut reference = journaled_engine(&ref_path);
    for e in &trace {
        reference.apply(e).unwrap();
    }
    let bytes = std::fs::read(&ref_path).unwrap();
    let frames = frames(&bytes);
    let complete = snapshot_completeness(&ref_path);
    assert!(complete.len() >= 4, "want a window of several snapshots");
    assert!(
        complete[0] && !complete[1..].iter().any(|&c| c),
        "one process writes one complete S, then deltas: {complete:?}"
    );

    let path = tmp("cuts.wal");
    for &(kind, start, end) in &frames {
        let mut cuts = vec![end];
        if kind == RecordKind::Snapshot {
            cuts.push(start + (end - start) / 2);
        }
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let recovered = recover(&path);
            let torn = cut != end;
            assert_eq!(recovered.records_lost, u64::from(torn), "cut {cut}");
            if torn {
                assert_eq!(
                    recovered.replayed,
                    jconfig().snapshot_every,
                    "cut {cut}: a torn S must fall back to the one before it"
                );
            } else if kind == RecordKind::Snapshot {
                assert_eq!(recovered.replayed, 0, "cut {cut}: nothing follows the S");
            }
            let done = frames
                .iter()
                .filter(|f| f.0 == RecordKind::Event && f.2 <= cut)
                .count();
            let mut engine = recovered.engine;
            assert_eq!(engine.metrics().events, done as u64, "cut {cut}");
            for e in &trace[done..] {
                engine.apply(e).unwrap();
            }
            assert_eq!(
                engine.format_decision_log(),
                reference.format_decision_log(),
                "cut {cut}: decision log diverged"
            );
            assert_eq!(
                engine.metrics().deterministic_summary(),
                reference.metrics().deterministic_summary(),
                "cut {cut}: metrics diverged"
            );
            assert_eq!(
                stable_stats(&engine),
                stable_stats(&reference),
                "cut {cut}: stats diverged"
            );
        }
    }
}

/// Kill, recover, serve past two more snapshots, kill, recover: the file
/// then holds complete-delta-complete-delta-delta, and the second recovery
/// anchors on the *second* complete record and folds only what follows it.
#[test]
fn second_recovery_anchors_on_the_complete_snapshot_after_the_deltas() {
    let trace = TraceSpec::new(24, 2.4, 9).generate().unwrap();
    assert!(trace.len() > 48, "trace too short: {}", trace.len());
    let (ref_log, ref_sum) = uninterrupted(&trace, &tmp("chain_ref.wal"));

    let path = tmp("chain.wal");
    {
        let mut engine = journaled_engine(&path);
        for e in &trace[..20] {
            engine.apply(e).unwrap(); // S at 8 (complete) and 16 (delta)
        }
    }
    let mut engine = recover(&path).engine;
    for e in &trace[20..42] {
        engine.apply(e).unwrap(); // S at 24 (complete), 32 and 40 (deltas)
    }
    drop(engine);
    assert_eq!(
        snapshot_completeness(&path),
        [true, false, true, false, false],
        "the first S after a recovery is complete, the rest are deltas"
    );

    let recovered = recover(&path);
    assert!(recovered.had_snapshot);
    assert_eq!(recovered.replayed, 2, "only the tail after the last S");
    let mut engine = recovered.engine;
    assert_eq!(engine.metrics().recoveries, 2);
    for e in &trace[42..] {
        engine.apply(e).unwrap();
    }
    assert_eq!(engine.format_decision_log(), ref_log);
    assert_eq!(engine.metrics().deterministic_summary(), ref_sum);
}

/// The regression test for the O(n²) journal: on a stationary session
/// (a standing set of 32 tasks) journal bytes per event are the same at N
/// and at 4 N events, because an `S` record no longer repeats history.
#[test]
fn journal_bytes_per_event_do_not_grow_with_the_session() {
    let bytes_per_event = |events: usize| -> f64 {
        let path = tmp(&format!("linear_{events}.wal"));
        let _ = std::fs::remove_file(&path);
        let mut engine = AdmissionEngine::new(
            vec![xscale_ideal()],
            Box::new(OnlineGreedy),
            EngineConfig::default().resolve_every(0),
        )
        .unwrap();
        engine.attach_journal(dvs_admit::Journal::create(&path, JournalConfig::default()).unwrap());
        for i in 0..events / 3 {
            let at = (3 * i) as f64;
            let task = Task::new(i, 20.0 + (i % 7) as f64, 1000)
                .unwrap()
                .with_penalty(1.0 + (i % 5) as f64);
            engine
                .apply(&EventRecord::new(at, EventKind::Arrive(task)))
                .unwrap();
            engine
                .apply(&EventRecord::new(at + 1.0, EventKind::Tick))
                .unwrap();
            if i >= 32 {
                let gone = EventKind::Depart(TaskId::new(i - 32));
                engine.apply(&EventRecord::new(at + 2.0, gone)).unwrap();
            }
        }
        assert!(engine.metrics().snapshots_taken as usize >= events / 256 - 1);
        let len = std::fs::metadata(&path).unwrap().len();
        len as f64 / engine.metrics().events as f64
    };
    let (small, large) = (bytes_per_event(3 * 1024), bytes_per_event(12 * 1024));
    assert!(
        large <= small * 1.1,
        "journal grew super-linearly: {small:.1} B/event at N, {large:.1} at 4N"
    );
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
        .map(|e| dvs_admit::wire::Request::from(e).to_string())
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
