//! Torn-journal tolerance: every corruption shape — torn last record, a
//! flipped CRC byte, a kill mid-snapshot-write, a garbage tail — recovers
//! to the last valid prefix with the loss counted in metrics, never a
//! panic or a corrupt engine.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;

use dvs_admit::journal::{check_frame, FrameCheck, JournalError, RecordKind};
use dvs_admit::{AdmissionEngine, AdmitError, EngineConfig, Journal, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::EventRecord;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs_admit_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

fn jconfig() -> JournalConfig {
    JournalConfig {
        snapshot_every: 6,
        ..JournalConfig::default()
    }
}

fn trace() -> Vec<EventRecord> {
    TraceSpec::new(12, 2.2, 17).generate().unwrap()
}

/// Reference decision log over the full trace (no journal involved).
fn reference_log(events: &[EventRecord]) -> String {
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    for e in events {
        engine.apply(e).unwrap();
    }
    engine.format_decision_log()
}

/// Write the full trace through a journaled engine, then hand the file to
/// a mutilator before recovering from it.
fn journal_then(path: &PathBuf, mutilate: impl FnOnce(&PathBuf)) -> dvs_admit::Recovered {
    let _ = std::fs::remove_file(path);
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    engine.attach_journal(Journal::create(path, jconfig()).unwrap());
    for e in &trace() {
        engine.apply(e).unwrap();
    }
    drop(engine);
    mutilate(path);
    AdmissionEngine::recover(
        path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap()
}

/// The recovered log must reproduce a causal prefix of the reference run:
/// the engine is online and deterministic, so replaying the surviving
/// prefix yields exactly the first decisions of the full run.
fn assert_causal_prefix(recovered: &dvs_admit::Recovered) {
    let ref_log = reference_log(&trace());
    let log = recovered.engine.format_decision_log();
    assert!(
        ref_log.starts_with(&log),
        "recovered log is not a prefix of the reference:\nref:\n{ref_log}\ngot:\n{log}"
    );
}

#[test]
fn torn_last_record_recovers_to_the_valid_prefix() {
    let path = tmp("torn.wal");
    let recovered = journal_then(&path, |p| {
        let len = std::fs::metadata(p).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(p)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
    });
    assert!(recovered.records_lost >= 1, "torn tail must count as lost");
    assert!(recovered.bytes_lost > 0);
    assert_eq!(
        recovered.engine.metrics().records_lost,
        recovered.records_lost,
        "loss must surface in the metrics registry"
    );
    assert_causal_prefix(&recovered);
}

#[test]
fn flipped_crc_byte_strands_the_tail() {
    let path = tmp("crcflip.wal");
    let recovered = journal_then(&path, |p| {
        let mut bytes = std::fs::read(p).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF; // inside the last record's payload
        std::fs::write(p, &bytes).unwrap();
    });
    assert!(recovered.records_lost >= 1);
    assert_causal_prefix(&recovered);
}

#[test]
fn kill_mid_snapshot_write_falls_back_to_replay() {
    let path = tmp("midsnap.wal");
    let _ = std::fs::remove_file(&path);
    let events = trace();

    // Journal a run that ends with a torn snapshot frame: apply the whole
    // trace, note the file length, append an off-cadence snapshot, then
    // cut the file inside that final snapshot record.
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    // Huge cadence: no interior snapshots, so the torn one is the only one.
    let jc = JournalConfig {
        snapshot_every: 1_000_000,
        ..JournalConfig::default()
    };
    engine.attach_journal(Journal::create(&path, jc).unwrap());
    for e in &events {
        engine.apply(e).unwrap();
    }
    let before = std::fs::metadata(&path).unwrap().len();
    engine.snapshot_now().unwrap();
    let after = std::fs::metadata(&path).unwrap().len();
    assert!(after > before, "snapshot must append a frame");
    drop(engine);
    OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(before + (after - before) / 2)
        .unwrap();

    let recovered = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jc,
    )
    .unwrap();
    assert!(!recovered.had_snapshot, "the torn snapshot must not anchor");
    assert_eq!(recovered.records_lost, 1, "exactly the snapshot is lost");
    assert_eq!(recovered.replayed, events.len() as u64);
    assert_eq!(
        recovered.engine.format_decision_log(),
        reference_log(&events),
        "full-tail replay must reproduce the reference log exactly"
    );
}

#[test]
fn garbage_tail_counts_one_lost_record_and_keeps_the_log() {
    let path = tmp("garbage.wal");
    let recovered = journal_then(&path, |p| {
        let mut f = OpenOptions::new().append(true).open(p).unwrap();
        f.write_all(b"\x00\xde\xad\xbe\xef not a frame at all")
            .unwrap();
    });
    assert_eq!(recovered.records_lost, 1, "one garbage blob, one loss");
    // Nothing framed was lost, so the log is the complete reference log.
    assert_eq!(
        recovered.engine.format_decision_log(),
        reference_log(&trace())
    );
}

#[test]
fn empty_journal_file_recovers_to_a_fresh_engine() {
    let path = tmp("empty.wal");
    std::fs::write(&path, b"").unwrap();
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
    assert_eq!(recovered.records_lost, 0);
    assert_eq!(recovered.engine.metrics().recoveries, 1);
}

/// The recovered engine is not just a museum piece: after a corruption
/// recovery it keeps serving, journaling into the truncated file, and a
/// second recovery sees the new records.
#[test]
fn recovered_engine_keeps_journaling_after_truncation() {
    let path = tmp("continue.wal");
    let recovered = journal_then(&path, |p| {
        let len = std::fs::metadata(p).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(p)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
    });
    let mut engine = recovered.engine;
    let clock = engine.clock();
    let task = rt_model::Task::new(1000, 250.0, 1000)
        .unwrap()
        .with_penalty(4.0);
    engine
        .apply(&EventRecord::new(
            clock + 1.0,
            rt_model::io::EventKind::Arrive(task),
        ))
        .unwrap();
    engine
        .apply(&EventRecord::new(
            clock + 2.0,
            rt_model::io::EventKind::Tick,
        ))
        .unwrap();
    drop(engine);

    let again = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap();
    assert_eq!(again.records_lost, 0, "the continued journal is clean");
    assert_eq!(again.engine.metrics().recoveries, 1);
}

/// Journals the whole trace and returns the file image with the byte range
/// and payload of every `S` record in it.
fn journal_with_snapshots(path: &PathBuf) -> (Vec<u8>, Vec<(usize, usize, String)>) {
    let _ = std::fs::remove_file(path);
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    engine.attach_journal(Journal::create(path, jconfig()).unwrap());
    for e in &trace() {
        engine.apply(e).unwrap();
    }
    drop(engine);
    let bytes = std::fs::read(path).unwrap();
    let mut snapshots = Vec::new();
    let mut at = 0;
    while let FrameCheck::Complete { kind, payload, end } = check_frame(&bytes, at) {
        if kind == RecordKind::Snapshot {
            snapshots.push((at, end, payload.to_string()));
        }
        at = end;
    }
    assert!(snapshots.len() >= 3, "want a complete S and two deltas");
    (bytes, snapshots)
}

/// A delta `S` states the `departed` / decision counts it extends. Fed to
/// an engine that holds anything else — directly, or because the delta
/// before it went missing from the file — it is a typed error, never a
/// silent splice of two histories.
#[test]
fn delta_on_the_wrong_base_is_an_error_not_a_splice() {
    let path = tmp("wrongbase.wal");
    let (bytes, snapshots) = journal_with_snapshots(&path);
    let fresh =
        || AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();

    // Directly: the complete record restores onto a fresh engine, the
    // delta after the next one does not extend it.
    let mut engine = fresh();
    engine.restore_snapshot(&snapshots[0].2).unwrap();
    let err = engine.restore_snapshot(&snapshots[2].2).unwrap_err();
    assert!(
        matches!(&err, JournalError::Snapshot { line: 2, reason } if reason.contains("extends")),
        "unexpected error: {err}"
    );
    assert!(fresh().restore_snapshot(&snapshots[1].2).is_err());
    // In order, the chain folds.
    let mut engine = fresh();
    for (_, _, payload) in &snapshots {
        engine.restore_snapshot(payload).unwrap();
    }

    // From a file: cut the first delta's frame out; recovery refuses the
    // second delta instead of folding it onto the complete record.
    let (start, end, _) = snapshots[1];
    let mut spliced = bytes[..start].to_vec();
    spliced.extend_from_slice(&bytes[end..]);
    std::fs::write(&path, &spliced).unwrap();
    let err = AdmissionEngine::recover(
        &path,
        vec![xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        jconfig(),
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            AdmitError::Journal(JournalError::Snapshot { line: 2, .. })
        ),
        "unexpected error: {err}"
    );
}

/// Snapshots have one version. A payload of any other is refused *by
/// version*, in a message that names it — not half-parsed.
#[test]
fn old_snapshot_versions_are_rejected_by_name() {
    // The shape PR 17's encoder wrote: no `base` line, optional pin columns.
    let v2 = "dvs-admit-snapshot v2\npolicy online-greedy\nconfig 1000 2 - 5000 1\n\
              clock 0000000000000000\ntsr 0\nepoch 1\n\
              counters 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\n\
              costs 0000000000000000 0000000000000000 0000000000000000\n\
              domains 0\nunserved 1\nu 7 3ff0000000000000\ndeparted 0\nimported 0\n\
              decisions 0\nend\n";
    let mut engine =
        AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config()).unwrap();
    let err = engine.restore_snapshot(v2).unwrap_err();
    assert!(
        matches!(&err, JournalError::Snapshot { line: 1, reason }
            if reason.contains("version") && reason.contains("dvs-admit-snapshot v2")),
        "unexpected error: {err}"
    );
    // What this build writes is v3, and it restores.
    let (_, snapshots) = journal_with_snapshots(&tmp("version.wal"));
    assert!(snapshots[0]
        .2
        .starts_with("dvs-admit-snapshot v3\nbase 0 0\n"));
    engine.restore_snapshot(&snapshots[0].2).unwrap();
}
