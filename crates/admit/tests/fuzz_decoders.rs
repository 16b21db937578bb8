//! Seeded, time-boxed fuzz loops for the decoders that read bytes from
//! disk or from another process: `restore_snapshot` (complete and delta
//! `S` payloads), `journal::scan_bytes` / `check_frame` (journal frames),
//! and `import_domain`'s migration payload. Each loop mutates, truncates
//! and splices *valid* inputs under `rt_model::rng::Rng`; no input may
//! panic or allocate from a count it cannot back, and every input that is
//! accepted must yield a state whose re-encoding round-trips.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dvs_admit::journal::{check_frame, scan_bytes, FrameCheck, RecordKind};
use dvs_admit::{AdmissionEngine, AdmitError, EngineConfig, Journal, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::rng::Rng;
use rt_model::Task;

/// Wall-clock box per loop (debug build).
const BUDGET: Duration = Duration::from_millis(1500);

/// Values a numeric column is replaced with: boundaries, overflow, and
/// counts no input could back.
const EXTREMES: [&str; 8] = [
    "0",
    "1",
    "-1",
    "4294967296",
    "99999999999999",
    "18446744073709551615",
    "NaN",
    "1e999",
];

/// Bytes a position is overwritten with: separators, digits, the tags'
/// letters, the frame magic and the heartbeat byte.
const ALPHABET: &[u8] = b" \n-0123456789abcdefx\xA6\xA9";

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

fn fresh(domains: usize) -> AdmissionEngine {
    let cpus = (0..domains).map(|_| xscale_ideal()).collect();
    AdmissionEngine::with_domains(cpus, Box::new(OnlineGreedy), config()).unwrap()
}

/// Runs `case` on one seeded stream until the time box closes; returns the
/// number of cases run.
fn fuzz(seed: u64, mut case: impl FnMut(&mut Rng)) -> u64 {
    let mut rng = Rng::seed_from_u64(seed);
    let started = Instant::now();
    let mut cases = 0;
    while started.elapsed() < BUDGET {
        case(&mut rng);
        cases += 1;
    }
    assert!(cases >= 100, "only {cases} cases fit the time box");
    cases
}

/// One to three random edits of `input`: truncate, overwrite a byte, put
/// an extreme value in a numeric column, splice in a piece of `donor`,
/// drop a range, repeat a range.
fn mutate(rng: &mut Rng, input: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..1 + rng.gen_index(3) {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_index(out.len());
        match rng.gen_index(6) {
            0 => out.truncate(at),
            1 => out[at] = ALPHABET[rng.gen_index(ALPHABET.len())],
            2 => {
                // The numeric token nearest after `at`, if there is one.
                let is_num = |b: &u8| b.is_ascii_hexdigit() || *b == b'.';
                if let Some(start) = (at..out.len()).find(|&i| is_num(&out[i])) {
                    let end = (start..out.len())
                        .find(|&i| !is_num(&out[i]))
                        .unwrap_or(out.len());
                    let value = EXTREMES[rng.gen_index(EXTREMES.len())];
                    out.splice(start..end, value.bytes());
                }
            }
            3 => {
                let from = rng.gen_index(donor.len());
                out.truncate(at);
                out.extend_from_slice(&donor[from..]);
            }
            4 => {
                let end = (at + 1 + rng.gen_index(64)).min(out.len());
                out.drain(at..end);
            }
            _ => {
                let end = (at + 1 + rng.gen_index(64)).min(out.len());
                let piece = out[at..end].to_vec();
                out.splice(at..at, piece);
            }
        }
    }
    out
}

fn mutate_text(rng: &mut Rng, input: &str, donor: &str) -> String {
    String::from_utf8_lossy(&mutate(rng, input.as_bytes(), donor.as_bytes())).into_owned()
}

/// A journaled run over two domains (pinned and unpinned arrivals, a
/// standing rejection, departures, re-solves): the journal's bytes and its
/// `S` payloads — one complete, then deltas.
fn journaled_run(tag: &str) -> (Vec<u8>, Vec<String>) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("dvs_admit_fuzz_{}_{tag}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut engine = fresh(2);
    let jconfig = JournalConfig {
        snapshot_every: 8,
        ..JournalConfig::default()
    };
    engine.attach_journal(Journal::create(&path, jconfig).unwrap());
    let pinned = Task::new(9000, 2000.0, 1000)
        .unwrap()
        .with_penalty(5.0)
        .with_domain(1);
    engine
        .apply(&EventRecord::new(0.0, EventKind::Arrive(pinned)))
        .unwrap();
    for e in &TraceSpec::new(16, 2.4, 3).generate().unwrap() {
        engine.apply(e).unwrap();
    }
    drop(engine);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let snapshots: Vec<String> = scan_bytes(&bytes)
        .records
        .into_iter()
        .filter(|r| r.kind == RecordKind::Snapshot)
        .map(|r| r.payload)
        .collect();
    assert!(snapshots.len() >= 3, "want a complete S and two deltas");
    (bytes, snapshots)
}

/// An accepted snapshot must leave a state that re-encodes to a payload
/// which restores, onto a fresh engine, to the same bytes again.
fn assert_snapshot_round_trips(engine: &AdmissionEngine, input: &str) {
    let text = engine.encode_snapshot();
    let mut again = fresh(2);
    if let Err(e) = again.restore_snapshot(&text) {
        panic!("accepted {input:?} but its re-encoding fails: {e}\n{text}");
    }
    assert_eq!(again.encode_snapshot(), text, "accepted {input:?}");
}

#[test]
fn fuzz_restore_snapshot_complete() {
    let (_, snapshots) = journaled_run("complete");
    // The longest complete payload on offer: everything folded, re-encoded.
    let mut folded = fresh(2);
    for s in &snapshots {
        folded.restore_snapshot(s).unwrap();
    }
    let complete = folded.encode_snapshot();
    assert_snapshot_round_trips(&folded, &complete);
    let mut accepted = 0u64;
    let cases = fuzz(0x5EED_0001, |rng| {
        let input = mutate_text(rng, &complete, &snapshots[1]);
        let mut engine = fresh(2);
        if engine.restore_snapshot(&input).is_ok() {
            accepted += 1;
            assert_snapshot_round_trips(&engine, &input);
        }
    });
    println!("restore_snapshot (complete): {cases} cases, {accepted} accepted");
}

#[test]
fn fuzz_restore_snapshot_delta() {
    let (_, snapshots) = journaled_run("delta");
    let mut accepted = 0u64;
    let cases = fuzz(0x5EED_0002, |rng| {
        let mut engine = fresh(2);
        engine.restore_snapshot(&snapshots[0]).unwrap();
        let input = mutate_text(rng, &snapshots[1], &snapshots[2]);
        if engine.restore_snapshot(&input).is_ok() {
            accepted += 1;
            assert_snapshot_round_trips(&engine, &input);
        }
    });
    println!("restore_snapshot (delta): {cases} cases, {accepted} accepted");
}

#[test]
fn fuzz_scan_bytes() {
    let (bytes, _) = journaled_run("scan");
    let cases = fuzz(0x5EED_0003, |rng| {
        let input = mutate(rng, &bytes, &bytes);
        let scan = scan_bytes(&input);
        assert_eq!(scan.file_len, input.len() as u64);
        assert!(scan.valid_len <= scan.file_len);
        assert_eq!(scan.records_lost == 0, scan.valid_len == scan.file_len);
        // The valid prefix is a clean journal holding exactly those records.
        let prefix = scan_bytes(&input[..scan.valid_len as usize]);
        assert_eq!(prefix.records, scan.records);
        assert_eq!((prefix.records_lost, prefix.bytes_lost()), (0, 0));
        // A frame check at any offset classifies, never panics, and a
        // complete frame stays inside the input.
        let at = rng.gen_index(input.len() + 1);
        if let FrameCheck::Complete { end, .. } = check_frame(&input, at) {
            assert!(at < end && end <= input.len());
        }
    });
    println!("scan_bytes: {cases} cases");
}

#[test]
fn fuzz_import_domain_payload() {
    // Two real migration payloads: a busy domain and its quieter sibling.
    let mut source = fresh(2);
    for (i, e) in TraceSpec::new(12, 2.6, 5)
        .generate()
        .unwrap()
        .iter()
        .enumerate()
    {
        let pinned = match &e.kind {
            EventKind::Arrive(t) => EventKind::Arrive(t.with_domain(i % 2)),
            other => other.clone(),
        };
        let _ = source.apply(&EventRecord::new(e.at, pinned));
    }
    let payload = source.export_domain(0).unwrap();
    let donor = source.export_domain(1).unwrap();
    fresh(0).import_domain("k", &payload).unwrap();

    let mut accepted = 0u64;
    let cases = fuzz(0x5EED_0004, |rng| {
        let input = mutate_text(rng, &payload, &donor);
        let mut engine = fresh(0);
        match engine.import_domain("k", &input) {
            Ok(local) => {
                accepted += 1;
                // Re-encoding round-trips: what the importer exports again
                // imports elsewhere and exports to the same bytes.
                let again = engine.export_domain(local).unwrap();
                let mut other = fresh(0);
                let local = other.import_domain("k", &again).unwrap();
                assert_eq!(other.export_domain(local).unwrap(), again, "from {input:?}");
            }
            Err(AdmitError::Migration { .. } | AdmitError::Sched(_) | AdmitError::Model(_)) => {}
            Err(other) => panic!("unexpected error kind for {input:?}: {other}"),
        }
    });
    println!("import_domain: {cases} cases, {accepted} accepted");
}

/// The defect the loops above were written against, pinned directly: a
/// count the input cannot back is a typed error naming the line — not a
/// capacity-overflow panic or an allocation the size of the number.
#[test]
fn oversized_counts_are_refused_not_allocated() {
    let (_, snapshots) = journaled_run("counts");
    for tag in ["unserved", "departed", "imported", "decisions"] {
        for huge in ["99999999999999", "18446744073709551615"] {
            let at = snapshots[0].find(&format!("\n{tag} ")).unwrap() + 1;
            let end = at + snapshots[0][at..].find('\n').unwrap();
            let mut text = snapshots[0].clone();
            text.replace_range(at..end, &format!("{tag} {huge}"));
            let line = text[..at].lines().count() + 1;
            match fresh(2).restore_snapshot(&text) {
                Err(dvs_admit::journal::JournalError::Snapshot { line: l, reason }) => {
                    assert_eq!(l, line, "{tag}: {reason}");
                    assert!(reason.contains("exceeds"), "{tag}: {reason}");
                }
                other => panic!("{tag} {huge}: {other:?}"),
            }
        }
    }
    let payload = {
        let mut source = fresh(1);
        source.export_domain(0).unwrap()
    };
    let huge = payload.replace(" rej 0 ", " rej 99999999999999 ");
    assert_ne!(huge, payload);
    assert!(matches!(
        fresh(0).import_domain("k", &huge),
        Err(AdmitError::Migration { reason }) if reason.contains("exceeds")
    ));
}
