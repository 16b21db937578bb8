//! Live-migration mechanics at the engine level: exporting a domain
//! fences it and moves its ledger share out, importing rebuilds the
//! domain exactly, both operations are idempotent (export replays its
//! stored payload, import dedupes on its key), and both are journaled
//! record kinds that replay on recovery.

use std::path::PathBuf;

use dvs_admit::json::{self, JsonValue};
use dvs_admit::{AdmissionEngine, AdmitError, EngineConfig, Journal, JournalConfig, TraceSpec};
use dvs_power::presets::{cubic_ideal, xscale_ideal};
use reject_sched::online::OnlineGreedy;
use rt_model::io::{EventKind, EventRecord};
use rt_model::Task;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs_admit_migration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn config() -> EngineConfig {
    EngineConfig::default()
        .resolve_every(2)
        .resolve_budget(5_000)
}

/// A two-domain engine (distinct processors, so payload CPU specs are
/// telling) fed a pinned trace.
fn fed_engine(seed: u64) -> AdmissionEngine {
    let mut engine = AdmissionEngine::new(
        vec![cubic_ideal(), xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
    )
    .unwrap();
    let trace = TraceSpec::new(14, 2.4, seed).domains(2).generate().unwrap();
    dvs_admit::trace::replay(&mut engine, &trace).unwrap();
    engine
}

fn stat(engine: &AdmissionEngine, key: &str) -> u64 {
    let pairs = json::parse_object(&engine.stats_json()).unwrap();
    json::get(&pairs, key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing stat {key:?}")) as u64
}

/// Exporting fences the slot, hands back a stable payload, and moves
/// exactly the domain's ledger share out of the engine's counters —
/// the per-engine balance invariant holds before and after.
#[test]
fn export_fences_the_domain_and_moves_its_ledger_share() {
    let mut engine = fed_engine(7);
    // The trace has fully drained by its end; land a few pinned arrivals
    // afterwards so domain 1 holds live ledger state when it is exported.
    for (id, dom) in [(901usize, 0usize), (902, 1), (903, 1)] {
        let task = Task::new(id, 60.0, 40)
            .unwrap()
            .with_penalty(2.0)
            .with_domain(dom);
        engine
            .apply(&EventRecord {
                at: 4_100.0,
                kind: EventKind::Arrive(task),
            })
            .unwrap();
    }
    let arrivals_before = stat(&engine, "arrivals");
    let balance = |e: &AdmissionEngine| {
        assert_eq!(
            stat(e, "accepted") + stat(e, "rejected") + stat(e, "shed"),
            stat(e, "arrivals"),
            "engine balance broken: {}",
            e.stats_json()
        );
    };
    balance(&engine);
    let payload = engine.export_domain(1).unwrap();
    assert!(
        payload.starts_with("clock "),
        "unexpected payload {payload:?}"
    );
    assert!(engine.domain_is_fenced(1));
    assert_eq!(engine.fenced_count(), 1);
    assert!(
        stat(&engine, "arrivals") < arrivals_before,
        "the exported domain's arrivals must leave the source ledger"
    );
    balance(&engine);
    // Idempotent: a re-export of a fenced slot replays the stored bytes.
    assert_eq!(engine.export_domain(1).unwrap(), payload);
    // The fenced slot refuses pinned arrivals with the typed error.
    let task = Task::new(900usize, 100.0, 50)
        .unwrap()
        .with_penalty(3.0)
        .with_domain(1);
    let err = engine
        .apply(&EventRecord {
            at: 4_200.0,
            kind: EventKind::Arrive(task),
        })
        .unwrap_err();
    assert!(
        matches!(err, AdmitError::DomainFenced { domain: 1, .. }),
        "expected DomainFenced, got {err}"
    );
    // Out-of-range exports are typed migration errors.
    assert!(matches!(
        engine.export_domain(9),
        Err(AdmitError::Migration { .. })
    ));
}

/// Importing rebuilds the domain on a fresh engine: the moved ledger
/// share lands there (cluster-wide sums are conserved), the key dedupes
/// retries, and malformed payloads or keys are typed errors.
#[test]
fn import_rebuilds_the_domain_and_dedupes_on_the_key() {
    let mut src = fed_engine(9);
    let total_arrivals = stat(&src, "arrivals");
    let payload = src.export_domain(0).unwrap();
    let mut dst =
        AdmissionEngine::with_domains(Vec::new(), Box::new(OnlineGreedy), config()).unwrap();
    let local = dst.import_domain("2:0", &payload).unwrap();
    assert_eq!(local, 0, "first import lands on the first slot");
    assert_eq!(
        stat(&src, "arrivals") + stat(&dst, "arrivals"),
        total_arrivals,
        "migration must conserve the cluster-wide arrival count"
    );
    assert_eq!(
        stat(&src, "accepted")
            + stat(&dst, "accepted")
            + stat(&src, "rejected")
            + stat(&dst, "rejected")
            + stat(&src, "shed")
            + stat(&dst, "shed"),
        total_arrivals,
        "migration must conserve the cluster-wide balance"
    );
    // A retried import under the same key answers the same slot without
    // double-applying anything.
    assert_eq!(dst.import_domain("2:0", &payload).unwrap(), 0);
    assert_eq!(stat(&dst, "domains"), 1);
    // Typed failures: blank keys, garbage payloads.
    assert!(matches!(
        dst.import_domain("", &payload),
        Err(AdmitError::Migration { .. })
    ));
    assert!(matches!(
        dst.import_domain("3:1", "not a payload"),
        Err(AdmitError::Migration { .. })
    ));
}

/// Export and import are journaled (`X` / `I` records): an engine
/// dropped cold after either operation recovers to the same state, and
/// the recovered source replays its export to byte-identical bytes.
#[test]
fn export_and_import_replay_from_the_journal() {
    let src_path = tmp("src.wal");
    let dst_path = tmp("dst.wal");
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);

    let (payload, src_stats) = {
        let mut src = fed_engine(11);
        // Attach a journal and snapshot the fed state, then export: the
        // journal tail carries the X record.
        let journal = Journal::create(&src_path, JournalConfig::default()).unwrap();
        src.attach_journal(journal);
        src.snapshot_now().unwrap();
        let payload = src.export_domain(1).unwrap();
        (payload, src.metrics().deterministic_summary())
        // Dropped cold here: no drain, no closing snapshot.
    };
    let recovered = AdmissionEngine::recover(
        &src_path,
        vec![cubic_ideal(), xscale_ideal()],
        Box::new(OnlineGreedy),
        config(),
        JournalConfig::default(),
    )
    .unwrap();
    let mut src = recovered.engine;
    assert!(src.domain_is_fenced(1), "fence must survive recovery");
    assert_eq!(
        src.export_domain(1).unwrap(),
        payload,
        "recovered export must replay the journaled payload byte for byte"
    );
    assert_eq!(
        src.metrics().deterministic_summary(),
        src_stats,
        "recovered source metrics diverged"
    );

    let dst_stats = {
        let mut dst =
            AdmissionEngine::with_domains(Vec::new(), Box::new(OnlineGreedy), config()).unwrap();
        let journal = Journal::create(&dst_path, JournalConfig::default()).unwrap();
        dst.attach_journal(journal);
        assert_eq!(dst.import_domain("2:1", &payload).unwrap(), 0);
        dst.metrics().deterministic_summary()
        // Dropped cold here.
    };
    let recovered = AdmissionEngine::recover(
        &dst_path,
        Vec::new(),
        Box::new(OnlineGreedy),
        config(),
        JournalConfig::default(),
    )
    .unwrap();
    let mut dst = recovered.engine;
    assert_eq!(
        dst.metrics().deterministic_summary(),
        dst_stats,
        "recovered import target diverged"
    );
    // The idempotency key also survives recovery: the same import is
    // still deduplicated, not double-applied.
    assert_eq!(dst.import_domain("2:1", &payload).unwrap(), 0);
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&dst_path);
}
