//! The replication and failover invariants, end to end at the library
//! level: a hot-standby follower streaming the primary's journal keeps a
//! bit-identical decision log; disconnects, torn frames, and promotion
//! all preserve that identity; a deposed primary is fenced off by epoch.

use std::io::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_admit::journal::JournalConfig;
use dvs_admit::replication::{
    self, serve_hub, FollowEnd, FollowerOptions, HubOptions, ReplicationHub, RoleContext,
};
use dvs_admit::{AdmissionEngine, EngineConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;
use rt_model::io::EventRecord;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvs_admit_repl_{}", std::process::id()));
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
        snapshot_every: 8,
        ..JournalConfig::default()
    }
}

fn engine_with_domains(domains: usize) -> AdmissionEngine {
    let cpus = (0..domains).map(|_| xscale_ideal()).collect();
    AdmissionEngine::new(cpus, Box::new(OnlineGreedy), config()).unwrap()
}

fn engine() -> AdmissionEngine {
    engine_with_domains(1)
}

/// A journaled primary that has stamped its epoch (as `dvs_admitd` does).
fn primary_engine(path: &PathBuf, domains: usize) -> AdmissionEngine {
    let _ = std::fs::remove_file(path);
    let mut e = engine_with_domains(domains);
    let journal = dvs_admit::Journal::create(path, jconfig()).unwrap();
    e.attach_journal(journal);
    e.stamp_epoch().unwrap();
    e
}

struct Fixture {
    primary: Arc<Mutex<AdmissionEngine>>,
    follower: Arc<Mutex<AdmissionEngine>>,
    ctx: Arc<RoleContext>,
    hub: Arc<ReplicationHub>,
    hub_thread: Option<std::thread::JoinHandle<()>>,
    follower_thread: Option<std::thread::JoinHandle<Result<FollowEnd, dvs_admit::AdmitError>>>,
    addr: String,
    journal_path: PathBuf,
    mirror_path: PathBuf,
}

fn hub_options() -> HubOptions {
    HubOptions {
        poll: Duration::from_millis(1),
        heartbeat_every: Duration::from_millis(20),
    }
}

fn follower_options(addr: &str, mirror: &Path) -> FollowerOptions {
    FollowerOptions {
        primary: addr.to_string(),
        mirror: mirror.to_path_buf(),
        read_timeout: Duration::from_millis(5),
        heartbeat_timeout: Duration::from_millis(400),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        ..FollowerOptions::default()
    }
}

impl Fixture {
    /// Primary + hub + connected follower, mirror starting empty.
    fn start(tag: &str) -> Fixture {
        Fixture::start_with_domains(tag, 1)
    }

    /// [`Fixture::start`] with `domains` identical power domains on both
    /// the primary and the standby.
    fn start_with_domains(tag: &str, domains: usize) -> Fixture {
        let journal_path = tmp(&format!("{tag}.wal"));
        let mirror_path = tmp(&format!("{tag}.mirror"));
        let _ = std::fs::remove_file(&mirror_path);
        let primary = Arc::new(Mutex::new(primary_engine(&journal_path, domains)));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hub = Arc::new(ReplicationHub::new(1));
        let hub_thread = {
            let hub = Arc::clone(&hub);
            let path = journal_path.clone();
            Some(std::thread::spawn(move || {
                let _ = serve_hub(&listener, &path, &hub, hub_options());
            }))
        };
        let follower = Arc::new(Mutex::new(engine_with_domains(domains)));
        let ctx = Arc::new(RoleContext::follower(&mirror_path, jconfig()));
        let mut f = Fixture {
            primary,
            follower,
            ctx,
            hub,
            hub_thread,
            follower_thread: None,
            addr,
            journal_path,
            mirror_path,
        };
        f.start_follower();
        f
    }

    fn start_follower(&mut self) {
        let engine = Arc::clone(&self.follower);
        let ctx = Arc::clone(&self.ctx);
        let opts = follower_options(&self.addr, &self.mirror_path);
        self.follower_thread = Some(std::thread::spawn(move || {
            replication::run_follower(&engine, &ctx.role, &opts)
        }));
    }

    fn apply(&self, events: &[EventRecord]) {
        let mut g = self
            .primary
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for e in events {
            g.apply(e).unwrap();
        }
    }

    /// Waits until the follower has applied as many events as the primary.
    fn wait_catchup(&self) {
        let target = {
            let g = self
                .primary
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.metrics().events
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let got = {
                let g = self
                    .follower
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                g.metrics().events
            };
            if got >= target {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "follower stuck at {got}/{target} events"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn stop_follower(&mut self) -> FollowEnd {
        self.ctx.role.request_stop();
        self.follower_thread
            .take()
            .expect("follower running")
            .join()
            .unwrap()
            .unwrap()
    }

    fn shutdown(mut self) {
        if self.follower_thread.is_some() {
            self.stop_follower();
        }
        self.hub.shutdown();
        if let Some(t) = self.hub_thread.take() {
            let _ = t.join();
        }
    }
}

fn logs(engine: &Mutex<AdmissionEngine>) -> (String, String) {
    let g = engine
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    (g.format_decision_log(), g.metrics().deterministic_summary())
}

/// Reference: the same trace applied to a bare engine.
fn reference(trace: &[EventRecord]) -> (String, String) {
    let mut e = engine();
    for ev in trace {
        e.apply(ev).unwrap();
    }
    (e.format_decision_log(), e.metrics().deterministic_summary())
}

/// Streaming replication reproduces the primary's decision log bit for
/// bit on the standby, across seeds.
#[test]
fn follower_log_is_bit_identical_across_seeds() {
    for seed in 0..3u64 {
        let trace = TraceSpec::new(14, 2.2, seed).generate().unwrap();
        let (ref_log, ref_sum) = reference(&trace);
        let mut f = Fixture::start(&format!("identity_{seed}"));
        f.apply(&trace);
        f.wait_catchup();
        let end = f.stop_follower();
        assert_eq!(end, FollowEnd::Stopped);
        let (log, sum) = logs(&f.follower);
        assert_eq!(log, ref_log, "seed {seed}: standby log diverged");
        assert_eq!(sum, ref_sum, "seed {seed}: metrics diverged");
        {
            let g = f
                .follower
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let m = g.metrics();
            assert!(m.repl_records > 0, "no frames applied");
            assert!(m.repl_bytes > 0, "no bytes mirrored");
            assert_eq!(m.epoch_bumps, 0, "no failover happened");
        }
        f.shutdown();
    }
}

/// Multi-domain replication determinism: a primary running several power
/// domains over a **domain-pinned** trace streams to a standby that
/// reproduces the cross-domain decision log bit for bit. This is the
/// replication leg of the cluster contract — the same pinned traces drive
/// the router's sharded log identity.
#[test]
fn multi_domain_follower_log_is_bit_identical() {
    const DOMAINS: usize = 3;
    for seed in [2u64, 8] {
        let trace = TraceSpec::new(16, 2.4, seed)
            .domains(DOMAINS)
            .generate()
            .unwrap();
        let (ref_log, ref_sum) = {
            let mut e = engine_with_domains(DOMAINS);
            for ev in &trace {
                e.apply(ev).unwrap();
            }
            (e.format_decision_log(), e.metrics().deterministic_summary())
        };
        // The pinned trace must actually spread decisions across domains,
        // otherwise this test degenerates to the single-domain one.
        for d in 1..DOMAINS {
            assert!(
                ref_log.contains(&format!("@{d}")),
                "seed {seed}: no decisions on domain {d}"
            );
        }
        let mut f = Fixture::start_with_domains(&format!("multidom_{seed}"), DOMAINS);
        f.apply(&trace);
        f.wait_catchup();
        let end = f.stop_follower();
        assert_eq!(end, FollowEnd::Stopped);
        let (log, sum) = logs(&f.follower);
        assert_eq!(
            log, ref_log,
            "seed {seed}: multi-domain standby log diverged"
        );
        assert_eq!(sum, ref_sum, "seed {seed}: multi-domain metrics diverged");
        f.shutdown();
    }
}

/// A mid-stream disconnect (the hub dies and is rebound on the same
/// port) reconnects from the mirror cursor and converges to the same
/// log; the reconnect is counted.
#[test]
fn mid_stream_disconnect_reconnects_and_converges() {
    let trace = TraceSpec::new(14, 2.2, 5).generate().unwrap();
    let (ref_log, _) = reference(&trace);
    let cut = trace.len() / 2;
    let mut f = Fixture::start("reconnect");
    f.apply(&trace[..cut]);
    f.wait_catchup();

    // Kill the hub: every follower connection drops.
    f.hub.shutdown();
    if let Some(t) = f.hub_thread.take() {
        let _ = t.join();
    }
    // Rebind the same port and serve the same journal again.
    let listener = loop {
        match TcpListener::bind(&f.addr) {
            Ok(l) => break l,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let hub = Arc::new(ReplicationHub::new(1));
    f.hub = Arc::clone(&hub);
    let path = f.journal_path.clone();
    f.hub_thread = Some(std::thread::spawn(move || {
        let _ = serve_hub(&listener, &path, &hub, hub_options());
    }));

    f.apply(&trace[cut..]);
    f.wait_catchup();
    f.stop_follower();
    let (log, _) = logs(&f.follower);
    assert_eq!(log, ref_log, "log diverged across the disconnect");
    {
        let g = f
            .follower
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(
            g.metrics().repl_reconnects >= 1,
            "reconnect not counted: {:?}",
            g.metrics().repl_reconnects
        );
    }
    f.shutdown();
}

/// A torn partial frame at the mirror's tail (as a kill mid-write leaves
/// behind) is truncated by the resync scan, counted, and re-fetched: the
/// log still converges.
#[test]
fn torn_mirror_tail_is_resynced_and_counted() {
    let trace = TraceSpec::new(12, 2.0, 9).generate().unwrap();
    let (ref_log, _) = reference(&trace);
    let cut = trace.len() / 2;
    let mut f = Fixture::start("torn");
    f.apply(&trace[..cut]);
    f.wait_catchup();
    f.stop_follower();

    // Simulate a kill mid-append: a frame header promising more
    // payload than follows.
    {
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&f.mirror_path)
            .unwrap();
        let mut torn = vec![0xA6, b'E'];
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        torn.extend_from_slice(b"n 1 arrive");
        file.write_all(&torn).unwrap();
    }

    f.start_follower();
    f.apply(&trace[cut..]);
    f.wait_catchup();
    f.stop_follower();
    let (log, _) = logs(&f.follower);
    assert_eq!(log, ref_log, "log diverged across the torn tail");
    {
        let g = f
            .follower
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(g.metrics().repl_torn_tails, 1, "torn tail not counted");
    }
    // The mirror's torn bytes were truncated before re-streaming:
    // scanning it now loses nothing.
    let data = std::fs::read(&f.mirror_path).unwrap();
    let scan = dvs_admit::journal::scan_bytes(&data);
    assert_eq!(scan.bytes_lost(), 0, "mirror still torn after resync");
    f.shutdown();
}

/// Failover: promote the caught-up standby, apply the rest of the trace
/// to it, and the combined decision log is bit-identical to an
/// uninterrupted run. The balance invariant holds across the boundary
/// and the epoch advanced past the primary's.
#[test]
fn promoted_follower_resumes_bit_identically() {
    for seed in [1u64, 8, 21] {
        let trace = TraceSpec::new(14, 2.4, seed).generate().unwrap();
        let (ref_log, ref_sum) = reference(&trace);
        let cut = 1 + (seed as usize * 5 + 2) % (trace.len() - 1);
        let mut f = Fixture::start(&format!("promote_{seed}"));
        f.apply(&trace[..cut]);
        f.wait_catchup();

        // The primary "dies"; the standby is promoted.
        f.hub.shutdown();
        if let Some(t) = f.hub_thread.take() {
            let _ = t.join();
        }
        let epoch = replication::promote(&f.follower, &f.ctx).unwrap();
        assert_eq!(epoch, 2, "promotion must fence past the primary's epoch 1");
        assert!(f.ctx.role.is_primary());
        let end = f.follower_thread.take().unwrap().join().unwrap().unwrap();
        assert_eq!(end, FollowEnd::PromoteRequested);

        // Promotion is idempotent.
        assert_eq!(replication::promote(&f.follower, &f.ctx).unwrap(), 2);

        {
            let mut g = f
                .follower
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for e in &trace[cut..] {
                g.apply(e).unwrap();
            }
            let m = g.metrics();
            assert_eq!(
                m.accepted() + m.rejected + m.standing_shed(),
                m.arrivals,
                "seed {seed}: balance broken across failover"
            );
            assert_eq!(m.epoch_bumps, 1);
            assert_eq!(g.epoch(), 2);
        }
        let (log, sum) = logs(&f.follower);
        assert_eq!(log, ref_log, "seed {seed}: failed-over log diverged");
        assert_eq!(sum, ref_sum, "seed {seed}: failed-over metrics diverged");

        // The promoted journal (the mirror) is now a valid journal a
        // fresh engine can recover the same log from.
        let recovered = AdmissionEngine::recover(
            &f.mirror_path,
            vec![xscale_ideal()],
            Box::new(OnlineGreedy),
            config(),
            jconfig(),
        )
        .unwrap();
        assert_eq!(recovered.records_lost, 0);
        assert_eq!(recovered.engine.format_decision_log(), ref_log);
        assert_eq!(
            recovered.engine.epoch(),
            2,
            "epoch must recover from the B record"
        );
        f.shutdown();
    }
}

/// Promotion and delta snapshots: the mirror holds the primary's `S`
/// chain (one complete record, then deltas) and, once promoted, the
/// standby appends its own — whose first record must be complete, because
/// the standby never decoded the primary's. Promote before the primary's
/// first snapshot and after several; kill the promoted node before its own
/// first snapshot and after two; every recovery of its file reproduces the
/// uninterrupted log.
#[test]
fn promoted_journal_recovers_before_and_after_its_own_snapshots() {
    let trace = TraceSpec::new(24, 2.4, 13).generate().unwrap();
    assert!(trace.len() > 60, "trace too short: {}", trace.len());
    let recover = |mirror: &Path| {
        AdmissionEngine::recover(
            mirror,
            vec![xscale_ideal()],
            Box::new(OnlineGreedy),
            config(),
            jconfig(),
        )
        .unwrap()
    };
    // (cut, snapshots the primary had written by then)
    for (cut, primary_snapshots) in [(5usize, 0usize), (36, 4)] {
        let mut f = Fixture::start(&format!("promote_chain_{cut}"));
        f.apply(&trace[..cut]);
        f.wait_catchup();
        f.hub.shutdown();
        if let Some(t) = f.hub_thread.take() {
            let _ = t.join();
        }
        replication::promote(&f.follower, &f.ctx).unwrap();
        let _ = f.follower_thread.take().unwrap().join().unwrap().unwrap();

        // The promoted node serves a few events (no snapshot of its own
        // yet) and dies: recovery anchors on the primary's chain.
        let mid = cut + 2;
        let expected = |upto: usize| reference(&trace[..upto]).0;
        {
            let mut g = f.follower.lock().unwrap();
            for e in &trace[cut..mid] {
                g.apply(e).unwrap();
            }
        }
        let copy = tmp(&format!("promote_chain_{cut}.early"));
        std::fs::copy(&f.mirror_path, &copy).unwrap();
        let early = recover(&copy);
        assert_eq!(early.had_snapshot, primary_snapshots > 0);
        assert_eq!(early.engine.format_decision_log(), expected(mid));
        assert_eq!(early.engine.epoch(), 2);

        // It serves past two snapshots of its own and dies again.
        let late = mid + 2 * jconfig().snapshot_every as usize;
        {
            let mut g = f.follower.lock().unwrap();
            for e in &trace[mid..late] {
                g.apply(e).unwrap();
            }
        }
        let complete: Vec<bool> = dvs_admit::journal::scan(&f.mirror_path)
            .unwrap()
            .records
            .iter()
            .filter(|r| r.kind == dvs_admit::journal::RecordKind::Snapshot)
            .map(|r| r.payload.lines().nth(1) == Some("base 0 0"))
            .collect();
        let mut want = vec![false; primary_snapshots + 2];
        if primary_snapshots > 0 {
            want[0] = true;
        }
        want[primary_snapshots] = true;
        assert_eq!(
            complete, want,
            "cut {cut}: one complete S per writer, deltas after it"
        );
        let recovered = recover(&f.mirror_path);
        assert!(recovered.had_snapshot);
        assert_eq!(recovered.records_lost, 0);
        assert_eq!(recovered.engine.format_decision_log(), expected(late));
        assert_eq!(recovered.engine.epoch(), 2);
        f.shutdown();
    }
}

/// A deposed primary (older epoch) cannot feed a promoted follower: the
/// handshake is fenced off on both sides.
#[test]
fn deposed_primary_is_fenced_off() {
    let trace = TraceSpec::new(10, 2.0, 3).generate().unwrap();
    let mut f = Fixture::start("fence");
    f.apply(&trace);
    f.wait_catchup();
    f.stop_follower();

    // The follower has been promoted elsewhere to epoch 3; its fence
    // must reject the old primary's epoch-1 stream.
    {
        let mut g = f
            .follower
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.observe_epoch(3).unwrap();
    }
    f.start_follower();
    let end = f.follower_thread.take().unwrap().join().unwrap().unwrap();
    assert_eq!(end, FollowEnd::StaleSource);
    {
        let g = f
            .follower
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(
            g.metrics().epoch_rejects >= 1,
            "fence rejection not counted"
        );
    }
    // The hub noticed it is deposed and refuses to stream.
    assert!(f.hub.deposed(), "primary did not notice the higher term");
    assert!(f.hub.stale_rejects() >= 1);
    f.shutdown();
}

/// Engine-level fencing: a stale `begin_epoch` is rejected with the
/// structured stale-epoch error, and `observe_epoch` below the fence
/// likewise.
#[test]
fn epoch_fencing_rejects_stale_writes() {
    let mut e = engine();
    assert_eq!(e.epoch(), 1);
    e.begin_epoch(3).unwrap();
    assert_eq!(e.epoch(), 3);
    let err = e.begin_epoch(3).unwrap_err();
    assert_eq!(err.kind(), "stale-epoch");
    let err = e.begin_epoch(2).unwrap_err();
    assert_eq!(err.kind(), "stale-epoch");
    let err = e.observe_epoch(2).unwrap_err();
    assert_eq!(err.kind(), "stale-epoch");
    e.observe_epoch(3).unwrap(); // equal to the fence: fine
    e.observe_epoch(7).unwrap(); // advancing: fine
    assert_eq!(e.epoch(), 7);
    assert_eq!(e.metrics().epoch_bumps, 2, "3 and 7 each bumped the fence");
}
