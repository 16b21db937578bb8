//! **R3 (extension) — failover: replication tax, sync lag, promotion cost.**
//!
//! Measures what a hot standby costs while the primary is healthy and what
//! a failover costs when it is not. Each seed replays an E8-style overload
//! session through three serving shapes:
//!
//! * **solo** — a journaled primary with no follower (the R2 reference);
//! * **replicated** — the same primary with a live follower streaming its
//!   journal over a localhost socket and applying every event to a mirror
//!   engine; after the session the follower must converge to a decision
//!   log **bit-identical** to the primary's, and the wall time from the
//!   primary's last acknowledgement to that convergence is the sync lag;
//! * **failover** — the session is cut at a seed-derived point, the
//!   primary is killed *without* waiting for the standby to catch up
//!   (the replication hub dies mid-stream, exactly like a `kill -9`),
//!   the follower is promoted (park the replica loop, drain the mirror
//!   tail, attach the mirror as the live journal, fence a new epoch),
//!   and the rest of the session is replayed from the promoted node's
//!   resume cursor — the at-least-once client contract. The merged
//!   decision log must equal the uninterrupted reference bit for bit.
//!
//! Reported: events/s solo and replicated, the standby's throughput tax
//! on the primary, the mean sync lag, the mean
//! [`promote`] wall time, the mean number of events the "client" had to
//! resend after promotion (the at-least-once window the mid-stream kill
//! opens), and the identity verdict. Wall-clock and resend columns are
//! excluded from regression gating as usual; the identity column is the
//! invariant.
//!
//! Like T2/E8/R2 this experiment times real work, so the harness runs it
//! alone, after the parallel batch.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_admit::replication::{
    promote, run_follower, serve_hub, FollowerOptions, HubOptions, ReplicationHub, RoleContext,
};
use dvs_admit::{AdmissionEngine, EngineConfig, Journal, JournalConfig, TraceSpec};
use dvs_power::presets::xscale_ideal;
use reject_sched::online::OnlineGreedy;

use crate::{mean, Scale, Table};

/// Session size/load: the same sustained-overload shape as R2.
pub const N: usize = 24;

/// Total utilization demand (overload: rejections and sheds occur).
pub const LOAD: f64 = 3.0;

/// Journal snapshot cadence, as in R2: full-scale sessions cross several
/// snapshots so mirrors carry `S` frames, not just events.
pub const SNAPSHOT_EVERY: u64 = 64;

/// How long the catch-up and promotion barriers may wait before the run
/// is declared broken (generous: normal convergence is milliseconds).
const BARRIER: Duration = Duration::from_secs(20);

/// The session spec for one seed.
#[must_use]
pub fn spec(scale: Scale, seed: u64) -> TraceSpec {
    let tick_every = match scale {
        Scale::Quick => 50.0,
        Scale::Full => 10.0,
    };
    TraceSpec::new(N, LOAD, seed).tick_every(tick_every)
}

fn config() -> EngineConfig {
    EngineConfig::default().resolve_every(1)
}

fn jconfig() -> JournalConfig {
    JournalConfig {
        snapshot_every: SNAPSHOT_EVERY,
        ..JournalConfig::default()
    }
}

/// A directory of its own for every call: runs of the same seed may
/// overlap (the tests run in parallel) and must not share journal files.
fn tmp_dir() -> PathBuf {
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bench_r3_failover_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn new_engine() -> AdmissionEngine {
    AdmissionEngine::new(vec![xscale_ideal()], Box::new(OnlineGreedy), config())
        .expect("at least one domain")
}

/// A journaled primary with a replication hub streaming its journal.
struct Primary {
    engine: AdmissionEngine,
    hub: Arc<ReplicationHub>,
    hub_thread: Option<std::thread::JoinHandle<()>>,
    addr: String,
}

impl Primary {
    fn spawn(wal: &PathBuf) -> Primary {
        let _ = std::fs::remove_file(wal);
        let mut engine = new_engine();
        engine.attach_journal(Journal::create(wal, jconfig()).expect("journal create"));
        engine.stamp_epoch().expect("epoch stamp");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let hub = Arc::new(ReplicationHub::new(engine.epoch()));
        let hh = Arc::clone(&hub);
        let path = wal.clone();
        let hub_thread = Some(std::thread::spawn(move || {
            let _ = serve_hub(&listener, &path, &hh, HubOptions::default());
        }));
        Primary {
            engine,
            hub,
            hub_thread,
            addr,
        }
    }

    /// Kills the replication hub mid-stream — the in-process analogue of
    /// `kill -9` on the primary: whatever bytes the standby has not yet
    /// received are gone with it.
    fn kill(&mut self) {
        self.hub.shutdown();
        if let Some(t) = self.hub_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Primary {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A hot standby: a bare engine fed by a replica loop in a side thread.
struct Standby {
    engine: Arc<Mutex<AdmissionEngine>>,
    ctx: Arc<RoleContext>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Standby {
    fn spawn(primary_addr: &str, mirror: &PathBuf, seed: u64) -> Standby {
        let _ = std::fs::remove_file(mirror);
        let engine = Arc::new(Mutex::new(new_engine()));
        let ctx = Arc::new(RoleContext::follower(mirror, jconfig()));
        let fopts = FollowerOptions {
            primary: primary_addr.to_string(),
            mirror: mirror.clone(),
            seed: seed ^ 0x5EED_FA11,
            ..FollowerOptions::default()
        };
        let fengine = Arc::clone(&engine);
        let fctx = Arc::clone(&ctx);
        let thread = Some(std::thread::spawn(move || {
            let _ = run_follower(&fengine, &fctx.role, &fopts);
        }));
        Standby {
            engine,
            ctx,
            thread,
        }
    }

    fn events(&self) -> u64 {
        let g = self
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        g.metrics().events
    }

    /// Blocks until the standby has applied `target` events.
    fn await_events(&self, target: u64) {
        let deadline = Instant::now() + BARRIER;
        while self.events() < target {
            assert!(
                Instant::now() < deadline,
                "standby stuck at {}/{target} events",
                self.events()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stop(&mut self) {
        self.ctx.role.request_stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One seed's measurements.
pub struct FailoverRun {
    /// Events/s of the journaled primary with no follower.
    pub eps_solo: f64,
    /// Events/s of the same primary while a standby streams and applies.
    pub eps_replicated: f64,
    /// Wall time from the primary's last acknowledgement to the standby
    /// holding every event, in ms.
    pub sync_lag_ms: f64,
    /// Wall time of the [`promote`] call, in ms.
    pub promote_ms: f64,
    /// Events the client had to resend after promotion (acknowledged by
    /// the dead primary but not yet received by the standby).
    pub resent: u64,
    /// Whether the failed-over decision log matched the uninterrupted
    /// run bit for bit.
    pub identical: bool,
}

/// Replays one seed through all three serving shapes.
///
/// # Panics
///
/// Panics if trace generation, the engine, replication, or journal I/O
/// fails, or if a standby fails to converge.
#[must_use]
pub fn run_one(scale: Scale, seed: u64) -> FailoverRun {
    let trace = spec(scale, seed).generate().expect("trace generation");
    let dir = tmp_dir();

    // Solo: journaled, no follower (the reference).
    let wal = dir.join(format!("r3_{seed}_solo.wal"));
    let _ = std::fs::remove_file(&wal);
    let mut solo = new_engine();
    solo.attach_journal(Journal::create(&wal, jconfig()).expect("journal create"));
    solo.stamp_epoch().expect("epoch stamp");
    dvs_admit::trace::replay(&mut solo, &trace).expect("generated traces are valid");
    let eps_solo = solo.metrics().events_per_sec();
    let ref_log = solo.format_decision_log();

    // Replicated: the standby streams while the primary serves.
    let wal_rep = dir.join(format!("r3_{seed}_rep.wal"));
    let mirror_rep = dir.join(format!("r3_{seed}_rep.mirror"));
    let mut primary = Primary::spawn(&wal_rep);
    let mut standby = Standby::spawn(&primary.addr, &mirror_rep, seed);
    dvs_admit::trace::replay(&mut primary.engine, &trace).expect("generated traces are valid");
    let eps_replicated = primary.engine.metrics().events_per_sec();
    let acked = primary.engine.metrics().events;
    let t0 = Instant::now();
    standby.await_events(acked);
    let sync_lag_ms = t0.elapsed().as_secs_f64() * 1e3;
    standby.stop();
    primary.kill();
    {
        let g = standby
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(
            g.format_decision_log(),
            ref_log,
            "a converged standby must hold the primary's exact decision log"
        );
    }

    // Failover: cut the session, kill the primary mid-stream, promote,
    // resume from the promoted node's cursor.
    let cut = 1 + (seed as usize * 13 + 7) % (trace.len() - 1);
    let wal_cut = dir.join(format!("r3_{seed}_cut.wal"));
    let mirror_cut = dir.join(format!("r3_{seed}_cut.mirror"));
    let mut victim = Primary::spawn(&wal_cut);
    let mut standby = Standby::spawn(&victim.addr, &mirror_cut, seed);
    for e in &trace[..cut] {
        victim.engine.apply(e).expect("generated traces are valid");
    }
    let acked = victim.engine.metrics().events;
    victim.kill();
    drop(victim);

    let started = Instant::now();
    let epoch = promote(&standby.engine, &standby.ctx).expect("promotion");
    let promote_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(epoch >= 2, "promotion must fence a fresh epoch");
    if let Some(t) = standby.thread.take() {
        let _ = t.join(); // the replica loop parked for the promotion
    }
    let (resent, identical) = {
        let mut g = standby
            .engine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The promoted node resumes at its replay cursor; an at-least-once
        // client re-sends everything it is not sure survived.
        let resume = g.metrics().events;
        assert!(resume <= acked, "standby cannot be ahead of the primary");
        for e in &trace[resume as usize..] {
            g.apply(e).expect("generated traces are valid");
        }
        (acked - resume, g.format_decision_log() == ref_log)
    };

    for p in [&wal, &wal_rep, &mirror_rep, &wal_cut, &mirror_cut] {
        let _ = std::fs::remove_file(p);
    }
    let _ = std::fs::remove_dir(&dir);
    FailoverRun {
        eps_solo,
        eps_replicated,
        sync_lag_ms,
        promote_ms,
        resent,
        identical,
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if any seed fails (see [`run_one`]).
#[must_use]
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        format!(
            "R3: failover — replication tax, sync lag, promotion cost (n = {N}, load = {LOAD})"
        ),
        &[
            "eps_solo",
            "eps_replicated",
            "tax_pct",
            "sync_lag_ms",
            "promote_ms",
            "avg_resent",
            "identical",
        ],
    );
    let runs: Vec<FailoverRun> = (0..scale.seeds())
        .map(|seed| run_one(scale, seed))
        .collect();
    let solo: Vec<f64> = runs.iter().map(|r| r.eps_solo).collect();
    let rep: Vec<f64> = runs.iter().map(|r| r.eps_replicated).collect();
    let lag: Vec<f64> = runs.iter().map(|r| r.sync_lag_ms).collect();
    let prom: Vec<f64> = runs.iter().map(|r| r.promote_ms).collect();
    let resent: Vec<f64> = runs.iter().map(|r| r.resent as f64).collect();
    let tax = 100.0 * (1.0 - mean(&rep) / mean(&solo));
    let identical = runs.iter().all(|r| r.identical);
    table.push(&[
        format!("{:.0}", mean(&solo)),
        format!("{:.0}", mean(&rep)),
        format!("{tax:.1}"),
        format!("{:.3}", mean(&lag)),
        format!("{:.3}", mean(&prom)),
        format!("{:.1}", mean(&resent)),
        if identical { "yes" } else { "NO" }.to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_fails_over_bit_identically() {
        for seed in 0..Scale::Quick.seeds() {
            let r = run_one(Scale::Quick, seed);
            assert!(r.identical, "seed {seed}: failed-over log diverged");
            assert!(r.eps_solo > 0.0 && r.eps_replicated > 0.0);
            assert!(r.sync_lag_ms >= 0.0 && r.promote_ms >= 0.0);
        }
    }

    #[test]
    fn table_has_the_identity_column_green() {
        let table = run(Scale::Quick);
        assert_eq!(table.rows().len(), 1);
        for row in table.rows() {
            assert_eq!(row[6], "yes", "failover invariant violated: {row:?}");
            let promote: f64 = row[4].parse().unwrap();
            assert!(promote >= 0.0);
        }
    }
}
