//! The traced run: per-layer metrics from a ladder of successively taller
//! stacks.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. The same fixed, small session goes through
//! `json::parse_object_into` → `AdmissionEngine::apply` on pre-parsed
//! records → `server::handle_line_with` → `serve_session` over in-memory
//! buffers → `serve_tcp` on loopback → the spawned `dvs_admitd`; then the
//! journal, a follower, and the router rungs. A rung's per-event cost minus
//! the rung below it is that layer's **self time** (see [`crate::span`]).
//! Counts are fixed, so the counters repeat exactly.
//!
//! Every traced run walks the whole ladder, so that it reports every
//! per-layer metric; the workload selects whose stack is accounted for
//! (`trace.unaccounted_share`) and written to `trace-<workload>.jsonl`.
//! The suite walks it once for all five.

use std::hint::black_box;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_admit::json;
use dvs_admit::replication::{
    promote, run_follower, serve_hub, FollowerOptions, HubOptions, ReplicationHub, RoleContext,
};
use dvs_admit::server::{handle_line_with, serve_session, serve_tcp, ServeOptions, ServerControl};
use dvs_admit::{AdmissionEngine, AdmitClient, ClientConfig, FsyncPolicy, Journal, JournalConfig};
use dvs_power::presets::xscale_ideal;
use dvs_router::{Router, ShardMap, ShardSpec};
use reject_sched::algorithms::BranchBound;
use reject_sched::anytime::{BudgetedPolicy, SolveBudget};
use reject_sched::bounds::fractional_lower_bound;
use reject_sched::online::OnlineGreedy;
use rt_model::io::{format_event, parse_event_line, EventKind, EventRecord};

use crate::offline::{self, Basket, Solver};
use crate::oracle::{self, check_log, Oracle};
use crate::report::Traced;
use crate::serve::{self, Ctx};
use crate::session::{Event, Session};
use crate::span::{SpanId, Spans};
use crate::stack::{
    at_nominal_speed, stream, LineClient, Lines, Meter, Proc, ReplyCheck, BATCH, SERVER_THREADS,
};
use crate::stats::median;
use crate::workloads::{Kind, Serve, Workload, SHARDS, SNAPSHOT_EVERY, WORKLOADS};

/// One-at-a-time requests timed after a windowed rung.
const SYNC_SAMPLES: usize = 2_000;
/// One-at-a-time requests over `dvs_routerd --listen` (44 ms each today).
const LISTEN_SAMPLES: usize = 40;
const WAIT: Duration = Duration::from_secs(20);

/// One rung's pass over the session: nanoseconds, at nominal machine
/// speed, per span of [`Traffic::span`] lines (a single entry for an
/// untraced pass).
struct Rung {
    name: &'static str,
    batches: Vec<u64>,
    /// What the rung's raw times were multiplied by (`stack::Interval`).
    scale: f64,
}

impl Rung {
    fn scaled(name: &'static str, raw: Vec<u64>, scale: f64) -> Rung {
        Rung {
            name,
            batches: raw
                .into_iter()
                .map(|ns| (ns as f64 * scale) as u64)
                .collect(),
            scale,
        }
    }

    /// Stands in for a rung that could not run (the failure is recorded).
    fn missing(name: &'static str, t: &Traffic) -> Rung {
        Rung::scaled(name, vec![1; t.n.div_ceil(t.span)], 1.0)
    }
}

impl Rung {
    fn total_ns(&self) -> u64 {
        self.batches.iter().sum()
    }
}

/// Calls `f(from, to)` for each span of `0..n`, timing every span when
/// `traced` and only the whole loop otherwise.
fn timed_batches(n: usize, span: usize, traced: bool, mut f: impl FnMut(usize, usize)) -> Vec<u64> {
    let ranges = (0..n)
        .step_by(span)
        .map(|from| (from, (from + span).min(n)));
    if traced {
        ranges
            .map(|(from, to)| {
                let t0 = Instant::now();
                f(from, to);
                t0.elapsed().as_nanos() as u64
            })
            .collect()
    } else {
        let t0 = Instant::now();
        ranges.for_each(|(from, to)| f(from, to));
        vec![t0.elapsed().as_nanos() as u64]
    }
}

/// Durations between successive span completions of a windowed stream.
fn batch_gaps(started: Instant, stamps: &[Instant]) -> Vec<u64> {
    let mut last = started;
    stamps
        .iter()
        .map(|&t| {
            let gap = t.duration_since(last).as_nanos() as u64;
            last = t;
            gap
        })
        .collect()
}

/// A fixed session in every form the rungs take.
struct Traffic {
    records: Vec<EventRecord>,
    lines: Lines,
    /// Lines of the ladder proper; the rest feed the one-at-a-time rungs.
    n: usize,
    /// Lines per span: many times the stream window, so that what a
    /// pipelined rung completes within a span is what it was sent in it.
    span: usize,
    oracle: Oracle,
}

impl Traffic {
    fn new(w: &Serve, seed: u64, n: usize, extra: usize) -> Traffic {
        let events = Session::take_events(serve::session_spec(w, seed), n + extra);
        let lines = Lines::new(events.iter().map(Event::line));
        let oracle = Oracle::replay(
            oracle::engine(w.domains.max(1), serve::engine_config(w)),
            &lines,
            n,
        );
        Traffic {
            records: events.iter().map(Event::record).collect(),
            lines,
            n,
            // A whole number of stream batches, about a sixteenth of the
            // session.
            span: (n / 16 / BATCH).max(1) * BATCH,
            oracle,
        }
    }
}

/// Per-call times of the `apply` rung, by event kind.
#[derive(Default)]
struct KindTimes {
    arrive: (u64, u64),
    depart: (u64, u64),
    tick: (u64, u64),
    /// Ticks that ran a re-solve.
    resolve: (u64, u64),
}

fn mean_ns(sum_count: (u64, u64)) -> f64 {
    sum_count.0 as f64 / sum_count.1.max(1) as f64
}

struct Ladder<'a> {
    ctx: &'a Ctx<'a>,
    seed: u64,
    out: Traced,
    /// Σ traced and Σ untraced nanoseconds of the in-process rungs.
    overhead: (u64, u64),
}

/// The spans and cost of one workload's stack.
struct Account {
    spans: Spans,
    /// Traced per-event cost of the top rung, and the same rung untraced.
    top_ns: f64,
    untraced_top_ns: f64,
    events: usize,
}

impl Account {
    fn unaccounted_share(&self) -> f64 {
        let accounted: u64 = self.spans.self_ns().iter().sum();
        let per_event = accounted as f64 / self.events as f64;
        (per_event - self.untraced_top_ns).abs() / self.untraced_top_ns
    }
}

/// Lays the rungs of a stack out as spans: `chain[i] = (rung, parent)`,
/// parents first; every rung has one entry per batch.
fn lay_out(chain: &[(&Rung, Option<usize>)], span: usize) -> Spans {
    let mut spans = Spans::default();
    let mut offset = 0;
    for b in 0..chain[0].0.batches.len() {
        let mut ids: Vec<SpanId> = Vec::with_capacity(chain.len());
        for (rung, parent) in chain {
            let ns = rung.batches[b];
            ids.push(match parent {
                None => spans.root(rung.name, (b * span) as u64, offset, ns),
                Some(p) => spans.child(ids[*p], rung.name, ns),
            });
        }
        offset += chain[0].0.batches[b];
    }
    spans
}

impl<'a> Ladder<'a> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.values.push((name, value));
    }

    fn fail(&mut self, what: String) {
        self.out.failed += 1;
        self.out.errors.push(what);
    }

    /// Runs an in-process rung untraced and traced. The untraced total
    /// feeds `trace.overhead_share`; of three traced passes the one with
    /// the median total becomes the rung, because a pass lasts tens of
    /// milliseconds and one in three meets a change of machine speed that
    /// the samples before and after it miss. Also returns the scale of the
    /// last traced pass, for whatever that pass left in the caller's state.
    fn in_process(
        &mut self,
        name: &'static str,
        n: usize,
        mut pass: impl FnMut(bool) -> Vec<u64>,
    ) -> (Rung, f64) {
        let (untraced, _, speed) = at_nominal_speed(|| pass(false));
        self.overhead.1 += (untraced.iter().sum::<u64>() as f64 * speed) as u64;
        let mut last_scale = 1.0;
        let mut passes: Vec<Rung> = (0..3)
            .map(|_| {
                let (traced, _, speed) = at_nominal_speed(|| pass(true));
                last_scale = speed;
                Rung::scaled(name, traced, speed)
            })
            .collect();
        passes.sort_by_key(Rung::total_ns);
        let rung = passes.swap_remove(1);
        self.overhead.0 += rung.total_ns();
        self.out.attempted += n as u64;
        (rung, last_scale)
    }

    // ---- the admitd ladder -------------------------------------------------

    fn rung_parse(&mut self, t: &Traffic) -> Rung {
        let mut scratch = json::Scratch::default();
        let (rung, _) = self.in_process("json.parse", t.n, |traced| {
            timed_batches(t.n, t.span, traced, |from, to| {
                for i in from..to {
                    black_box(
                        json::parse_object_into(black_box(t.lines.line(i)), &mut scratch).is_ok(),
                    );
                }
            })
        });
        rung
    }

    /// Also returns the per-kind times of the last traced pass, scaled to
    /// nominal speed, and the engine it left.
    fn rung_apply(&mut self, t: &Traffic, w: &Serve) -> (Rung, KindTimes, AdmissionEngine) {
        let mut kinds = KindTimes::default();
        let mut last = None;
        let (rung, scale) = self.in_process("engine.apply", t.n, |traced| {
            let mut engine = oracle::engine(w.domains.max(1), serve::engine_config(w));
            kinds = KindTimes::default();
            let batches = timed_batches(t.n, t.span, traced, |from, to| {
                for record in &t.records[from..to] {
                    if !traced {
                        black_box(engine.apply(record).is_ok());
                        continue;
                    }
                    // Per-call clocks, for the split by event kind.
                    let resolves = engine.metrics().resolves;
                    let t0 = Instant::now();
                    black_box(engine.apply(record).is_ok());
                    let ns = t0.elapsed().as_nanos() as u64;
                    let slot = match record.kind {
                        EventKind::Arrive(_) => &mut kinds.arrive,
                        EventKind::Depart(_) => &mut kinds.depart,
                        EventKind::Tick if engine.metrics().resolves > resolves => {
                            &mut kinds.resolve
                        }
                        EventKind::Tick => &mut kinds.tick,
                    };
                    slot.0 += ns;
                    slot.1 += 1;
                }
            });
            last = Some(engine);
            batches
        });
        for slot in [
            &mut kinds.arrive,
            &mut kinds.depart,
            &mut kinds.tick,
            &mut kinds.resolve,
        ] {
            slot.0 = (slot.0 as f64 * scale) as u64;
        }
        (rung, kinds, last.expect("the rung ran"))
    }

    fn rung_handle(&mut self, t: &Traffic, w: &Serve) -> (Rung, f64) {
        let mut scratch = json::Scratch::default();
        let mut bytes = 0u64;
        let (rung, _) = self.in_process("server.handle", t.n, |traced| {
            let mut engine = oracle::engine(w.domains.max(1), serve::engine_config(w));
            bytes = 0;
            timed_batches(t.n, t.span, traced, |from, to| {
                for i in from..to {
                    bytes += handle_line_with(&mut engine, t.lines.line(i), &mut scratch)
                        .response
                        .len() as u64
                        + 1;
                }
            })
        });
        (rung, bytes as f64 / t.n as f64)
    }

    fn rung_session(&mut self, t: &Traffic, w: &Serve) -> Rung {
        let mut sink = Vec::with_capacity(1 << 16);
        let (rung, _) = self.in_process("server.session", t.n, |traced| {
            let engine = Mutex::new(oracle::engine(w.domains.max(1), serve::engine_config(w)));
            let (opts, ctl) = (ServeOptions::default(), ServerControl::new());
            timed_batches(t.n, t.span, traced, |from, to| {
                sink.clear();
                serve_session(&engine, t.lines.wire(from, to), &mut sink, &opts, &ctl)
                    .expect("in-memory I/O");
            })
        });
        rung
    }

    /// Streams the ladder's lines through `client` with the stream phase's
    /// window, checking replies; returns per-span gaps when `traced`.
    /// `servers` are the processes behind `client` (`None`: a thread of
    /// this process on the servers' CPUs, busy throughout).
    fn windowed(
        &mut self,
        name: &'static str,
        client: &mut LineClient,
        t: &Traffic,
        traced: bool,
        servers: Option<&[&Proc]>,
    ) -> Rung {
        let mut check = ReplyCheck::new(&t.oracle.ok[..t.n]);
        let mut stamps = Vec::with_capacity(t.n / t.span + 1);
        let meter = Meter::start(servers.unwrap_or(&[]));
        let started = Instant::now();
        let streamed = client.stream(&t.lines, 0, t.n, &mut check, |done| {
            if traced && (done % t.span == 0 || done == t.n) {
                stamps.push(Instant::now());
            }
        });
        let total = started.elapsed().as_nanos() as u64;
        let interval = meter.stop(servers.unwrap_or(&[]));
        self.out.attempted += t.n as u64;
        self.out.failed += check.finish();
        if let Err(e) = streamed {
            self.out.errors.push(format!("{name}: {e}"));
        }
        let raw = if traced {
            batch_gaps(started, &stamps)
        } else {
            vec![total]
        };
        Rung::scaled(
            name,
            raw,
            if servers.is_some() {
                interval.scale()
            } else {
                interval.speed
            },
        )
    }

    /// Checks a served log against the oracle after the ladder's lines.
    fn check_served_log(&mut self, what: &str, client: &mut LineClient, t: &Traffic, sent: usize) {
        self.out.attempted += 1;
        client.set_timeout(WAIT);
        let got = client
            .request("{\"op\":\"log\"}")
            .map_err(|e| e.to_string())
            .and_then(|reply| oracle::parse_log(&reply))
            .and_then(|log| check_log(t.oracle.log_after(sent), &log));
        if let Err(e) = got {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn rung_tcp(&mut self, t: &Traffic, w: &Serve, traced: bool) -> Rung {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let engine = Arc::new(Mutex::new(oracle::engine(
            w.domains.max(1),
            serve::engine_config(w),
        )));
        let server = std::thread::spawn(move || {
            crate::stack::on_server_cpus();
            let ctl = Arc::new(ServerControl::new());
            serve_tcp(&listener, &engine, ServeOptions::default(), &ctl, None)
        });
        let mut client = LineClient::connect(&addr).expect("connect loopback");
        let rung = self.windowed("server.tcp", &mut client, t, traced, None);
        let _ = client.request("{\"op\":\"shutdown\"}");
        if !matches!(server.join(), Ok(Ok(()))) {
            self.fail("server.tcp: serve_tcp failed".to_string());
        }
        rung
    }

    /// The spawned stack of `w` (its top rung), windowed; then, when
    /// `sync` is given, that many one-at-a-time requests, whose median
    /// round trip is returned in microseconds.
    fn rung_spawned(
        &mut self,
        name: &'static str,
        t: &Traffic,
        w: &Serve,
        traced: bool,
        sync: Option<usize>,
    ) -> (Rung, f64) {
        let mut run = match serve::start(self.ctx, w, &format!("{name}-{traced}")) {
            Ok(run) => run,
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                return (Rung::missing(name, t), f64::NAN);
            }
        };
        // Borrowed field by field: the client is borrowed mutably beside it.
        let servers: Vec<&Proc> = std::iter::once(&run.front)
            .chain(run.follower.as_ref())
            .collect();
        let rung = self.windowed(name, &mut run.client, t, traced, Some(&servers));
        let mut sent = t.n;
        let mut rtts = Vec::new();
        let mut reply = String::new();
        for _ in 0..sync.unwrap_or(0) {
            let t0 = Instant::now();
            let answered = run
                .client
                .request_wire(t.lines.wire(sent, sent + 1), &mut reply);
            rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            sent += 1;
            self.out.attempted += 1;
            if answered.is_err() || !reply.starts_with("{\"ok\":true") {
                self.fail(format!("{name}: one-at-a-time request {sent} failed"));
                break;
            }
        }
        self.check_served_log(name, &mut run.client, t, sent);
        let _ = run.client.request("{\"op\":\"shutdown\"}");
        let _ = run.front.wait_exit(WAIT);
        let rtt_us = if rtts.is_empty() {
            f64::NAN
        } else {
            median(&rtts) * rung.scale
        };
        (rung, rtt_us)
    }

    /// Walks the admitd ladder for one engine configuration. Returns the
    /// rungs bottom-up: parse, apply, handle, session, tcp, bin.
    /// The spawned top rung of `w`, traced and untraced: each the pass
    /// with the median total of five, because a 20 k-event pass through a
    /// fresh server lasts tens of milliseconds and two of them can differ
    /// by a third. Returns the traced rung, the untraced per-event cost in
    /// nanoseconds and, when `sync` is given, the one-at-a-time round trip.
    fn top_rung(
        &mut self,
        name: &'static str,
        t: &Traffic,
        w: &Serve,
        sync: Option<usize>,
    ) -> (Rung, f64, f64) {
        let median_pass = |ladder: &mut Self, traced: bool, sync: Option<usize>| {
            let mut passes: Vec<(Rung, f64)> = (0..5)
                .map(|i| ladder.rung_spawned(name, t, w, traced, sync.filter(|_| i == 0)))
                .collect();
            let rtt_us = passes[0].1;
            passes.sort_by_key(|(rung, _)| rung.total_ns());
            (passes.swap_remove(2).0, rtt_us)
        };
        let (traced, rtt_us) = median_pass(self, true, sync);
        let (untraced, _) = median_pass(self, false, None);
        (traced, untraced.total_ns() as f64 / t.n as f64, rtt_us)
    }

    fn admitd_ladder(&mut self, t: &Traffic, w: &Serve, report: bool) -> (Vec<Rung>, f64) {
        let parse = self.rung_parse(t);
        let (apply, kinds, engine) = self.rung_apply(t, w);
        let (handle, response_bytes) = self.rung_handle(t, w);
        let session = self.rung_session(t, w);
        let tcp = self.rung_tcp(t, w, true);
        let (bin, untraced_ns, rtt_us) =
            self.top_rung("admitd.bin", t, w, report.then_some(SYNC_SAMPLES));
        let n = t.n as f64;
        if report {
            self.put("json.parse_ns", parse.total_ns() as f64 / n);
            self.put("json.bytes_per_line", t.lines.wire(0, t.n).len() as f64 / n);
            self.put("engine.arrive_ns", mean_ns(kinds.arrive));
            self.put("engine.depart_ns", mean_ns(kinds.depart));
            self.put("engine.tick_ns", mean_ns(kinds.tick));
            self.put("server.handle_ns", handle.total_ns() as f64 / n);
            self.put("server.response_bytes", response_bytes);
            self.put("admitd.sync_rtt_us", rtt_us);
        } else {
            let m = engine.metrics();
            self.put(
                "engine.resolve_us",
                mean_ns(kinds.resolve) * apply.scale / 1e3,
            );
            self.put("engine.resolves", m.resolves as f64);
            self.put("engine.resolves_skipped", m.resolves_skipped as f64);
            self.put("engine.resolve_nodes", m.resolve_nodes as f64);
            self.put("engine.shed", m.shed as f64);
        }
        (vec![parse, apply, handle, session, tcp, bin], untraced_ns)
    }

    // ---- journal and replication rungs -------------------------------------

    fn journal_config() -> JournalConfig {
        JournalConfig {
            snapshot_every: SNAPSHOT_EVERY,
            fsync: FsyncPolicy::OnSnapshot,
        }
    }

    /// `apply` with a journal attached, then scan, recover, snapshot and
    /// restore on what it wrote. Returns the journaled-apply rung.
    fn journal_rungs(&mut self, t: &Traffic, w: &Serve, plain_apply_ns: u64) -> Rung {
        let path = self.ctx.tmp.file("ladder-journal.wal");
        let cfg = serve::engine_config(w);
        let mut last = None;
        let (rung, _) = self.in_process("journal.apply", t.n, |traced| {
            let mut engine = oracle::engine(1, cfg);
            engine.attach_journal(
                Journal::create(&path, Self::journal_config()).expect("create journal"),
            );
            engine.stamp_epoch().expect("stamp epoch");
            let batches = timed_batches(t.n, t.span, traced, |from, to| {
                for record in &t.records[from..to] {
                    black_box(engine.apply(record).is_ok());
                }
            });
            last = Some(engine);
            batches
        });
        let engine = last.expect("the rung ran");
        let n = t.n as f64;
        self.put(
            "journal.append_ns",
            (rung.total_ns() as f64 - plain_apply_ns as f64) / n,
        );

        let (snapshot, seconds, _) = at_nominal_speed(|| engine.encode_snapshot());
        self.put("engine.snapshot_us", seconds * 1e6);
        self.put("engine.snapshot_bytes", snapshot.len() as f64);
        let mut fresh = oracle::engine(1, cfg);
        let (restored, seconds, _) = at_nominal_speed(|| fresh.restore_snapshot(&snapshot));
        self.put("engine.restore_us", seconds * 1e6);
        self.out.attempted += 1;
        if restored.is_err() || fresh.format_decision_log() != engine.format_decision_log() {
            self.fail("engine.restore: the restored engine's log differs".to_string());
        }
        drop(engine);

        let (scan, seconds, _) =
            at_nominal_speed(|| dvs_admit::journal::scan(&path).expect("scan journal"));
        let scan_ns = seconds * 1e9;
        let snapshot_bytes: usize = scan
            .records
            .iter()
            .filter(|r| r.kind == dvs_admit::journal::RecordKind::Snapshot)
            .map(|r| r.payload.len())
            .sum();
        self.put("journal.bytes_per_event", scan.file_len as f64 / n);
        self.put(
            "journal.snapshot_share",
            snapshot_bytes as f64 / scan.file_len as f64,
        );
        self.put(
            "journal.scan_ns_per_record",
            scan_ns / scan.records.len() as f64,
        );

        let (recovered, seconds, _) = at_nominal_speed(|| {
            AdmissionEngine::recover(
                &path,
                vec![xscale_ideal()],
                Box::new(OnlineGreedy),
                cfg,
                Self::journal_config(),
            )
        });
        self.put("journal.recover_ms", seconds * 1e3);
        self.out.attempted += 1;
        match recovered {
            Ok(r) => {
                self.put("journal.replayed_events", r.replayed as f64);
                if let Err(e) = check_log(t.oracle.log_after(t.n), &r.engine.format_decision_log())
                {
                    self.fail(format!("journal.recover: {e}"));
                }
            }
            Err(e) => self.fail(format!("journal.recover: {e}")),
        }
        let _ = std::fs::remove_file(&path);
        rung
    }

    /// A journaled primary streaming to an in-process follower
    /// (`run_follower`), then `promote`.
    fn replication_rungs(&mut self, t: &Traffic, w: &Serve, journaled_ns: u64) {
        let wal = self.ctx.tmp.file("ladder-primary.wal");
        let mirror = self.ctx.tmp.file("ladder-mirror.wal");
        let cfg = serve::engine_config(w);
        let mut primary = oracle::engine(1, cfg);
        primary
            .attach_journal(Journal::create(&wal, Self::journal_config()).expect("create journal"));
        primary.stamp_epoch().expect("stamp epoch");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let hub = Arc::new(ReplicationHub::new(primary.epoch()));
        let (hub2, wal2) = (Arc::clone(&hub), wal.clone());
        let hub_thread =
            std::thread::spawn(move || serve_hub(&listener, &wal2, &hub2, HubOptions::default()));

        let standby = Arc::new(Mutex::new(oracle::engine(1, cfg)));
        let role = Arc::new(RoleContext::follower(&mirror, Self::journal_config()));
        let options = FollowerOptions {
            primary: addr,
            mirror: mirror.clone(),
            ..FollowerOptions::default()
        };
        let (standby2, role2) = (Arc::clone(&standby), Arc::clone(&role));
        let follower = std::thread::spawn(move || run_follower(&standby2, &role2.role, &options));
        let applied = |e: &Mutex<AdmissionEngine>| e.lock().expect("standby lock").metrics().events;
        let wait_for = |target: u64| {
            let deadline = Instant::now() + WAIT;
            while applied(&standby) < target && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            applied(&standby) >= target
        };

        let ((), seconds, _) = at_nominal_speed(|| {
            for record in &t.records[..t.n] {
                black_box(primary.apply(record).is_ok());
            }
        });
        let with_follower = seconds * 1e9;
        let t0 = Instant::now();
        let caught_up = wait_for(t.n as u64);
        self.put("replication.lag_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.put(
            "replication.tax_share",
            (with_follower - journaled_ns as f64) / journaled_ns as f64,
        );
        self.put(
            "replication.bytes_per_event",
            hub.bytes_sent() as f64 / t.n as f64,
        );

        hub.shutdown();
        let _ = hub_thread.join();
        let t0 = Instant::now();
        let promoted = promote(&standby, &role);
        self.put("replication.promote_ms", t0.elapsed().as_secs_f64() * 1e3);
        role.role.request_stop();
        let _ = follower.join();
        self.out.attempted += t.n as u64 + 1;
        let log = standby.lock().expect("standby lock").format_decision_log();
        if !caught_up || promoted.is_err() {
            self.fail(format!(
                "replication: caught up {caught_up}, promote {promoted:?}"
            ));
        } else if let Err(e) = check_log(t.oracle.log_after(t.n), &log) {
            self.fail(format!("replication: promoted follower: {e}"));
        }
        drop(primary);
        for file in [wal, mirror] {
            let _ = std::fs::remove_file(file);
        }
    }

    /// The spawned `dvs_admitd` with a journal and no follower: the rung
    /// between the plain binary and `serve_durable`'s stack.
    fn rung_journaled_bin(&mut self, t: &Traffic, w: &Serve) -> Rung {
        let name = "admitd.journal";
        let path = self.ctx.tmp.file("ladder-bin.wal");
        let spawned = serve::spawn_admitd(self.ctx, w, 1, &serve::journal_flags(&path), 1)
            .and_then(|p| {
                let addr = p.banner_addr("listening on ")?;
                Ok((p, LineClient::connect(&addr).map_err(|e| e.to_string())?))
            });
        let rung = match spawned {
            Ok((mut proc, mut client)) => {
                let rung = self.windowed(name, &mut client, t, true, Some(&[&proc]));
                self.check_served_log(name, &mut client, t, t.n);
                let _ = client.request("{\"op\":\"shutdown\"}");
                let _ = proc.wait_exit(WAIT);
                rung
            }
            Err(e) => {
                self.fail(format!("{name}: {e}"));
                Rung::missing(name, t)
            }
        };
        let _ = std::fs::remove_file(&path);
        rung
    }

    // ---- router rungs ------------------------------------------------------

    /// Two `dvs_admitd` shards as `dvs_routerd --spawn 2` starts them.
    fn spawn_shards(
        &mut self,
        w: &Serve,
        map: &ShardMap,
    ) -> Result<(Vec<Proc>, Vec<ShardSpec>), String> {
        let mut procs = Vec::new();
        let mut specs = Vec::new();
        for s in 0..SHARDS {
            let proc = serve::spawn_admitd(self.ctx, w, map.owned(s).len(), &[], 1)?;
            specs.push(ShardSpec {
                addr: proc.banner_addr("listening on ")?,
                replica: None,
            });
            procs.push(proc);
        }
        Ok((procs, specs))
    }

    /// `AdmitClient::request` straight to one shard holding every domain,
    /// with the `dlog` echo the router asks for.
    fn rung_client(&mut self, t: &Traffic, w: &Serve) -> Rung {
        let name = "client.request";
        let mut rung = Rung::missing(name, t);
        match serve::spawn_admitd(self.ctx, w, w.domains, &[], 1)
            .and_then(|p| Ok((p.banner_addr("listening on ")?, p)))
        {
            Ok((addr, mut proc)) => {
                let mut client = AdmitClient::new(ClientConfig {
                    addr,
                    ..ClientConfig::default()
                });
                let mut rtts = Vec::with_capacity(t.n);
                let mut failed = 0;
                let meter = Meter::start(&[&proc]);
                let raw = timed_batches(t.n, t.span, true, |from, to| {
                    for i in from..to {
                        let line =
                            format!("{},\"dlog\":true}}", t.lines.line(i).trim_end_matches('}'));
                        let t0 = Instant::now();
                        let reply = client.request(&line);
                        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
                        failed += u64::from(!reply.is_ok_and(|r| r.starts_with("{\"ok\":true")));
                    }
                });
                rung = Rung::scaled(name, raw, meter.stop(&[&proc]).scale());
                self.out.attempted += t.n as u64;
                self.out.failed += failed;
                self.put("client.rtt_us", median(&rtts) * rung.scale);
                let _ = client.request("{\"op\":\"shutdown\"}");
                let _ = proc.wait_exit(WAIT);
            }
            Err(e) => self.fail(format!("{name}: {e}")),
        }
        rung
    }

    /// `Router::handle_line` in process over two spawned shards.
    fn rung_router(&mut self, t: &Traffic, w: &Serve) -> Rung {
        let name = "router.handle";
        let names: Vec<String> = (0..SHARDS).map(|s| format!("shard{s}")).collect();
        let map = ShardMap::new(names, w.domains, None).expect("a valid shard map");
        let mut rung = Rung::missing(name, t);
        let built = self.spawn_shards(w, &map).and_then(|(procs, specs)| {
            Router::new(map, &specs, &ClientConfig::default())
                .map(|r| (procs, r))
                .map_err(|e| e.to_string())
        });
        match built {
            Ok((mut procs, mut router)) => {
                let (mut routed, mut ticks) = ((0u64, 0u64), (0u64, 0u64));
                let mut failed = 0;
                let shards: Vec<&Proc> = procs.iter().collect();
                let meter = Meter::start(&shards);
                let raw = timed_batches(t.n, t.span, true, |from, to| {
                    for i in from..to {
                        let t0 = Instant::now();
                        let handled = router.handle_line(t.lines.line(i));
                        let ns = t0.elapsed().as_nanos() as u64;
                        let slot = if matches!(t.records[i].kind, EventKind::Tick) {
                            &mut ticks
                        } else {
                            &mut routed
                        };
                        slot.0 += ns;
                        slot.1 += 1;
                        failed += u64::from(!handled.response.starts_with("{\"ok\":true"));
                    }
                });
                rung = Rung::scaled(name, raw, meter.stop(&shards).scale());
                self.out.attempted += t.n as u64 + 1;
                self.out.failed += failed;
                self.put("router.handle_us", mean_ns(routed) * rung.scale / 1e3);
                self.put("router.tick_us", mean_ns(ticks) * rung.scale / 1e3);
                let m = router.metrics();
                let hops = m.routed_arrives + m.routed_departs + m.fanned_ticks * SHARDS as u64;
                self.put("router.shard_hops_per_event", hops as f64 / t.n as f64);
                self.put("router.merged_log_bytes", router.merged_log().len() as f64);
                if let Err(e) = check_log(t.oracle.log_after(t.n), router.merged_log()) {
                    self.fail(format!("{name}: merged log: {e}"));
                }
                router.handle_line("{\"op\":\"shutdown\"}");
                for p in &mut procs {
                    let _ = p.wait_exit(WAIT);
                }
            }
            Err(e) => self.fail(format!("{name}: {e}")),
        }
        rung
    }

    /// `dvs_routerd --spawn 2 --stdin` over pipes, windowed.
    fn rung_routerd_stdin(&mut self, t: &Traffic, w: &Serve) -> Rung {
        let name = "routerd.stdin";
        let args = serve::strings(&[
            "--spawn",
            &SHARDS.to_string(),
            "--domains",
            &w.domains.to_string(),
            "--stdin",
        ]);
        let mut rung = Rung::missing(name, t);
        match Proc::spawn(&self.ctx.bins.routerd, &args, 0, true) {
            Ok(mut proc) => {
                let mut tx = proc.stdin.take().expect("stdin is piped");
                let mut rx = proc.stdout.take().expect("stdout is piped");
                let mut check = ReplyCheck::new(&t.oracle.ok[..t.n]);
                let mut stamps = Vec::new();
                let meter = Meter::start(&[&proc]);
                let started = Instant::now();
                let streamed = stream(&mut rx, &mut tx, &t.lines, 0, t.n, &mut check, |done| {
                    if done % t.span == 0 || done == t.n {
                        stamps.push(Instant::now());
                    }
                });
                rung = Rung::scaled(
                    name,
                    batch_gaps(started, &stamps),
                    meter.stop(&[&proc]).scale(),
                );
                self.out.attempted += t.n as u64;
                self.out.failed += check.finish();
                if let Err(e) = streamed {
                    self.fail(format!("{name}: {e}"));
                }
                // End of input: the router shuts its fleet down and exits.
                drop(tx);
                if let Err(e) = proc.wait_exit(WAIT) {
                    self.fail(format!("{name}: at end of input {e}"));
                }
            }
            Err(e) => self.fail(format!("{name}: {e}")),
        }
        rung
    }

    fn router_ladder(&mut self, t: &Traffic, w: &Serve) -> Account {
        let map = ShardMap::new(
            vec!["shard0".to_string(), "shard1".to_string()],
            w.domains,
            None,
        )
        .expect("a valid shard map");
        let calls = 200_000;
        let ((), seconds, _) = at_nominal_speed(|| {
            for i in 0..calls {
                black_box(map.shard_for(black_box(i % w.domains)));
            }
        });
        self.put("map.shard_for_ns", seconds * 1e9 / calls as f64);

        let client = self.rung_client(t, w);
        let router = self.rung_router(t, w);
        let stdin = self.rung_routerd_stdin(t, w);
        let (listen, rtt_us) =
            self.rung_spawned("routerd.listen", t, w, true, Some(LISTEN_SAMPLES));
        let (untraced, _) = self.rung_spawned("routerd.listen", t, w, false, None);
        self.put("routerd.listen_rtt_us", rtt_us);
        let spans = lay_out(
            &[
                (&listen, None),
                (&stdin, Some(0)),
                (&router, Some(1)),
                (&client, Some(2)),
            ],
            t.span,
        );
        let n = t.n as f64;
        let cost_us = |rung: &Rung| rung.total_ns() as f64 / n / 1e3;
        self.put("router.self_us", cost_us(&router) - cost_us(&client));
        self.put("routerd.bin_self_us", cost_us(&stdin) - cost_us(&router));
        Account {
            spans,
            top_ns: listen.total_ns() as f64 / n,
            untraced_top_ns: untraced.total_ns() as f64 / n,
            events: t.n,
        }
    }

    // ---- the solver pass ---------------------------------------------------

    fn solver_pass(&mut self) -> Account {
        // Not `available_parallelism`: the calling thread may be pinned.
        let cores = crate::stack::allowed_cpus().len().max(1);
        let basket = Basket::generate(self.seed);

        // `exec` under test: every core, against the single thread the
        // end-to-end run uses.
        crate::stack::on_every_cpu();
        std::env::set_var(dvs_exec::THREADS_ENV, cores.to_string());
        let t0 = Instant::now();
        let parallel_pass = offline::pass(&basket, |_| None);
        let parallel_ns = t0.elapsed().as_nanos() as f64;
        self.out.failed += parallel_pass.failed;

        let cpu = xscale_ideal();
        let calls = 200_000;
        let ((), seconds, _) = at_nominal_speed(|| {
            for i in 0..calls {
                black_box(cpu.energy_rate(black_box(i as f64 / calls as f64)).is_ok());
            }
        });
        self.put("power.energy_ns", seconds * 1e9 / calls as f64);

        // The fan-out cost of `par_map` over work too small to pay for it.
        let items: Vec<u64> = (0..4096).collect();
        let rounds = 200;
        let t0 = Instant::now();
        for _ in 0..rounds {
            black_box(dvs_exec::par_map(black_box(&items), |x| x.wrapping_mul(3)));
        }
        let parallel = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..rounds {
            black_box(
                black_box(&items)
                    .iter()
                    .map(|x| x.wrapping_mul(3))
                    .collect::<Vec<u64>>(),
            );
        }
        let sequential = t0.elapsed().as_secs_f64();
        self.put(
            "exec.par_map_overhead_us",
            (parallel - sequential) / rounds as f64 * 1e6,
        );
        std::env::set_var(dvs_exec::THREADS_ENV, offline::THREADS);
        crate::stack::on_client_cpu();

        let solving = |pass: &offline::Pass| pass.nominal_seconds().iter().sum::<f64>() * 1e9;
        let untraced_ns = solving(&offline::sampled_pass(&basket));
        let pass = offline::sampled_pass(&basket);
        let nominal = pass.nominal_seconds();
        let pass_ns = solving(&pass) as u64;
        let as_timed: f64 = pass.entries.iter().map(|(_, s)| s * 1e9).sum();
        self.put("exec.parallel_pass_ratio", parallel_ns / as_timed);
        self.out.attempted += pass.entries.len() as u64;
        self.out.failed += pass.failed;
        self.out.errors.extend(pass.errors.iter().cloned());

        let of = |solver: Solver| -> Vec<f64> {
            let entries = pass.entries.iter().zip(&nominal);
            entries
                .filter(|((name, _), _)| *name == solver.span())
                .map(|(_, s)| *s)
                .collect()
        };
        let mean_s = |solver: Solver| of(solver).iter().sum::<f64>() / of(solver).len() as f64;
        self.put("core.greedy_us_n2000", mean_s(Solver::Greedy) * 1e6);
        self.put("core.sweep_us_n2000", mean_s(Solver::Sweep) * 1e6);
        self.put("core.ls_ms_n500", mean_s(Solver::LocalSearch) * 1e3);
        self.put("core.dp_ms_n200", mean_s(Solver::ScaledDp) * 1e3);
        self.put("core.bb_ms_n20", mean_s(Solver::BranchBound) * 1e3);
        self.put("multi.solve_ms_m4_n40", mean_s(Solver::Partitioned) * 1e3);
        let simulated: f64 = of(Solver::Simulate).iter().sum();
        self.put("sim.jobs_per_s", pass.jobs_simulated as f64 / simulated);
        self.put("sim.deadline_misses", pass.deadline_misses as f64);

        // Search nodes of the sequential budgeted branch & bound, which
        // repeat exactly (the parallel solver's count depends on timing).
        let mut nodes = 0;
        let mut bound_ns = 0;
        let mut bounds = 0;
        for item in &basket.items {
            if item.solvers.contains(&Solver::BranchBound) {
                nodes += BranchBound::default()
                    .solve_within(&item.instance, &SolveBudget::unlimited())
                    .map_or(0, |s| s.nodes_used);
            }
            if item.solvers.contains(&Solver::Greedy) {
                let t0 = Instant::now();
                black_box(fractional_lower_bound(&item.instance).is_ok());
                bound_ns += t0.elapsed().as_nanos();
                bounds += 1;
            }
        }
        self.put("core.bb_nodes_n20", nodes as f64);
        self.put("core.bound_us_n2000", bound_ns as f64 / bounds as f64 / 1e3);

        let mut spans = Spans::default();
        let root = spans.root("solve_offline.pass", 0, 0, pass_ns);
        for ((name, _), seconds) in pass.entries.iter().zip(&nominal) {
            spans.child(root, name, (seconds * 1e9) as u64);
        }
        std::env::set_var(dvs_exec::THREADS_ENV, SERVER_THREADS);
        let entries = pass.entries.len();
        Account {
            spans,
            top_ns: pass_ns as f64 / entries as f64,
            untraced_top_ns: untraced_ns / entries as f64,
            events: entries,
        }
    }

    /// Generator and trace-text costs of `rt-model`.
    fn model_rungs(&mut self, w: &Serve, t: &Traffic) {
        let (_, seconds, _) = at_nominal_speed(|| {
            black_box(Session::take_events(serve::session_spec(w, self.seed), t.n))
        });
        self.put("rt-model.gen_ns_per_event", seconds * 1e9 / t.n as f64);
        let texts: Vec<String> = t.records[..t.n].iter().map(format_event).collect();
        let ((), seconds, _) = at_nominal_speed(|| {
            for text in &texts {
                black_box(parse_event_line(black_box(text)).is_ok());
            }
        });
        self.put("rt-model.parse_event_ns", seconds * 1e9 / t.n as f64);
    }
}

fn serve_params(name: &str) -> Serve {
    match WORKLOADS.iter().find(|w| w.name == name).map(|w| &w.kind) {
        Some(Kind::Serve(s)) => *s,
        _ => unreachable!("{name} is a serving workload"),
    }
}

/// The admitd chain: bin ⊃ tcp ⊃ session ⊃ handle ⊃ {parse, apply}, with
/// `above` (taller rungs, tallest first) stacked on top.
fn admitd_chain<'r>(above: &[&'r Rung], rungs: &'r [Rung]) -> Vec<(&'r Rung, Option<usize>)> {
    let mut chain: Vec<(&Rung, Option<usize>)> = Vec::new();
    for rung in above.iter().copied().chain(rungs.iter().rev().take(4)) {
        let parent = chain.len().checked_sub(1);
        chain.push((rung, parent));
    }
    let handle = chain.len() - 1;
    chain.push((&rungs[0], Some(handle)));
    chain.push((&rungs[1], Some(handle)));
    chain
}

/// Walks the traced ladder once and accounts for the stack of every
/// workload in `wanted`; `quick` shortens the session to a quarter.
pub fn trace_workloads(
    ctx: &Ctx<'_>,
    wanted: &[&'static Workload],
    seed: u64,
    quick: bool,
) -> Vec<(Traced, Spans)> {
    // In-process engines run as the spawned servers do.
    std::env::set_var(dvs_exec::THREADS_ENV, SERVER_THREADS);
    let mut ladder = Ladder {
        ctx,
        seed,
        out: Traced {
            seed,
            ..Traced::default()
        },
        overhead: (0, 0),
    };
    let length = |w: &Serve| {
        if quick {
            w.traced_len / 4
        } else {
            w.traced_len
        }
    };
    let myopic = serve_params("serve_myopic");
    let resolve = serve_params("serve_resolve");
    let durable = serve_params("serve_durable");
    let routed = serve_params("route_sharded");

    let offline_account = ladder.solver_pass();
    let _awake = crate::stack::KeepAwake::start();

    let traffic = Traffic::new(&myopic, seed, length(&myopic), SYNC_SAMPLES);
    ladder.model_rungs(&myopic, &traffic);
    let (rungs, untraced_bin_ns) = ladder.admitd_ladder(&traffic, &myopic, true);
    let n = traffic.n;
    // A layer's self time is its rung minus the rungs below it. Each rung
    // is its own pass, so a difference can come out negative: a taller
    // stack that measured faster than what it contains is a finding, not
    // something to clip (the spans do clip, span by span).
    let cost = |r: usize| rungs[r].total_ns() as f64 / n as f64;
    ladder.put("server.self_ns", cost(2) - cost(0) - cost(1));
    ladder.put("server.session_self_ns", cost(3) - cost(2));
    ladder.put("server.tcp_self_ns", cost(4) - cost(3));
    ladder.put("admitd.bin_self_ns", cost(5) - cost(4));

    let resolve_traffic = Traffic::new(&resolve, seed, n, 0);
    let (resolve_rungs, untraced_resolve_ns) =
        ladder.admitd_ladder(&resolve_traffic, &resolve, false);

    let journaled = ladder.journal_rungs(&traffic, &durable, rungs[1].total_ns());
    ladder.replication_rungs(&traffic, &durable, journaled.total_ns());

    let route_traffic = Traffic::new(&routed, seed, length(&routed), LISTEN_SAMPLES);
    let route_account = ladder.router_ladder(&route_traffic, &routed);

    let admitd_account = |rungs: &[Rung], above: &[&Rung], untraced_top_ns: f64| Account {
        spans: lay_out(&admitd_chain(above, rungs), traffic.span),
        top_ns: above.first().copied().unwrap_or(&rungs[5]).total_ns() as f64 / n as f64,
        untraced_top_ns,
        events: n,
    };
    let mut accounts: Vec<(&'static str, Account)> = vec![
        ("solve_offline", offline_account),
        ("route_sharded", route_account),
    ];
    accounts.push(("serve_myopic", admitd_account(&rungs, &[], untraced_bin_ns)));
    accounts.push((
        "serve_resolve",
        admitd_account(&resolve_rungs, &[], untraced_resolve_ns),
    ));
    if wanted.iter().any(|w| w.name == "serve_durable") {
        let mut journal_bins: Vec<Rung> = (0..3)
            .map(|_| ladder.rung_journaled_bin(&traffic, &durable))
            .collect();
        journal_bins.sort_by_key(Rung::total_ns);
        let journal_bin = journal_bins.swap_remove(1);
        let (top, untraced_ns, _) = ladder.top_rung("admitd.follow", &traffic, &durable, None);
        accounts.push((
            "serve_durable",
            admitd_account(&rungs, &[&top, &journal_bin], untraced_ns),
        ));
    }
    let (traced_ns, untraced_ns) = ladder.overhead;
    ladder.put(
        "trace.overhead_share",
        (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
    );

    accounts
        .into_iter()
        .filter_map(|(name, account)| {
            let w = wanted.iter().find(|w| w.name == name)?;
            let mut out = ladder.out.clone();
            out.workload = w.name;
            out.values
                .push(("trace.top_rung_ns_per_event", account.top_ns));
            out.values
                .push(("trace.unaccounted_share", account.unaccounted_share()));
            Some((out, account.spans))
        })
        .collect()
}
