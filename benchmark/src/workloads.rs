//! The one declaration of workload names, their parameters, and every
//! metric name, unit, direction and bound. `BENCHMARK.json` repeats the
//! names for the driver; a unit test fails if the two disagree.

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;
/// Discarded warm-up traffic before the first timed repetition: the box
/// runs the router path 3–4× faster for ~2 s after it was idle.
pub const WARMUP_SECONDS: f64 = 3.0;
/// Timed repetitions per run, at least.
pub const MIN_REPETITIONS: usize = 3;
/// Hard cap on one workload's run; operations not done by then fail.
pub const WORKLOAD_CAP_SECONDS: f64 = 60.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric: what it is called, its unit and which way is better.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    pub metric: Metric,
    pub bound: f64,
}

/// End-to-end metrics every workload reports (the driver's `--trace 0`
/// line carries exactly these).
///
/// * `setup_s` — generate the inputs and the oracle once, plus the median
///   over repetitions of bringing the stack up to its first reply.
/// * `ops_per_s` — `solves_per_s` on `solve_offline` (basket entries solved
///   and verified per second), `events_per_s` on the serving workloads
///   (stream phase, `N / elapsed`).
/// * `latency_p50_us`, `latency_p90_us` — sync-phase request→reply; on
///   `solve_offline` the time of one basket entry.
/// * `restart_ms` — start the workload's program on what the run left on
///   disk until its first correct answer: `--recover` on the killed
///   primary's journal (`serve_durable`), a cold start of the stateless
///   stack (`serve_myopic`, `serve_resolve`, `route_sharded`), the
///   `dvs_reject` CLI on the saved n=2000 task set (`solve_offline`).
/// * `peak_rss_mb` — Σ `VmHWM` of the spawned servers after the stream
///   phase (own process on `solve_offline`).
/// * `cost_ratio` — the paper's objective against a reference: heuristic
///   cost / optimum or fractional bound (`solve_offline`); served
///   `total_cost` after the stream phase / a myopic engine's on the same
///   lines (serving; ≤ 1 by the PR-3 per-trace theorem, exactly 1 on the
///   myopic stacks).
pub const END_TO_END: [Gated; 7] = [
    Gated {
        metric: lower("setup_s", "s"),
        bound: 0.25,
    },
    Gated {
        metric: higher("ops_per_s", "1/s"),
        bound: 0.25,
    },
    Gated {
        metric: lower("latency_p50_us", "us"),
        bound: 0.20,
    },
    Gated {
        metric: lower("latency_p90_us", "us"),
        bound: 0.25,
    },
    Gated {
        metric: lower("restart_ms", "ms"),
        bound: 0.20,
    },
    Gated {
        metric: lower("peak_rss_mb", "MB"),
        bound: 0.10,
    },
    Gated {
        metric: lower("cost_ratio", "ratio"),
        bound: 0.02,
    },
];

/// End-to-end metrics only some workloads have, so the driver's uniform
/// line cannot carry them; the suite prints them and `--check-repeat`
/// gates them.
pub const EXTRA: [(Gated, &[&str]); 2] = [
    (
        Gated {
            metric: lower("latency_p99_us", "us"),
            bound: 0.25,
        },
        &["serve_myopic", "serve_resolve", "serve_durable"],
    ),
    (
        Gated {
            metric: lower("journal_bytes_per_event", "B"),
            bound: 0.0,
        },
        &["serve_durable"],
    ),
];

/// A per-layer metric and the `metric@workload` pairs it should move.
#[derive(Debug, Clone, Copy)]
pub struct Layered {
    pub metric: Metric,
    pub moves: &'static str,
    /// Repeats exactly from run to run on one seed.
    pub exact: bool,
}

const fn timed(metric: Metric, moves: &'static str) -> Layered {
    Layered {
        metric,
        moves,
        exact: false,
    }
}

const fn exact(metric: Metric, moves: &'static str) -> Layered {
    Layered {
        metric,
        moves,
        exact: true,
    }
}

const SOLVE: &str = "ops_per_s@solve_offline";
const SOLVE_COST: &str = "ops_per_s,cost_ratio@solve_offline; ops_per_s@serve_resolve";
const MYOPIC: &str = "ops_per_s,latency_p50_us@serve_myopic";
const RESOLVE: &str = "ops_per_s,latency_p99_us,cost_ratio@serve_resolve";
const DURABLE: &str = "ops_per_s,journal_bytes_per_event,restart_ms,peak_rss_mb@serve_durable";
const REPL: &str = "ops_per_s,latency_p99_us@serve_durable";
const ROUTE: &str = "ops_per_s,latency_p90_us@route_sharded";

/// Per-layer metrics of the traced run (the driver's `--trace 1` line).
pub const PER_LAYER: [Layered; 57] = [
    timed(lower("rt-model.gen_ns_per_event", "ns"), "setup_s@all"),
    timed(
        lower("rt-model.parse_event_ns", "ns"),
        "restart_ms@serve_durable",
    ),
    timed(
        lower("power.energy_ns", "ns"),
        "ops_per_s@solve_offline,serve_resolve",
    ),
    timed(lower("exec.par_map_overhead_us", "us"), "-"),
    timed(lower("exec.parallel_pass_ratio", "ratio"), "-"),
    timed(lower("core.greedy_us_n2000", "us"), SOLVE_COST),
    timed(lower("core.sweep_us_n2000", "us"), SOLVE_COST),
    timed(lower("core.ls_ms_n500", "ms"), SOLVE_COST),
    timed(lower("core.dp_ms_n200", "ms"), SOLVE_COST),
    timed(lower("core.bb_ms_n20", "ms"), SOLVE_COST),
    exact(lower("core.bb_nodes_n20", "count"), SOLVE_COST),
    timed(lower("core.bound_us_n2000", "us"), SOLVE),
    timed(lower("multi.solve_ms_m4_n40", "ms"), SOLVE),
    timed(higher("sim.jobs_per_s", "1/s"), SOLVE),
    exact(lower("sim.deadline_misses", "count"), SOLVE),
    timed(lower("json.parse_ns", "ns"), MYOPIC),
    exact(lower("json.bytes_per_line", "B"), MYOPIC),
    timed(lower("engine.arrive_ns", "ns"), RESOLVE),
    timed(lower("engine.depart_ns", "ns"), RESOLVE),
    timed(lower("engine.tick_ns", "ns"), RESOLVE),
    timed(lower("engine.resolve_us", "us"), RESOLVE),
    exact(lower("engine.resolves", "count"), RESOLVE),
    exact(higher("engine.resolves_skipped", "count"), RESOLVE),
    exact(lower("engine.resolve_nodes", "count"), RESOLVE),
    exact(lower("engine.shed", "count"), RESOLVE),
    timed(
        lower("engine.snapshot_us", "us"),
        "ops_per_s,restart_ms@serve_durable",
    ),
    exact(
        lower("engine.snapshot_bytes", "B"),
        "ops_per_s,restart_ms@serve_durable",
    ),
    timed(lower("engine.restore_us", "us"), "restart_ms@serve_durable"),
    timed(lower("server.handle_ns", "ns"), MYOPIC),
    timed(lower("server.self_ns", "ns"), MYOPIC),
    exact(lower("server.response_bytes", "B"), MYOPIC),
    timed(lower("server.session_self_ns", "ns"), MYOPIC),
    timed(lower("server.tcp_self_ns", "ns"), MYOPIC),
    timed(lower("admitd.bin_self_ns", "ns"), MYOPIC),
    timed(lower("admitd.sync_rtt_us", "us"), MYOPIC),
    timed(lower("journal.append_ns", "ns"), DURABLE),
    exact(lower("journal.bytes_per_event", "B"), DURABLE),
    exact(lower("journal.snapshot_share", "ratio"), DURABLE),
    timed(lower("journal.scan_ns_per_record", "ns"), DURABLE),
    timed(lower("journal.recover_ms", "ms"), DURABLE),
    exact(lower("journal.replayed_events", "count"), DURABLE),
    exact(lower("replication.bytes_per_event", "B"), REPL),
    timed(lower("replication.lag_ms", "ms"), REPL),
    timed(lower("replication.promote_ms", "ms"), REPL),
    timed(lower("replication.tax_share", "ratio"), REPL),
    timed(
        lower("client.rtt_us", "us"),
        "ops_per_s,latency_p50_us@route_sharded",
    ),
    timed(lower("map.shard_for_ns", "ns"), "ops_per_s@route_sharded"),
    timed(lower("router.handle_us", "us"), ROUTE),
    timed(lower("router.tick_us", "us"), ROUTE),
    timed(lower("router.self_us", "us"), ROUTE),
    exact(lower("router.shard_hops_per_event", "count"), ROUTE),
    exact(lower("router.merged_log_bytes", "B"), ROUTE),
    timed(
        lower("routerd.bin_self_us", "us"),
        "latency_p50_us,latency_p90_us,ops_per_s@route_sharded",
    ),
    timed(
        lower("routerd.listen_rtt_us", "us"),
        "latency_p50_us,latency_p90_us,ops_per_s@route_sharded",
    ),
    timed(lower("trace.top_rung_ns_per_event", "ns"), "-"),
    timed(lower("trace.unaccounted_share", "ratio"), "-"),
    timed(lower("trace.overhead_share", "ratio"), "-"),
];

/// The stack a serving workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// One `dvs_admitd --listen`.
    Plain,
    /// Journaled primary streaming to a `--follow` hot standby.
    Durable,
    /// `dvs_routerd --spawn 2 --listen` over `domains` power domains.
    Routed,
}

/// Parameters of a serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Serve {
    pub stack: Stack,
    /// `--resolve-every` of the admission engine (`0` = myopic).
    pub resolve_every: u64,
    /// `--budget`: node budget of one re-solve.
    pub budget: u64,
    /// Offered standing set `K`.
    pub standing: usize,
    /// Offered utilisation.
    pub load: f64,
    /// Ticks between `tick` events.
    pub tick_every: f64,
    /// Power domains; `0` = one unpinned domain.
    pub domains: usize,
    /// Lines of the count-boxed stream phase, `N`.
    pub stream_len: usize,
    /// Requests of the sync phase (its sample cap).
    pub sync_len: usize,
    /// Lines of the traced run.
    pub traced_len: usize,
}

/// Journal settings of `serve_durable` (and of the journal rungs).
pub const SNAPSHOT_EVERY: u64 = 256;
/// Shards `route_sharded` spawns: one per core.
pub const SHARDS: usize = 2;
/// Time box of one sync phase.
pub const SYNC_SECONDS: f64 = 6.0;

const MYOPIC_TRAFFIC: Serve = Serve {
    stack: Stack::Plain,
    resolve_every: 0,
    budget: 20_000,
    standing: 32,
    load: 3.0,
    tick_every: 25.0,
    domains: 0,
    stream_len: 200_000,
    sync_len: 5_000,
    traced_len: 20_000,
};

pub enum Kind {
    Offline,
    Serve(Serve),
}

pub struct Workload {
    pub name: &'static str,
    /// One line: what stresses which layer, and the parameters.
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "solve_offline",
        why: "In-process solver basket (BB n=20, fixed-width DP n=200, local search n=500, greedy and sweep n=2000, partitioned m=4 n=40, EDF replay; loads 1.2 and 3.0): core/power/multi/sim work, no serving code.",
        kind: Kind::Offline,
    },
    Workload {
        name: "serve_myopic",
        why: "dvs_admitd --listen --resolve-every 0, K=32 load 3 tick 25, N=200k: engine work is ~0.3 us/event, so json, server formatting/flush and the socket own the time; control for serve_durable.",
        kind: Kind::Serve(MYOPIC_TRAFFIC),
    },
    Workload {
        name: "serve_resolve",
        why: "Same traffic with --resolve-every 1 --budget 20000, N=40k: the tick-dense overload makes the engine's re-solve (instance rebuild + BB) most of the time; carries the online cost_ratio.",
        kind: Kind::Serve(Serve {
            resolve_every: 1,
            stream_len: 40_000,
            sync_len: 3_000,
            ..MYOPIC_TRAFFIC
        }),
    },
    Workload {
        name: "serve_durable",
        why: "serve_myopic's traffic through a journaled primary (--snapshot-every 256 --fsync snapshot) and a --follow standby, N=48k; then promote, SIGKILL and --recover: journal and replication own the time.",
        kind: Kind::Serve(Serve {
            stack: Stack::Durable,
            stream_len: 48_000,
            sync_len: 2_000,
            ..MYOPIC_TRAFFIC
        }),
    },
    Workload {
        name: "route_sharded",
        why: "dvs_routerd --spawn 2 --domains 8 --listen, K=32 load 3 tick 25, pins id mod 8, N=2k then 100 one-at-a-time requests: router translate/merge and one synchronous shard hop per event own the time.",
        kind: Kind::Serve(Serve {
            stack: Stack::Routed,
            resolve_every: 1,
            domains: 8,
            stream_len: 2_000,
            sync_len: 100,
            traced_len: 2_000,
            ..MYOPIC_TRAFFIC
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_admit::json::{self, JsonValue};

    fn field<'a>(obj: &'a JsonValue, key: &str) -> &'a JsonValue {
        json::get(obj.as_obj().expect("an object"), key).unwrap_or_else(|| panic!("no {key:?}"))
    }

    fn text<'a>(obj: &'a JsonValue, key: &str) -> &'a str {
        field(obj, key)
            .as_str()
            .unwrap_or_else(|| panic!("{key:?} is not a string"))
    }

    #[test]
    fn benchmark_json_agrees_with_this_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse_document(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            field(&doc, "run_seconds").as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let paths = field(&doc, "paths").as_arr().expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));

        let listed = field(&doc, "workloads").as_arr().expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }

        let listed = field(&doc, "end_to_end").as_arr().expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (j, g) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(j, "name"), g.metric.name);
            assert_eq!(text(j, "unit"), g.metric.unit);
            assert_eq!(text(j, "better"), g.metric.better.as_str());
            assert_eq!(field(j, "bound").as_f64(), Some(g.bound));
            assert!(g.bound <= 0.25);
        }
        assert!(
            END_TO_END.iter().all(|g| g.bound <= END_TO_END[0].bound),
            "setup_s has the largest bound"
        );

        let listed = field(&doc, "per_layer").as_arr().expect("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (j, l) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(j, "name"), l.metric.name);
            assert_eq!(text(j, "unit"), l.metric.unit);
            assert_eq!(text(j, "better"), l.metric.better.as_str());
        }
    }

    /// `cargo test --manifest-path benchmark/Cargo.toml -- --ignored --nocapture print_benchmark_json`
    /// prints the file these declarations call for.
    #[test]
    #[ignore = "a generator, not a check"]
    fn print_benchmark_json() {
        let quoted = |s: &str| format!("\"{}\"", json::escape(s));
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quoted(w.name),
                    quoted(w.why)
                )
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|g| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(g.metric.name),
                    quoted(g.metric.unit),
                    quoted(g.metric.better.as_str()),
                    g.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|l| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(l.metric.name),
                    quoted(l.metric.unit),
                    quoted(l.metric.better.as_str())
                )
            })
            .collect();
        println!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|g| g.metric.name));
        names.extend(EXTRA.iter().map(|(g, _)| g.metric.name));
        names.extend(PER_LAYER.iter().map(|l| l.metric.name));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(seen.insert(n), "{n} is declared twice");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
