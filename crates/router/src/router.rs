//! The scatter-gather router: one stateful front-end over N admission
//! shards.
//!
//! The router speaks `dvs_admitd`'s protocol — the
//! [`dvs_admit::wire`] schema, plus `map` and `reshard` — parses each
//! line once into a [`Request`], and fans requests across a shard fleet:
//!
//! * **Arrive/Depart** are *routed*: every task carries (or is assigned)
//!   a global power-domain pin, the [`ShardMap`] names the owning shard,
//!   and the typed request goes to that shard alone with the pin
//!   translated to the shard's local domain index.
//! * **Tick** is *fanned out*: written to every shard before any reply
//!   is read, and gathered in shard-index order, so each shard's engine
//!   clock and billing window advance in lockstep and a cluster tick
//!   costs the slowest shard's re-solve, not the sum of all shards'.
//! * **Stats/shutdown** *scatter-gather*: every shard's counters are
//!   summed into cluster aggregates, and the balance invariant
//!   `Σ accepted + rejected + standing-shed = arrivals` is enforced at
//!   the router — a shard that lost or double-counted an event turns
//!   into a structured `balance-violation` error, not a silent skew.
//! * **Log** serves the router's own **merged decision log**: per-event
//!   decision lines echoed by the shards (`"dlog":true`), rewritten from
//!   shard-local to global domain indices and merged in a stable order
//!   keyed by the global domain. Because every domain lives on exactly
//!   one shard and each shard resolves its owned domains in ascending
//!   global order, the merge reproduces a single multi-domain engine's
//!   iteration order exactly — the K-shard cluster log is byte-identical
//!   to the 1-shard run (the routing-property suite pins this across
//!   shard counts).
//!
//! Those three are **pipelined** ([`Router::handle_batch`]): every
//! request of a batch is validated against the state the earlier ones
//! will leave behind — by building the [`AdmitError`] the engine would,
//! in the engine's order, so a refusal reads the same from a router as
//! from one engine — translated, and written to its shard without
//! waiting; replies are then gathered in request order, which is when
//! the merged log grows and the client is answered. Each shard serves
//! its connection first-in first-out and every domain lives on one
//! shard, so the bytes match one-request-at-a-time handling exactly —
//! which is just a batch of one ([`Router::handle_line`]).
//!
//! Reads may be **hedged**: a shard spec can name a follower replica
//! (`addr~replica`), and when the primary cannot answer a `stats` read
//! the router falls back to the follower, whose reply carries the
//! `stale_by` staleness bound the router surfaces in the aggregate.
//! `stale_by_max` only folds in bounds from replies a hedged follower
//! actually served — a primary echoing a `stale_by` field can never
//! inflate it.
//!
//! Writes are never hedged and never fall back — a write that reached a
//! replica instead of the primary would fork the shard's history.
//!
//! **Live resharding** (`{"op":"reshard","add":"NAME=ADDR"}` /
//! `{"op":"reshard","remove":"NAME"}`) migrates the minimal set of
//! domains the rendezvous hash moves, one domain at a time, with a
//! drain → snapshot-transfer → cutover protocol:
//!
//! 1. the source shard **exports** the domain — its engine fences the
//!    slot (no further arrivals), journals the export, and hands back a
//!    payload carrying the CPU spec, clock, and every resident task —
//!    the domain's block of the engine's `S` snapshot record, so one
//!    codec serves both;
//! 2. the target shard **imports** the payload under an idempotency key
//!    `"{version}:{global}"` (the post-reshard map version), journals
//!    it, and answers with the new local slot;
//! 3. only after *every* moved domain has landed does the router bump
//!    the journaled [`ShardMap`] — the version bump is the cutover
//!    fence. A crash anywhere before it leaves the old map in force and
//!    the retry re-runs the same exports (idempotent on a fenced slot)
//!    and imports (deduplicated by key), so no event is double-applied
//!    or lost.
//!
//! A removed member's shard stays in the fleet as a drained shard: its
//! historical counters (departures, ticks, energy) still aggregate, so
//! the cluster balance invariant and stats totals are unchanged by any
//! reshard sequence.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use dvs_admit::json::{self, JsonValue};
use dvs_admit::server::Handled;
use dvs_admit::wire::{shed_ids, Refusal, Reply, Request};
use dvs_admit::{AdmitClient, AdmitError, ClientConfig, ClientError, Decision, RESERVED_ANCHOR_ID};
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

use crate::map::ShardMap;

/// One shard endpoint: the primary address and an optional follower
/// replica used for hedged reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Primary (write) address.
    pub addr: String,
    /// Optional read replica (`addr~replica` syntax).
    pub replica: Option<String>,
}

impl ShardSpec {
    /// Parses an `addr` or `addr~replica` spec.
    #[must_use]
    pub fn parse(spec: &str) -> Self {
        match spec.split_once('~') {
            Some((addr, replica)) => ShardSpec {
                addr: addr.to_string(),
                replica: Some(replica.to_string()),
            },
            None => ShardSpec {
                addr: spec.to_string(),
                replica: None,
            },
        }
    }
}

/// Router-level counters (the shards keep their own engine metrics; these
/// count what the *routing layer* did).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterMetrics {
    /// Arrivals routed to their owning shard.
    pub routed_arrives: u64,
    /// Departures routed to their owning shard.
    pub routed_departs: u64,
    /// Ticks fanned out to every shard.
    pub fanned_ticks: u64,
    /// Reads answered by a replica after the primary failed.
    pub hedged_reads: u64,
    /// Events routed per shard (index-aligned with the membership).
    pub per_shard_routed: Vec<u64>,
}

/// Errors raised while building a router (request-time errors are
/// reported in-band as protocol responses, never as `Err`).
#[derive(Debug)]
pub enum RouterError {
    /// The membership and the endpoint list disagree.
    Config(String),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(msg) => write!(f, "router config: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// One entry of a shard's local domain table, index-aligned with the
/// engine's own domain list (fencing keeps a slot, imports append, so
/// local indices are stable for the engine's whole lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The shard serves this global domain at this local index.
    Live(usize),
    /// The slot's domain was exported away (fenced). The engine still
    /// holds the export payload and re-exports it idempotently, so a
    /// fenced slot is also the retry source when a migration was
    /// interrupted between export and import.
    Fenced(usize),
    /// An engine-side domain with no global assignment. Never routed to.
    Unassigned,
}

impl Slot {
    fn live(self) -> Option<usize> {
        match self {
            Slot::Live(g) => Some(g),
            Slot::Fenced(_) | Slot::Unassigned => None,
        }
    }
}

struct Shard {
    /// The primary connection, owned by the router thread: requests of
    /// a batch are queued on it and their replies read back in order.
    primary: AdmitClient,
    replica: Option<AdmitClient>,
    /// The member name this shard serves. Routing goes through names,
    /// not indices: the map's member list shifts on removal, while a
    /// drained shard stays in this fleet for stats aggregation.
    name: String,
    /// The endpoint this shard is connected to. A reshard that re-adds
    /// the member compares against this, so a rejoin at a *new* address
    /// reconnects instead of exporting/importing through the stale
    /// connection to the old process.
    spec: ShardSpec,
    /// The shard's local domain table (see [`Slot`]).
    slots: Vec<Slot>,
}

/// Builds one shard endpoint: the (lazily connecting) primary client,
/// the optional read replica, and an empty slot table (the caller fills
/// it from the map or grows it via imports).
fn connect_shard(name: &str, spec: &ShardSpec, client: &ClientConfig) -> Shard {
    let at = |addr: &String| {
        let mut cfg = client.clone();
        cfg.addr = addr.clone();
        AdmitClient::new(cfg)
    };
    Shard {
        primary: at(&spec.addr),
        replica: spec.replica.as_ref().map(at),
        name: name.to_string(),
        spec: spec.clone(),
        slots: Vec::new(),
    }
}

/// The in-band answer when shard `s`'s primary cannot be reached.
fn unavailable(s: usize, e: &ClientError) -> String {
    Refusal::new("shard-unavailable", None, format!("shard {s}: {e}")).to_string()
}

/// A request of the batch in hand that has not been answered yet.
enum Pending {
    /// Decided without shard traffic (a validation error), or after the
    /// pipeline drained (every op that is not arrive / depart / tick).
    Answered(Handled),
    /// Written to shard `s`; `present` and the issue clock already count
    /// on it succeeding.
    Arrive {
        s: usize,
        id: usize,
        g: usize,
        at: f64,
        echo: bool,
    },
    /// As `Arrive`, with `departed` updated as well.
    Depart {
        s: usize,
        id: usize,
        g: usize,
        at: f64,
        echo: bool,
    },
    /// Written to every shard.
    Tick { at: f64, echo: bool },
}

/// Most bytes a shard may be sent ahead of its replies. The router
/// writes a batch out before it reads anything back, so the writes must
/// fit in the socket buffers even when the shard has stopped reading
/// because *its* replies have nowhere to go; this is well under a
/// loopback socket's buffer, and past it the router gathers first.
const MAX_UNANSWERED_BYTES: usize = 32 * 1024;

/// The stateful router front-end. See the [module docs](self).
pub struct Router {
    map: ShardMap,
    shards: Vec<Shard>,
    /// Connection template for shards joined by a live reshard.
    client: ClientConfig,
    /// Tasks currently known to the cluster (accepted *or* standing
    /// rejected/shed — the engine keeps both in its ledger), mapped to
    /// their global domain pin so departures route without a lookup
    /// round-trip.
    present: BTreeMap<usize, usize>,
    /// Tasks that have departed; their ids are burned, mirroring the
    /// engine's own replay-safety rule.
    departed: BTreeSet<usize>,
    /// The cluster clock as of the last *answered* event.
    clock: f64,
    /// The clock requests are validated against: `clock` as it will be
    /// once everything in flight has been answered `ok`.
    issue_clock: f64,
    /// Global domain → (fleet index of the owner, its live local slot):
    /// the routing decision per arrival, rebuilt whenever the map or a
    /// slot table changes. `None` when the owner does not serve the
    /// domain live (mid-migration).
    routes: Vec<Option<(usize, usize)>>,
    /// Requests of the batch in hand, oldest first.
    pending: VecDeque<Pending>,
    /// Set when a shard refused or failed a pipelined request: the rest
    /// of the batch is then handled one request at a time.
    careful: bool,
    request_scratch: json::Scratch,
    reply_scratch: json::Scratch,
    downstream: String,
    merged_log: String,
    merged_decisions: u64,
    metrics: RouterMetrics,
}

/// The in-band answer when shard `s` replies with something other than
/// the fixed shape its request asks for.
fn unexpected(s: usize, resp: &str) -> String {
    Refusal::bad_request(format!("unexpected response from shard {s}: {resp}")).to_string()
}

/// Asks a shard's engine for its `layout` and rebuilds the shard's slot
/// table from it (see [`slots_from_layout`]).
fn probe_slots(shard: &mut Shard, births: &[usize]) -> Result<Vec<Slot>, String> {
    let name = &shard.name;
    let resp = shard
        .primary
        .request(&Request::Layout.to_string())
        .map_err(|e| format!("shard {name:?} layout probe failed: {e}"))?;
    match Reply::parse(&resp, &mut json::Scratch::default()) {
        Ok(Ok(Reply::Layout(layout))) => slots_from_layout(name, &layout, births),
        _ => Err(format!(
            "shard {name:?} answered the layout probe with {resp}"
        )),
    }
}

/// Asks a shard for its task-presence inventory: every present task as
/// `(id, local domain)` (`None` for an unpinned standing rejection) and
/// the ids it has burned as departed.
#[allow(clippy::type_complexity)]
fn probe_present(shard: &mut Shard) -> Result<(Vec<(usize, Option<usize>)>, Vec<usize>), String> {
    let name = &shard.name;
    let resp = shard
        .primary
        .request(&Request::Present.to_string())
        .map_err(|e| format!("shard {name:?} presence probe failed: {e}"))?;
    match Reply::parse(&resp, &mut json::Scratch::default()) {
        Ok(Ok(Reply::Present { tasks, departed })) => Ok((tasks, departed)),
        _ => Err(format!(
            "shard {name:?} answered the presence probe with {resp}"
        )),
    }
}

/// Rebuilds a shard's slot table from its engine's reported layout.
/// Imported slots name their global inside the migration key (`"V:G"`);
/// unkeyed slots are the member's birth domains, named positionally in
/// ascending global order. This is how a restarted router recovers the
/// exact local indices an engine that lived through reshards actually
/// has — fenced holes from exports, appended imports and all — instead
/// of assuming the dense assignment a fresh fleet would have.
fn slots_from_layout(
    member: &str,
    layout: &[(bool, Option<&str>)],
    births: &[usize],
) -> Result<Vec<Slot>, String> {
    // Engine slots never disappear (exports fence in place), so a
    // process constructed over N domains always reports exactly N
    // unkeyed slots. Zero unkeyed slots with a non-empty birth set is
    // therefore a *different process* under the member's name — a
    // drained member rejoining fresh (legitimately empty, grows via
    // imports), which the birth assignment must not be forced onto.
    let unkeyed = layout.iter().filter(|(_, key)| key.is_none()).count();
    let mut births = if unkeyed == 0 { &[][..] } else { births }.iter().copied();
    if unkeyed != 0 && unkeyed != births.len() {
        return Err(format!(
            "shard {member:?}: engine was constructed over {unkeyed} domain(s) but \
             the member was born holding {} — wrong process or lost state",
            births.len()
        ));
    }
    let mut slots = Vec::with_capacity(layout.len());
    for (local, (fenced, key)) in layout.iter().enumerate() {
        let g = match key {
            Some(k) => Some(
                k.rsplit(':')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| {
                        format!("shard {member:?}: import key {k:?} names no global domain")
                    })?,
            ),
            None => births.next(),
        };
        slots.push(match (g, fenced) {
            (Some(g), false) => Slot::Live(g),
            (Some(g), true) => Slot::Fenced(g),
            (None, false) => Slot::Unassigned,
            (None, true) => {
                return Err(format!(
                    "shard {member:?}: local domain {local} is fenced but has no \
                     known global assignment"
                ));
            }
        });
    }
    Ok(slots)
}

/// Startup sanity over reconciled slot tables: every global domain must
/// be live on exactly one shard, or — mid-migration, after an
/// interrupted reshard — fenced somewhere awaiting a roll-forward.
fn validate_coverage(map: &ShardMap, shards: &[Shard]) -> Result<(), String> {
    for g in 0..map.domains() {
        let live: Vec<&str> = shards
            .iter()
            .filter(|sh| sh.slots.contains(&Slot::Live(g)))
            .map(|sh| sh.name.as_str())
            .collect();
        match live.len() {
            0 => {
                if !shards.iter().any(|sh| sh.slots.contains(&Slot::Fenced(g))) {
                    return Err(format!(
                        "domain {g} is held by no shard, live or fenced — state lost"
                    ));
                }
                // Fenced-only: an interrupted migration. Arrivals are
                // refused with domain-fenced until a reshard rolls the
                // transfer forward.
            }
            1 => {}
            _ => {
                return Err(format!("domain {g} is live on multiple shards: {live:?}"));
            }
        }
    }
    Ok(())
}

impl Router {
    /// Builds a router over `map` with one endpoint per member (index
    /// aligned). `client` is the per-shard connection template; its
    /// `addr` is overwritten per endpoint.
    ///
    /// For a fresh map (version 1) the slot tables are the dense
    /// version-1 assignment — correct by construction, and connections
    /// stay lazy. For a map that lived through membership changes (a
    /// restart against a replayed journal), each shard is **probed** for
    /// its engine's actual domain layout and the slot tables are
    /// reconciled against it: engines that survived reshards keep
    /// fenced holes from exports and appended imports, so the dense
    /// assumption would misroute pinned arrivals to the wrong
    /// engine-local domain.
    ///
    /// # Errors
    ///
    /// [`RouterError::Config`] when the endpoint list does not match the
    /// membership size, when a shard cannot answer the layout probe, or
    /// when the reconciled layouts are inconsistent with the map (a
    /// domain live on two shards, or held by none).
    pub fn new(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
    ) -> Result<Self, RouterError> {
        let reconcile = map.version() > 1;
        Self::with_reconcile(map, endpoints, client, reconcile)
    }

    /// Connects to a cluster that holds live state from a previous
    /// router process: always probes, regardless of map version.
    ///
    /// [`Router::new`] only reconciles for maps past version 1 (a fresh
    /// version-1 fleet is dense by construction, and connections stay
    /// lazy). A *restarted* version-1 cluster is indistinguishable from
    /// a fresh one by the map alone, yet its engines may hold in-flight
    /// tasks whose id→domain routing table died with the old router —
    /// so a caller that knows it is resuming (a replayed map journal, a
    /// reattached fleet) must use this constructor.
    ///
    /// # Errors
    ///
    /// As [`Router::new`].
    pub fn resume(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
    ) -> Result<Self, RouterError> {
        Self::with_reconcile(map, endpoints, client, true)
    }

    fn with_reconcile(
        map: ShardMap,
        endpoints: &[ShardSpec],
        client: &ClientConfig,
        reconcile: bool,
    ) -> Result<Self, RouterError> {
        if endpoints.len() != map.members().len() {
            return Err(RouterError::Config(format!(
                "{} endpoints for {} members",
                endpoints.len(),
                map.members().len()
            )));
        }
        let mut shards = Vec::with_capacity(endpoints.len());
        for (s, spec) in endpoints.iter().enumerate() {
            let mut shard = connect_shard(&map.members()[s], spec, client);
            if reconcile {
                let births = map.birth_domains(&shard.name);
                shard.slots = probe_slots(&mut shard, &births).map_err(RouterError::Config)?;
            } else {
                shard.slots = map.owned(s).into_iter().map(Slot::Live).collect();
            }
            shards.push(shard);
        }
        let mut present = BTreeMap::new();
        let mut departed = BTreeSet::new();
        if reconcile {
            validate_coverage(&map, &shards).map_err(RouterError::Config)?;
            // Rebuild the router-side task-presence table: departures
            // route through an id→global-domain map that lives (and
            // dies) with the router process, while the tasks themselves
            // live on in the engines. Local pins translate through the
            // just-reconciled slot tables; a task on a fenced slot is
            // mid-migration and maps to the same global domain its live
            // holder will report.
            for shard in &mut shards {
                let (tasks, burned) = probe_present(shard).map_err(RouterError::Config)?;
                for (id, pin) in tasks {
                    let Some(local) = pin else { continue };
                    let g = match shard.slots.get(local) {
                        Some(&Slot::Live(g) | &Slot::Fenced(g)) => g,
                        _ => {
                            return Err(RouterError::Config(format!(
                                "shard {:?} reports task \u{3c4}{id} on local domain \
                                 {local}, which maps to no global domain",
                                shard.name
                            )));
                        }
                    };
                    present.insert(id, g);
                }
                departed.extend(burned);
            }
        }
        let per_shard_routed = vec![0; shards.len()];
        let mut router = Router {
            map,
            shards,
            client: client.clone(),
            present,
            departed,
            clock: 0.0,
            issue_clock: 0.0,
            routes: Vec::new(),
            pending: VecDeque::new(),
            careful: false,
            request_scratch: json::Scratch::default(),
            reply_scratch: json::Scratch::default(),
            downstream: String::new(),
            merged_log: String::new(),
            merged_decisions: 0,
            metrics: RouterMetrics {
                per_shard_routed,
                ..RouterMetrics::default()
            },
        };
        router.rebuild_routes();
        Ok(router)
    }

    /// Recomputes the `routes` table from the map and the slot tables.
    fn rebuild_routes(&mut self) {
        self.routes = (0..self.map.domains())
            .map(|g| {
                let s = self.route(g).ok()?;
                let local = self.shards[s]
                    .slots
                    .iter()
                    .position(|slot| *slot == Slot::Live(g))?;
                Some((s, local))
            })
            .collect();
    }

    /// The shard map in force.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Router-layer counters.
    #[must_use]
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// The merged cluster decision log (same bytes a single multi-domain
    /// engine's `format_decision_log` would produce for the same event
    /// stream).
    #[must_use]
    pub fn merged_log(&self) -> &str {
        &self.merged_log
    }

    /// Parses and executes one request line against the cluster. Mirrors
    /// the single-server contract: never panics, never returns `Err` —
    /// protocol, routing, and shard errors are all encoded in-band.
    pub fn handle_line(&mut self, line: &str) -> Handled {
        self.handle_batch(&[line])
            .pop()
            .expect("one request, one answer")
    }

    /// Executes a batch of request lines — what a client has sent without
    /// waiting for replies — and answers them in request order: one
    /// [`Handled`] per line, stopping early only after a `shutdown`.
    ///
    /// Arrivals, departures and ticks are pipelined: each is validated
    /// against the state the requests before it will leave behind, then
    /// written to its shard (a tick: to every shard) without waiting,
    /// and the replies are gathered in request order afterwards. While
    /// every shard answers `ok` — which the router's own validation is
    /// there to guarantee — responses, merged log, metrics and stats are
    /// those of handling the lines one at a time. Two things wait for the
    /// pipeline to drain: a second request about a task id that has one
    /// in flight, and every other op (`stats`, `log`, `reshard`, …).
    ///
    /// When a shard refuses a request or cannot be reached, everything
    /// already in flight is still gathered, the refused request alone is
    /// rolled back in the router's tables, and the rest of the batch is
    /// handled one request at a time.
    pub fn handle_batch(&mut self, lines: &[&str]) -> Vec<Handled> {
        let mut out = Vec::with_capacity(lines.len());
        let mut scratch = std::mem::take(&mut self.request_scratch);
        self.careful = false;
        for line in lines {
            let step = match Request::parse(line, &mut scratch) {
                Ok(request) => self.issue(request, &mut out),
                Err(refusal) => Err(refusal.to_string()),
            }
            .unwrap_or_else(|response| {
                Pending::Answered(Handled {
                    response,
                    shutdown: false,
                })
            });
            let last = matches!(&step, Pending::Answered(h) if h.shutdown);
            self.pending.push_back(step);
            if self.careful {
                self.gather(&mut out);
            }
            if last {
                break;
            }
        }
        self.gather(&mut out);
        self.request_scratch = scratch;
        out
    }

    /// Validates one request and, for the pipelined ops, writes it to
    /// its shard(s). `Err` carries a fully-formatted error response.
    fn issue(&mut self, request: Request<'_>, out: &mut Vec<Handled>) -> Result<Pending, String> {
        match request {
            Request::Event { event, dlog } => match event.kind {
                EventKind::Arrive(task) => self.issue_arrive(event.at, task, dlog, out),
                EventKind::Depart(id) => self.issue_depart(event.at, id, dlog, out),
                EventKind::Tick => self.issue_tick(event.at, dlog, out),
            },
            _ => {
                // Everything else reads or rewires the cluster as a
                // whole: it sees the pipeline drained.
                self.gather(out);
                let shutdown = request == Request::Shutdown;
                let response = match self.control(request) {
                    Ok(r) | Err(r) => r,
                };
                Ok(Pending::Answered(Handled { response, shutdown }))
            }
        }
    }

    /// The ops that are not pipelined.
    fn control(&mut self, request: Request<'_>) -> Result<String, String> {
        match request {
            Request::Stats | Request::Shutdown => self.cluster_stats(&request),
            Request::Log => Ok(Reply::Log {
                decisions: self.merged_decisions,
                log: &self.merged_log,
            }
            .line()),
            Request::Map => Ok(Reply::Map {
                version: self.map.version(),
                shards: self.shards.len(),
                assignment: (0..self.map.domains())
                    .map(|g| self.map.shard_for(g))
                    .collect(),
            }
            .line()),
            Request::ReshardAdd(member) | Request::ReshardRemove(member) => {
                let done = self.reshard(matches!(request, Request::ReshardAdd(_)), member);
                // Slot tables change as domains land, even when the
                // reshard stops half-way.
                self.rebuild_routes();
                done
            }
            Request::Role => Ok(Reply::RouterRole {
                shards: self.shards.len(),
                map_version: self.map.version(),
            }
            .line()),
            _ => Err(request.unknown_op().to_string()),
        }
    }

    /// The router-shard index serving global domain `g`: the map names
    /// the owning member, and the fleet is searched by name (drained
    /// shards keep their slot in the fleet but leave the membership).
    /// Per request this is answered from `routes`; the search runs when
    /// that table is rebuilt, and to explain a miss.
    fn route(&self, g: usize) -> Result<usize, String> {
        let member = &self.map.members()[self.map.shard_for(g)];
        self.shards
            .iter()
            .position(|sh| &sh.name == member)
            .ok_or_else(|| {
                Refusal::new(
                    "shard-unavailable",
                    None,
                    format!("no connected shard for member {member:?}"),
                )
                .to_string()
            })
    }

    /// Why an arrival pinned to `g` cannot be routed (`routes[g]` is
    /// `None`).
    fn unroutable(&self, g: usize, id: usize) -> String {
        let s = match self.route(g) {
            Ok(s) => s,
            Err(response) => return response,
        };
        // The owner does not serve g live. If the domain is fenced (or
        // parked live on a non-owner) an interrupted reshard left it
        // mid-migration: structured and retryable — re-issuing the
        // reshard rolls the transfer forward.
        let mid_migration = self
            .shards
            .iter()
            .any(|sh| sh.slots.contains(&Slot::Fenced(g)) || sh.slots.contains(&Slot::Live(g)));
        let (kind, msg) = if mid_migration {
            (
                "domain-fenced",
                format!(
                    "domain {g} is mid-migration (fenced on its owner); \
                     re-issue the reshard to complete it"
                ),
            )
        } else {
            (
                "shard-unavailable",
                format!("shard {s} does not hold domain {g}"),
            )
        };
        Refusal::new(kind, Some(id), msg).to_string()
    }

    /// The engine's clock check, against the clock the requests in
    /// flight will leave behind.
    fn check_clock(&self, at: f64) -> Result<(), AdmitError> {
        if !at.is_finite() || at < self.issue_clock {
            return Err(AdmitError::TimeRegression {
                at,
                clock: self.issue_clock,
            });
        }
        Ok(())
    }

    /// The engine's arrival checks, in the engine's order, against the
    /// cluster: clock, reserved id, domain range, departed, present.
    fn check_arrive(&self, at: f64, id: TaskId, g: usize) -> Result<(), AdmitError> {
        self.check_clock(at)?;
        let domains = self.map.domains();
        if id.index() == RESERVED_ANCHOR_ID {
            Err(AdmitError::ReservedId(id))
        } else if g >= domains {
            Err(AdmitError::InvalidDomain {
                task: id,
                domain: g,
                domains,
            })
        } else if self.departed.contains(&id.index()) {
            Err(AdmitError::AlreadyDeparted(id))
        } else if self.present.contains_key(&id.index()) {
            Err(AdmitError::DuplicateTask(id))
        } else {
            Ok(())
        }
    }

    /// The engine's departure checks, in the engine's order: clock, then
    /// present (else departed or unknown). The task's global domain.
    fn check_depart(&self, at: f64, id: TaskId) -> Result<usize, AdmitError> {
        self.check_clock(at)?;
        match self.present.get(&id.index()) {
            Some(&g) => Ok(g),
            None if self.departed.contains(&id.index()) => Err(AdmitError::AlreadyDeparted(id)),
            None => Err(AdmitError::UnknownTask(id)),
        }
    }

    /// Gathers first when the next pipelined request must not go out
    /// behind what is in flight: a request about task `id` while another
    /// one is unanswered (it is validated against that one's outcome),
    /// or a shard already sent [`MAX_UNANSWERED_BYTES`].
    fn make_room(&mut self, id: Option<usize>, out: &mut Vec<Handled>) {
        let about = |step: &Pending| match step {
            Pending::Arrive { id, .. } | Pending::Depart { id, .. } => Some(*id),
            Pending::Answered(_) | Pending::Tick { .. } => None,
        };
        let full = |sh: &Shard| sh.primary.unanswered_bytes() > MAX_UNANSWERED_BYTES;
        if id.is_some_and(|id| self.pending.iter().any(|step| about(step) == Some(id)))
            || self.shards.iter().any(full)
        {
            self.gather(out);
        }
    }

    /// Validates an arrival and writes it to the owning shard.
    fn issue_arrive(
        &mut self,
        at: f64,
        task: Task,
        echo: bool,
        out: &mut Vec<Handled>,
    ) -> Result<Pending, String> {
        let id = task.id().index();
        // Unpinned arrivals get the router's deterministic default pin —
        // the same `id mod domains` rule `TraceSpec::domains` uses, so
        // routed and single-engine replays of a generated trace see
        // identical pins.
        let g = task.domain().unwrap_or(id % self.map.domains());
        self.make_room(Some(id), out);
        self.check_arrive(at, task.id(), g)
            .map_err(|e| Refusal::from(e).to_string())?;
        let Some((s, local)) = self.routes[g] else {
            return Err(self.unroutable(g, id));
        };
        self.forward(
            s,
            EventRecord::new(at, EventKind::Arrive(task.with_domain(local))),
        );
        self.issue_clock = at;
        self.present.insert(id, g);
        Ok(Pending::Arrive { s, id, g, at, echo })
    }

    /// Queues `event` on shard `s`'s connection, asking for its
    /// decision lines.
    fn forward(&mut self, s: usize, event: EventRecord) {
        self.downstream.clear();
        let _ = write!(self.downstream, "{}", Request::Event { event, dlog: true });
        self.shards[s].primary.send(&self.downstream);
    }

    /// Reads shard `s`'s reply to an arrival or departure and stitches
    /// its decisions into the merged log; returns the shard-local domain
    /// an arrival was accepted onto, and the decisions. `Err` is the
    /// answer to a refused or failed request; the caller rolls the
    /// optimistic updates back.
    fn finish_routed(
        &mut self,
        s: usize,
        at: f64,
    ) -> Result<(Option<usize>, Vec<Decision>), String> {
        let resp = self.shards[s]
            .primary
            .recv()
            .map_err(|e| unavailable(s, &e))?;
        let (domain, dlog) = match Reply::parse(&resp, &mut self.reply_scratch) {
            Ok(Ok(Reply::Verdict { domain, dlog, .. })) => (domain, dlog),
            Ok(Ok(Reply::Depart { dlog, .. })) => (None, dlog),
            // Structured shard refusals (the router pre-validates, so
            // these indicate state skew) pass through unchanged.
            Ok(Err(_)) => return Err(resp),
            _ => return Err(unexpected(s, &resp)),
        };
        let mut decisions = dlog.unwrap_or_default();
        globalize(s, &self.shards[s].slots, &mut decisions)?;
        self.append_merged(&decisions);
        self.clock = at;
        self.metrics.per_shard_routed[s] += 1;
        Ok((domain, decisions))
    }

    fn finish_arrive(
        &mut self,
        s: usize,
        id: usize,
        g: usize,
        at: f64,
        echo: bool,
    ) -> Result<String, String> {
        let (domain, decisions) = self.finish_routed(s, at)?;
        self.metrics.routed_arrives += 1;
        Ok(Reply::Verdict {
            id,
            domain: domain.map(|_| g),
            dlog: echo.then_some(decisions),
        }
        .line())
    }

    /// Validates a departure and writes it to the shard holding the task.
    fn issue_depart(
        &mut self,
        at: f64,
        id: TaskId,
        echo: bool,
        out: &mut Vec<Handled>,
    ) -> Result<Pending, String> {
        self.make_room(Some(id.index()), out);
        let g = self
            .check_depart(at, id)
            .map_err(|e| Refusal::from(e).to_string())?;
        let s = match self.routes[g] {
            Some((s, _)) => s,
            None => self.route(g)?,
        };
        self.forward(s, EventRecord::new(at, EventKind::Depart(id)));
        let id = id.index();
        self.issue_clock = at;
        self.present.remove(&id);
        self.departed.insert(id);
        Ok(Pending::Depart { s, id, g, at, echo })
    }

    fn finish_depart(
        &mut self,
        s: usize,
        id: usize,
        at: f64,
        echo: bool,
    ) -> Result<String, String> {
        let (_, decisions) = self.finish_routed(s, at)?;
        self.metrics.routed_departs += 1;
        Ok(Reply::Depart {
            id,
            shed: shed_ids(&decisions),
            dlog: echo.then_some(decisions),
        }
        .line())
    }

    /// Validates a tick and writes it to every shard. Nothing is read
    /// back before all of them have it, so every shard advances its
    /// clock and runs its re-solve pass concurrently: a cluster tick
    /// costs the slowest shard, not the sum of all shards.
    fn issue_tick(
        &mut self,
        at: f64,
        echo: bool,
        out: &mut Vec<Handled>,
    ) -> Result<Pending, String> {
        self.make_room(None, out);
        self.check_clock(at)
            .map_err(|e| Refusal::from(e).to_string())?;
        for s in 0..self.shards.len() {
            self.forward(s, EventRecord::new(at, EventKind::Tick));
        }
        self.issue_clock = at;
        Ok(Pending::Tick { at, echo })
    }

    /// Reads every shard's reply to a tick, in shard-index order, and
    /// merges the decision lines in global-domain order — so neither
    /// pipelining nor shard concurrency reorders a byte of the merged
    /// log.
    fn finish_tick(&mut self, at: f64, echo: bool) -> Result<String, String> {
        // Every shard was sent the tick, so every reply is read, even
        // past one that failed.
        let responses: Vec<Result<String, String>> = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(s, shard)| shard.primary.recv().map_err(|e| unavailable(s, &e)))
            .collect();
        let mut merged: Vec<Decision> = Vec::new();
        let mut resolves: u64 = 0;
        for (s, resp) in responses.into_iter().enumerate() {
            let resp = resp?;
            match Reply::parse(&resp, &mut self.reply_scratch) {
                Ok(Ok(Reply::Tick {
                    resolves: shard_resolves,
                    dlog,
                    ..
                })) => {
                    let mut decisions = dlog.unwrap_or_default();
                    globalize(s, &self.shards[s].slots, &mut decisions)?;
                    resolves += shard_resolves;
                    merged.append(&mut decisions);
                }
                Ok(Err(_)) => return Err(resp),
                _ => return Err(unexpected(s, &resp)),
            }
        }
        // Stable sort by global domain: every domain lives on exactly one
        // shard and each shard emits its owned domains in ascending
        // global order, so this reproduces a single engine's domain
        // iteration exactly (intra-domain order is preserved as emitted).
        merged.sort_by_key(|d| d.verdict.domain());
        self.append_merged(&merged);
        self.clock = at;
        self.metrics.fanned_ticks += 1;
        Ok(Reply::Tick {
            shed: shed_ids(&merged),
            resolves,
            dlog: echo.then_some(merged),
        }
        .line())
    }

    /// Puts everything issued on the wire, then answers every pending
    /// request in request order. Afterwards nothing is in flight.
    fn gather(&mut self, out: &mut Vec<Handled>) {
        if self.pending.is_empty() {
            return;
        }
        for shard in &mut self.shards {
            shard.primary.flush();
        }
        while let Some(step) = self.pending.pop_front() {
            let answer = match step {
                Pending::Answered(handled) => {
                    out.push(handled);
                    continue;
                }
                Pending::Arrive { s, id, g, at, echo } => {
                    self.finish_arrive(s, id, g, at, echo).inspect_err(|_| {
                        self.present.remove(&id);
                    })
                }
                Pending::Depart { s, id, g, at, echo } => {
                    self.finish_depart(s, id, at, echo).inspect_err(|_| {
                        self.departed.remove(&id);
                        self.present.insert(id, g);
                    })
                }
                Pending::Tick { at, echo } => self.finish_tick(at, echo),
            };
            self.careful |= answer.is_err();
            out.push(Handled {
                response: match answer {
                    Ok(r) | Err(r) => r,
                },
                shutdown: false,
            });
        }
        // Equal already unless a request was refused: its timestamp is
        // rolled back with it.
        self.issue_clock = self.clock;
    }

    /// Scatter-gathers per-shard stats into cluster aggregates, enforcing
    /// the balance invariant. `request` is `stats` (hedged reads allowed)
    /// or `shutdown` (forwarded as-is; `dvs_admitd` answers shutdown with
    /// its final stats dump, which aggregates the same way).
    fn cluster_stats(&mut self, request: &Request<'_>) -> Result<String, String> {
        const SUMMED: [&str; 14] = [
            "arrivals",
            "accepted",
            "admitted",
            "rejected",
            "shed",
            "shed_total",
            "readmitted",
            "departures",
            "ticks",
            "resolves",
            "resolves_degraded",
            "resolves_skipped",
            "resolve_nodes",
            "events",
        ];
        const SUMMED_F64: [&str; 4] =
            ["energy", "penalty_accrued", "penalty_charged", "total_cost"];
        let hedge = *request == Request::Stats;
        let request = request.to_string();
        let mut counts = [0u64; 14];
        let mut floats = [0f64; 4];
        let mut stale_by_max: u64 = 0;
        for s in 0..self.shards.len() {
            let (resp, hedge_served) = if hedge {
                self.shard_read(s, &request)?
            } else {
                (self.shard_write(s, &request)?, false)
            };
            let rp = json::parse_object(&resp).map_err(|e| {
                Refusal::bad_request(format!("bad shard response: {e}")).to_string()
            })?;
            if json::get(&rp, "ok") != Some(&JsonValue::Bool(true)) {
                return Err(resp);
            }
            for (i, key) in SUMMED.iter().enumerate() {
                counts[i] += json::get(&rp, key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0) as u64;
            }
            for (i, key) in SUMMED_F64.iter().enumerate() {
                floats[i] += json::get(&rp, key)
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
            }
            if hedge_served {
                if let Some(stale) = json::get(&rp, "stale_by").and_then(JsonValue::as_f64) {
                    stale_by_max = stale_by_max.max(stale as u64);
                }
            }
        }
        let (arrivals, accepted, rejected, shed) = (counts[0], counts[1], counts[3], counts[4]);
        if accepted + rejected + shed != arrivals {
            return Err(Refusal::new(
                "balance-violation",
                None,
                format!(
                    "cluster balance broken: accepted {accepted} + rejected {rejected} \
                     + standing-shed {shed} != arrivals {arrivals}"
                ),
            )
            .to_string());
        }
        let m = &self.metrics;
        let per_shard: Vec<String> = m.per_shard_routed.iter().map(u64::to_string).collect();
        let mut out = format!(
            "{{\"ok\":true,\"op\":\"cluster-stats\",\"shards\":{},\"map_version\":{},\"domains\":{}",
            self.shards.len(),
            self.map.version(),
            self.map.domains()
        );
        for (i, key) in SUMMED.iter().enumerate() {
            out.push_str(&format!(",\"{key}\":{}", counts[i]));
        }
        for (i, key) in SUMMED_F64.iter().enumerate() {
            out.push_str(&format!(",\"{key}\":{}", floats[i]));
        }
        out.push_str(&format!(
            ",\"routed_arrives\":{},\"routed_departs\":{},\"fanned_ticks\":{},\
             \"hedged_reads\":{},\"merged_decisions\":{},\"stale_by_max\":{},\
             \"per_shard_routed\":[{}]}}",
            m.routed_arrives,
            m.routed_departs,
            m.fanned_ticks,
            m.hedged_reads,
            self.merged_decisions,
            stale_by_max,
            per_shard.join(",")
        ));
        Ok(out)
    }

    /// Executes a live reshard: grows or shrinks the membership and
    /// migrates exactly the domains the rendezvous hash moves, one at a
    /// time, via export → import. The journaled map version bump is the
    /// **last** step (the cutover fence): a crash anywhere earlier
    /// leaves the old map in force, and re-issuing the same reshard
    /// skips already-landed domains (the import key dedupes on the
    /// shard, the slot table dedupes on the router) and finishes the
    /// remainder. See the [module docs](self) for the full protocol.
    #[allow(clippy::too_many_lines)]
    fn reshard(&mut self, adding: bool, member: &str) -> Result<String, String> {
        let rerr = |msg: String| Refusal::new("reshard", None, msg).to_string();
        let (probe_members, name, spec) = if adding {
            let (name, addr) = member.split_once('=').ok_or_else(|| {
                Refusal::bad_request(format!(
                    "reshard add needs NAME=ADDR, got {member:?} \
                     (spawn mode resolves bare names to spawned shards)"
                ))
                .to_string()
            })?;
            let mut members: Vec<String> = self.map.members().to_vec();
            members.push(name.to_string());
            (members, name.to_string(), Some(ShardSpec::parse(addr)))
        } else {
            let members: Vec<String> = self
                .map
                .members()
                .iter()
                .filter(|m| m.as_str() != member)
                .cloned()
                .collect();
            if members.len() == self.map.members().len() {
                return Err(rerr(format!("unknown member {member:?}")));
            }
            (members, member.to_string(), None)
        };
        // Probe map: validates the target membership (names, duplicates,
        // emptiness) and answers "who owns g afterwards" without touching
        // the live, journaled map.
        let probe = ShardMap::new(probe_members, self.map.domains(), None)
            .map_err(|e| rerr(e.to_string()))?;
        // Connect the joining shard. A retry finds the member already in
        // the fleet and reuses it — unless the supplied address differs
        // (a drained member rejoining as a *new* process), in which case
        // the stale connection is torn down and replaced; the layout
        // refresh below adopts whatever state the new process holds.
        if adding {
            let spec = spec.as_ref().expect("add always carries a spec");
            match self.shards.iter().position(|sh| sh.name == name) {
                Some(pos) if self.shards[pos].spec != *spec => {
                    self.shards[pos] = connect_shard(&name, spec, &self.client);
                }
                Some(_) => {}
                None => {
                    let shard = connect_shard(&name, spec, &self.client);
                    self.shards.push(shard);
                    self.metrics.per_shard_routed.push(0);
                }
            }
        }
        // Ground-truth refresh: rebuild every fleet member's slot table
        // from its engine's actual layout, so the moved set and the
        // migration sources below reflect where domains really live. An
        // earlier reshard may have been interrupted — or abandoned and a
        // *different* one issued — and its exports/imports are
        // discovered here and rolled forward rather than stranded.
        for shard in &mut self.shards {
            let births = self.map.birth_domains(&shard.name);
            shard.slots = probe_slots(shard, &births).map_err(&rerr)?;
        }
        // The moved set is computed against the *holders*, not the map:
        // a domain migrates unless the post-reshard owner already serves
        // it live. On a clean fleet this is exactly the rendezvous
        // owner-diff (minimal movement); after an interrupted attempt it
        // also picks up displaced domains — live on a non-owner, or
        // fenced everywhere — whose map owner never changed.
        let moved: Vec<usize> = (0..self.map.domains())
            .filter(|&g| {
                let owner = &probe.members()[probe.shard_for(g)];
                !self
                    .shards
                    .iter()
                    .any(|sh| &sh.name == owner && sh.slots.contains(&Slot::Live(g)))
            })
            .collect();
        // The post-cutover version every import is keyed under: retries
        // of an interrupted reshard recompute the same keys, so a shard
        // that already applied an import answers with the same slot
        // instead of double-applying it.
        let next_version = self.map.version() + 1;
        let pause_ms: u64 = std::env::var("DVS_RESHARD_PAUSE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        for &g in &moved {
            if pause_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(pause_ms));
            }
            let owner = probe.members()[probe.shard_for(g)].clone();
            let dst = self
                .shards
                .iter()
                .position(|sh| sh.name == owner)
                .ok_or_else(|| rerr(format!("no connected shard for member {owner:?}")))?;
            // Source: the live holder, wherever it is. When an earlier
            // attempt was interrupted between export and import there is
            // no live holder — the fenced copy on the map-assigned owner
            // (the only shard that can have exported g under an
            // uncommitted reshard) re-exports its stored payload
            // idempotently. The *last* fenced slot is the freshest: a
            // domain re-imported and re-exported leaves older tombstones
            // at lower indices.
            let (src, local) = if let Some(src) = self
                .shards
                .iter()
                .position(|sh| sh.slots.contains(&Slot::Live(g)))
            {
                let local = self.shards[src]
                    .slots
                    .iter()
                    .position(|slot| *slot == Slot::Live(g))
                    .expect("just found above");
                (src, local)
            } else {
                let map_owner = &self.map.members()[self.map.shard_for(g)];
                let src = self
                    .shards
                    .iter()
                    .position(|sh| &sh.name == map_owner && sh.slots.contains(&Slot::Fenced(g)))
                    .or_else(|| {
                        self.shards
                            .iter()
                            .position(|sh| sh.slots.contains(&Slot::Fenced(g)))
                    })
                    .ok_or_else(|| {
                        rerr(format!(
                            "domain {g} has no live or fenced holder — its state is lost"
                        ))
                    })?;
                let local = self.shards[src]
                    .slots
                    .iter()
                    .rposition(|slot| *slot == Slot::Fenced(g))
                    .expect("just found above");
                (src, local)
            };
            let resp = self.shard_write(src, &Request::Export { domain: local }.to_string())?;
            let payload = match Reply::parse(&resp, &mut self.reply_scratch) {
                Ok(Ok(Reply::Export { payload, .. })) => payload.to_string(),
                Ok(Err(_)) => return Err(resp),
                _ => return Err(rerr(format!("shard {src} answered the export with {resp}"))),
            };
            // The engine fenced the slot the moment the export journaled;
            // mirror that now, so a failure on the import below leaves
            // the table telling the truth and the retry re-exports the
            // stored payload.
            self.shards[src].slots[local] = Slot::Fenced(g);
            let import = Request::Import {
                key: &format!("{next_version}:{g}"),
                payload: &payload,
            };
            let resp = self.shard_write(dst, &import.to_string())?;
            let new_local = match Reply::parse(&resp, &mut self.reply_scratch) {
                Ok(Ok(Reply::Import { local })) => local,
                Ok(Err(_)) => return Err(resp),
                _ => return Err(rerr(format!("shard {dst} answered the import with {resp}"))),
            };
            let slots = &mut self.shards[dst].slots;
            match new_local.cmp(&slots.len()) {
                std::cmp::Ordering::Equal => slots.push(Slot::Live(g)),
                std::cmp::Ordering::Less if slots[new_local] == Slot::Live(g) => {}
                _ => {
                    return Err(rerr(format!(
                        "shard {dst} imported domain {g} at unexpected slot {new_local}"
                    )));
                }
            }
        }
        // Cutover fence: only now does the journaled map adopt the new
        // membership and version — routing flips atomically for every
        // subsequent event, and a replayed map journal lands here too.
        let bump = if adding {
            self.map.add_member(&name)
        } else {
            self.map.remove_member(&name)
        };
        bump.map_err(|e| rerr(e.to_string()))?;
        Ok(Reply::Reshard {
            version: self.map.version(),
            moved: moved.len(),
        }
        .line())
    }

    /// Sends a write to shard `s`'s primary and waits for its reply (the
    /// pipeline is drained whenever this is called). Writes never fall
    /// back to a replica: a follower refuses them (`not-primary`), and
    /// silently retrying elsewhere would fork the shard's history.
    fn shard_write(&mut self, s: usize, line: &str) -> Result<String, String> {
        self.shards[s]
            .primary
            .request(line)
            .map_err(|e| unavailable(s, &e))
    }

    /// Sends a read to shard `s`, hedging to the replica when the primary
    /// cannot answer. The flag in the result says whether the *replica*
    /// served the reply — only then may its `stale_by` bound enter the
    /// aggregate (a primary's reply is never stale by definition, even
    /// if its JSON happens to carry a `stale_by` field).
    fn shard_read(&mut self, s: usize, line: &str) -> Result<(String, bool), String> {
        let primary = self.shard_write(s, line);
        match primary {
            Ok(resp) => Ok((resp, false)),
            Err(primary_err) => {
                let Some(replica) = self.shards[s].replica.as_mut() else {
                    return Err(primary_err);
                };
                let resp = replica.request(line).map_err(|replica_err| {
                    Refusal::new(
                        "shard-unavailable",
                        None,
                        format!("shard {s}: primary and replica both failed ({replica_err})"),
                    )
                    .to_string()
                })?;
                self.metrics.hedged_reads += 1;
                Ok((resp, true))
            }
        }
    }

    fn append_merged(&mut self, decisions: &[Decision]) {
        for d in decisions {
            let _ = writeln!(self.merged_log, "{d}");
        }
        self.merged_decisions += decisions.len() as u64;
    }
}

/// Rewrites shard `s`'s decisions from local to global domain indices.
/// A rejection names no domain and is left as it is.
fn globalize(s: usize, slots: &[Slot], decisions: &mut [Decision]) -> Result<(), String> {
    for d in decisions {
        if let Some(domain) = d.verdict.domain_mut() {
            *domain = slots
                .get(*domain)
                .copied()
                .and_then(Slot::live)
                .ok_or_else(|| {
                    Refusal::bad_request(format!(
                        "shard {s} named unknown or exported local domain {domain}"
                    ))
                    .to_string()
                })?;
        }
    }
    Ok(())
}
