//! The stateful admission-control engine.
//!
//! [`AdmissionEngine`] consumes a timestamped event stream
//! ([`EventRecord`]: `Arrive`, `Depart`, `Tick`) and maintains, per power
//! domain, the committed utilization and the ledger of admitted tasks.
//! Admission is decided by a pluggable [`EnginePolicy`] — any of the
//! offline crate's [`AdmissionPolicy`] implementations wrapped as-is, or
//! the new stateful [`WatermarkPolicy`] with high/low hysteresis — and
//! commitments are *revisited*: on `Tick` (and on departures when a regret
//! threshold is configured) the engine runs a node-budgeted offline
//! re-solve over the active set and sheds now-unprofitable tasks, charging
//! their penalties exactly as the simulator's late-rejection recovery path
//! does.
//!
//! ## Economics: the billing horizon
//!
//! The offline objective is *per hyper-period*: `E*(u) = L·rate(u)` versus
//! penalties `vᵢ`. An online engine sees no fixed task set, so it fixes a
//! **billing horizon** `H` ([`EngineConfig::horizon`]) and prices every
//! decision per `H` ticks: a task is worth admitting when
//! `vᵢ ≥ θ·H·(rate(u+uᵢ) − rate(u))`. Internally this is implemented by
//! consulting the *oracle instance* — a one-task instance whose anchor
//! task (reserved id, zero cycles) pins the hyper-period to `H` — so the
//! existing [`AdmissionPolicy`] implementations work unmodified. Re-solve
//! instances embed the same anchor; when all task periods divide `H` (true
//! for the default generator period set with `H = 1000`) the re-solve
//! economics coincide exactly with the engine's own accounting.
//!
//! ## Reservation-consistent shedding and the dominance theorem
//!
//! Shedding interacts with admission: naively, evicting a task frees
//! capacity, later arrivals the myopic engine would refuse get admitted,
//! and those divergent admissions can backfire — the re-solving engine
//! can then end up *costlier* than the myopic one it was meant to
//! dominate. This engine closes that hole with two rules:
//!
//! 1. **Reservations.** A shed task keeps its admission-pricing
//!    reservation until it departs: admission decisions are priced at the
//!    *reserved* utilization (served + shed-but-present), so the
//!    accept/reject trajectory is identical to the myopic engine's on any
//!    event stream, and shedding never invites thrashing re-admissions.
//! 2. **Serve-all guard.** The re-solve optimizes over served *and*
//!    reserved tasks (it may readmit), and after every arrival and
//!    departure the engine reverts to serving everything admitted if the
//!    reserved set has stopped being collectively profitable at the new
//!    background load.
//!
//! Together these make the engine's instantaneous cost rate (energy at
//! the served utilization plus `vᵢ/H` per unserved task) never exceed the
//! myopic engine's at any point in time, for a convex energy-rate model —
//! so `total_cost(re-solve) ≤ total_cost(myopic)` holds on **every**
//! trace, not just on average. Experiment E7 measures the margin.
//!
//! ## Determinism contract
//!
//! Given the same event stream and configuration, the decision log is
//! **bit-identical from run to run**: admission decisions are pure
//! arithmetic, and the re-solve uses the node-budgeted branch & bound
//! (`solve_within`), whose incumbent is reproducible by construction.
//! Only the wall-clock decision-latency histogram in the metrics registry
//! varies between runs.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use dvs_power::Processor;
use reject_sched::algorithms::{BranchBound, MarginalGreedy};
use reject_sched::anytime::{BudgetedPolicy, SolveBudget, SolveQuality};
use reject_sched::online::AdmissionPolicy;
use reject_sched::{Instance, RejectionPolicy, SchedError, Solution};
use rt_model::io::{parse_event_line, EventKind, EventRecord};
use rt_model::{Task, TaskId, TaskSet};

use crate::journal::{self, Journal, JournalConfig, JournalError, RecordKind};
use crate::metrics::Metrics;
use crate::AdmitError;

/// Task identifier reserved for the engine's billing-horizon anchor task
/// (a zero-cycle, zero-penalty task that pins oracle and re-solve
/// instances to the configured horizon). Arrivals may not use it.
pub const RESERVED_ANCHOR_ID: usize = usize::MAX;

/// Tolerance below which a re-solve improvement is treated as a tie (no
/// shedding on numerical noise).
const RESOLVE_EPSILON: f64 = 1e-9;

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Billing horizon `H` in ticks: penalties are per `H`, energy is
    /// priced as `H·rate(u)`. Should be a common multiple of expected task
    /// periods for exact re-solve consistency (see the [module
    /// docs](self)).
    pub horizon: u64,
    /// Run a re-solve every `k`-th `Tick` (`None` disables periodic
    /// re-solves; regret-triggered ones still run if configured).
    pub resolve_every: Option<u64>,
    /// Re-solve as soon as the estimated shedding profit (regret) exceeds
    /// this, checked on ticks *and* departures. `None` disables.
    pub regret_threshold: Option<f64>,
    /// Node budget per re-solve pass, handed to the sequential anytime
    /// branch & bound. Deterministic by construction.
    pub resolve_budget: u64,
    /// Seed each re-solve's incumbent with the domain's standing accepted
    /// set (warm start). The tighter initial bound prunes more of the
    /// search under the same node budget; when the search completes within
    /// budget the decisions are identical to a cold start (the engine acts
    /// only on strict cost improvements, and warm start can only change
    /// the result on ties or budget expiry — in its favour).
    pub warm_start: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            horizon: 1000,
            resolve_every: Some(1),
            regret_threshold: None,
            resolve_budget: 20_000,
            warm_start: true,
        }
    }
}

impl EngineConfig {
    /// Sets the billing horizon.
    #[must_use]
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks.max(1);
        self
    }

    /// Re-solve every `k` ticks (`0` disables).
    #[must_use]
    pub fn resolve_every(mut self, k: u64) -> Self {
        self.resolve_every = if k == 0 { None } else { Some(k) };
        self
    }

    /// Re-solve when regret exceeds `threshold`.
    #[must_use]
    pub fn regret_threshold(mut self, threshold: f64) -> Self {
        self.regret_threshold = Some(threshold);
        self
    }

    /// Sets the re-solve node budget.
    #[must_use]
    pub fn resolve_budget(mut self, nodes: u64) -> Self {
        self.resolve_budget = nodes.max(1);
        self
    }

    /// Enables or disables warm-started re-solves.
    #[must_use]
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }
}

/// An admission decision rule consulted by the engine.
///
/// Unlike the offline [`AdmissionPolicy`] (stateless `&self`), engine
/// policies may carry state across decisions (`&mut self`) — the
/// [`WatermarkPolicy`]'s hysteresis latch needs exactly that. Every
/// `AdmissionPolicy` is an `EnginePolicy` via a blanket impl, so
/// `OnlineGreedy` and `ThresholdPolicy` plug in unchanged.
pub trait EnginePolicy: Send {
    /// Short stable identifier (used in reports and logs).
    fn name(&self) -> &'static str;

    /// Whether to admit `task` on a domain with committed utilization `u`.
    ///
    /// `oracle` is the domain's billing-horizon instance: use
    /// `oracle.marginal_energy(u, du)` and `oracle.processor()` — its task
    /// list is the anchor only and carries no information.
    ///
    /// # Errors
    ///
    /// Oracle errors propagate.
    fn decide(&mut self, oracle: &Instance, u: f64, task: &Task) -> Result<bool, SchedError>;

    /// Serializes the policy's mutable decision state for an engine
    /// snapshot. `None` (the default, correct for stateless policies)
    /// means there is nothing to persist; a stateful policy — like
    /// [`WatermarkPolicy`]'s hysteresis latch — must return its state here
    /// or recovery will replay decisions from a reset latch.
    fn snapshot_state(&self) -> Option<String> {
        None
    }

    /// Restores state captured by [`EnginePolicy::snapshot_state`].
    ///
    /// # Errors
    ///
    /// A human-readable reason when `state` is not recognized. The default
    /// (stateless) implementation rejects any state string.
    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        Err(format!(
            "policy {:?} is stateless but the snapshot carries state {state:?}",
            self.name()
        ))
    }
}

impl<P: AdmissionPolicy + Send> EnginePolicy for P {
    fn name(&self) -> &'static str {
        AdmissionPolicy::name(self)
    }

    fn decide(&mut self, oracle: &Instance, u: f64, task: &Task) -> Result<bool, SchedError> {
        self.admit(oracle, u, task)
    }
}

/// Reservation policy with high/low watermark hysteresis.
///
/// While the domain's committed utilization is below `high · s_max` the
/// policy admits by the plain myopic rule. Crossing the high watermark
/// *engages* reservation mode: admissions must now clear a hedged bar
/// `vᵢ ≥ θ·ΔE`, keeping headroom for denser future arrivals. The mode
/// stays engaged — even as rejections keep utilization flat — until
/// departures pull utilization down to the low watermark, which prevents
/// the rapid engage/disengage flapping a single threshold would produce.
#[derive(Debug, Clone, PartialEq)]
pub struct WatermarkPolicy {
    high: f64,
    low: f64,
    theta: f64,
    engaged: bool,
}

impl WatermarkPolicy {
    /// Creates the policy. `low ≤ high` are fractions of the domain's
    /// maximum speed in `[0, 1]`; `θ ≥ 1` is the hedge applied while
    /// engaged.
    ///
    /// # Errors
    ///
    /// [`AdmitError::InvalidParameter`] for out-of-range values.
    pub fn new(high: f64, low: f64, theta: f64) -> Result<Self, AdmitError> {
        if !(0.0..=1.0).contains(&high) || !high.is_finite() {
            return Err(AdmitError::InvalidParameter {
                name: "high watermark",
                value: high,
            });
        }
        if !(0.0..=1.0).contains(&low) || low > high {
            return Err(AdmitError::InvalidParameter {
                name: "low watermark",
                value: low,
            });
        }
        if !theta.is_finite() || theta < 1.0 {
            return Err(AdmitError::InvalidParameter {
                name: "θ",
                value: theta,
            });
        }
        Ok(WatermarkPolicy {
            high,
            low,
            theta,
            engaged: false,
        })
    }

    /// Whether reservation mode is currently engaged.
    #[must_use]
    pub fn is_engaged(&self) -> bool {
        self.engaged
    }
}

impl EnginePolicy for WatermarkPolicy {
    fn name(&self) -> &'static str {
        "watermark"
    }

    fn decide(&mut self, oracle: &Instance, u: f64, task: &Task) -> Result<bool, SchedError> {
        let s_max = oracle.processor().max_speed();
        let fill = u / s_max;
        if fill >= self.high {
            self.engaged = true;
        } else if fill <= self.low {
            self.engaged = false;
        }
        if !oracle.processor().is_feasible(u + task.utilization()) {
            return Ok(false);
        }
        let hedge = if self.engaged { self.theta } else { 1.0 };
        Ok(task.penalty() >= hedge * oracle.marginal_energy(u, task.utilization())?)
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(if self.engaged { "engaged" } else { "idle" }.to_string())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), String> {
        match state {
            "engaged" => self.engaged = true,
            "idle" => self.engaged = false,
            other => return Err(format!("unknown watermark state {other:?}")),
        }
        Ok(())
    }
}

/// The outcome recorded for one task at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Admitted onto the given power domain.
    Accepted {
        /// Domain index.
        domain: usize,
    },
    /// Refused at arrival.
    Rejected,
    /// Previously admitted, evicted by a re-solve on the given domain.
    Shed {
        /// Domain index.
        domain: usize,
    },
    /// Previously shed, returned to service because shedding stopped
    /// being profitable at the current background load.
    Readmitted {
        /// Domain index.
        domain: usize,
    },
}

/// One entry of the engine's decision log.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Engine clock when the decision was made.
    pub at: f64,
    /// The task decided on.
    pub task: TaskId,
    /// The outcome.
    pub verdict: Verdict,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.verdict {
            Verdict::Accepted { domain } => {
                write!(f, "t={:.6} {} accepted@{domain}", self.at, self.task)
            }
            Verdict::Rejected => write!(f, "t={:.6} {} rejected", self.at, self.task),
            Verdict::Shed { domain } => write!(f, "t={:.6} {} shed@{domain}", self.at, self.task),
            Verdict::Readmitted { domain } => {
                write!(f, "t={:.6} {} readmitted@{domain}", self.at, self.task)
            }
        }
    }
}

impl Decision {
    /// The bit-exact one-line form `<at:bits-hex> <task> <A|R|S|M>
    /// <domain|->` shared by the journal's `O` records and a snapshot's
    /// `x` lines.
    pub(crate) fn coded(&self) -> impl std::fmt::Display + '_ {
        struct Coded<'a>(&'a Decision);
        impl std::fmt::Display for Coded<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let (code, domain) = match self.0.verdict {
                    Verdict::Accepted { domain } => ('A', Some(domain)),
                    Verdict::Rejected => ('R', None),
                    Verdict::Shed { domain } => ('S', Some(domain)),
                    Verdict::Readmitted { domain } => ('M', Some(domain)),
                };
                let (at, task) = (self.0.at.to_bits(), self.0.task.index());
                write!(f, "{at:016x} {task} {code} {}", OrDash(domain))
            }
        }
        Coded(self)
    }
}

/// An optional value as a text column: the value, or `-`.
struct OrDash<T>(Option<T>);

impl<T: std::fmt::Display> std::fmt::Display for OrDash<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

/// One power domain's ledger.
#[derive(Debug)]
struct Domain {
    cpu: Processor,
    /// One-task instance (the anchor) pinning the hyper-period to the
    /// billing horizon: the pricing oracle for this domain.
    oracle: Instance,
    /// Served tasks, in admission order.
    active: Vec<Task>,
    /// Shed-but-present tasks, in shed order: they accrue penalty, hold
    /// their admission reservation, and may be readmitted.
    reserved: Vec<Task>,
    /// Cached `Σ uᵢ` over `active` (recomputed on every mutation).
    committed: f64,
    /// Cached re-solve instance over `active ∪ reserved ∪ {anchor}`,
    /// rebuilt only when that union changes — guard readmissions and
    /// re-solve sheds move tasks *between* the two ledgers without
    /// touching the union, so the instance (and its density order, prefix
    /// sums, and pricing memo) is reused across ticks.
    resolve_cache: Option<Instance>,
    /// The task union changed since `resolve_cache` was built.
    union_dirty: bool,
    /// An arrive/depart/shed/readmit occurred since the last re-solve
    /// concluded for this domain. While false, a re-solve is guaranteed to
    /// reach the same conclusion it just reached ("keep the current
    /// serving choice"), so the engine skips it entirely.
    needs_resolve: bool,
    /// The domain was exported to another shard (live resharding): its
    /// ledgers are empty, it accepts no further work, and it contributes
    /// nothing to the energy integral (the importing shard owns it now).
    fenced: bool,
    /// The migration payload this domain was exported as, kept so a
    /// retried export (router crash between export and import) returns
    /// byte-identical bytes instead of re-encoding an empty domain.
    export_payload: Option<String>,
}

impl Domain {
    /// An empty, unfenced domain over `cpu`, priced per `horizon` ticks.
    fn new(cpu: Processor, horizon: u64) -> Result<Self, AdmitError> {
        let anchor = Task::new(RESERVED_ANCHOR_ID, 0.0, horizon)?;
        let oracle = Instance::new(TaskSet::try_from_tasks([anchor])?, cpu.clone())?;
        Ok(Domain {
            cpu,
            oracle,
            active: Vec::new(),
            reserved: Vec::new(),
            committed: 0.0,
            resolve_cache: None,
            union_dirty: true,
            needs_resolve: false,
            fenced: false,
            export_payload: None,
        })
    }

    fn recompute_committed(&mut self) {
        // `Sum<f64>`'s identity is -0.0; `+ 0.0` keeps the empty ledger
        // printing as plain 0 on the wire.
        self.committed = self.active.iter().map(Task::utilization).sum::<f64>() + 0.0;
    }

    /// The admission-pricing utilization: served plus reserved. Identical
    /// to what the never-shedding myopic engine would have committed.
    fn priced(&self) -> f64 {
        self.committed + self.reserved.iter().map(Task::utilization).sum::<f64>()
    }

    /// Marks a change to the `active ∪ reserved` union (arrival accepted,
    /// task departed): the cached instance is stale and the next re-solve
    /// must run.
    fn mark_union_changed(&mut self) {
        self.union_dirty = true;
        self.needs_resolve = true;
    }

    /// Marks a change to the served/reserved *split* only (guard
    /// readmission): the cached instance stays valid but the next
    /// re-solve must run.
    fn mark_split_changed(&mut self) {
        self.needs_resolve = true;
    }
}

/// The event-driven admission-control engine. See the [module
/// docs](self) for the model and the determinism contract.
pub struct AdmissionEngine {
    domains: Vec<Domain>,
    policy: Box<dyn EnginePolicy>,
    config: EngineConfig,
    clock: f64,
    /// Present-but-unserved tasks (rejected or shed, not yet departed),
    /// accruing penalty at `vᵢ/H`: `(id, penalty, domain pin)`. The pin
    /// scopes the serve-all guard when the task departs.
    unserved: Vec<(TaskId, f64, Option<usize>)>,
    decisions: Vec<Decision>,
    metrics: Metrics,
    ticks_since_resolve: u64,
    /// Identifiers of tasks that have departed, kept so stale duplicates
    /// (client retries, replayed streams) are rejected with a typed error
    /// instead of being mistaken for fresh arrivals or unknown tasks.
    departed: BTreeSet<TaskId>,
    /// The write-ahead journal, when durability is enabled.
    journal: Option<Journal>,
    /// Replication fencing epoch: bumped when this engine begins (or a
    /// promoted follower resumes) serving as primary.
    epoch: u64,
    /// Migration idempotency keys: every domain import is recorded under
    /// the key the router supplied, so a retried import (after a crash or
    /// timeout on the first attempt) lands on the same local index
    /// instead of duplicating the domain.
    imported: BTreeMap<String, usize>,
    /// What the previous `S` record this process wrote already covers;
    /// `None` until the first one after [`AdmissionEngine::attach_journal`],
    /// which is therefore complete.
    snapshot_base: Option<SnapshotBase>,
}

/// The history an `S` record extends instead of repeating: how much of the
/// `departed` set and the decision log the previous `S` record covered.
#[derive(Debug)]
struct SnapshotBase {
    departed: usize,
    decisions: usize,
    /// Ids departed since that record, in departure order — the one piece
    /// of a delta that cannot be sliced out of the engine's own state.
    fresh: Vec<TaskId>,
}

impl AdmissionEngine {
    /// Creates an engine over one processor per power domain.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::NoDomains`] for an empty domain list.
    /// * Oracle-construction errors propagate.
    pub fn new(
        cpus: Vec<Processor>,
        policy: Box<dyn EnginePolicy>,
        config: EngineConfig,
    ) -> Result<Self, AdmitError> {
        if cpus.is_empty() {
            return Err(AdmitError::NoDomains);
        }
        Self::with_domains(cpus, policy, config)
    }

    /// Like [`AdmissionEngine::new`] but accepts an empty domain list: the
    /// shape of a freshly added shard in a live-resharding cluster, which
    /// starts with no domains and grows them via
    /// [`AdmissionEngine::import_domain`]. Until a domain is imported,
    /// every pinned arrival is an [`AdmitError::InvalidDomain`] and every
    /// unpinned one is rejected.
    ///
    /// # Errors
    ///
    /// Oracle-construction errors propagate.
    pub fn with_domains(
        cpus: Vec<Processor>,
        policy: Box<dyn EnginePolicy>,
        config: EngineConfig,
    ) -> Result<Self, AdmitError> {
        let domains = cpus
            .into_iter()
            .map(|cpu| Domain::new(cpu, config.horizon))
            .collect::<Result<_, _>>()?;
        Ok(AdmissionEngine {
            domains,
            policy,
            config,
            clock: 0.0,
            unserved: Vec::new(),
            decisions: Vec::new(),
            metrics: Metrics::default(),
            ticks_since_resolve: 0,
            departed: BTreeSet::new(),
            journal: None,
            epoch: 1,
            imported: BTreeMap::new(),
            snapshot_base: None,
        })
    }

    /// The engine clock (timestamp of the last applied event).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Number of power domains.
    #[must_use]
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Committed utilization of domain `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn committed(&self, d: usize) -> f64 {
        self.domains[d].committed
    }

    /// Number of active (admitted, not yet departed or shed) tasks on
    /// domain `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn active_len(&self, d: usize) -> usize {
        self.domains[d].active.len()
    }

    /// Number of shed-but-present (reserved) tasks on domain `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn reserved_len(&self, d: usize) -> usize {
        self.domains[d].reserved.len()
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable registry access for the replication layer (follower-side
    /// counters are advanced outside the apply path).
    pub(crate) fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The full decision log, in decision order.
    #[must_use]
    pub fn decision_log(&self) -> &[Decision] {
        &self.decisions
    }

    /// The decision log as one line per decision — the artifact the
    /// determinism suite compares bit-for-bit across thread counts.
    #[must_use]
    pub fn format_decision_log(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// The configured policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Advances the engine clock to `at`, integrating energy (per domain,
    /// at the committed utilization's optimal rate) and unserved-penalty
    /// accrual (`vᵢ/H` per present unserved task). No decisions are made.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::TimeRegression`] if `at` is behind the clock.
    /// * Oracle errors propagate.
    pub fn advance_to(&mut self, at: f64) -> Result<(), AdmitError> {
        if !at.is_finite() || at < self.clock {
            return Err(AdmitError::TimeRegression {
                at,
                clock: self.clock,
            });
        }
        let dt = at - self.clock;
        if dt > 0.0 {
            let mut rate = 0.0;
            // Fenced (exported) domains contribute nothing: the importing
            // shard integrates their energy now, and counting an
            // always-on processor's idle power twice would break the
            // cluster-vs-single-engine cost identity.
            for d in self.domains.iter().filter(|d| !d.fenced) {
                rate += d.cpu.energy_rate(d.committed).map_err(SchedError::Power)?;
            }
            self.metrics.energy += rate * dt;
            let penalty_rate: f64 =
                self.unserved.iter().map(|(_, v, _)| v).sum::<f64>() / self.config.horizon as f64;
            self.metrics.penalty_accrued += penalty_rate * dt;
            self.clock = at;
        }
        Ok(())
    }

    /// Applies one event, returning the decisions it produced (the
    /// admission verdict for an arrival; any sheds for a tick or
    /// departure that triggered a re-solve). Equivalent to
    /// [`AdmissionEngine::apply_opts`] on the normal (non-degraded) path.
    ///
    /// # Errors
    ///
    /// See [`AdmissionEngine::apply_opts`].
    pub fn apply(&mut self, event: &EventRecord) -> Result<Vec<Decision>, AdmitError> {
        self.apply_opts(event, false)
    }

    /// Applies one event, optionally on the degraded myopic **fast path**
    /// (`fast = true`): admission decisions are made exactly as usual —
    /// pricing already uses the reserved utilization, so the accept/reject
    /// trajectory is myopic-identical by construction — but tick and
    /// regret re-solve passes are skipped, bounding per-event work under
    /// overload. The serving layer engages the fast path for backpressure;
    /// [`Metrics::backpressure_sheds`] counts these events.
    ///
    /// Events are **validated before any state is mutated**: an event that
    /// returns an error has not advanced the clock, touched a ledger, or
    /// been journaled, so an erroring client request is invisible to
    /// recovery replay and safe to retry.
    ///
    /// When a journal is attached, the event and its decision outcomes are
    /// framed and flushed (and periodically a snapshot embedded) before
    /// this method returns — i.e. before any caller can acknowledge the
    /// decision.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::TimeRegression`] for out-of-order timestamps.
    /// * [`AdmitError::DuplicateTask`] / [`AdmitError::ReservedId`] /
    ///   [`AdmitError::AlreadyDeparted`] for invalid arrivals,
    ///   [`AdmitError::UnknownTask`] / [`AdmitError::AlreadyDeparted`] for
    ///   departures of absent tasks.
    /// * Oracle and solver errors propagate (internal failures, unlike the
    ///   validation errors above — they may leave the clock advanced).
    /// * [`AdmitError::Journal`] when the write-ahead journal cannot be
    ///   written.
    pub fn apply_opts(
        &mut self,
        event: &EventRecord,
        fast: bool,
    ) -> Result<Vec<Decision>, AdmitError> {
        let handling_started = Instant::now();
        self.validate(event)?;
        if fast {
            self.metrics.backpressure_sheds += 1;
        }
        self.advance_to(event.at)?;
        let first_new = self.decisions.len();
        let out = match &event.kind {
            EventKind::Arrive(task) => {
                let started = Instant::now();
                let out = self.arrive(*task);
                self.metrics.latency.record(started.elapsed());
                out
            }
            EventKind::Depart(id) => self.depart(*id, fast),
            EventKind::Tick => self.tick(fast),
        }?;
        // Counted before journaling so an embedded snapshot's `events`
        // includes the event that triggered it — recovery trusts that
        // counter to tell clients how much of their stream survived.
        self.metrics.events += 1;
        self.journal_apply(event, fast, first_new)?;
        self.metrics.handling += handling_started.elapsed();
        Ok(out)
    }

    /// Rejects invalid events *before* any state is touched, so an
    /// erroring event is a no-op (and is never journaled).
    fn validate(&self, event: &EventRecord) -> Result<(), AdmitError> {
        if !event.at.is_finite() || event.at < self.clock {
            return Err(AdmitError::TimeRegression {
                at: event.at,
                clock: self.clock,
            });
        }
        match &event.kind {
            EventKind::Arrive(task) => {
                let id = task.id();
                if id.index() == RESERVED_ANCHOR_ID {
                    return Err(AdmitError::ReservedId(id));
                }
                if let Some(domain) = task.domain() {
                    if domain >= self.domains.len() {
                        return Err(AdmitError::InvalidDomain {
                            task: id,
                            domain,
                            domains: self.domains.len(),
                        });
                    }
                    if self.domains[domain].fenced {
                        return Err(AdmitError::DomainFenced { task: id, domain });
                    }
                }
                if self.departed.contains(&id) {
                    return Err(AdmitError::AlreadyDeparted(id));
                }
                if self.is_present(id) {
                    return Err(AdmitError::DuplicateTask(id));
                }
            }
            EventKind::Depart(id) => {
                if !self.is_present(*id) {
                    return Err(if self.departed.contains(id) {
                        AdmitError::AlreadyDeparted(*id)
                    } else {
                        AdmitError::UnknownTask(*id)
                    });
                }
            }
            EventKind::Tick => {}
        }
        Ok(())
    }

    /// Frames the just-applied event and its outcomes into the journal,
    /// embedding a snapshot when the cadence is due, and flushes — all
    /// before the apply returns. No-op without an attached journal.
    fn journal_apply(
        &mut self,
        event: &EventRecord,
        fast: bool,
        first_new: usize,
    ) -> Result<(), AdmitError> {
        let Some(mut j) = self.journal.take() else {
            return Ok(());
        };
        j.append_event(event, fast);
        for d in &self.decisions[first_new..] {
            j.append_outcome(d);
        }
        if let (EventKind::Depart(id), Some(base)) = (&event.kind, &mut self.snapshot_base) {
            base.fresh.push(*id);
        }
        let mut res = Ok(());
        if j.want_snapshot() {
            res = self.write_snapshot(&mut j);
        }
        let res = res.and_then(|()| j.flush());
        self.metrics.journal_records = j.records();
        self.journal = Some(j);
        res.map_err(|e| AdmitError::Journal(JournalError::Io(e)))
    }

    /// Appends an `S` record: a delta against the previous one this
    /// process wrote, complete when there is none (or when it failed to
    /// reach the file, so nothing ever builds on a record that may be torn).
    fn write_snapshot(&mut self, j: &mut Journal) -> std::io::Result<()> {
        // Count the snapshot (and its own record) *before* encoding so
        // the snapshot's counters include it.
        self.metrics.snapshots_taken += 1;
        self.metrics.journal_records = j.records() + 1;
        // A base that lost track of a departure cannot be extended.
        let base = self
            .snapshot_base
            .take()
            .filter(|b| b.departed + b.fresh.len() == self.departed.len());
        j.append_snapshot(&self.encode_snapshot_since(base.as_ref()))?;
        self.snapshot_base = Some(SnapshotBase {
            departed: self.departed.len(),
            decisions: self.decisions.len(),
            fresh: Vec::new(),
        });
        Ok(())
    }

    fn is_present(&self, id: TaskId) -> bool {
        self.unserved.iter().any(|(u, ..)| *u == id)
            || self
                .domains
                .iter()
                .any(|d| d.active.iter().any(|t| t.id() == id))
    }

    fn arrive(&mut self, task: Task) -> Result<Vec<Decision>, AdmitError> {
        self.metrics.arrivals += 1;
        // Deterministic placement. Unpinned tasks go to the domain among
        // all that can still fit them where they are cheapest (smallest
        // marginal energy); ties break towards the lowest index. With
        // identical convex processors this is least-loaded-first. A task
        // pinned to a domain (`Task::with_domain`) is only considered
        // there — the partitioned-cluster mode, where placement is the
        // router's job and each shard must reach the same verdict a
        // single engine serving all domains would. Pricing and
        // feasibility use the *reserved* utilization so the accept/reject
        // trajectory is independent of shedding (see the module docs).
        let mut best: Option<(usize, f64)> = None;
        match task.domain() {
            Some(i) => {
                let d = &self.domains[i];
                if d.cpu.is_feasible(d.priced() + task.utilization()) {
                    best = Some((i, 0.0));
                }
            }
            None => {
                for (i, d) in self.domains.iter().enumerate() {
                    if d.fenced {
                        continue;
                    }
                    if d.cpu.is_feasible(d.priced() + task.utilization()) {
                        let marginal = d
                            .oracle
                            .marginal_energy(d.priced(), task.utilization())
                            .map_err(AdmitError::Sched)?;
                        if best.is_none_or(|(_, m)| marginal < m) {
                            best = Some((i, marginal));
                        }
                    }
                }
            }
        }
        let verdict = match best {
            None => Verdict::Rejected,
            Some((i, _)) => {
                let d = &mut self.domains[i];
                let priced = d.priced();
                if self.policy.decide(&d.oracle, priced, &task)? {
                    d.active.push(task);
                    d.recompute_committed();
                    d.mark_union_changed();
                    Verdict::Accepted { domain: i }
                } else {
                    Verdict::Rejected
                }
            }
        };
        match verdict {
            Verdict::Accepted { .. } => self.metrics.admitted += 1,
            _ => {
                self.metrics.rejected += 1;
                self.metrics.penalty_charged += task.penalty();
                self.unserved
                    .push((task.id(), task.penalty(), task.domain()));
            }
        }
        let decision = Decision {
            at: self.clock,
            task: task.id(),
            verdict,
        };
        self.decisions.push(decision.clone());
        let mut out = vec![decision];
        out.extend(self.guard(task.domain())?);
        Ok(out)
    }

    /// The serve-all guard: per domain, if the reserved set has stopped
    /// being collectively profitable to keep shed at the current served
    /// load — `H·(rate(u_served + u_reserved) − rate(u_served)) ≤ Σ vᵢ` —
    /// readmit every reserved task. Run after every arrival and
    /// departure, this pins the engine's instantaneous cost rate at or
    /// below the never-shedding myopic engine's (the dominance theorem in
    /// the module docs); the next re-solve may shed any still-profitable
    /// subset again.
    ///
    /// `scope` is the domain the triggering event was pinned to, if any:
    /// a pinned arrival or departure only touches that domain's ledger,
    /// so only that domain's guard condition can have changed — and
    /// restricting the check keeps a sharded cluster's guard decisions
    /// identical to the single engine's (a shard never sees events for
    /// domains it does not own). Unpinned events check every domain, the
    /// original behavior.
    fn guard(&mut self, scope: Option<usize>) -> Result<Vec<Decision>, AdmitError> {
        let mut out = Vec::new();
        let range = match scope {
            Some(i) => i..i + 1,
            None => 0..self.domains.len(),
        };
        for i in range {
            let d = &self.domains[i];
            if d.reserved.is_empty() {
                continue;
            }
            let u_reserved: f64 = d.reserved.iter().map(Task::utilization).sum();
            let saving = d
                .oracle
                .marginal_energy(d.committed, u_reserved)
                .map_err(AdmitError::Sched)?;
            let charged: f64 = d.reserved.iter().map(Task::penalty).sum();
            if saving > charged + RESOLVE_EPSILON {
                continue; // shedding still pays for itself
            }
            let d = &mut self.domains[i];
            for task in std::mem::take(&mut d.reserved) {
                if let Some(pos) = self.unserved.iter().position(|(u, ..)| *u == task.id()) {
                    self.unserved.remove(pos);
                }
                d.active.push(task);
                self.metrics.readmitted += 1;
                let decision = Decision {
                    at: self.clock,
                    task: task.id(),
                    verdict: Verdict::Readmitted { domain: i },
                };
                self.decisions.push(decision.clone());
                out.push(decision);
            }
            d.recompute_committed();
            // Readmission shuffles the served/reserved split, not the
            // union: the cached re-solve instance stays valid.
            d.mark_split_changed();
        }
        Ok(out)
    }

    fn depart(&mut self, id: TaskId, fast: bool) -> Result<Vec<Decision>, AdmitError> {
        if let Some(pos) = self.unserved.iter().position(|(u, ..)| *u == id) {
            let (_, _, pin) = self.unserved.remove(pos);
            // A shed task departing also releases its reservation.
            for d in &mut self.domains {
                if let Some(pos) = d.reserved.iter().position(|t| t.id() == id) {
                    d.reserved.remove(pos);
                    d.mark_union_changed();
                }
            }
            self.metrics.departures += 1;
            self.departed.insert(id);
            return self.guard(pin);
        }
        for i in 0..self.domains.len() {
            let d = &mut self.domains[i];
            if let Some(pos) = d.active.iter().position(|t| t.id() == id) {
                let pin = d.active[pos].domain();
                d.active.remove(pos);
                d.recompute_committed();
                d.mark_union_changed();
                self.metrics.departures += 1;
                self.departed.insert(id);
                // Departures shift the load downward: first re-check the
                // reserved sets, then revisit commitments when a regret
                // trigger is configured (skipped on the fast path — the
                // guard is cheap arithmetic, the re-solve is not).
                let mut out = self.guard(pin)?;
                if !fast {
                    if let Some(threshold) = self.config.regret_threshold {
                        if self.regret()? > threshold {
                            out.extend(self.resolve_now()?);
                        }
                    }
                }
                return Ok(out);
            }
        }
        // Unreachable: `validate` established presence. Kept as defense in
        // depth for direct callers of the internals.
        Err(AdmitError::UnknownTask(id))
    }

    fn tick(&mut self, fast: bool) -> Result<Vec<Decision>, AdmitError> {
        self.metrics.ticks += 1;
        self.ticks_since_resolve += 1;
        if fast {
            // Degraded path: the re-solve opportunity is forfeited, not
            // deferred — `ticks_since_resolve` keeps accumulating, so the
            // next normal tick resolves if the cadence is due.
            return Ok(Vec::new());
        }
        let periodic = self
            .config
            .resolve_every
            .is_some_and(|k| self.ticks_since_resolve >= k);
        let regretful = match self.config.regret_threshold {
            Some(threshold) => self.regret()? > threshold,
            None => false,
        };
        if periodic || regretful {
            self.resolve_now()
        } else {
            Ok(Vec::new())
        }
    }

    /// Estimated profit of shedding, summed over all active tasks whose
    /// removal saves more energy (per horizon) than it charges in penalty:
    /// `Σ max(0, ΔE(uᵢ) − vᵢ)`. Zero when every commitment is still
    /// profitable. This is the trigger quantity for
    /// [`EngineConfig::regret_threshold`].
    ///
    /// # Errors
    ///
    /// Oracle errors propagate.
    pub fn regret(&self) -> Result<f64, AdmitError> {
        let mut total = 0.0;
        for d in &self.domains {
            for t in &d.active {
                let saving = d
                    .oracle
                    .marginal_energy(d.committed - t.utilization(), t.utilization())
                    .map_err(AdmitError::Sched)?;
                total += (saving - t.penalty()).max(0.0);
            }
        }
        Ok(total)
    }

    /// Runs a budgeted offline re-solve over each domain's served *and*
    /// reserved tasks, shedding the tasks the solver drops (charging
    /// their rejection penalties) and readmitting reserved tasks it picks
    /// back up. Returns the shed/readmit decisions.
    ///
    /// The solver is the anytime branch & bound under the configured node
    /// budget (bit-deterministic); instances above its size limit fall
    /// back to the deterministic marginal-greedy heuristic. A domain is
    /// only touched when the re-solve strictly improves on its current
    /// serving choice.
    ///
    /// # Errors
    ///
    /// Solver errors (other than the size fallback) propagate.
    pub fn resolve_now(&mut self) -> Result<Vec<Decision>, AdmitError> {
        self.ticks_since_resolve = 0;
        let mut out = Vec::new();
        for i in 0..self.domains.len() {
            let (to_shed, to_readmit) = {
                {
                    let d = &mut self.domains[i];
                    if d.active.is_empty() && d.reserved.is_empty() {
                        continue;
                    }
                    // Short-circuit: nothing arrived, departed, shed, or
                    // was readmitted since the last re-solve concluded, so
                    // running it again is guaranteed to reach the same
                    // "keep the current serving choice" conclusion.
                    if !d.needs_resolve {
                        self.metrics.resolves_skipped += 1;
                        continue;
                    }
                    if d.union_dirty || d.resolve_cache.is_none() {
                        let anchor = Task::new(RESERVED_ANCHOR_ID, 0.0, self.config.horizon)?;
                        let mut tasks = d.active.clone();
                        tasks.extend(d.reserved.iter().copied());
                        tasks.push(anchor);
                        d.resolve_cache = Some(Instance::new(
                            TaskSet::try_from_tasks(tasks)?,
                            d.cpu.clone(),
                        )?);
                        d.union_dirty = false;
                    }
                }
                let d = &self.domains[i];
                let instance = d.resolve_cache.as_ref().expect("rebuilt above");
                let mut served_ids: Vec<TaskId> = d.active.iter().map(Task::id).collect();
                served_ids.push(TaskId::new(RESERVED_ANCHOR_ID));
                let current =
                    Solution::for_accepted(instance, "engine-active", served_ids.clone())?;
                let budget = SolveBudget::nodes(self.config.resolve_budget);
                let solved = if self.config.warm_start {
                    BranchBound::default().solve_within_seeded(instance, &budget, &served_ids)
                } else {
                    BranchBound::default().solve_within(instance, &budget)
                };
                let (resolved, degraded, nodes) = match solved {
                    Ok(any) => (
                        any.solution,
                        any.quality == SolveQuality::Degraded,
                        any.nodes_used,
                    ),
                    Err(SchedError::TooLarge { .. }) => (MarginalGreedy.solve(instance)?, true, 0),
                    Err(e) => return Err(AdmitError::Sched(e)),
                };
                self.metrics.resolves += 1;
                self.metrics.resolves_degraded += u64::from(degraded);
                self.metrics.resolve_nodes += nodes;
                if resolved.cost() + RESOLVE_EPSILON >= current.cost() {
                    // Keeping the current serving choice is best; until the
                    // ledger changes, re-solving again cannot conclude
                    // otherwise.
                    self.domains[i].needs_resolve = false;
                    continue;
                }
                let diff = current.diff(&resolved);
                let shed: Vec<TaskId> = diff
                    .removed
                    .into_iter()
                    .filter(|id| id.index() != RESERVED_ANCHOR_ID)
                    .collect();
                (shed, diff.added)
            };
            if to_shed.is_empty() && to_readmit.is_empty() {
                self.domains[i].needs_resolve = false;
                continue;
            }
            let d = &mut self.domains[i];
            for id in &to_readmit {
                if let Some(pos) = d.reserved.iter().position(|t| t.id() == *id) {
                    let task = d.reserved.remove(pos);
                    if let Some(upos) = self.unserved.iter().position(|(u, ..)| *u == *id) {
                        self.unserved.remove(upos);
                    }
                    d.active.push(task);
                    self.metrics.readmitted += 1;
                    let decision = Decision {
                        at: self.clock,
                        task: *id,
                        verdict: Verdict::Readmitted { domain: i },
                    };
                    self.decisions.push(decision.clone());
                    out.push(decision);
                }
            }
            for id in &to_shed {
                if let Some(pos) = d.active.iter().position(|t| t.id() == *id) {
                    let task = d.active.remove(pos);
                    self.unserved
                        .push((task.id(), task.penalty(), task.domain()));
                    d.reserved.push(task);
                    self.metrics.shed += 1;
                    self.metrics.penalty_charged += task.penalty();
                    let decision = Decision {
                        at: self.clock,
                        task: *id,
                        verdict: Verdict::Shed { domain: i },
                    };
                    self.decisions.push(decision.clone());
                    out.push(decision);
                }
            }
            d.recompute_committed();
            // The sheds/readmits applied above ARE the re-solve's
            // conclusion: re-solving the (unchanged) union again would
            // find the serving choice it just installed.
            d.needs_resolve = false;
        }
        Ok(out)
    }

    /// Attaches a write-ahead journal: from now on every applied event is
    /// framed and flushed before [`AdmissionEngine::apply_opts`] returns.
    /// The first `S` record written to it is complete — whatever the file
    /// already holds and however much history this engine carries — and
    /// the ones after it are deltas.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.metrics.journal_records = journal.records();
        self.journal = Some(journal);
        self.snapshot_base = None;
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Number of distinct tasks that have departed so far (the stale-id
    /// rejection set).
    #[must_use]
    pub fn departed_count(&self) -> usize {
        self.departed.len()
    }

    /// The current fencing epoch (starts at 1; see
    /// [`AdmissionEngine::begin_epoch`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Begins serving under a strictly greater fencing epoch: the
    /// promotion step of replicated failover. When a journal is attached
    /// the epoch-begin record is framed, flushed, and fsynced before this
    /// returns, so the fence survives a crash of the new primary.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::StaleEpoch`] if `epoch` does not exceed the
    ///   current one (a deposed primary trying to resume its old term).
    /// * [`AdmitError::Journal`] on I/O failure.
    pub fn begin_epoch(&mut self, epoch: u64) -> Result<(), AdmitError> {
        if epoch <= self.epoch {
            return Err(AdmitError::StaleEpoch {
                epoch,
                current: self.epoch,
            });
        }
        self.epoch = epoch;
        self.metrics.epoch_bumps += 1;
        if let Some(j) = self.journal.as_mut() {
            j.append_epoch(epoch);
            j.sync()
                .map_err(|e| AdmitError::Journal(JournalError::Io(e)))?;
            self.metrics.journal_records = j.records();
        }
        Ok(())
    }

    /// Stamps the current epoch into the journal (an epoch-begin record
    /// *without* a bump) so every journal self-describes the term it is
    /// written under, even before any failover. No-op without an attached
    /// journal.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Journal`] on I/O failure.
    pub fn stamp_epoch(&mut self) -> Result<(), AdmitError> {
        if let Some(j) = self.journal.as_mut() {
            j.append_epoch(self.epoch);
            j.flush()
                .map_err(|e| AdmitError::Journal(JournalError::Io(e)))?;
            self.metrics.journal_records = j.records();
        }
        Ok(())
    }

    /// Adopts an epoch observed in a replicated stream (a follower
    /// mirroring its primary's epoch-begin records). Equal epochs are
    /// no-ops; greater ones advance the fence without journaling (the
    /// mirror already holds the record's bytes).
    ///
    /// # Errors
    ///
    /// [`AdmitError::StaleEpoch`] when `epoch` is behind the fence — the
    /// deposed-primary late write the follower must reject.
    pub fn observe_epoch(&mut self, epoch: u64) -> Result<(), AdmitError> {
        if epoch < self.epoch {
            return Err(AdmitError::StaleEpoch {
                epoch,
                current: self.epoch,
            });
        }
        if epoch > self.epoch {
            self.epoch = epoch;
            self.metrics.epoch_bumps += 1;
        }
        Ok(())
    }

    /// Writes a snapshot into the journal immediately (flush + fsync),
    /// off the periodic cadence — the graceful-drain path. No-op without
    /// an attached journal.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Journal`] on I/O failure.
    pub fn snapshot_now(&mut self) -> Result<(), AdmitError> {
        let Some(mut j) = self.journal.take() else {
            return Ok(());
        };
        let res = self.write_snapshot(&mut j);
        self.metrics.journal_records = j.records();
        self.journal = Some(j);
        res.map_err(|e| AdmitError::Journal(JournalError::Io(e)))
    }

    /// Flushes and fsyncs the journal without snapshotting. No-op without
    /// an attached journal.
    ///
    /// # Errors
    ///
    /// [`AdmitError::Journal`] on I/O failure.
    pub fn sync_journal(&mut self) -> Result<(), AdmitError> {
        if let Some(j) = self.journal.as_mut() {
            j.sync()
                .map_err(|e| AdmitError::Journal(JournalError::Io(e)))?;
        }
        Ok(())
    }

    /// Whether domain `d` has been exported to another shard (live
    /// resharding) and is fenced against further work.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    #[must_use]
    pub fn domain_is_fenced(&self, d: usize) -> bool {
        self.domains[d].fenced
    }

    /// Number of fenced (exported) domains.
    #[must_use]
    pub fn fenced_count(&self) -> usize {
        self.domains.iter().filter(|d| d.fenced).count()
    }

    /// The engine's domain layout, one entry per local domain in index
    /// order: whether the slot is fenced (exported away), and the
    /// migration key it was imported under, when it arrived via
    /// [`AdmissionEngine::import_domain`] rather than at construction.
    /// A router reconciles its global↔local slot tables against this on
    /// startup — local indices are stable for the engine's lifetime
    /// (fencing keeps the slot, imports append), so a restarted router
    /// must adopt the layout the engine actually has, not the dense
    /// assignment a fresh fleet would have.
    #[must_use]
    pub fn domain_layout(&self) -> Vec<(bool, Option<&str>)> {
        let mut keys: Vec<Option<&str>> = vec![None; self.domains.len()];
        for (key, &local) in &self.imported {
            if let Some(slot) = keys.get_mut(local) {
                *slot = Some(key.as_str());
            }
        }
        self.domains
            .iter()
            .zip(keys)
            .map(|(d, key)| (d.fenced, key))
            .collect()
    }

    /// Every present (arrived, not yet departed) task, with the local
    /// domain it lives on: served and shed-but-reserved tasks report the
    /// domain holding their reservation, standing rejected tasks report
    /// their arrival pin (`None` when the arrival was unpinned). A
    /// restarted router rebuilds its task-presence table from this — the
    /// id→domain map that routes departures is router-side state and
    /// would otherwise be lost with the process.
    #[must_use]
    pub fn present_tasks(&self) -> Vec<(TaskId, Option<usize>)> {
        let mut out = Vec::new();
        for (d, dom) in self.domains.iter().enumerate() {
            for t in dom.active.iter().chain(dom.reserved.iter()) {
                out.push((t.id(), Some(d)));
            }
        }
        for &(id, _, pin) in &self.unserved {
            out.push((id, pin));
        }
        out
    }

    /// Identifiers of every departed task, in id order. Restores the
    /// burned-id set of a restarted router so stale duplicates are
    /// refused with the same typed error a continuously-running router
    /// would give.
    pub fn departed_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.departed.iter().copied()
    }

    /// Exports domain `local` for migration to another shard: encodes its
    /// complete deterministic state (processor spec, ledgers, pinned
    /// unserved tasks, clock, re-solve cadence) as a single-line payload,
    /// clears the ledgers, fences the domain against further work, and
    /// moves the domain's shares of the arrival/admission/rejection/shed
    /// counters out of this engine's balance (the importer adds them
    /// back, so cluster-wide sums are invariant). When a journal is
    /// attached the export record is framed and **fsynced** before the
    /// payload is returned — once these bytes leave the process, a
    /// recovered source must replay the fence or the domain would live on
    /// two shards at once.
    ///
    /// Re-exporting an already-fenced domain returns the stored payload
    /// byte-identically (the idempotent-retry path after a router crash
    /// between export and import).
    ///
    /// # Errors
    ///
    /// * [`AdmitError::Migration`] for an out-of-range index.
    /// * [`AdmitError::Journal`] on I/O failure.
    pub fn export_domain(&mut self, local: usize) -> Result<String, AdmitError> {
        let n = self.domains.len();
        let Some(d) = self.domains.get(local) else {
            return Err(AdmitError::Migration {
                reason: format!("export of domain {local}, engine has {n}"),
            });
        };
        if d.fenced {
            return d
                .export_payload
                .clone()
                .ok_or_else(|| AdmitError::Migration {
                    reason: format!("domain {local} is fenced but holds no export payload"),
                });
        }
        let payload = self.encode_export(local);
        let d = &self.domains[local];
        let n_active = d.active.len() as u64;
        let n_reserved = d.reserved.len() as u64;
        let reserved_ids: BTreeSet<TaskId> = d.reserved.iter().map(Task::id).collect();
        let n_rejected = self
            .unserved
            .iter()
            .filter(|(id, _, pin)| *pin == Some(local) && !reserved_ids.contains(id))
            .count() as u64;
        // Move the domain's counter shares out: one arrival per present
        // task, one admission per served-or-reserved task, one standing
        // shed unit per reserved task, one rejection per standing-rejected
        // task. Per-shard balance (admitted + rejected == arrivals) and
        // non-negative standing shed both survive, and the importer's
        // additions keep cluster-wide sums byte-identical to an unsharded
        // engine's.
        let m = &mut self.metrics;
        m.arrivals -= n_active + n_reserved + n_rejected;
        m.admitted -= n_active + n_reserved;
        m.shed -= n_reserved;
        m.rejected -= n_rejected;
        let d = &mut self.domains[local];
        d.active.clear();
        d.reserved.clear();
        d.recompute_committed();
        d.resolve_cache = None;
        d.union_dirty = true;
        d.needs_resolve = false;
        d.fenced = true;
        d.export_payload = Some(payload.clone());
        self.unserved.retain(|(_, _, pin)| *pin != Some(local));
        if let Some(j) = self.journal.as_mut() {
            j.append_export(local, &payload);
            j.sync()
                .map_err(|e| AdmitError::Journal(JournalError::Io(e)))?;
            self.metrics.journal_records = j.records();
        }
        Ok(payload)
    }

    /// Imports a domain exported by [`AdmissionEngine::export_domain`] on
    /// another shard, appending it as a new local domain and returning its
    /// local index. `key` is the migration idempotency key (no
    /// whitespace): importing the same key again returns the same local
    /// index without touching any state, so the router can safely retry a
    /// transfer whose acknowledgement was lost. The engine clock and
    /// re-solve cadence adopt the exported values when they are ahead
    /// (a freshly spawned shard starts at zero). When a journal is
    /// attached the import record is framed and **fsynced** before this
    /// returns — the router flips routing on this acknowledgement, so the
    /// imported state must survive a crash of the target.
    ///
    /// # Errors
    ///
    /// * [`AdmitError::Migration`] for a malformed key or payload.
    /// * [`AdmitError::Journal`] on I/O failure.
    pub fn import_domain(&mut self, key: &str, payload: &str) -> Result<usize, AdmitError> {
        if key.is_empty() || key.contains(char::is_whitespace) {
            return Err(AdmitError::Migration {
                reason: format!("import key {key:?} must be non-empty, whitespace-free"),
            });
        }
        if let Some(&local) = self.imported.get(key) {
            return Ok(local);
        }
        let exported = Self::decode_export(payload)?;
        let local = self.domains.len();
        let mut domain = Domain::new(exported.cpu, self.config.horizon)?;
        let active: Vec<Task> = exported
            .active
            .iter()
            .map(|t| t.with_domain(local))
            .collect();
        let reserved: Vec<Task> = exported
            .reserved
            .iter()
            .map(|t| t.with_domain(local))
            .collect();
        let n_active = active.len() as u64;
        let n_reserved = reserved.len() as u64;
        let n_rejected = exported.rejected.len() as u64;
        // Reserved tasks re-enter the unserved ledger (they accrue penalty
        // and hold their reservation), then the standing-rejected ones.
        // The source's chronological interleaving is not preserved — the
        // order only affects float summation of penalty accrual, never a
        // decision.
        for t in &reserved {
            self.unserved.push((t.id(), t.penalty(), Some(local)));
        }
        for &(id, penalty) in &exported.rejected {
            self.unserved.push((id, penalty, Some(local)));
        }
        domain.active = active;
        domain.reserved = reserved;
        domain.needs_resolve = exported.needs_resolve;
        domain.recompute_committed();
        self.domains.push(domain);
        let m = &mut self.metrics;
        m.arrivals += n_active + n_reserved + n_rejected;
        m.admitted += n_active + n_reserved;
        m.shed += n_reserved;
        m.rejected += n_rejected;
        self.clock = self.clock.max(exported.clock);
        self.ticks_since_resolve = self.ticks_since_resolve.max(exported.ticks_since_resolve);
        self.imported.insert(key.to_string(), local);
        if let Some(j) = self.journal.as_mut() {
            j.append_import(key, payload);
            j.sync()
                .map_err(|e| AdmitError::Journal(JournalError::Io(e)))?;
            self.metrics.journal_records = j.records();
        }
        Ok(local)
    }

    /// Encodes domain `local`'s migration payload: one line of
    /// space-separated tokens, floats as raw `f64` bits (hex), so the
    /// importing engine reconstructs bit-identical pricing state.
    fn encode_export(&self, local: usize) -> String {
        use std::fmt::Write as _;
        let d = &self.domains[local];
        let mut s = String::from("xp1");
        let cpu_spec = d.cpu.encode_spec();
        let _ = write!(
            s,
            " cpu {} {cpu_spec}",
            cpu_spec.split_ascii_whitespace().count()
        );
        let _ = write!(
            s,
            " clock {:016x} tsr {} needs {}",
            self.clock.to_bits(),
            self.ticks_since_resolve,
            u8::from(d.needs_resolve)
        );
        for (tag, ledger) in [("active", &d.active), ("reserved", &d.reserved)] {
            let _ = write!(s, " {tag} {}", ledger.len());
            for t in ledger {
                let deadline = OrDash((!t.is_implicit_deadline()).then(|| t.deadline()));
                let _ = write!(
                    s,
                    " {} {:016x} {} {deadline} {:016x}",
                    t.id().index(),
                    t.wcec().to_bits(),
                    t.period(),
                    t.penalty().to_bits()
                );
            }
        }
        let reserved_ids: BTreeSet<TaskId> = d.reserved.iter().map(Task::id).collect();
        let rejected: Vec<(TaskId, f64)> = self
            .unserved
            .iter()
            .filter(|(id, _, pin)| *pin == Some(local) && !reserved_ids.contains(id))
            .map(|&(id, penalty, _)| (id, penalty))
            .collect();
        let _ = write!(s, " rej {}", rejected.len());
        for (id, penalty) in rejected {
            let _ = write!(s, " {} {:016x}", id.index(), penalty.to_bits());
        }
        s.push_str(" end");
        s
    }

    /// Decodes a migration payload produced by
    /// [`AdmissionEngine::encode_export`]. Tasks come back *unpinned*;
    /// the importer re-pins them to the new local index.
    fn decode_export(payload: &str) -> Result<ExportedDomain, AdmitError> {
        let mut tokens = payload.split_ascii_whitespace();
        xp_expect(&mut tokens, "xp1")?;
        xp_expect(&mut tokens, "cpu")?;
        let k = xp_usize(&mut tokens, "cpu token count")?;
        let mut spec = String::new();
        for i in 0..k {
            if i > 0 {
                spec.push(' ');
            }
            spec.push_str(xp_next(&mut tokens, "cpu spec token")?);
        }
        let cpu = Processor::decode_spec(&spec).map_err(|e| AdmitError::Migration {
            reason: format!("cpu spec: {e}"),
        })?;
        xp_expect(&mut tokens, "clock")?;
        let clock = Self::export_bits(xp_next(&mut tokens, "clock bits")?)?;
        xp_expect(&mut tokens, "tsr")?;
        let ticks_since_resolve = xp_u64(&mut tokens, "tsr")?;
        xp_expect(&mut tokens, "needs")?;
        let needs_resolve = match xp_next(&mut tokens, "needs flag")? {
            "0" => false,
            "1" => true,
            other => {
                return Err(AdmitError::Migration {
                    reason: format!("bad needs flag {other:?}"),
                })
            }
        };
        let mut ledgers: [Vec<Task>; 2] = [Vec::new(), Vec::new()];
        for (tag, ledger) in ["active", "reserved"].into_iter().zip(&mut ledgers) {
            xp_expect(&mut tokens, tag)?;
            let n = xp_usize(&mut tokens, "ledger length")?;
            for _ in 0..n {
                let id = xp_usize(&mut tokens, "task id")?;
                let wcec = Self::export_bits(xp_next(&mut tokens, "wcec bits")?)?;
                let period = xp_u64(&mut tokens, "period")?;
                let deadline = xp_next(&mut tokens, "deadline")?;
                let penalty = Self::export_bits(xp_next(&mut tokens, "penalty bits")?)?;
                let task = decoded_task(id, wcec, period, deadline, penalty)
                    .map_err(|reason| AdmitError::Migration { reason })?;
                ledger.push(task);
            }
        }
        let [active, reserved] = ledgers;
        xp_expect(&mut tokens, "rej")?;
        let n = xp_usize(&mut tokens, "rejected length")?;
        // Every entry is two tokens: a length the payload cannot hold is
        // refused before anything is allocated from it.
        if n > payload.len() / 4 {
            return Err(AdmitError::Migration {
                reason: format!("rejected length {n} exceeds the payload"),
            });
        }
        let mut rejected = Vec::with_capacity(n);
        for _ in 0..n {
            let id = xp_usize(&mut tokens, "rejected id")?;
            let penalty = Self::export_bits(xp_next(&mut tokens, "rejected penalty bits")?)?;
            rejected.push((TaskId::new(id), penalty));
        }
        xp_expect(&mut tokens, "end")?;
        if let Some(extra) = tokens.next() {
            return Err(AdmitError::Migration {
                reason: format!("trailing token {extra:?} after payload"),
            });
        }
        Ok(ExportedDomain {
            cpu,
            clock,
            ticks_since_resolve,
            needs_resolve,
            active,
            reserved,
            rejected,
        })
    }

    fn export_bits(tok: &str) -> Result<f64, AdmitError> {
        u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|_| AdmitError::Migration {
                reason: format!("unparseable f64 bits {tok:?}"),
            })
    }

    /// Serializes the engine's complete deterministic state as an `S`
    /// record payload: a line-oriented text block in which every float is
    /// stored as raw `f64` bits (hex) or via Rust's shortest round-trip
    /// `Display` — both parse back bit-identically, so an engine restored
    /// from a snapshot continues producing the exact decision log of the
    /// engine that wrote it. Caches (pricing memos, the re-solve instance)
    /// are deliberately excluded: they are rebuilt on demand and memoized
    /// pricing replays exact naive bits, so rebuilt caches cannot shift a
    /// decision.
    ///
    /// This is the *complete* form — `base 0 0`, the whole `departed` set
    /// and decision log — which restores onto a fresh engine by itself.
    /// The journal writes it once per attached journal and afterwards the
    /// same format as a *delta*: the bounded state in full, plus only the
    /// departed ids and decisions added since the previous `S` record,
    /// whose counts the `base` line states.
    #[must_use]
    pub fn encode_snapshot(&self) -> String {
        self.encode_snapshot_since(None)
    }

    /// The one snapshot encoder: a delta against `base`, or — the delta
    /// from zero — the complete form.
    fn encode_snapshot_since(&self, base: Option<&SnapshotBase>) -> String {
        use std::fmt::Write as _;
        fn departed<'a>(s: &mut String, ids: impl ExactSizeIterator<Item = &'a TaskId>) {
            let _ = writeln!(s, "departed {}", ids.len());
            for id in ids {
                let _ = writeln!(s, "d {}", id.index());
            }
        }
        let mut s = String::from(SNAPSHOT_HEADER);
        let (base_departed, base_decisions) = base.map_or((0, 0), |b| (b.departed, b.decisions));
        let _ = writeln!(s, "\nbase {base_departed} {base_decisions}");
        let _ = writeln!(s, "policy {}", self.policy.name());
        if let Some(state) = self.policy.snapshot_state() {
            let _ = writeln!(s, "pstate {state}");
        }
        let regret = self
            .config
            .regret_threshold
            .map_or_else(|| "-".to_string(), |r| format!("{:016x}", r.to_bits()));
        let _ = writeln!(
            s,
            "config {} {} {regret} {} {}",
            self.config.horizon,
            self.config.resolve_every.unwrap_or(0),
            self.config.resolve_budget,
            u8::from(self.config.warm_start)
        );
        let _ = writeln!(s, "clock {:016x}", self.clock.to_bits());
        let _ = writeln!(s, "tsr {}", self.ticks_since_resolve);
        let _ = writeln!(s, "epoch {}", self.epoch);
        let m = &self.metrics;
        let _ = writeln!(
            s,
            "counters {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            m.arrivals,
            m.admitted,
            m.rejected,
            m.shed,
            m.readmitted,
            m.departures,
            m.ticks,
            m.resolves,
            m.resolves_degraded,
            m.resolves_skipped,
            m.resolve_nodes,
            m.events,
            m.journal_records,
            m.snapshots_taken,
            m.recoveries,
            m.records_lost,
            m.backpressure_sheds
        );
        let _ = writeln!(
            s,
            "costs {:016x} {:016x} {:016x}",
            m.energy.to_bits(),
            m.penalty_accrued.to_bits(),
            m.penalty_charged.to_bits()
        );
        let _ = writeln!(s, "domains {}", self.domains.len());
        for d in &self.domains {
            let _ = writeln!(
                s,
                "domain {} {} {} {}",
                u8::from(d.needs_resolve),
                d.active.len(),
                d.reserved.len(),
                u8::from(d.fenced)
            );
            // The processor spec is embedded so a restoring engine can
            // rebuild domains beyond the ones it was constructed with
            // (the live-resharding import targets) and cross-check the
            // rest bit-exactly.
            let cpu_spec = d.cpu.encode_spec();
            let _ = writeln!(
                s,
                "cpu {} {cpu_spec}",
                cpu_spec.split_ascii_whitespace().count()
            );
            if let Some(payload) = &d.export_payload {
                let _ = writeln!(s, "xport {payload}");
            }
            for (tag, ledger) in [('a', &d.active), ('r', &d.reserved)] {
                for t in ledger {
                    let deadline = (!t.is_implicit_deadline()).then(|| t.deadline());
                    let _ = writeln!(
                        s,
                        "{tag} {} {} {} {} {} {}",
                        t.id().index(),
                        t.wcec(),
                        t.period(),
                        OrDash(deadline),
                        t.penalty(),
                        OrDash(t.domain())
                    );
                }
            }
        }
        let _ = writeln!(s, "unserved {}", self.unserved.len());
        for (id, penalty, pin) in &self.unserved {
            let _ = writeln!(
                s,
                "u {} {:016x} {}",
                id.index(),
                penalty.to_bits(),
                OrDash(*pin)
            );
        }
        match base {
            Some(b) => departed(&mut s, b.fresh.iter()),
            None => departed(&mut s, self.departed.iter()),
        }
        let _ = writeln!(s, "imported {}", self.imported.len());
        for (key, local) in &self.imported {
            let _ = writeln!(s, "i {key} {local}");
        }
        let decisions = &self.decisions[base_decisions..];
        let _ = writeln!(s, "decisions {}", decisions.len());
        for d in decisions {
            let _ = writeln!(s, "x {}", d.coded());
        }
        s.push_str("end\n");
        s
    }

    /// Folds one `S` record payload into this engine. The bounded state —
    /// clock, counters, ledgers, `unserved`, `imported` — is replaced; the
    /// record's departed ids and decisions *extend* the engine's, and its
    /// `base` line must state exactly the counts the engine holds. The
    /// complete form of [`AdmissionEngine::encode_snapshot`] (`base 0 0`)
    /// therefore restores onto a freshly constructed engine, and a delta
    /// only onto the state its predecessor left — anything else is an
    /// error, never a silent splice. The engine must have been built with
    /// the same policy and configuration as the one that wrote the
    /// snapshot and with a prefix of its domains — mismatches are errors,
    /// not silent adoption of the snapshot's values. No allocation is sized
    /// from a count the remaining input could not hold.
    ///
    /// # Errors
    ///
    /// [`JournalError::Snapshot`] naming the offending line; the engine
    /// may be left partly updated.
    pub fn restore_snapshot(&mut self, text: &str) -> Result<(), JournalError> {
        let mut cur = SnapCursor::new(text);
        let header = cur.next()?;
        if header != SNAPSHOT_HEADER {
            return Err(cur.err(format!(
                "unsupported snapshot version {header:?}, this build reads {SNAPSHOT_HEADER:?}"
            )));
        }
        {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "base", 2)?;
            let base = (cur.parse_u64(cols[0])?, cur.parse_u64(cols[1])?);
            let held = (self.departed.len() as u64, self.decisions.len() as u64);
            if base != held {
                return Err(cur.err(format!(
                    "snapshot extends {} departed ids and {} decisions, engine holds {} and {}",
                    base.0, base.1, held.0, held.1
                )));
            }
        }
        let policy = cur.tagged("policy")?;
        if policy != self.policy.name() {
            return Err(cur.err(format!(
                "snapshot was written by policy {policy:?}, engine runs {:?}",
                self.policy.name()
            )));
        }
        let mut line = cur.next()?;
        if let Some(state) = line.strip_prefix("pstate ") {
            self.policy
                .restore_state(state)
                .map_err(|reason| cur.err(reason))?;
            line = cur.next()?;
        }
        let config = {
            let cols = Self::cols_tagged(&cur, line, "config", 5)?;
            EngineConfig {
                horizon: cur.parse_u64(cols[0])?,
                resolve_every: match cur.parse_u64(cols[1])? {
                    0 => None,
                    k => Some(k),
                },
                regret_threshold: if cols[2] == "-" {
                    None
                } else {
                    Some(cur.parse_bits(cols[2])?)
                },
                resolve_budget: cur.parse_u64(cols[3])?,
                warm_start: cols[4] == "1",
            }
        };
        if config != self.config {
            return Err(cur.err("snapshot engine configuration differs from this engine's"));
        }
        let clock = cur.one_tagged("clock")?;
        self.clock = cur.parse_bits(clock)?;
        let tsr = cur.one_tagged("tsr")?;
        self.ticks_since_resolve = cur.parse_u64(tsr)?;
        let epoch = cur.one_tagged("epoch")?;
        self.epoch = cur.parse_u64(epoch)?;
        {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "counters", 17)?;
            let v: Vec<u64> = cols
                .iter()
                .map(|c| cur.parse_u64(c))
                .collect::<Result<_, _>>()?;
            let m = &mut self.metrics;
            m.arrivals = v[0];
            m.admitted = v[1];
            m.rejected = v[2];
            m.shed = v[3];
            m.readmitted = v[4];
            m.departures = v[5];
            m.ticks = v[6];
            m.resolves = v[7];
            m.resolves_degraded = v[8];
            m.resolves_skipped = v[9];
            m.resolve_nodes = v[10];
            m.events = v[11];
            m.journal_records = v[12];
            m.snapshots_taken = v[13];
            m.recoveries = v[14];
            m.records_lost = v[15];
            m.backpressure_sheds = v[16];
        }
        {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "costs", 3)?;
            self.metrics.energy = cur.parse_bits(cols[0])?;
            self.metrics.penalty_accrued = cur.parse_bits(cols[1])?;
            self.metrics.penalty_charged = cur.parse_bits(cols[2])?;
        }
        // A snapshot may carry *more* domains than the engine was
        // constructed with — the live-resharding import targets — and
        // embeds each domain's processor spec so the extras can be
        // rebuilt (and the rest cross-checked) here.
        let n_domains = cur.counted("domains")?;
        if n_domains < self.domains.len() {
            return Err(cur.err(format!(
                "snapshot has {n_domains} domains, engine has {}",
                self.domains.len()
            )));
        }
        for i in 0..n_domains {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "domain", 4)?;
            let needs_resolve = cols[0] == "1";
            let n_active = cur.parse_count(cols[1])?;
            let n_reserved = cur.parse_count(cols[2])?;
            let fenced = cols[3] == "1";
            let line = cur.next()?;
            let rest = line
                .strip_prefix("cpu ")
                .ok_or_else(|| cur.err(format!("expected a \"cpu\" line, found {line:?}")))?;
            let (_count, spec) = rest
                .split_once(' ')
                .ok_or_else(|| cur.err("\"cpu\" line missing its spec"))?;
            let cpu = Processor::decode_spec(spec)
                .map_err(|e| cur.err(format!("domain {i} cpu spec: {e}")))?;
            if i < self.domains.len() {
                if self.domains[i].cpu != cpu {
                    return Err(cur.err(format!(
                        "snapshot domain {i} processor differs from this engine's"
                    )));
                }
            } else {
                let domain =
                    Domain::new(cpu, self.config.horizon).map_err(|e| cur.err(e.to_string()))?;
                self.domains.push(domain);
            }
            let mut export_payload = None;
            if fenced {
                let line = cur.next()?;
                let payload = line.strip_prefix("xport ").ok_or_else(|| {
                    cur.err(format!("fenced domain {i} missing its \"xport\" line"))
                })?;
                export_payload = Some(payload.to_string());
            }
            let mut active = Vec::with_capacity(n_active);
            let mut reserved = Vec::with_capacity(n_reserved);
            for (tag, n, ledger) in [
                ("a", n_active, &mut active),
                ("r", n_reserved, &mut reserved),
            ] {
                for _ in 0..n {
                    let line = cur.next()?;
                    ledger.push(cur.parse_task(line, tag, n_domains)?);
                }
            }
            let d = &mut self.domains[i];
            d.active = active;
            d.reserved = reserved;
            d.recompute_committed();
            // Caches are rebuilt lazily; memoized pricing replays exact
            // naive bits, so this cannot shift a decision.
            d.resolve_cache = None;
            d.union_dirty = true;
            d.needs_resolve = needs_resolve;
            d.fenced = fenced;
            d.export_payload = export_payload;
        }
        let n_unserved = cur.counted("unserved")?;
        self.unserved = Vec::with_capacity(n_unserved);
        for _ in 0..n_unserved {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "u", 3)?;
            self.unserved.push((
                TaskId::new(cur.parse_u64(cols[0])? as usize),
                cur.parse_bits(cols[1])?,
                cur.parse_pin(cols[2], n_domains)?,
            ));
        }
        for _ in 0..cur.counted("departed")? {
            let id = cur.one_tagged("d")?;
            let id = cur.parse_u64(id)? as usize;
            if !self.departed.insert(TaskId::new(id)) {
                return Err(cur.err(format!("departed id {id} is already recorded")));
            }
        }
        self.imported = BTreeMap::new();
        for _ in 0..cur.counted("imported")? {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "i", 2)?;
            let local = cur.parse_u64(cols[1])? as usize;
            self.imported.insert(cols[0].to_string(), local);
        }
        let n_decisions = cur.counted("decisions")?;
        self.decisions.reserve(n_decisions);
        for _ in 0..n_decisions {
            let line = cur.next()?;
            let cols = Self::cols_tagged(&cur, line, "x", 4)?;
            let at = cur.parse_bits(cols[0])?;
            let task = TaskId::new(cur.parse_u64(cols[1])? as usize);
            let domain = || -> Result<usize, JournalError> { Ok(cur.parse_u64(cols[3])? as usize) };
            let verdict = match cols[2] {
                "A" => Verdict::Accepted { domain: domain()? },
                "R" => Verdict::Rejected,
                "S" => Verdict::Shed { domain: domain()? },
                "M" => Verdict::Readmitted { domain: domain()? },
                other => return Err(cur.err(format!("unknown verdict code {other:?}"))),
            };
            self.decisions.push(Decision { at, task, verdict });
        }
        if cur.next()? != "end" {
            return Err(cur.err("missing snapshot terminator"));
        }
        Ok(())
    }

    fn cols_tagged<'a>(
        cur: &SnapCursor<'_>,
        line: &'a str,
        tag: &str,
        n: usize,
    ) -> Result<Vec<&'a str>, JournalError> {
        let rest = line
            .strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| cur.err(format!("expected a {tag:?} line, found {line:?}")))?;
        let cols: Vec<&str> = rest.split_whitespace().collect();
        if cols.len() != n {
            return Err(cur.err(format!(
                "{tag:?} line has {} columns, expected {n}",
                cols.len()
            )));
        }
        Ok(cols)
    }

    /// Reconstructs an engine from the journal at `path`: restore the
    /// last *complete* `S` record of the valid prefix (if any), fold the
    /// delta `S` records after it in file order, deterministically replay
    /// the `E`/`B`/`X`/`I` tail after the last `S`, truncate any torn
    /// bytes, and reopen the journal for appending. `O` records are never
    /// read: decisions come from the snapshots and the replay. The
    /// result's decision log is bit-identical to the engine that wrote the
    /// journal, at the point of its last flushed record — the
    /// crash-recovery invariant the chaos suite asserts. A torn final `S`
    /// is not part of the valid prefix, so recovery falls back to the one
    /// before it and a longer replay.
    ///
    /// `cpus`, `policy`, and `config` must match the original serving
    /// configuration (the snapshot cross-checks them). A missing file is
    /// not an error: a fresh engine with a fresh journal is returned and
    /// [`Metrics::recoveries`] stays 0.
    ///
    /// # Errors
    ///
    /// * Engine-construction errors ([`AdmitError::NoDomains`], oracle
    ///   errors).
    /// * [`AdmitError::Journal`] for I/O failures, snapshot/configuration
    ///   mismatches, or a tail event that fails to re-apply.
    pub fn recover<P: AsRef<Path>>(
        path: P,
        cpus: Vec<Processor>,
        policy: Box<dyn EnginePolicy>,
        config: EngineConfig,
        jconfig: JournalConfig,
    ) -> Result<Recovered, AdmitError> {
        let path = path.as_ref();
        // `with_domains`, not `new`: a freshly added shard in a resharding
        // cluster starts with zero domains and grows them by replaying
        // import records.
        let mut engine = Self::with_domains(cpus, policy, config)?;
        if !path.exists() {
            let journal = Journal::create(path, jconfig).map_err(JournalError::Io)?;
            engine.attach_journal(journal);
            return Ok(Recovered {
                engine,
                replayed: 0,
                had_snapshot: false,
                records_lost: 0,
                bytes_lost: 0,
            });
        }
        let scan = journal::scan(path).map_err(JournalError::Io)?;
        let is_snapshot = |r: &journal::ScannedRecord| r.kind == RecordKind::Snapshot;
        let start = scan.last_snapshot().map_or(0, |i| i + 1);
        // The last complete `S` anchors; every `S` after it is a delta
        // on its predecessor (`restore_snapshot` checks that it is).
        let anchor = scan.records[..start]
            .iter()
            .rposition(|r| is_snapshot(r) && snapshot_is_complete(&r.payload))
            .unwrap_or(0);
        for rec in scan.records[anchor..start]
            .iter()
            .filter(|r| is_snapshot(r))
        {
            engine.restore_snapshot(&rec.payload)?;
        }
        let mut replayed = 0u64;
        for (idx, rec) in scan.records.iter().enumerate().skip(start) {
            let replay_err = |reason: String| JournalError::Replay {
                record: idx,
                reason,
            };
            if rec.kind == RecordKind::Epoch {
                let epoch = rec
                    .payload
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| replay_err(format!("bad epoch payload: {e}")))?;
                engine
                    .observe_epoch(epoch)
                    .map_err(|e| replay_err(e.to_string()))?;
                continue;
            }
            if rec.kind == RecordKind::Export {
                let (local, payload) = rec
                    .payload
                    .split_once(' ')
                    .ok_or_else(|| replay_err("malformed export record".to_string()))?;
                let local: usize = local
                    .parse()
                    .map_err(|_| replay_err(format!("bad export index {local:?}")))?;
                // Re-exporting from the replayed state must reproduce the
                // recorded payload byte-for-byte — a mismatch means the
                // replay diverged from the run that wrote the journal.
                let replayed_payload = engine
                    .export_domain(local)
                    .map_err(|e| replay_err(e.to_string()))?;
                if replayed_payload != payload {
                    return Err(replay_err(format!(
                        "export replay of domain {local} diverged from the journaled payload"
                    ))
                    .into());
                }
                continue;
            }
            if rec.kind == RecordKind::Import {
                let (key, payload) = rec
                    .payload
                    .split_once(' ')
                    .ok_or_else(|| replay_err("malformed import record".to_string()))?;
                engine
                    .import_domain(key, payload)
                    .map_err(|e| replay_err(e.to_string()))?;
                continue;
            }
            if rec.kind != RecordKind::Event {
                continue;
            }
            let (flag, line) = rec
                .payload
                .split_once(' ')
                .ok_or_else(|| replay_err("missing fast-path flag".to_string()))?;
            let fast = match flag {
                "n" => false,
                "f" => true,
                other => return Err(replay_err(format!("bad fast-path flag {other:?}")).into()),
            };
            let event = parse_event_line(line).map_err(|e| replay_err(e.to_string()))?;
            engine
                .apply_opts(&event, fast)
                .map_err(|e| replay_err(e.to_string()))?;
            replayed += 1;
        }
        engine.metrics.recoveries += 1;
        engine.metrics.records_lost += scan.records_lost;
        let journal = Journal::append_to(path, jconfig, &scan).map_err(JournalError::Io)?;
        engine.attach_journal(journal);
        Ok(Recovered {
            replayed,
            had_snapshot: start > 0,
            records_lost: scan.records_lost,
            bytes_lost: scan.bytes_lost(),
            engine,
        })
    }

    /// The metrics registry plus engine gauges as one flat JSON object —
    /// the payload of the server's `stats` response and shutdown dump.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let m = &self.metrics;
        let committed: Vec<String> = self
            .domains
            .iter()
            .map(|d| format!("{}", d.committed))
            .collect();
        let active: Vec<String> = self
            .domains
            .iter()
            .map(|d| d.active.len().to_string())
            .collect();
        format!(
            "{{\"op\":\"stats\",\"policy\":\"{}\",\"clock\":{},\
             \"domains\":{},\"fenced\":{},\"active\":[{}],\"committed\":[{}],\
             \"arrivals\":{},\"accepted\":{},\"admitted\":{},\"rejected\":{},\"shed\":{},\
             \"shed_total\":{},\"readmitted\":{},\
             \"departures\":{},\"ticks\":{},\"resolves\":{},\"resolves_degraded\":{},\
             \"resolves_skipped\":{},\"resolve_nodes\":{},\
             \"events\":{},\"events_per_sec\":{},\
             \"energy\":{},\"penalty_accrued\":{},\
             \"penalty_charged\":{},\"total_cost\":{},\
             \"journal_records\":{},\"snapshots_taken\":{},\"recoveries\":{},\
             \"records_lost\":{},\"backpressure_sheds\":{},\
             \"epoch\":{},\"epoch_bumps\":{},\"epoch_rejects\":{},\
             \"repl_records\":{},\"repl_bytes\":{},\"repl_torn_tails\":{},\
             \"repl_reconnects\":{},\"heartbeat_misses\":{},\"latency_us_log2\":{}}}",
            self.policy.name(),
            self.clock,
            self.domains.len(),
            self.fenced_count(),
            active.join(","),
            committed.join(","),
            m.arrivals,
            m.accepted(),
            m.admitted,
            m.rejected,
            m.standing_shed(),
            m.shed,
            m.readmitted,
            m.departures,
            m.ticks,
            m.resolves,
            m.resolves_degraded,
            m.resolves_skipped,
            m.resolve_nodes,
            m.events,
            m.events_per_sec(),
            m.energy,
            m.penalty_accrued,
            m.penalty_charged,
            m.total_cost(),
            m.journal_records,
            m.snapshots_taken,
            m.recoveries,
            m.records_lost,
            m.backpressure_sheds,
            self.epoch,
            m.epoch_bumps,
            m.epoch_rejects,
            m.repl_records,
            m.repl_bytes,
            m.repl_torn_tails,
            m.repl_reconnects,
            m.heartbeat_misses,
            m.latency.to_json()
        )
    }
}

/// A domain decoded from a migration payload, tasks still unpinned (the
/// importer re-pins them to the new local index).
struct ExportedDomain {
    cpu: Processor,
    clock: f64,
    ticks_since_resolve: u64,
    needs_resolve: bool,
    active: Vec<Task>,
    reserved: Vec<Task>,
    rejected: Vec<(TaskId, f64)>,
}

fn xp_next<'a, I>(tokens: &mut I, what: &str) -> Result<&'a str, AdmitError>
where
    I: Iterator<Item = &'a str>,
{
    tokens.next().ok_or_else(|| AdmitError::Migration {
        reason: format!("payload ends before {what}"),
    })
}

fn xp_expect<'a, I>(tokens: &mut I, tag: &str) -> Result<(), AdmitError>
where
    I: Iterator<Item = &'a str>,
{
    let t = xp_next(tokens, tag)?;
    if t == tag {
        Ok(())
    } else {
        Err(AdmitError::Migration {
            reason: format!("expected {tag:?}, found {t:?}"),
        })
    }
}

fn xp_u64<'a, I>(tokens: &mut I, what: &str) -> Result<u64, AdmitError>
where
    I: Iterator<Item = &'a str>,
{
    let t = xp_next(tokens, what)?;
    t.parse().map_err(|_| AdmitError::Migration {
        reason: format!("unparseable {what} {t:?}"),
    })
}

fn xp_usize<'a, I>(tokens: &mut I, what: &str) -> Result<usize, AdmitError>
where
    I: Iterator<Item = &'a str>,
{
    let t = xp_next(tokens, what)?;
    t.parse().map_err(|_| AdmitError::Migration {
        reason: format!("unparseable {what} {t:?}"),
    })
}

/// The result of [`AdmissionEngine::recover`].
#[derive(Debug)]
pub struct Recovered {
    /// The reconstructed engine, journal reattached and ready to serve.
    pub engine: AdmissionEngine,
    /// Event records replayed after the snapshot (the journal tail).
    pub replayed: u64,
    /// Whether a snapshot anchored the recovery (false = full replay).
    pub had_snapshot: bool,
    /// Records dropped because the journal tail was torn or corrupt.
    pub records_lost: u64,
    /// Bytes truncated off the journal tail.
    pub bytes_lost: u64,
}

/// First line of every `S` record payload. The format has one version:
/// anything else is refused by name, never half-parsed.
const SNAPSHOT_HEADER: &str = "dvs-admit-snapshot v3";

/// Whether an `S` record payload is complete (extends nothing), i.e. can
/// anchor a recovery by itself.
fn snapshot_is_complete(payload: &str) -> bool {
    payload.lines().nth(1) == Some("base 0 0")
}

/// Builds a ledger task from decoded columns (`deadline` is a number or
/// `-`), refusing the values `Task`'s builders would panic on.
fn decoded_task(
    id: usize,
    wcec: f64,
    period: u64,
    deadline: &str,
    penalty: f64,
) -> Result<Task, String> {
    if !penalty.is_finite() || penalty < 0.0 {
        return Err(format!("task {id}: invalid penalty {penalty}"));
    }
    let mut task = Task::new(id, wcec, period)
        .map_err(|e| format!("task {id}: {e}"))?
        .with_penalty(penalty);
    if deadline != "-" {
        let deadline: u64 = deadline
            .parse()
            .map_err(|_| format!("task {id}: cannot parse deadline {deadline:?}"))?;
        task = task
            .with_deadline(deadline)
            .map_err(|e| format!("task {id}: {e}"))?;
    }
    Ok(task)
}

/// Line cursor over a snapshot payload, tracking the line number for
/// error reporting.
struct SnapCursor<'a> {
    rest: &'a str,
    line_no: usize,
}

impl<'a> SnapCursor<'a> {
    fn new(text: &'a str) -> Self {
        SnapCursor {
            rest: text,
            line_no: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, JournalError> {
        self.line_no += 1;
        if self.rest.is_empty() {
            return Err(self.err("unexpected end of snapshot"));
        }
        let (line, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        Ok(line)
    }

    fn err(&self, reason: impl Into<String>) -> JournalError {
        JournalError::Snapshot {
            line: self.line_no,
            reason: reason.into(),
        }
    }

    /// Next line stripped of `"<tag> "`.
    fn tagged(&mut self, tag: &str) -> Result<&'a str, JournalError> {
        let line = self.next()?;
        line.strip_prefix(tag)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| self.err(format!("expected a {tag:?} line, found {line:?}")))
    }

    /// Next line of the form `"<tag> <value>"`, returning the value.
    fn one_tagged(&mut self, tag: &str) -> Result<&'a str, JournalError> {
        let rest = self.tagged(tag)?;
        let rest = rest.trim();
        if rest.is_empty() || rest.contains(char::is_whitespace) {
            return Err(self.err(format!("{tag:?} line must carry exactly one value")));
        }
        Ok(rest)
    }

    /// Next line of the form `"<tag> <count>"` — see [`Self::parse_count`].
    fn counted(&mut self, tag: &str) -> Result<usize, JournalError> {
        let n = self.one_tagged(tag)?;
        self.parse_count(n)
    }

    fn parse_u64(&self, s: &str) -> Result<u64, JournalError> {
        s.parse()
            .map_err(|_| self.err(format!("cannot parse integer {s:?}")))
    }

    /// Parses the number of item lines that follow. Every item is a line
    /// of at least two bytes, so a count the remaining input cannot hold
    /// is refused here — callers may allocate from what this returns.
    fn parse_count(&self, s: &str) -> Result<usize, JournalError> {
        let n = self.parse_u64(s)?;
        if n > self.rest.len() as u64 / 2 {
            return Err(self.err(format!(
                "count {n} exceeds what the remaining {} bytes can hold",
                self.rest.len()
            )));
        }
        Ok(n as usize)
    }

    fn parse_bits(&self, s: &str) -> Result<f64, JournalError> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| self.err(format!("cannot parse f64 bits {s:?}")))
    }

    /// Parses a pin column: a domain index below `domains`, or `-`.
    fn parse_pin(&self, s: &str, domains: usize) -> Result<Option<usize>, JournalError> {
        if s == "-" {
            return Ok(None);
        }
        match s.parse() {
            Ok(pin) if pin < domains => Ok(Some(pin)),
            _ => Err(self.err(format!("bad domain pin {s:?} ({domains} domains)"))),
        }
    }

    /// Parses a ledger task line `"<tag> <id> <wcec> <period> <deadline|->
    /// <penalty> <pin|->"` (the task-set column format; floats round-trip
    /// bit-exactly through `Display`).
    fn parse_task(&self, line: &str, tag: &str, domains: usize) -> Result<Task, JournalError> {
        let cols = AdmissionEngine::cols_tagged(self, line, tag, 6)?;
        let id: usize = cols[0]
            .parse()
            .map_err(|_| self.err(format!("cannot parse task id {:?}", cols[0])))?;
        let wcec: f64 = cols[1]
            .parse()
            .map_err(|_| self.err(format!("cannot parse wcec {:?}", cols[1])))?;
        let period: u64 = cols[2]
            .parse()
            .map_err(|_| self.err(format!("cannot parse period {:?}", cols[2])))?;
        let penalty: f64 = cols[4]
            .parse()
            .map_err(|_| self.err(format!("cannot parse penalty {:?}", cols[4])))?;
        let task =
            decoded_task(id, wcec, period, cols[3], penalty).map_err(|reason| self.err(reason))?;
        Ok(match self.parse_pin(cols[5], domains)? {
            Some(pin) => task.with_domain(pin),
            None => task,
        })
    }
}

impl std::fmt::Debug for AdmissionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionEngine")
            .field("policy", &self.policy.name())
            .field("clock", &self.clock)
            .field("domains", &self.domains.len())
            .field("decisions", &self.decisions.len())
            .finish_non_exhaustive()
    }
}
