//! A naive admission engine: DESIGN §12 written out as plainly as it
//! reads, to check `AdmissionEngine` against.
//!
//! Each power domain keeps its served tasks (`active`, in admission
//! order) and its shed-but-present tasks (`reserved`, in shed order) in
//! two vectors, and every quantity is recomputed from them when it is
//! needed. Energy is `E*(u) = H·rate(u)` and a marginal is
//! `E*(u + du) − E*(u)`. A re-solve prices every feasible subset `S` of
//! `active ∪ reserved` at `H·rate(U(S)) + Σ_{i∉S} vᵢ`, for every domain,
//! every time, and takes the cheapest. There is no warm start, no
//! clean-domain skip, no pruning, no prefix sum and no running total.
//!
//! Where two serving choices tie within `EPSILON`, the engine and the
//! reference may pick different optima. [`Reference::apply`] is handed
//! the engine's decisions for the same event: if the engine's choice is
//! not the reference's, it must cost the optimum within `EPSILON`, and
//! the reference then adopts it, so the two stay in step.

use dvs_admit::{Decision, EngineConfig, Metrics, Verdict};
use dvs_power::Processor;
use rt_model::io::{EventKind, EventRecord};
use rt_model::{Task, TaskId};

/// A re-solve acts only on an improvement beyond this, and an engine
/// choice that differs from the reference's must cost the optimum within it.
pub const EPSILON: f64 = 1e-9;

/// The most standing tasks a domain may hold: a re-solve enumerates
/// their subsets.
pub const MAX_STANDING: usize = 14;

/// The admission rules the reference knows, written out in full.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// Admit iff feasible and `v ≥ ΔE*` (`OnlineGreedy`).
    Greedy,
    /// `WatermarkPolicy`: above `high · s_max` price with `θ·ΔE*` until
    /// the fill falls to `low · s_max`.
    Watermark {
        high: f64,
        low: f64,
        theta: f64,
        engaged: bool,
    },
}

struct Domain {
    cpu: Processor,
    active: Vec<Task>,
    reserved: Vec<Task>,
}

fn utilization(tasks: &[Task]) -> f64 {
    tasks.iter().map(Task::utilization).sum()
}

impl Domain {
    /// `Σ uᵢ` over the served tasks (`+ 0.0` prints an empty sum as 0).
    fn committed(&self) -> f64 {
        utilization(&self.active) + 0.0
    }

    /// What admission is priced at: served plus reserved.
    fn priced(&self) -> f64 {
        self.committed() + utilization(&self.reserved)
    }
}

/// The reference engine. Its counters live in a [`Metrics`] so they
/// compare field by field with the engine's.
pub struct Reference {
    domains: Vec<Domain>,
    rule: Rule,
    config: EngineConfig,
    clock: f64,
    /// Present but unserved (rejected or shed) tasks, in the order they
    /// became unserved.
    unserved: Vec<Task>,
    ticks_since_resolve: u64,
    decisions: Vec<Decision>,
    metrics: Metrics,
    /// Re-solves where the reference adopted the engine's equal-cost
    /// choice.
    pub adopted: u64,
}

impl Reference {
    /// A reference over one processor per domain. It reads `horizon`,
    /// `resolve_every` and `regret_threshold` from `config`; the node
    /// budget means nothing to an exhaustive search.
    pub fn new(cpus: Vec<Processor>, rule: Rule, config: EngineConfig) -> Self {
        Reference {
            domains: cpus
                .into_iter()
                .map(|cpu| Domain {
                    cpu,
                    active: Vec::new(),
                    reserved: Vec::new(),
                })
                .collect(),
            rule,
            config,
            clock: 0.0,
            unserved: Vec::new(),
            ticks_since_resolve: 0,
            decisions: Vec::new(),
            metrics: Metrics::default(),
            adopted: 0,
        }
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The decision log in the engine's text form.
    pub fn format_decision_log(&self) -> String {
        self.decisions.iter().map(|d| format!("{d}\n")).collect()
    }

    /// `E*(u) = H·rate(u)`.
    fn energy(&self, d: usize, u: f64) -> f64 {
        let rate = self.domains[d].cpu.energy_rate(u).expect("feasible demand");
        rate * self.config.horizon as f64
    }

    /// `E*(u + du) − E*(u)` on domain `d`.
    fn marginal(&self, d: usize, u: f64, du: f64) -> f64 {
        self.energy(d, u + du) - self.energy(d, u)
    }

    /// Applies one event and returns its decisions. `engine` is what the
    /// engine decided on the same event; it is read only where a re-solve
    /// tie lets the two pick different optima.
    ///
    /// # Errors
    ///
    /// A re-solve where the engine serves a set that is not an optimum.
    pub fn apply(
        &mut self,
        event: &EventRecord,
        engine: &[Decision],
    ) -> Result<Vec<Decision>, String> {
        self.advance(event.at);
        let mut out = Vec::new();
        match &event.kind {
            EventKind::Arrive(task) => self.arrive(*task, &mut out),
            EventKind::Depart(id) => self.depart(*id, engine, &mut out)?,
            EventKind::Tick => {
                self.metrics.ticks += 1;
                self.ticks_since_resolve += 1;
                let periodic = self
                    .config
                    .resolve_every
                    .is_some_and(|k| self.ticks_since_resolve >= k);
                if periodic || self.regretful() {
                    self.resolve(engine, &mut out)?;
                }
            }
        }
        self.metrics.events += 1;
        self.decisions.extend(out.iter().cloned());
        Ok(out)
    }

    /// Integrates energy at each domain's served utilization and penalty
    /// at `vᵢ/H` per unserved task up to `at`.
    fn advance(&mut self, at: f64) {
        let dt = at - self.clock;
        if dt > 0.0 {
            let mut rate = 0.0;
            for d in &self.domains {
                rate += d.cpu.energy_rate(d.committed()).expect("feasible demand");
            }
            self.metrics.energy += rate * dt;
            let penalties: f64 = self.unserved.iter().map(Task::penalty).sum();
            self.metrics.penalty_accrued += penalties / self.config.horizon as f64 * dt;
            self.clock = at;
        }
    }

    fn arrive(&mut self, task: Task, out: &mut Vec<Decision>) {
        self.metrics.arrivals += 1;
        let u = task.utilization();
        let fits = |d: usize| {
            let dom = &self.domains[d];
            dom.cpu.is_feasible(dom.priced() + u)
        };
        // A pinned task may only go to its domain; an unpinned one goes
        // where it is cheapest, the lowest index on a tie.
        let mut best: Option<(usize, f64)> = None;
        match task.domain() {
            Some(d) => best = fits(d).then_some((d, 0.0)),
            None => {
                for d in 0..self.domains.len() {
                    if fits(d) {
                        let m = self.marginal(d, self.domains[d].priced(), u);
                        if best.is_none_or(|(_, b)| m < b) {
                            best = Some((d, m));
                        }
                    }
                }
            }
        }
        let admitted = best.filter(|&(d, _)| self.admits(d, &task));
        let verdict = match admitted {
            Some((d, _)) => {
                self.domains[d].active.push(task);
                self.metrics.admitted += 1;
                Verdict::Accepted { domain: d }
            }
            None => {
                self.metrics.rejected += 1;
                self.metrics.penalty_charged += task.penalty();
                self.unserved.push(task);
                Verdict::Rejected
            }
        };
        self.decide(task.id(), verdict, out);
        self.guard(task.domain(), out);
    }

    /// The admission rule at domain `d`'s priced utilization.
    fn admits(&mut self, d: usize, task: &Task) -> bool {
        let dom = &self.domains[d];
        let (u, s_max) = (dom.priced(), dom.cpu.max_speed());
        let feasible = dom.cpu.is_feasible(u + task.utilization());
        let hedge = match &mut self.rule {
            Rule::Greedy => 1.0,
            Rule::Watermark {
                high,
                low,
                theta,
                engaged,
            } => {
                if u / s_max >= *high {
                    *engaged = true;
                } else if u / s_max <= *low {
                    *engaged = false;
                }
                if *engaged {
                    *theta
                } else {
                    1.0
                }
            }
        };
        feasible && task.penalty() >= hedge * self.marginal(d, u, task.utilization())
    }

    /// The serve-all guard: a domain whose reserved set no longer saves
    /// more energy than its penalties readmits all of it.
    fn guard(&mut self, scope: Option<usize>, out: &mut Vec<Decision>) {
        let domains = match scope {
            Some(d) => vec![d],
            None => (0..self.domains.len()).collect(),
        };
        for d in domains {
            let dom = &self.domains[d];
            if dom.reserved.is_empty() {
                continue;
            }
            let saving = self.marginal(d, dom.committed(), utilization(&dom.reserved));
            let charged: f64 = dom.reserved.iter().map(Task::penalty).sum();
            if saving > charged + EPSILON {
                continue;
            }
            for task in std::mem::take(&mut self.domains[d].reserved) {
                self.readmit(d, task, out);
            }
        }
    }

    fn depart(
        &mut self,
        id: TaskId,
        engine: &[Decision],
        out: &mut Vec<Decision>,
    ) -> Result<(), String> {
        self.metrics.departures += 1;
        if let Some(pos) = self.unserved.iter().position(|t| t.id() == id) {
            let task = self.unserved.remove(pos);
            for dom in &mut self.domains {
                dom.reserved.retain(|t| t.id() != id);
            }
            self.guard(task.domain(), out);
            return Ok(());
        }
        let dom = self
            .domains
            .iter_mut()
            .find(|d| d.active.iter().any(|t| t.id() == id))
            .expect("a departing task is present");
        let pos = dom.active.iter().position(|t| t.id() == id).unwrap();
        let task = dom.active.remove(pos);
        self.guard(task.domain(), out);
        if self.regretful() {
            self.resolve(engine, out)?;
        }
        Ok(())
    }

    /// Whether the shedding profit `Σ max(0, ΔE*(uᵢ) − vᵢ)` over the served
    /// tasks exceeds the configured regret threshold.
    fn regretful(&self) -> bool {
        let Some(threshold) = self.config.regret_threshold else {
            return false;
        };
        let mut regret = 0.0;
        for (d, dom) in self.domains.iter().enumerate() {
            let committed = dom.committed();
            for t in &dom.active {
                let saving = self.marginal(d, committed - t.utilization(), t.utilization());
                regret += (saving - t.penalty()).max(0.0);
            }
        }
        regret > threshold
    }

    /// `H·rate(U(S)) + Σ_{i∉S} vᵢ` for the subset `S` of `standing` that
    /// `mask` selects, or `None` when `S` is infeasible on domain `d`.
    fn cost(&self, d: usize, standing: &[Task], mask: u32) -> Option<f64> {
        let (mut u, mut v) = (0.0, 0.0);
        for (i, t) in standing.iter().enumerate() {
            if mask >> i & 1 == 1 {
                u += t.utilization();
            } else {
                v += t.penalty();
            }
        }
        let feasible = self.domains[d].cpu.is_feasible(u);
        feasible.then(|| self.energy(d, u) + v)
    }

    /// Re-solves every domain by pricing every subset of its standing
    /// tasks and moves it to the cheapest when that beats its current
    /// serving choice by more than `EPSILON`.
    fn resolve(&mut self, engine: &[Decision], out: &mut Vec<Decision>) -> Result<(), String> {
        self.ticks_since_resolve = 0;
        for d in 0..self.domains.len() {
            let dom = &self.domains[d];
            if dom.active.is_empty() && dom.reserved.is_empty() {
                continue;
            }
            let standing: Vec<Task> = dom.active.iter().chain(&dom.reserved).copied().collect();
            assert!(
                standing.len() <= MAX_STANDING,
                "domain {d} holds {} tasks",
                standing.len()
            );
            // The served set is `active`, the front of `standing`.
            let served = (1u32 << dom.active.len()) - 1;
            let current = self
                .cost(d, &standing, served)
                .expect("the served set is feasible");
            let (mut best, mut best_cost) = (served, current);
            for mask in 0..1u32 << standing.len() {
                if let Some(cost) = self.cost(d, &standing, mask) {
                    if cost < best_cost {
                        (best, best_cost) = (mask, cost);
                    }
                }
            }
            self.metrics.resolves += 1;
            let ids = |mask: u32| -> Vec<TaskId> {
                let mut ids: Vec<TaskId> = (0..standing.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| standing[i].id())
                    .collect();
                ids.sort();
                ids
            };
            let current_ids = ids(served);
            let mut target = ids(if best_cost + EPSILON < current {
                best
            } else {
                served
            });
            let theirs = self.engine_choice(d, &current_ids, &engine[out.len()..]);
            if theirs != target {
                let mask = (0..standing.len())
                    .filter(|&i| theirs.contains(&standing[i].id()))
                    .fold(0, |mask, i| mask | 1 << i);
                let cost = self.cost(d, &standing, mask);
                if cost.is_none_or(|cost| (cost - best_cost).abs() > EPSILON) {
                    return Err(format!(
                        "t={} domain {d}: the engine serves {theirs:?} at cost {cost:?}, \
                         the optimum {target:?} costs {best_cost} (current {current})",
                        self.clock,
                    ));
                }
                self.adopted += 1;
                target = theirs;
            }
            for id in target.iter().filter(|id| !current_ids.contains(id)) {
                let dom = &mut self.domains[d];
                let pos = dom.reserved.iter().position(|t| t.id() == *id).unwrap();
                let task = dom.reserved.remove(pos);
                self.readmit(d, task, out);
            }
            for id in current_ids.iter().filter(|id| !target.contains(id)) {
                let dom = &mut self.domains[d];
                let pos = dom.active.iter().position(|t| t.id() == *id).unwrap();
                let task = dom.active.remove(pos);
                dom.reserved.push(task);
                self.unserved.push(task);
                self.metrics.shed += 1;
                self.metrics.penalty_charged += task.penalty();
                self.decide(task.id(), Verdict::Shed { domain: d }, out);
            }
        }
        Ok(())
    }

    /// The set the engine serves on domain `d` after its re-solve: the
    /// current set plus what it readmitted, less what it shed, read from
    /// the run of domain-`d` decisions at the front of `pending`.
    fn engine_choice(&self, d: usize, current: &[TaskId], pending: &[Decision]) -> Vec<TaskId> {
        let mut set = current.to_vec();
        for decision in pending {
            match decision.verdict {
                Verdict::Readmitted { domain } if domain == d => set.push(decision.task),
                Verdict::Shed { domain } if domain == d => set.retain(|id| *id != decision.task),
                _ => break,
            }
        }
        set.sort();
        set
    }

    fn readmit(&mut self, d: usize, task: Task, out: &mut Vec<Decision>) {
        self.unserved.retain(|t| t.id() != task.id());
        self.domains[d].active.push(task);
        self.metrics.readmitted += 1;
        self.decide(task.id(), Verdict::Readmitted { domain: d }, out);
    }

    fn decide(&self, task: TaskId, verdict: Verdict, out: &mut Vec<Decision>) {
        out.push(Decision {
            at: self.clock,
            task,
            verdict,
        });
    }
}
