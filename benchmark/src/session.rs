//! Stationary seeded admission session.
//!
//! `dvs_admit::TraceSpec` draws every arrival inside one fixed span, so a
//! long trace keeps almost all of its `n` tasks resident at once and the
//! instance a re-solve sees grows with the session. Here the *offered
//! standing set* is stationary instead: arrivals are Poisson at rate
//! `K / R` per tick and each task resides `U[R/2, 3R/2]` ticks, so on
//! average `K` tasks are present however long the session runs, and
//! throughput measured on the first `N` lines means the same thing for
//! any `N`.
//!
//! Traffic dimensions: `standing` (`K`, the instance size a re-solve
//! sees), `load` (offered utilisation, which sets the rejection share),
//! `tick_every` (re-solve rate and the share of ticks that find a clean
//! domain) and `domains` (`D`, pins `id mod D`; `0` leaves tasks unpinned).
//! The servers see only the generated lines.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rt_model::io::{EventKind, EventRecord};
use rt_model::rng::Rng;
use rt_model::{Task, TaskId};

/// Mean residence in ticks — the servers' default billing horizon.
pub const RESIDENCE: f64 = 1000.0;
/// Period (and implicit deadline) of every generated task.
pub const PERIOD: u64 = 1000;
/// `P(s_max)` of the default `xscale` processor: a task's penalty is drawn
/// relative to the energy its cycles cost at full speed, which puts the
/// accept/reject decision in the regime where it is not trivial.
const FULL_SPEED_POWER: f64 = 1.6;

/// Times are kept in thousandths of a tick so that ordering is exact and
/// every timestamp prints with at most three decimals.
const MILLI: f64 = 1000.0;

/// Parameters of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Mean number of tasks present (`K`).
    pub standing: usize,
    /// Offered utilisation of the standing set, in processors.
    pub load: f64,
    /// Ticks between `tick` events.
    pub tick_every: f64,
    /// Power domains to pin tasks to (`id mod domains`); `0` = unpinned.
    pub domains: usize,
    /// Seed of the whole session.
    pub seed: u64,
}

/// One session event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A task arrives.
    Arrive {
        /// Timestamp in ticks.
        at: f64,
        /// Task id (arrival order, from 1).
        id: usize,
        /// Worst-case cycles per period.
        cycles: f64,
        /// Rejection penalty per billing horizon.
        penalty: f64,
        /// Power-domain pin.
        domain: Option<usize>,
    },
    /// A task leaves.
    Depart {
        /// Timestamp in ticks.
        at: f64,
        /// Task id.
        id: usize,
    },
    /// A re-optimisation opportunity.
    Tick {
        /// Timestamp in ticks.
        at: f64,
    },
}

impl Event {
    /// The request line for this event (no trailing newline). Numbers are
    /// printed in their shortest round-trip form, so the server parses
    /// exactly the values [`Event::record`] carries.
    pub fn line(&self) -> String {
        match *self {
            Event::Arrive {
                at,
                id,
                cycles,
                penalty,
                domain,
            } => {
                let pin = domain.map_or_else(String::new, |d| format!(",\"domain\":{d}"));
                format!(
                    "{{\"op\":\"arrive\",\"at\":{at},\"id\":{id},\"cycles\":{cycles},\
                     \"period\":{PERIOD},\"penalty\":{penalty}{pin}}}"
                )
            }
            Event::Depart { at, id } => format!("{{\"op\":\"depart\",\"at\":{at},\"id\":{id}}}"),
            Event::Tick { at } => format!("{{\"op\":\"tick\",\"at\":{at}}}"),
        }
    }

    /// The pre-parsed form the engine's `apply` takes.
    pub fn record(&self) -> EventRecord {
        match *self {
            Event::Arrive {
                at,
                id,
                cycles,
                penalty,
                domain,
            } => {
                let mut task = Task::new(id, cycles, PERIOD)
                    .expect("generated cycles are positive and finite")
                    .with_penalty(penalty);
                if let Some(d) = domain {
                    task = task.with_domain(d);
                }
                EventRecord::new(at, EventKind::Arrive(task))
            }
            Event::Depart { at, id } => EventRecord::new(at, EventKind::Depart(TaskId::new(id))),
            Event::Tick { at } => EventRecord::new(at, EventKind::Tick),
        }
    }
}

/// The endless event stream of one [`SessionSpec`].
pub struct Session {
    spec: SessionSpec,
    rng: Rng,
    /// Pending departures, earliest first: `(time, id)`.
    departures: BinaryHeap<Reverse<(u64, usize)>>,
    next_arrival: u64,
    next_tick: u64,
    next_id: usize,
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

impl Session {
    /// Starts the session at time zero.
    pub fn new(spec: SessionSpec) -> Self {
        assert!(spec.standing > 0 && spec.load > 0.0 && spec.tick_every > 0.0);
        let mut s = Session {
            spec,
            rng: Rng::seed_from_u64(spec.seed),
            departures: BinaryHeap::new(),
            next_arrival: 0,
            next_tick: (spec.tick_every * MILLI) as u64,
            next_id: 1,
        };
        s.next_arrival = s.gap();
        s
    }

    /// Exponential inter-arrival gap with mean `R / K`, at least one
    /// time unit so ids arrive in strictly increasing time.
    fn gap(&mut self) -> u64 {
        let mean = RESIDENCE / self.spec.standing as f64;
        let draw = -(1.0 - self.rng.next_f64()).ln() * mean;
        ((draw * MILLI) as u64).max(1)
    }

    /// The first `n` events.
    pub fn take_events(spec: SessionSpec, n: usize) -> Vec<Event> {
        Session::new(spec).take(n).collect()
    }
}

impl Iterator for Session {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        // Ties resolve departures, then arrivals, then ticks — the order
        // `dvs_admit::trace::sort_trace` gives a recorded trace.
        let depart = self.departures.peek().map(|r| r.0 .0).unwrap_or(u64::MAX);
        let at = depart.min(self.next_arrival).min(self.next_tick);
        let time = at as f64 / MILLI;
        if at == depart {
            let Reverse((_, id)) = self.departures.pop().expect("peeked above");
            return Some(Event::Depart { at: time, id });
        }
        if at == self.next_arrival {
            let id = self.next_id;
            self.next_id += 1;
            let share = self.rng.gen_f64(0.2, 1.8) * self.spec.load / self.spec.standing as f64;
            let cycles = round3(share * PERIOD as f64).max(0.001);
            let penalty = round3(self.rng.gen_f64(0.1, 3.0) * cycles * FULL_SPEED_POWER);
            let residence = self.rng.gen_f64(0.5 * RESIDENCE, 1.5 * RESIDENCE);
            self.departures
                .push(Reverse((at + (residence * MILLI) as u64, id)));
            self.next_arrival = at + self.gap();
            let domain = (self.spec.domains > 0).then(|| id % self.spec.domains);
            return Some(Event::Arrive {
                at: time,
                id,
                cycles,
                penalty,
                domain,
            });
        }
        self.next_tick = at + (self.spec.tick_every * MILLI) as u64;
        Some(Event::Tick { at: time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> SessionSpec {
        SessionSpec {
            standing: 32,
            load: 3.0,
            tick_every: 25.0,
            domains: 0,
            seed,
        }
    }

    fn lines(seed: u64, n: usize) -> Vec<String> {
        Session::new(spec(seed)).take(n).map(|e| e.line()).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_lines_and_another_seed_does_not() {
        assert_eq!(lines(7, 5_000), lines(7, 5_000));
        assert_ne!(lines(7, 5_000), lines(8, 5_000));
    }

    #[test]
    fn standing_set_is_stationary_around_k() {
        // Time-average of the number of tasks present, after one mean
        // residence of warm-up, over ~300 residences.
        let mut present = 0i64;
        let mut last = 0.0;
        let mut area = 0.0;
        let mut span = 0.0;
        for e in Session::new(spec(3)).take(40_000) {
            let (at, delta) = match e {
                Event::Arrive { at, .. } => (at, 1),
                Event::Depart { at, .. } => (at, -1),
                Event::Tick { at } => (at, 0),
            };
            if last >= 2.0 * RESIDENCE {
                area += present as f64 * (at - last);
                span += at - last;
            }
            present += delta;
            last = at;
        }
        let mean = area / span;
        assert!(span > 100.0 * RESIDENCE, "window too short: {span}");
        assert!(
            (mean - 32.0).abs() <= 0.15 * 32.0,
            "mean standing set {mean}"
        );
    }

    #[test]
    fn timestamps_never_regress_and_lines_round_trip() {
        let mut clock = 0.0;
        for e in Session::new(SessionSpec {
            domains: 8,
            ..spec(1)
        })
        .take(3_000)
        {
            let rec = e.record();
            assert!(rec.at >= clock);
            clock = rec.at;
            let pairs = dvs_admit::json::parse_object(&e.line()).expect("valid JSON");
            let at = dvs_admit::json::get(&pairs, "at").and_then(|v| v.as_f64());
            assert_eq!(at, Some(rec.at));
            if let (Event::Arrive { cycles, id, .. }, EventKind::Arrive(t)) = (e, &rec.kind) {
                assert_eq!(t.wcec(), cycles);
                assert_eq!(t.domain(), Some(id % 8));
            }
        }
    }
}
