//! The period rewrite the test files share: arrivals moved onto periods
//! that do not all divide the engine's 1000-tick billing horizon.

use rt_model::io::{EventKind, EventRecord};
use rt_model::Task;

/// Periods that do not all divide the 1000-tick horizon; every generated
/// period divides it.
pub const ODD_PERIODS: [u64; 4] = [300, 700, 1000, 1500];

/// `trace` with each arrival's period replaced by
/// `ODD_PERIODS[id mod 4]`, at the same utilization, penalty and pin.
pub fn with_odd_periods(trace: Vec<EventRecord>) -> Vec<EventRecord> {
    trace
        .into_iter()
        .map(|event| match event.kind {
            EventKind::Arrive(t) => {
                let period = ODD_PERIODS[t.id().index() % ODD_PERIODS.len()];
                let task = Task::new(t.id(), t.utilization() * period as f64, period)
                    .unwrap()
                    .with_penalty(t.penalty());
                let task = t.domain().map_or(task, |d| task.with_domain(d));
                EventRecord::new(event.at, EventKind::Arrive(task))
            }
            _ => event,
        })
        .collect()
}
