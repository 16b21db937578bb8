use std::error::Error;
use std::fmt;

use reject_sched::SchedError;
use rt_model::{ModelError, TaskId};

use crate::journal::JournalError;

/// Error raised by the admission engine and its serving front-end.
#[derive(Debug)]
#[non_exhaustive]
pub enum AdmitError {
    /// An event carried a timestamp earlier than the engine clock.
    TimeRegression {
        /// The offending timestamp.
        at: f64,
        /// The engine clock when the event was applied.
        clock: f64,
    },
    /// An arriving task's identifier is already present (active or
    /// unserved) in the system.
    DuplicateTask(TaskId),
    /// A departure named an identifier not present in the system.
    UnknownTask(TaskId),
    /// An event referenced an identifier that already departed: a stale
    /// duplicate (client retry, replayed stream) rather than a new task —
    /// rejected without mutating any ledger.
    AlreadyDeparted(TaskId),
    /// An arriving task has a deadline shorter than its period: the engine
    /// admits on utilization and bills `H·rate(U)`, which are the EDF test
    /// and the energy only for implicit deadlines.
    ConstrainedDeadline(TaskId),
    /// The engine was configured with an empty domain list.
    NoDomains,
    /// An arriving task was pinned to a power domain the engine does not
    /// have.
    InvalidDomain {
        /// The arriving task.
        task: TaskId,
        /// The out-of-range pin.
        domain: usize,
        /// Number of domains the engine serves.
        domains: usize,
    },
    /// An arriving task was pinned to a power domain that has been
    /// exported to another shard (live resharding): the local slot is
    /// fenced and accepts no further work.
    DomainFenced {
        /// The arriving task.
        task: TaskId,
        /// The fenced local domain index.
        domain: usize,
    },
    /// A domain export/import (live-resharding migration) failed: bad
    /// payload, out-of-range index, or an inconsistent retry.
    Migration {
        /// What went wrong.
        reason: String,
    },
    /// A configuration parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A scheduling-layer error (power model, re-solve).
    Sched(SchedError),
    /// A task-model error.
    Model(ModelError),
    /// The write-ahead journal failed (I/O, corrupt snapshot).
    Journal(JournalError),
    /// A fencing-epoch write did not advance past the current epoch: a
    /// deposed primary's late write after a failover, or a promotion that
    /// lost the race to a higher term.
    StaleEpoch {
        /// The epoch the write carried.
        epoch: u64,
        /// The fence it failed to clear.
        current: u64,
    },
}

impl AdmitError {
    /// Short stable machine-readable discriminator, used by the serving
    /// layer's structured JSON error responses.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            AdmitError::TimeRegression { .. } => "time-regression",
            AdmitError::DuplicateTask(_) => "duplicate-task",
            AdmitError::UnknownTask(_) => "unknown-task",
            AdmitError::AlreadyDeparted(_) => "already-departed",
            AdmitError::ConstrainedDeadline(_) => "constrained-deadline",
            AdmitError::NoDomains => "no-domains",
            AdmitError::InvalidDomain { .. } => "invalid-domain",
            AdmitError::DomainFenced { .. } => "domain-fenced",
            AdmitError::Migration { .. } => "migration",
            AdmitError::InvalidParameter { .. } => "invalid-parameter",
            AdmitError::Sched(_) => "sched",
            AdmitError::Model(_) => "model",
            AdmitError::Journal(_) => "journal",
            AdmitError::StaleEpoch { .. } => "stale-epoch",
        }
    }

    /// The task identifier the error is about, when there is one.
    #[must_use]
    pub fn task_id(&self) -> Option<TaskId> {
        match self {
            AdmitError::DuplicateTask(id)
            | AdmitError::UnknownTask(id)
            | AdmitError::AlreadyDeparted(id)
            | AdmitError::ConstrainedDeadline(id) => Some(*id),
            AdmitError::InvalidDomain { task, .. } => Some(*task),
            AdmitError::DomainFenced { task, .. } => Some(*task),
            _ => None,
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::TimeRegression { at, clock } => {
                write!(f, "event at t={at} behind the engine clock t={clock}")
            }
            AdmitError::DuplicateTask(id) => write!(f, "task {id} is already present"),
            AdmitError::UnknownTask(id) => write!(f, "task {id} is not present"),
            AdmitError::AlreadyDeparted(id) => write!(f, "task {id} already departed"),
            AdmitError::ConstrainedDeadline(id) => {
                write!(f, "task {id}'s deadline must equal its period")
            }
            AdmitError::NoDomains => write!(f, "engine needs at least one power domain"),
            AdmitError::InvalidDomain {
                task,
                domain,
                domains,
            } => {
                write!(
                    f,
                    "task {task} is pinned to domain {domain}, engine has {domains}"
                )
            }
            AdmitError::DomainFenced { task, domain } => {
                write!(
                    f,
                    "task {task} is pinned to domain {domain}, which was exported to another shard"
                )
            }
            AdmitError::Migration { reason } => write!(f, "migration failed: {reason}"),
            AdmitError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            AdmitError::Sched(e) => write!(f, "scheduling error: {e}"),
            AdmitError::Model(e) => write!(f, "task model error: {e}"),
            AdmitError::Journal(e) => write!(f, "journal error: {e}"),
            AdmitError::StaleEpoch { epoch, current } => {
                write!(f, "stale epoch {epoch} behind the current fence {current}")
            }
        }
    }
}

impl Error for AdmitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AdmitError::Sched(e) => Some(e),
            AdmitError::Model(e) => Some(e),
            AdmitError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for AdmitError {
    fn from(e: SchedError) -> Self {
        AdmitError::Sched(e)
    }
}

impl From<ModelError> for AdmitError {
    fn from(e: ModelError) -> Self {
        AdmitError::Model(e)
    }
}

impl From<JournalError> for AdmitError {
    fn from(e: JournalError) -> Self {
        AdmitError::Journal(e)
    }
}
