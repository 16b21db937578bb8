//! # dvs-admit — stateful online admission control with re-optimization
//!
//! The serving layer of the workspace: where `reject-sched`'s online
//! module decides a *fixed, ordered* arrival list once, this crate runs an
//! **event-driven admission server**. An [`AdmissionEngine`] consumes a
//! timestamped stream of `Arrive` / `Depart` / `Tick` events, keeps a
//! per-power-domain ledger of committed utilization, admits or rejects
//! through a pluggable policy ([`EnginePolicy`] — every offline
//! `AdmissionPolicy` plugs in unchanged, plus the hysteresis
//! [`WatermarkPolicy`]), and **revisits its commitments**: on ticks, or
//! when the estimated shedding profit (regret) crosses a threshold, it
//! runs a node-budgeted offline re-solve over the active set and sheds
//! tasks that are no longer worth their energy, charging their penalties
//! exactly as the simulator's late-rejection recovery path does.
//!
//! The front-end is the `dvs_admitd` binary: newline-delimited JSON over
//! stdin/stdout or TCP (one thread per connection, zero dependencies),
//! with a built-in metrics registry dumped by the `stats` request and on
//! shutdown. The engine core is deterministic — see the [`engine`] module
//! docs for the contract.
//!
//! ```
//! use dvs_admit::{AdmissionEngine, EngineConfig};
//! use dvs_power::presets::cubic_ideal;
//! use reject_sched::online::OnlineGreedy;
//! use rt_model::io::{EventKind, EventRecord};
//! use rt_model::Task;
//!
//! let mut engine = AdmissionEngine::new(
//!     vec![cubic_ideal()],
//!     Box::new(OnlineGreedy),
//!     EngineConfig::default(),
//! )
//! .unwrap();
//! let task = Task::new(1, 300.0, 1000).unwrap().with_penalty(5.0);
//! let decisions = engine
//!     .apply(&EventRecord::new(0.0, EventKind::Arrive(task)))
//!     .unwrap();
//! assert_eq!(decisions.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
mod error;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod replication;
pub mod server;
pub mod trace;

pub use client::{AdmitClient, ClientConfig, ClientError, ClientMetrics, LocalMyopic};
pub use engine::{
    AdmissionEngine, Decision, EngineConfig, EnginePolicy, Recovered, Verdict, WatermarkPolicy,
    RESERVED_ANCHOR_ID,
};
pub use error::AdmitError;
pub use journal::{FsyncPolicy, Journal, JournalConfig, JournalError};
pub use metrics::Metrics;
pub use replication::{
    FollowEnd, FollowerOptions, ReplicationHub, Role, RoleContext, HEARTBEAT_BYTE,
};
pub use trace::TraceSpec;
