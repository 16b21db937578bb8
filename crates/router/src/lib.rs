//! dvs-router: a domain-sharded admission **cluster** front-end.
//!
//! A single `dvs_admitd` runs one [`AdmissionEngine`][engine] over K
//! power domains. This crate scales that horizontally: a fleet of
//! `dvs_admitd` **shards** each own a disjoint subset of the global
//! power domains, and a stateless-protocol/stateful-log **router**
//! ([`Router`], shipped as the `dvs_routerd` binary) fronts them with
//! the same newline-delimited JSON protocol clients already speak.
//!
//! The two load-bearing pieces:
//!
//! * [`ShardMap`] — deterministic rendezvous-hash assignment of every
//!   global power domain to exactly one shard, versioned and journaled
//!   so reassignment is always explicit, never implicit.
//! * [`Router`] — routes arrivals/departures to the owning shard, fans
//!   ticks out to every shard, scatter-gathers cluster stats under a
//!   balance-invariant check, and maintains a **deterministic merged
//!   decision log** that is byte-identical to what one unsharded
//!   multi-domain engine would log for the same event stream, at any
//!   shard count.
//!
//! Determinism rests on the domain-pinned protocol introduced alongside
//! this crate: tasks carry a power-domain pin end to end (event traces,
//! journals, snapshots, replication, the serving protocol), the engine
//! prices and guards pinned work entirely within its pin domain, and so
//! a domain's decision stream depends only on that domain's events —
//! sharding by domain partitions the decision process exactly. See
//! `DESIGN.md` §16 for the full argument and its caveats (stateless
//! policies, no cross-domain regret coupling).
//!
//! [engine]: dvs_admit::AdmissionEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod map;
pub mod router;

pub use map::{MapError, ShardMap};
pub use router::{Router, RouterError, RouterMetrics, ShardSpec};
