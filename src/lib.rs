//! # dvs-rejection — energy-efficient real-time task scheduling with task rejection
//!
//! Meta-crate re-exporting the public API of the workspace reproducing
//! *"Energy-Efficient Real-Time Task Scheduling with Task Rejection"*
//! (Chen, Kuo, Yang, King — DATE 2007). See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the evaluation.
//!
//! The workspace crates are usable individually; this crate bundles them for
//! the examples and integration tests:
//!
//! * [`model`] (`rt-model`) — periodic/frame-based task model and workload
//!   generators.
//! * [`power`] (`dvs-power`) — convex power functions, speed domains,
//!   critical speed, dormant-mode parameters.
//! * [`sim`] (`edf-sim`) — discrete-event EDF/DVS simulator with energy
//!   metering.
//! * [`sched`] (`reject-sched`) — **the paper's contribution**: the
//!   energy-plus-penalty minimisation problem and its exact, approximation,
//!   and heuristic algorithms.
//! * [`multi`] (`multi-sched`) — partitioned multiprocessor extension.
//! * [`admit`] (`dvs-admit`) — stateful online admission-control engine and
//!   the `dvs_admitd` line-protocol server with periodic re-optimization.
//! * [`router`] (`dvs-router`) — domain-sharded admission cluster behind
//!   the `dvs_routerd` scatter-gather router.
//!
//! # Quickstart
//!
//! ```
//! use dvs_rejection::model::generator::WorkloadSpec;
//! use dvs_rejection::power::{PowerFunction, Processor, SpeedDomain};
//! use dvs_rejection::sched::{Instance, RejectionPolicy};
//! use dvs_rejection::sched::algorithms::DensityGreedy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = WorkloadSpec::new(10, 1.8).seed(1).generate()?;   // overloaded
//! let cpu = Processor::new(
//!     PowerFunction::polynomial(0.08, 1.52, 3.0)?,               // Intel XScale (normalised)
//!     SpeedDomain::continuous(0.1, 1.0)?,
//! );
//! let instance = Instance::new(tasks, cpu)?;
//! let solution = DensityGreedy::default().solve(&instance)?;
//! solution.verify(&instance)?;                                   // feasible, costs add up
//! println!("cost = {}", solution.cost());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use dvs_admit as admit;
pub use dvs_power as power;
pub use dvs_router as router;
pub use edf_sim as sim;
pub use multi_sched as multi;
pub use reject_sched as sched;
pub use rt_model as model;
