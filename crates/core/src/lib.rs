//! # reject-sched — energy-efficient real-time task scheduling with task rejection
//!
//! This crate is the primary contribution of the workspace: a reproduction of
//! the scheduling problem and algorithm suite of *"Energy-Efficient Real-Time
//! Task Scheduling with Task Rejection"* (Chen, Kuo, Yang, King — DATE 2007).
//!
//! ## The problem
//!
//! A DVS processor (from [`dvs_power`]) runs periodic real-time tasks (from
//! [`rt_model`]) under EDF. Each task `τᵢ` carries a **rejection penalty**
//! `vᵢ`; the scheduler chooses an accepted set `A` and pays
//!
//! ```text
//! cost(A) = E*(U(A)) + Σ_{τᵢ ∉ A} vᵢ          (per hyper-period)
//! ```
//!
//! where `E*(u)` is the minimum energy of serving utilization `u` within
//! deadlines (the [`Processor::plan`](dvs_power::Processor::plan) oracle) and
//! feasibility requires `U(A) ≤ s_max`. Under overload (`U(T) > s_max`) some
//! tasks *must* be rejected; below overload, rejection can still pay off when
//! a task's penalty is smaller than the energy it would cost to run it.
//!
//! The selection problem is NP-hard — the executable reduction from 0/1
//! knapsack lives in [`hardness`] — so the crate provides the spectrum the
//! paper's research line promises:
//!
//! * **Exact**: [`algorithms::Exhaustive`] (2ⁿ) and
//!   [`algorithms::BranchBound`] (best-first with a convex-relaxation bound).
//! * **Approximation**: [`algorithms::ScaledDp`], a scaled dynamic program
//!   with an additive `ε·v_max` guarantee (FPTAS-style).
//! * **Heuristics**: the greedy family in [`algorithms`]
//!   ([`DensityGreedy`](algorithms::DensityGreedy),
//!   [`MarginalGreedy`](algorithms::MarginalGreedy),
//!   [`SafeGreedy`](algorithms::SafeGreedy), baselines) and
//!   [`algorithms::LocalSearch`] improvement.
//! * **Bounds**: [`bounds::fractional_lower_bound`], the convex relaxation
//!   used both for normalisation in the experiments and for pruning in
//!   branch & bound.
//!
//! Extensions: [`hetero`] (per-task power characteristics),
//! [`constrained`] (constrained deadlines with a YDS-based energy oracle),
//! [`online`] (irrevocable arrival-order admission), [`budget`] (the
//! energy-budget dual: maximise served value within an energy allowance),
//! [`anytime`] (work-budgeted solves that degrade gracefully to a
//! flagged best incumbent), [`mandatory`] (must-serve subsets),
//! [`analysis`] (sensitivity: acceptance prices and the marginal value of
//! capacity).
//!
//! ## Quickstart
//!
//! ```
//! use dvs_power::presets::xscale_ideal;
//! use reject_sched::algorithms::{MarginalGreedy, ScaledDp};
//! use reject_sched::{Instance, RejectionPolicy};
//! use rt_model::generator::WorkloadSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = WorkloadSpec::new(12, 1.6).seed(4).generate()?;   // 160% overload
//! let instance = Instance::new(tasks, xscale_ideal())?;
//!
//! let greedy = MarginalGreedy::default().solve(&instance)?;
//! let dp = ScaledDp::new(0.05)?.solve(&instance)?;
//! greedy.verify(&instance)?;
//! dp.verify(&instance)?;
//! assert!(dp.cost() <= greedy.cost() + 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod instance;
mod solution;

pub mod algorithms;
pub mod analysis;
pub mod anytime;
pub mod bounds;
pub mod budget;
pub mod constrained;
pub mod hardness;
pub mod hetero;
pub mod mandatory;
pub mod online;

pub use algorithms::RejectionPolicy;
pub use error::SchedError;
pub use instance::{Instance, View};
pub use solution::Solution;
