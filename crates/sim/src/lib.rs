//! # edf-sim — discrete-event EDF/DVS simulator
//!
//! Substrate crate that *executes* schedules instead of reasoning about them
//! analytically: a cycle-accurate, event-driven simulator of a single DVS
//! processor running the earliest-deadline-first policy over a periodic task
//! set.
//!
//! The rejection algorithms in `reject-sched` compute accepted sets and
//! speed plans from closed-form energy models; this simulator is the
//! ground-truth check that
//!
//! * every accepted set really meets all deadlines under EDF at the planned
//!   speeds (deadline misses are detected and reported),
//! * the analytic energy `E*(U) = L·rate(U)` matches the integral of
//!   `P(s(t))` over a simulated hyper-period, and
//! * dormant-mode overheads (`t_sw`, `E_sw`) and procrastinated sleeping
//!   behave as the leakage-aware analysis predicts.
//!
//! # Speed semantics
//!
//! A [`SpeedProfile`] maps each *job's cycle position* to a speed: a job with
//! `c` cycles executes its first `γ₁·c` cycles at `s₁`, the next `γ₂·c` at
//! `s₂`, and so on. A steady-state [`ExecutionPlan`](dvs_power::ExecutionPlan)
//! (time shares) converts to cycle shares via `γₖ = tₖ·sₖ/u`; under this
//! per-job realisation every job progresses as if executed at the uniform
//! effective speed `u`, so EDF feasibility of the plan reduces to the
//! classical utilization argument — and the simulator verifies it by
//! construction.
//!
//! # Examples
//!
//! ```
//! use dvs_power::presets::xscale_ideal;
//! use edf_sim::{Simulator, SpeedProfile};
//! use rt_model::{Task, TaskSet};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let tasks = TaskSet::try_from_tasks(vec![
//!     Task::new(0, 0.2, 2)?,   // u = 0.1
//!     Task::new(1, 1.0, 5)?,   // u = 0.2
//! ])?;
//! let cpu = xscale_ideal();
//! let plan = cpu.plan(tasks.utilization())?;
//! let report = Simulator::new(&tasks, &cpu)
//!     .with_profile(SpeedProfile::from_plan(&plan))
//!     .run_hyper_period()?;
//! assert!(report.misses().is_empty());
//! // Simulated energy equals the analytic prediction.
//! let predicted = plan.energy_over(tasks.hyper_period() as f64);
//! assert!((report.energy() - predicted).abs() < 1e-6 * predicted.max(1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod execution;
mod fault;
mod procrastination;
mod profile;
mod simulator;
mod trace;

pub mod yds;

pub use error::SimError;
pub use execution::ExecutionModel;
pub use fault::{
    ActuatorError, FactorHistogram, FaultScenario, RecoveryPolicy, ReleaseJitter, ThermalThrottle,
    WcetOverrun, MAX_HISTOGRAM_BINS,
};
pub use procrastination::procrastination_budget;
pub use profile::SpeedProfile;
pub use simulator::{Governor, Simulator, SleepPolicy};
pub use trace::{DeadlineMiss, FaultStats, LateRejection, SimReport, SimSegment, SimState};
