//! Deterministic fault injection and runtime recovery policies.
//!
//! Real platforms violate the clean-room assumptions the analytic schedulers
//! make: jobs overrun their WCETs, DVS actuators miss requested speeds,
//! thermal management forcibly caps the frequency, and releases jitter.
//! A [`FaultScenario`] injects these disturbances into the
//! [`Simulator`](crate::Simulator) — each fault is drawn *statelessly* from
//! the vendored SplitMix64 generator keyed on `(seed, fault kind, task, job)`,
//! so a fixed seed yields bit-identical traces regardless of evaluation
//! order or the worker count of any surrounding parallel sweep.
//!
//! A [`RecoveryPolicy`] selects how the runtime degrades when faults push the
//! workload past feasibility:
//!
//! * **late rejection** — when the EDF demand check fails, shed the active
//!   job with the lowest penalty density and charge its task's rejection
//!   penalty, mirroring the paper's offline objective at run time;
//! * **elastic rescale** — raise the dispatch speed within the processor's
//!   feasible band so a lagging job still meets its deadline;
//! * **dormant fallback** — after shedding, force the processor into the
//!   dormant mode across the next idle gap (ignoring the break-even rule)
//!   to claw back energy and heat headroom.

use rt_model::rng::splitmix64;
use rt_model::Job;

use crate::SimError;

/// Domain separation tags for the stateless fault draws.
const TAG_OVERRUN_GATE: u64 = 0x01;
const TAG_OVERRUN_MAG: u64 = 0x02;
const TAG_ACTUATOR: u64 = 0x03;
const TAG_JITTER: u64 = 0x04;
const TAG_THROTTLE: u64 = 0x05;
const TAG_OVERRUN_BIN: u64 = 0x06;
const TAG_ACTUATOR_BIN: u64 = 0x07;
const TAG_THROTTLE_CAP: u64 = 0x08;

/// Maximum number of bins a [`FactorHistogram`] can hold. The bins live
/// in a fixed inline array so the histogram — and any [`FaultScenario`]
/// embedding it — stays `Copy`, like every other fault model.
pub const MAX_HISTOGRAM_BINS: usize = 32;

/// One `[lo, hi)` overrun-factor bin with an observation weight.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct HistBin {
    lo: f64,
    hi: f64,
    weight: f64,
}

/// Validates `(lo, hi, weight)` bins into the inline array.
fn build_bins(
    bins: &[(f64, f64, f64)],
) -> Result<([HistBin; MAX_HISTOGRAM_BINS], usize, f64), SimError> {
    let err = |line: usize, reason: &str| SimError::HistogramTrace {
        line,
        reason: reason.to_string(),
    };
    if bins.is_empty() {
        return Err(err(0, "histogram needs at least one bin"));
    }
    if bins.len() > MAX_HISTOGRAM_BINS {
        return Err(SimError::HistogramTrace {
            line: 0,
            reason: format!("histogram is capped at {MAX_HISTOGRAM_BINS} bins"),
        });
    }
    let mut out = [HistBin::default(); MAX_HISTOGRAM_BINS];
    let mut total = 0.0;
    for (i, &(lo, hi, weight)) in bins.iter().enumerate() {
        if !lo.is_finite() || !hi.is_finite() || lo <= 0.0 || hi < lo {
            return Err(err(i + 1, "bin bounds must satisfy 0 < lo <= hi, finite"));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(err(i + 1, "bin weight must be finite and non-negative"));
        }
        out[i] = HistBin { lo, hi, weight };
        total += weight;
    }
    if total <= 0.0 {
        return Err(err(0, "histogram total weight must be positive"));
    }
    Ok((out, bins.len(), total))
}

/// Raw `(lo, hi, count)` rows plus the 1-based source line of each row.
type RawBins = (Vec<(f64, f64, f64)>, Vec<usize>);

/// Shared `lo hi count` line parser. Returns the bins plus their 1-based
/// source lines so bin-indexed validation errors can be re-pointed at the
/// offending line of the file.
fn parse_bin_lines(text: &str) -> Result<RawBins, SimError> {
    let mut bins = Vec::new();
    let mut lines = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() != 3 {
            return Err(SimError::HistogramTrace {
                line: no + 1,
                reason: format!("expected `lo hi count`, found {} column(s)", cols.len()),
            });
        }
        let mut nums = [0.0f64; 3];
        for (slot, col) in nums.iter_mut().zip(&cols) {
            *slot = col.parse().map_err(|e| SimError::HistogramTrace {
                line: no + 1,
                reason: format!("bad number {col:?}: {e}"),
            })?;
        }
        bins.push((nums[0], nums[1], nums[2]));
        lines.push(no + 1);
    }
    Ok((bins, lines))
}

/// Re-points a bin-indexed [`SimError::HistogramTrace`] at its source line.
fn remap_bin_error(e: SimError, lines: &[usize]) -> SimError {
    match e {
        SimError::HistogramTrace { line, reason } if line > 0 && line <= lines.len() => {
            SimError::HistogramTrace {
                line: lines[line - 1],
                reason,
            }
        }
        other => other,
    }
}

/// An empirical multiplicative-factor distribution, loaded from a measured
/// trace.
///
/// Where the parametric models draw from closed-form distributions, a
/// histogram replays what a platform actually measured: each bin
/// `[lo, hi)` (positive bounds, `lo > 0`) carries the observed count. A
/// factor is drawn by inverse-CDF over the bin weights, then uniformly
/// within the selected bin — both draws statelessly keyed on
/// `(seed, tag, task, job)` exactly like the parametric models, so traces
/// stay independent of evaluation order. One histogram describes
///
/// * a job's WCET-overrun factor
///   ([`FaultScenario::overrun_from_histogram`], which requires `lo ≥ 1`;
///   a `[1, 1]` bin represents jobs that did *not* overrun; sample trace
///   `examples/wcet_overrun_histogram.txt`),
/// * a DVS actuator's delivered-speed multiplier, which may straddle 1
///   ([`FaultScenario::actuator_from_histogram`], sample trace
///   `examples/actuator_error_histogram.txt`), or
/// * the per-window speed cap a thermal governor enforces
///   ([`FaultScenario::throttle_cap_from_histogram`], sample trace
///   `examples/thermal_throttle_histogram.txt`).
///
/// The trace file format is line-oriented: `lo hi count` per bin,
/// `#`-comments and blank lines ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorHistogram {
    bins: [HistBin; MAX_HISTOGRAM_BINS],
    len: usize,
    total: f64,
}

impl FactorHistogram {
    /// Builds a histogram from `(lo, hi, weight)` bins.
    ///
    /// # Errors
    ///
    /// [`SimError::HistogramTrace`] if there are no bins, more than
    /// [`MAX_HISTOGRAM_BINS`], any bin has `lo ≤ 0`, `hi < lo`, a
    /// non-finite bound, or a negative/non-finite weight, or the total
    /// weight is zero.
    pub fn from_bins(bins: &[(f64, f64, f64)]) -> Result<Self, SimError> {
        let (bins, len, total) = build_bins(bins)?;
        Ok(FactorHistogram { bins, len, total })
    }

    /// Parses the `lo hi count` trace format (see the type docs).
    ///
    /// # Errors
    ///
    /// [`SimError::HistogramTrace`] pinpointing the offending line.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let (bins, lines) = parse_bin_lines(text)?;
        Self::from_bins(&bins).map_err(|e| remap_bin_error(e, &lines))
    }

    /// Reads and parses a histogram trace file.
    ///
    /// # Errors
    ///
    /// [`SimError::HistogramTrace`] on I/O failure (`line: 0`) or any
    /// parse/validation error.
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self, SimError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SimError::HistogramTrace {
            line: 0,
            reason: format!("cannot read {}: {e}", path.display()),
        })?;
        Self::parse(&text)
    }

    /// Number of bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the histogram holds no bins (never true for a constructed
    /// histogram — `from_bins` rejects empty input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The weight-averaged mean factor (bin midpoints).
    #[must_use]
    pub fn mean_factor(&self) -> f64 {
        let bins = &self.bins[..self.len];
        bins.iter()
            .map(|b| b.weight * (b.lo + b.hi) / 2.0)
            .sum::<f64>()
            / self.total
    }

    /// Inverse-CDF draw: `u_bin` selects the bin by weight, `u_mag` the
    /// position within it (both in `[0, 1)`).
    fn sample(&self, u_bin: f64, u_mag: f64) -> f64 {
        let bins = &self.bins[..self.len];
        let target = u_bin * self.total;
        let mut acc = 0.0;
        let mut chosen = bins[bins.len() - 1];
        for b in bins {
            acc += b.weight;
            if target < acc {
                chosen = *b;
                break;
            }
        }
        chosen.lo + (chosen.hi - chosen.lo) * u_mag
    }
}

/// Per-job WCET overrun: with probability `probability` a job's actual
/// execution cycles are inflated by a factor drawn uniformly from
/// `[1, max_factor]` — the job demands *more* than its declared worst case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcetOverrun {
    /// Probability that a given job overruns, in `[0, 1]`.
    pub probability: f64,
    /// Upper bound of the uniform inflation factor, `≥ 1`.
    pub max_factor: f64,
}

/// DVS actuator imperfection: every adopted speed is quantised to a grid of
/// step `quantum` (0 disables quantisation) and perturbed by a per-job
/// multiplicative error of at most `relative_error`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuatorError {
    /// Maximum relative speed error, in `[0, 1)`.
    pub relative_error: f64,
    /// Speed-grid step the actuator can actually realise (0 = continuous).
    pub quantum: f64,
}

/// Transient thermal throttling: periodically recurring windows during which
/// the deliverable speed is capped at `cap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalThrottle {
    /// Window recurrence period in ticks.
    pub period: f64,
    /// Window length in ticks, `0 < duration ≤ period`.
    pub duration: f64,
    /// Speed cap enforced inside a window.
    pub cap: f64,
}

/// Release jitter: each job's arrival is delayed by a per-job amount drawn
/// uniformly from `[0, max_delay]`; absolute deadlines do *not* move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseJitter {
    /// Maximum arrival delay in ticks.
    pub max_delay: f64,
}

/// A composable, seedable fault-injection scenario for the simulator.
///
/// Build with [`FaultScenario::new`] and enable individual fault models with
/// the `with_*` methods; attach to a simulator via
/// [`Simulator::with_faults`](crate::Simulator::with_faults).
///
/// # Examples
///
/// ```
/// use edf_sim::FaultScenario;
///
/// # fn main() -> Result<(), edf_sim::SimError> {
/// let faults = FaultScenario::new(42)
///     .with_overrun(0.2, 1.5)?           // 20% of jobs overrun up to 1.5×
///     .with_actuator_error(0.03, 0.05)?  // ±3% error on a 0.05 grid
///     .with_thermal_throttle(40.0, 8.0, 0.6)?
///     .with_release_jitter(0.5)?;
/// # let _ = faults;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultScenario {
    seed: u64,
    overrun: Option<WcetOverrun>,
    overrun_hist: Option<FactorHistogram>,
    actuator: Option<ActuatorError>,
    actuator_hist: Option<FactorHistogram>,
    throttle: Option<ThermalThrottle>,
    throttle_cap_hist: Option<FactorHistogram>,
    jitter: Option<ReleaseJitter>,
}

impl FaultScenario {
    /// A scenario with no faults enabled, keyed on `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultScenario {
            seed,
            overrun: None,
            overrun_hist: None,
            actuator: None,
            actuator_hist: None,
            throttle: None,
            throttle_cap_hist: None,
            jitter: None,
        }
    }

    /// The scenario seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables WCET overruns.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] unless `probability ∈ [0, 1]` and
    /// `max_factor ≥ 1` (both finite).
    pub fn with_overrun(mut self, probability: f64, max_factor: f64) -> Result<Self, SimError> {
        if !probability.is_finite() || !(0.0..=1.0).contains(&probability) {
            return Err(SimError::InvalidFault {
                reason: "overrun probability must lie in [0, 1]",
            });
        }
        if !max_factor.is_finite() || max_factor < 1.0 {
            return Err(SimError::InvalidFault {
                reason: "overrun factor must be finite and at least 1",
            });
        }
        self.overrun = Some(WcetOverrun {
            probability,
            max_factor,
        });
        self.overrun_hist = None;
        Ok(self)
    }

    /// Enables WCET overruns drawn from an empirical histogram instead of
    /// the parametric [`WcetOverrun`] model (replacing any configured one —
    /// the two are mutually exclusive). Build the histogram with
    /// [`FactorHistogram::load`]/[`FactorHistogram::parse`]; a sample
    /// trace ships in `examples/wcet_overrun_histogram.txt`.
    ///
    /// ```
    /// use edf_sim::{FactorHistogram, FaultScenario};
    ///
    /// # fn main() -> Result<(), edf_sim::SimError> {
    /// let hist = FactorHistogram::parse(
    ///     "1.0 1.0 917   # jobs at or under their WCET\n\
    ///      1.0 1.2 61\n\
    ///      1.2 1.8 22",
    /// )?;
    /// let faults = FaultScenario::new(42).overrun_from_histogram(hist)?;
    /// # let _ = faults;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// [`SimError::HistogramTrace`] naming the first bin with `lo < 1`:
    /// an overrun factor never shrinks a job.
    pub fn overrun_from_histogram(mut self, histogram: FactorHistogram) -> Result<Self, SimError> {
        let bins = &histogram.bins[..histogram.len];
        if let Some((i, b)) = bins.iter().enumerate().find(|(_, b)| b.lo < 1.0) {
            return Err(SimError::HistogramTrace {
                line: 0,
                reason: format!(
                    "overrun bin {} [{}, {}) has lo < 1; overrun factors must be at least 1",
                    i + 1,
                    b.lo,
                    b.hi
                ),
            });
        }
        self.overrun = None;
        self.overrun_hist = Some(histogram);
        Ok(self)
    }

    /// Enables DVS actuator error/quantisation.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] unless `relative_error ∈ [0, 1)` and
    /// `quantum ≥ 0` (both finite).
    pub fn with_actuator_error(
        mut self,
        relative_error: f64,
        quantum: f64,
    ) -> Result<Self, SimError> {
        if !relative_error.is_finite() || !(0.0..1.0).contains(&relative_error) {
            return Err(SimError::InvalidFault {
                reason: "actuator error must lie in [0, 1)",
            });
        }
        if !quantum.is_finite() || quantum < 0.0 {
            return Err(SimError::InvalidFault {
                reason: "actuator quantum must be finite and non-negative",
            });
        }
        self.actuator = Some(ActuatorError {
            relative_error,
            quantum,
        });
        self.actuator_hist = None;
        Ok(self)
    }

    /// Enables DVS actuator error drawn from an empirical delivered-speed
    /// multiplier histogram instead of the parametric [`ActuatorError`]
    /// model (replacing any configured one — the two are mutually
    /// exclusive). Each job's adopted speed is multiplied by a factor
    /// drawn from the histogram; bins typically straddle 1 (an actuator
    /// that sometimes under- and sometimes over-delivers). A sample
    /// measured trace ships in `examples/actuator_error_histogram.txt`.
    ///
    /// ```
    /// use edf_sim::{FactorHistogram, FaultScenario};
    ///
    /// # fn main() -> Result<(), edf_sim::SimError> {
    /// let hist = FactorHistogram::parse(
    ///     "0.97 1.00 412   # slight under-delivery dominates\n\
    ///      1.00 1.02 95",
    /// )?;
    /// let faults = FaultScenario::new(42).actuator_from_histogram(hist);
    /// # let _ = faults;
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn actuator_from_histogram(mut self, histogram: FactorHistogram) -> Self {
        self.actuator = None;
        self.actuator_hist = Some(histogram);
        self
    }

    /// Enables periodic thermal-throttle windows.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] unless `period > 0`,
    /// `0 < duration ≤ period`, and `cap > 0` (all finite).
    pub fn with_thermal_throttle(
        mut self,
        period: f64,
        duration: f64,
        cap: f64,
    ) -> Result<Self, SimError> {
        if !period.is_finite() || period <= 0.0 {
            return Err(SimError::InvalidFault {
                reason: "throttle period must be finite and positive",
            });
        }
        if !duration.is_finite() || duration <= 0.0 || duration > period {
            return Err(SimError::InvalidFault {
                reason: "throttle duration must lie in (0, period]",
            });
        }
        if !cap.is_finite() || cap <= 0.0 {
            return Err(SimError::InvalidFault {
                reason: "throttle cap must be finite and positive",
            });
        }
        self.throttle = Some(ThermalThrottle {
            period,
            duration,
            cap,
        });
        Ok(self)
    }

    /// Draws each throttle window's speed cap from an empirical histogram
    /// instead of the fixed [`ThermalThrottle::cap`] — real governors cap
    /// harder the hotter the die, so measured caps form a distribution.
    /// The draw is keyed on the window index: the cap is constant within
    /// one window and varies across windows, deterministically for a
    /// fixed seed. A sample measured trace ships in
    /// `examples/thermal_throttle_histogram.txt`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] unless a throttle model is already
    /// configured via [`FaultScenario::with_thermal_throttle`] (the
    /// histogram replaces the cap, not the window recurrence).
    pub fn throttle_cap_from_histogram(
        mut self,
        histogram: FactorHistogram,
    ) -> Result<Self, SimError> {
        if self.throttle.is_none() {
            return Err(SimError::InvalidFault {
                reason: "throttle cap histogram requires with_thermal_throttle first",
            });
        }
        self.throttle_cap_hist = Some(histogram);
        Ok(self)
    }

    /// Enables release jitter.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFault`] unless `max_delay ≥ 0` and finite.
    pub fn with_release_jitter(mut self, max_delay: f64) -> Result<Self, SimError> {
        if !max_delay.is_finite() || max_delay < 0.0 {
            return Err(SimError::InvalidFault {
                reason: "release jitter must be finite and non-negative",
            });
        }
        self.jitter = Some(ReleaseJitter { max_delay });
        Ok(self)
    }

    /// The configured overrun model, if any.
    #[must_use]
    pub fn overrun(&self) -> Option<&WcetOverrun> {
        self.overrun.as_ref()
    }

    /// The configured empirical overrun histogram, if any.
    #[must_use]
    pub fn overrun_histogram(&self) -> Option<&FactorHistogram> {
        self.overrun_hist.as_ref()
    }

    /// The configured actuator model, if any.
    #[must_use]
    pub fn actuator(&self) -> Option<&ActuatorError> {
        self.actuator.as_ref()
    }

    /// The configured empirical actuator-multiplier histogram, if any.
    #[must_use]
    pub fn actuator_histogram(&self) -> Option<&FactorHistogram> {
        self.actuator_hist.as_ref()
    }

    /// The configured empirical throttle-cap histogram, if any.
    #[must_use]
    pub fn throttle_cap_histogram(&self) -> Option<&FactorHistogram> {
        self.throttle_cap_hist.as_ref()
    }

    /// The configured throttle model, if any.
    #[must_use]
    pub fn throttle(&self) -> Option<&ThermalThrottle> {
        self.throttle.as_ref()
    }

    /// The configured jitter model, if any.
    #[must_use]
    pub fn jitter(&self) -> Option<&ReleaseJitter> {
        self.jitter.as_ref()
    }

    /// Arrival delay of `job`, in ticks (0 without a jitter model).
    #[must_use]
    pub fn release_delay(&self, job: &Job) -> f64 {
        match self.jitter {
            None => 0.0,
            Some(j) => j.max_delay * self.unit(TAG_JITTER, job),
        }
    }

    /// Execution-cycle inflation factor of `job` (`≥ 1`; 1 without an
    /// overrun model or for jobs the gate draw spares).
    #[must_use]
    pub fn overrun_factor(&self, job: &Job) -> f64 {
        if let Some(h) = &self.overrun_hist {
            return h.sample(
                self.unit(TAG_OVERRUN_BIN, job),
                self.unit(TAG_OVERRUN_MAG, job),
            );
        }
        match self.overrun {
            Some(o) if self.unit(TAG_OVERRUN_GATE, job) < o.probability => {
                1.0 + (o.max_factor - 1.0) * self.unit(TAG_OVERRUN_MAG, job)
            }
            _ => 1.0,
        }
    }

    /// The speed the actuator actually delivers for `requested` while
    /// executing `job`: quantised to the configured grid, then perturbed by
    /// the per-job relative error. Identity without an actuator model.
    #[must_use]
    pub fn actuate(&self, requested: f64, job: &Job) -> f64 {
        if let Some(h) = &self.actuator_hist {
            let m = h.sample(
                self.unit(TAG_ACTUATOR_BIN, job),
                self.unit(TAG_ACTUATOR, job),
            );
            return (requested * m).max(f64::MIN_POSITIVE);
        }
        let Some(a) = self.actuator else {
            return requested;
        };
        let mut s = requested;
        if a.quantum > 0.0 {
            // Round to the nearest realisable grid point, never to zero.
            s = (s / a.quantum).round().max(1.0) * a.quantum;
        }
        if a.relative_error > 0.0 {
            let u = self.unit(TAG_ACTUATOR, job); // [0, 1)
            s *= 1.0 + a.relative_error * (2.0 * u - 1.0);
        }
        s.max(f64::MIN_POSITIVE)
    }

    /// The throttle speed cap in force at time `t`, if `t` falls inside a
    /// throttle window.
    #[must_use]
    pub fn speed_cap(&self, t: f64) -> Option<f64> {
        let th = self.throttle?;
        let offset = self.throttle_offset(&th);
        let phase = (t - offset).rem_euclid(th.period);
        if phase >= th.duration {
            return None;
        }
        match &self.throttle_cap_hist {
            None => Some(th.cap),
            Some(h) => {
                // One draw per window, keyed on the window index so the
                // cap holds steady across a window and varies between
                // windows (`as u64` keeps negative pre-offset indices
                // distinct via two's complement).
                let window = ((t - offset).div_euclid(th.period)) as i64 as u64;
                Some(h.sample(
                    self.unit_at(TAG_THROTTLE_CAP, window, 0),
                    self.unit_at(TAG_THROTTLE_CAP, window, 1),
                ))
            }
        }
    }

    /// The next time strictly after `t` at which a throttle window opens or
    /// closes (a dispatch-interval boundary for the simulator).
    #[must_use]
    pub fn next_throttle_boundary(&self, t: f64) -> Option<f64> {
        let th = self.throttle?;
        let offset = self.throttle_offset(&th);
        let phase = (t - offset).rem_euclid(th.period);
        let into_cycle = t - phase;
        let next = if phase < th.duration {
            into_cycle + th.duration
        } else {
            into_cycle + th.period
        };
        // Guard against `next == t` from floating-point cancellation.
        Some(if next > t { next } else { t + th.period })
    }

    /// Deterministic window phase offset in `[0, period)`.
    fn throttle_offset(&self, th: &ThermalThrottle) -> f64 {
        let mut state = mix(self.seed, TAG_THROTTLE, 0, 0);
        th.period * unit_from(splitmix64(&mut state))
    }

    /// Stateless uniform draw in `[0, 1)` keyed on `(seed, tag, task, job)`.
    fn unit(&self, tag: u64, job: &Job) -> f64 {
        self.unit_at(tag, job.task().index() as u64, job.index())
    }

    /// Stateless uniform draw in `[0, 1)` keyed on `(seed, tag, a, b)` —
    /// for draws not tied to a job, e.g. per-throttle-window caps.
    fn unit_at(&self, tag: u64, a: u64, b: u64) -> f64 {
        let mut state = mix(self.seed, tag, a, b);
        unit_from(splitmix64(&mut state))
    }
}

/// Combines the draw key into one SplitMix64 state.
fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tag.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(a.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(b.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Maps a 64-bit word to the unit interval with 53-bit precision.
fn unit_from(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Which graceful-degradation mechanisms the simulator's runtime applies
/// when the workload becomes infeasible (because of injected faults or
/// plain overload).
///
/// The default is [`RecoveryPolicy::none`]: observe the failure and report
/// deadline misses, exactly as the fault-free simulator does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryPolicy {
    /// Shed the lowest-penalty-density active job (charging its task's
    /// rejection penalty) whenever the EDF demand check fails.
    pub late_rejection: bool,
    /// Raise the dispatch speed within the processor's feasible band when a
    /// job would otherwise miss its deadline.
    pub elastic_rescale: bool,
    /// After shedding, force the dormant mode across the next idle gap
    /// regardless of the break-even rule.
    pub dormant_fallback: bool,
}

impl RecoveryPolicy {
    /// No recovery: faults surface as deadline misses.
    #[must_use]
    pub const fn none() -> Self {
        RecoveryPolicy {
            late_rejection: false,
            elastic_rescale: false,
            dormant_fallback: false,
        }
    }

    /// Late rejection only.
    #[must_use]
    pub const fn late_rejection() -> Self {
        RecoveryPolicy {
            late_rejection: true,
            elastic_rescale: false,
            dormant_fallback: false,
        }
    }

    /// Elastic speed rescaling only.
    #[must_use]
    pub const fn elastic() -> Self {
        RecoveryPolicy {
            late_rejection: false,
            elastic_rescale: true,
            dormant_fallback: false,
        }
    }

    /// All mechanisms: elastic rescale first, late rejection when rescaling
    /// cannot save the backlog, dormant fallback after shedding.
    #[must_use]
    pub const fn full() -> Self {
        RecoveryPolicy {
            late_rejection: true,
            elastic_rescale: true,
            dormant_fallback: true,
        }
    }

    /// Whether every mechanism is disabled.
    #[must_use]
    pub const fn is_none(&self) -> bool {
        !self.late_rejection && !self.elastic_rescale && !self.dormant_fallback
    }

    /// Short human-readable label (`"none"`, `"late-reject"`, …).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match (
            self.late_rejection,
            self.elastic_rescale,
            self.dormant_fallback,
        ) {
            (false, false, false) => "none",
            (true, false, false) => "late-reject",
            (false, true, false) => "elastic",
            (false, false, true) => "dormant",
            (true, true, false) => "late-reject+elastic",
            (true, false, true) => "late-reject+dormant",
            (false, true, true) => "elastic+dormant",
            (true, true, true) => "full",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::Task;

    fn job(task: usize, index: u64) -> Job {
        Job::nth_of(&Task::new(task, 2.0, 10).unwrap(), index)
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let f = FaultScenario::new(1);
        assert!(f.with_overrun(-0.1, 2.0).is_err());
        assert!(f.with_overrun(0.5, 0.9).is_err());
        assert!(f.with_overrun(f64::NAN, 2.0).is_err());
        assert!(f.with_actuator_error(1.0, 0.0).is_err());
        assert!(f.with_actuator_error(0.1, -1.0).is_err());
        assert!(f.with_thermal_throttle(0.0, 1.0, 0.5).is_err());
        assert!(f.with_thermal_throttle(10.0, 11.0, 0.5).is_err());
        assert!(f.with_thermal_throttle(10.0, 5.0, 0.0).is_err());
        assert!(f.with_release_jitter(-1.0).is_err());
        assert!(f.with_release_jitter(f64::INFINITY).is_err());
    }

    #[test]
    fn draws_are_deterministic_and_bounded() {
        let f = FaultScenario::new(7)
            .with_overrun(0.5, 2.0)
            .unwrap()
            .with_release_jitter(3.0)
            .unwrap();
        for idx in 0..100 {
            let j = job(2, idx);
            let a = f.overrun_factor(&j);
            assert_eq!(a, f.overrun_factor(&j), "determinism");
            assert!((1.0..=2.0).contains(&a), "factor out of range: {a}");
            let d = f.release_delay(&j);
            assert_eq!(d, f.release_delay(&j));
            assert!((0.0..=3.0).contains(&d), "delay out of range: {d}");
        }
    }

    #[test]
    fn overrun_gate_respects_probability() {
        let f = FaultScenario::new(11).with_overrun(0.3, 3.0).unwrap();
        let hits = (0..2000)
            .filter(|&i| f.overrun_factor(&job(0, i)) > 1.0)
            .count();
        let rate = hits as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = FaultScenario::new(1).with_release_jitter(1.0).unwrap();
        let b = FaultScenario::new(2).with_release_jitter(1.0).unwrap();
        assert_ne!(a.release_delay(&job(0, 0)), b.release_delay(&job(0, 0)));
    }

    #[test]
    fn actuator_quantises_and_perturbs() {
        let grid = FaultScenario::new(3).with_actuator_error(0.0, 0.1).unwrap();
        let s = grid.actuate(0.43, &job(0, 0));
        assert!((s - 0.4).abs() < 1e-12, "quantised to grid: {s}");
        // Tiny requests never quantise to zero.
        assert!(grid.actuate(0.01, &job(0, 0)) > 0.0);

        let noisy = FaultScenario::new(3).with_actuator_error(0.1, 0.0).unwrap();
        let s = noisy.actuate(0.5, &job(0, 0));
        assert!((s - 0.5).abs() <= 0.05 + 1e-12, "within ±10%: {s}");
        assert_eq!(s, noisy.actuate(0.5, &job(0, 0)), "determinism");
    }

    #[test]
    fn throttle_windows_recur() {
        let f = FaultScenario::new(5)
            .with_thermal_throttle(10.0, 4.0, 0.5)
            .unwrap();
        // Exactly 40% of a long horizon is capped.
        let samples = 100_000;
        let capped = (0..samples)
            .filter(|&i| f.speed_cap(i as f64 * 1000.0 / samples as f64).is_some())
            .count();
        let frac = capped as f64 / samples as f64;
        assert!((frac - 0.4).abs() < 0.01, "capped fraction {frac}");
        // Boundaries advance strictly and alternate cap on/off.
        let mut t = 0.0;
        for _ in 0..50 {
            let next = f.next_throttle_boundary(t).unwrap();
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    fn no_throttle_means_no_cap() {
        let f = FaultScenario::new(5);
        assert_eq!(f.speed_cap(3.0), None);
        assert_eq!(f.next_throttle_boundary(3.0), None);
    }

    /// An overrun histogram: built, then installed as the overrun model.
    fn overrun_histogram(bins: &[(f64, f64, f64)]) -> Result<FaultScenario, SimError> {
        FaultScenario::new(1).overrun_from_histogram(FactorHistogram::from_bins(bins)?)
    }

    #[test]
    fn histogram_rejects_malformed_traces() {
        assert!(overrun_histogram(&[]).is_err());
        assert!(overrun_histogram(&[(0.5, 1.0, 3.0)]).is_err(), "lo < 1");
        assert!(overrun_histogram(&[(1.5, 1.2, 3.0)]).is_err(), "hi < lo");
        assert!(
            overrun_histogram(&[(1.0, 1.5, -1.0)]).is_err(),
            "negative weight"
        );
        assert!(overrun_histogram(&[(1.0, 1.5, 0.0)]).is_err(), "zero total");
        assert!(
            overrun_histogram(&vec![(1.0, 1.1, 1.0); 33]).is_err(),
            "too many bins"
        );

        let e = FactorHistogram::parse("1.0 1.2 5\nnot a line").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e = FactorHistogram::parse("# only comments\n\n  1.0 0.5 3").unwrap_err();
        assert!(e.to_string().contains("line 3"), "{e}");
    }

    #[test]
    fn histogram_draws_are_deterministic_bounded_and_distributed() {
        // ~80% no overrun, 15% mild, 5% heavy — a realistic measured shape.
        let hist = FactorHistogram::parse(
            "# factor_lo factor_hi count\n\
             1.0 1.0 800\n\
             1.0 1.3 150\n\
             1.3 2.0 50 # heavy tail",
        )
        .unwrap();
        assert_eq!(hist.len(), 3);
        let f = FaultScenario::new(9).overrun_from_histogram(hist).unwrap();
        assert!(
            f.overrun().is_none(),
            "histogram replaces the parametric model"
        );
        assert_eq!(f.overrun_histogram(), Some(&hist));
        let mut heavy = 0usize;
        let mut clean = 0usize;
        for idx in 0..2000 {
            let j = job(1, idx);
            let a = f.overrun_factor(&j);
            assert_eq!(a, f.overrun_factor(&j), "stateless determinism");
            assert!((1.0..=2.0).contains(&a), "factor out of range: {a}");
            if a > 1.3 {
                heavy += 1;
            }
            if a == 1.0 {
                clean += 1;
            }
        }
        let heavy_rate = heavy as f64 / 2000.0;
        let clean_rate = clean as f64 / 2000.0;
        assert!(
            (heavy_rate - 0.05).abs() < 0.02,
            "heavy-tail rate {heavy_rate}"
        );
        assert!((clean_rate - 0.8).abs() < 0.04, "clean rate {clean_rate}");
    }

    #[test]
    fn histogram_file_round_trips_through_load() {
        let dir = std::env::temp_dir().join(format!("edf_sim_hist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.txt");
        std::fs::write(&path, "1.0 1.0 9\n1.0 1.5 1\n").unwrap();
        let hist = FactorHistogram::load(&path).unwrap();
        assert_eq!(hist.len(), 2);
        assert!(hist.mean_factor() > 1.0 && hist.mean_factor() < 1.05);
        let missing = FactorHistogram::load(dir.join("nope.txt")).unwrap_err();
        assert!(missing.to_string().contains("cannot read"), "{missing}");

        // The shipped sample trace stays loadable.
        let sample = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/wcet_overrun_histogram.txt"
        );
        let shipped = FactorHistogram::load(sample).unwrap();
        assert!(shipped.len() >= 4);
        assert!(shipped.mean_factor() >= 1.0);
        assert!(FaultScenario::new(1)
            .overrun_from_histogram(shipped)
            .is_ok());
    }

    #[test]
    fn factor_histogram_allows_sub_unit_bins_but_not_nonpositive() {
        // A factor histogram may straddle 1 — an overrun histogram may not,
        // and the refusal names the offending bin.
        assert!(FactorHistogram::from_bins(&[(0.5, 0.9, 2.0)]).is_ok());
        let e = overrun_histogram(&[(1.0, 1.2, 2.0), (0.5, 0.9, 2.0)]).unwrap_err();
        assert!(e.to_string().contains("overrun bin 2 [0.5, 0.9)"), "{e}");
        assert!(
            FactorHistogram::from_bins(&[(0.0, 0.9, 2.0)]).is_err(),
            "lo = 0"
        );
        assert!(
            FactorHistogram::from_bins(&[(-0.5, 0.9, 2.0)]).is_err(),
            "lo < 0"
        );
        assert!(
            FactorHistogram::from_bins(&[(0.9, 0.5, 2.0)]).is_err(),
            "hi < lo"
        );
        assert!(FactorHistogram::from_bins(&[]).is_err());
        let e = FactorHistogram::parse("0.9 1.1 5\n0.0 1.0 3").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn actuator_histogram_multiplier_is_deterministic_and_bounded() {
        let hist = FactorHistogram::parse(
            "0.90 0.95 100\n\
             0.95 1.05 800\n\
             1.05 1.10 100",
        )
        .unwrap();
        let f = FaultScenario::new(13)
            .with_actuator_error(0.2, 0.0)
            .unwrap()
            .actuator_from_histogram(hist);
        assert!(
            f.actuator().is_none(),
            "histogram replaces the parametric model"
        );
        assert_eq!(f.actuator_histogram(), Some(&hist));
        let mut low = 0usize;
        for idx in 0..1000 {
            let j = job(0, idx);
            let s = f.actuate(0.5, &j);
            assert_eq!(s, f.actuate(0.5, &j), "stateless determinism");
            assert!(
                (0.45..=0.55).contains(&s),
                "delivered speed out of range: {s}"
            );
            if s < 0.5 * 0.95 {
                low += 1;
            }
        }
        let low_rate = low as f64 / 1000.0;
        assert!((low_rate - 0.1).abs() < 0.04, "low-bin rate {low_rate}");
        // Parametric config wins again once re-enabled.
        let back = f.with_actuator_error(0.0, 0.1).unwrap();
        assert!(back.actuator_histogram().is_none());
        assert!(back.actuator().is_some());
    }

    #[test]
    fn throttle_cap_histogram_varies_per_window_not_within() {
        let hist = FactorHistogram::from_bins(&[(0.4, 0.6, 1.0), (0.8, 1.0, 1.0)]).unwrap();
        let f = FaultScenario::new(17)
            .with_thermal_throttle(10.0, 10.0, 0.5) // always inside a window
            .unwrap()
            .throttle_cap_from_histogram(hist)
            .unwrap();
        assert_eq!(f.throttle_cap_histogram(), Some(&hist));
        let mut caps = std::collections::BTreeSet::new();
        for w in 0..50 {
            // Walk window by window: each boundary closes one 10-tick
            // window, so `end - 9` and `end - 1` share a window.
            let end = f.next_throttle_boundary(w as f64 * 10.0).unwrap();
            let cap = f.speed_cap(end - 9.0).unwrap();
            assert!((0.4..=1.0).contains(&cap), "cap out of range: {cap}");
            assert_eq!(
                f.speed_cap(end - 9.0),
                f.speed_cap(end - 1.0),
                "constant within a window"
            );
            assert_eq!(cap, f.speed_cap(end - 9.0).unwrap(), "deterministic");
            caps.insert(cap.to_bits());
        }
        assert!(
            caps.len() > 10,
            "caps should vary across windows: {}",
            caps.len()
        );
    }

    #[test]
    fn throttle_cap_histogram_requires_a_throttle_model() {
        let hist = FactorHistogram::from_bins(&[(0.5, 1.0, 1.0)]).unwrap();
        let e = FaultScenario::new(1)
            .throttle_cap_from_histogram(hist)
            .unwrap_err();
        assert!(e.to_string().contains("with_thermal_throttle"), "{e}");
    }

    #[test]
    fn shipped_factor_histogram_samples_load() {
        let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/");
        let actuator =
            FactorHistogram::load(format!("{base}actuator_error_histogram.txt")).unwrap();
        assert!(actuator.len() >= 4);
        assert!((actuator.mean_factor() - 1.0).abs() < 0.05);
        let caps = FactorHistogram::load(format!("{base}thermal_throttle_histogram.txt")).unwrap();
        assert!(caps.len() >= 4);
        assert!(caps.mean_factor() > 0.5 && caps.mean_factor() < 1.0);
    }

    #[test]
    fn parametric_and_histogram_overruns_are_mutually_exclusive() {
        let hist = FactorHistogram::from_bins(&[(1.0, 1.5, 1.0)]).unwrap();
        let f = FaultScenario::new(1)
            .overrun_from_histogram(hist)
            .unwrap()
            .with_overrun(0.5, 2.0)
            .unwrap();
        assert!(f.overrun_histogram().is_none());
        assert!(f.overrun().is_some());
    }

    #[test]
    fn recovery_labels_are_distinct() {
        use std::collections::BTreeSet;
        let mut labels = BTreeSet::new();
        for lr in [false, true] {
            for el in [false, true] {
                for dm in [false, true] {
                    labels.insert(
                        RecoveryPolicy {
                            late_rejection: lr,
                            elastic_rescale: el,
                            dormant_fallback: dm,
                        }
                        .label(),
                    );
                }
            }
        }
        assert_eq!(labels.len(), 8);
        assert!(RecoveryPolicy::none().is_none());
        assert!(!RecoveryPolicy::full().is_none());
    }
}
