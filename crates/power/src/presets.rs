//! Ready-made processor models used by the evaluation.
//!
//! The experiments of the authors' research line normalise the highest
//! available speed to 1 and express power in that normalised frame; the
//! canonical example given in the companion DATE 2007 paper is the Intel
//! XScale with `P(s) = 0.08 + 1.52·s³` Watt. These presets reconstruct the
//! processors the experiments need.

use crate::{DormantMode, IdleMode, PowerFunction, Processor, SpeedDomain};

/// Normalised Intel XScale power coefficients: `P(s) = 0.08 + 1.52·s³`.
pub const XSCALE_BETA1: f64 = 0.08;
/// See [`XSCALE_BETA1`].
pub const XSCALE_BETA2: f64 = 1.52;

/// Ideal (continuous-speed) processor with the normalised Intel XScale
/// power function and `s ∈ [0, 1]`, dormant-enable with free switches.
///
/// ```
/// let cpu = dvs_power::presets::xscale_ideal();
/// assert_eq!(cpu.max_speed(), 1.0);
/// assert!((cpu.power().power(1.0) - 1.6).abs() < 1e-12);
/// ```
#[must_use]
pub fn xscale_ideal() -> Processor {
    Processor::new(
        PowerFunction::polynomial(XSCALE_BETA1, XSCALE_BETA2, 3.0).expect("valid coefficients"),
        SpeedDomain::continuous(0.0, 1.0).expect("valid bounds"),
    )
}

/// Non-ideal XScale: the five hardware speed steps of the real part
/// (150/400/600/800/1000 MHz, normalised) with the same power function.
///
/// ```
/// let cpu = dvs_power::presets::xscale_levels();
/// assert_eq!(cpu.domain().levels().unwrap().len(), 5);
/// ```
#[must_use]
pub fn xscale_levels() -> Processor {
    Processor::new(
        PowerFunction::polynomial(XSCALE_BETA1, XSCALE_BETA2, 3.0).expect("valid coefficients"),
        SpeedDomain::discrete(vec![0.15, 0.4, 0.6, 0.8, 1.0]).expect("valid levels"),
    )
}

/// The textbook cubic processor `P(s) = s³`, `s ∈ [0, 1]`, no leakage —
/// the model of the simulation sections that ignore leakage
/// (*"when `P(s) = s³`"*).
///
/// ```
/// let cpu = dvs_power::presets::cubic_ideal();
/// assert_eq!(cpu.critical_speed(), 0.0);
/// ```
#[must_use]
pub fn cubic_ideal() -> Processor {
    Processor::new(
        PowerFunction::polynomial(0.0, 1.0, 3.0).expect("valid coefficients"),
        SpeedDomain::continuous(0.0, 1.0).expect("valid bounds"),
    )
}

/// A leaky dormant-enable processor with explicit switch overheads, for the
/// leakage-aware experiments (`E_sw` expressed in the same normalised energy
/// units; the companion paper evaluates `E_sw ∈ {4 mJ, 12 mJ}`-scale values).
///
/// ```
/// let cpu = dvs_power::presets::leaky_with_overhead(0.4, 4.0);
/// assert!(cpu.critical_speed() > 0.0);
/// ```
#[must_use]
pub fn leaky_with_overhead(t_sw: f64, e_sw: f64) -> Processor {
    xscale_ideal().with_idle_mode(IdleMode::Sleep(
        DormantMode::new(t_sw, e_sw).expect("valid overheads"),
    ))
}

/// The classic measured Intel XScale power table (frequency steps
/// 150/400/600/800/1000 MHz normalised to speed, power in Watts), used
/// throughout the DVS literature; `P(s) = 0.08 + 1.52·s³` is its cubic fit.
/// Speeds are restricted to the five hardware levels.
///
/// ```
/// let cpu = dvs_power::presets::xscale_measured();
/// assert!((cpu.power().power(1.0) - 1.6).abs() < 1e-12);
/// assert_eq!(cpu.domain().levels().unwrap().len(), 5);
/// ```
#[must_use]
pub fn xscale_measured() -> Processor {
    Processor::new(
        PowerFunction::table(&[
            (0.15, 0.08),
            (0.4, 0.17),
            (0.6, 0.4),
            (0.8, 0.9),
            (1.0, 1.6),
        ])
        .expect("monotone convex table"),
        SpeedDomain::discrete(vec![0.15, 0.4, 0.6, 0.8, 1.0]).expect("valid levels"),
    )
}

/// An evenly spaced `k`-level non-ideal processor over `(0, 1]` with the
/// XScale power function — used by the discrete-vs-continuous sweep (F5).
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// ```
/// let cpu = dvs_power::presets::uniform_levels(4);
/// assert_eq!(cpu.domain().levels().unwrap(), &[0.25, 0.5, 0.75, 1.0]);
/// ```
#[must_use]
pub fn uniform_levels(k: usize) -> Processor {
    assert!(k > 0, "at least one speed level is required");
    let levels: Vec<f64> = (1..=k).map(|i| i as f64 / k as f64).collect();
    Processor::new(
        PowerFunction::polynomial(XSCALE_BETA1, XSCALE_BETA2, 3.0).expect("valid coefficients"),
        SpeedDomain::discrete(levels).expect("valid levels"),
    )
}

/// The processor a command line's `--power NAME` selects: `xscale`
/// ([`xscale_ideal`]), `cubic` ([`cubic_ideal`]) or `xscale-table`
/// ([`xscale_measured`]).
///
/// ```
/// assert_eq!(dvs_power::presets::by_name("cubic").unwrap().critical_speed(), 0.0);
/// assert!(dvs_power::presets::by_name("xscale-levels").is_none());
/// ```
#[must_use]
pub fn by_name(name: &str) -> Option<Processor> {
    match name {
        "xscale" => Some(xscale_ideal()),
        "cubic" => Some(cubic_ideal()),
        "xscale-table" => Some(xscale_measured()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xscale_power_at_full_speed() {
        let cpu = xscale_ideal();
        assert!((cpu.power().power(1.0) - 1.6).abs() < 1e-12);
        assert!((cpu.critical_speed() - (0.08f64 / 3.04).powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn level_presets_are_sorted_and_bounded() {
        let cpu = xscale_levels();
        let levels = cpu.domain().levels().unwrap();
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(cpu.max_speed(), 1.0);
    }

    #[test]
    fn uniform_levels_counts() {
        for k in 1..=16 {
            let cpu = uniform_levels(k);
            assert_eq!(cpu.domain().levels().unwrap().len(), k);
            assert!((cpu.max_speed() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn overhead_preset_carries_dormant_params() {
        let cpu = leaky_with_overhead(2.0, 12.0);
        match cpu.idle_mode() {
            IdleMode::Sleep(dm) => {
                assert_eq!(dm.switch_time(), 2.0);
                assert_eq!(dm.switch_energy(), 12.0);
            }
            IdleMode::AlwaysOn => panic!("expected dormant-enable"),
        }
    }
}
