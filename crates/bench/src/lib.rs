//! # bench-suite — experiment harness for the evaluation
//!
//! This crate regenerates every table and figure of the (reconstructed)
//! evaluation — see `EXPERIMENTS.md` at the repository root for the
//! experiment index and the paper-vs-measured discussion.
//!
//! Each experiment lives in [`experiments`] as a pure function
//! `run(Scale) -> Table`; the `experiments` binary prints all of them and
//! writes CSV files.
//!
//! ```
//! use bench_suite::{experiments, Scale};
//!
//! let table = experiments::f1_load_sweep::run(Scale::Quick);
//! assert!(!table.rows().is_empty());
//! println!("{table}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod table;

pub use table::Table;

/// How big an experiment run should be.
///
/// `Quick` keeps unit tests and CI runs fast;
/// `Full` reproduces the figures at publication scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced seeds/grids for CI and tests.
    Quick,
    /// Full grids for the recorded results.
    Full,
}

impl Scale {
    /// Number of random seeds per configuration point.
    #[must_use]
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Full => 25,
        }
    }
}

/// Arithmetic mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 2.0, 2.0]) - 0.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mean of empty slice")]
    fn mean_of_empty_panics() {
        let _ = mean(&[]);
    }
}
