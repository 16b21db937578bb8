//! Order statistics for the noise rules: an end-to-end metric is the
//! median over repetitions, and a percentile is reported only when at
//! least ten samples lie beyond it.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` by linear interpolation between order statistics.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Whether `n` samples support percentile `p` (in `(0, 100)`): at least
/// [`MIN_BEYOND`] of them must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64 * (100.0 - p) / 100.0).floor() as usize >= MIN_BEYOND
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample, or
/// `None` when the sample is too small to support it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if !supports(sorted.len(), p) {
        return None;
    }
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// `|a − b|` as a share of `a` (the first set's value is the base).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    (b - a).abs() / a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_rule_refuses_p99_on_500_samples_and_allows_p90() {
        let sample: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99.0), None);
        assert_eq!(percentile(&sample, 90.0), Some(450.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
    }

    #[test]
    fn relative_difference_uses_the_first_value_as_base() {
        assert_eq!(rel_diff(10.0, 11.0), 0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
