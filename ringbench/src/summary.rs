//! Order statistics for timings and for sets of runs.

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so run-set spreads read the
/// same here as in any script that checks them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let d = sorted(values);
    let n = d.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Whether `n` samples leave at least ten beyond the `q`-quantile — the rule
/// a reported tail percentile must satisfy.
pub fn supports_tail(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// The highest of the conventional percentiles that `n` samples support
/// (see [`supports_tail`]), or `None` below 20 samples.
pub fn highest_tail(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.5].into_iter().find(|&q| supports_tail(n, q))
}

/// The arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.95), 9.5);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert!(supports_tail(100, 0.9));
        assert!(!supports_tail(99, 0.9));
        assert!(supports_tail(1000, 0.99));
        assert_eq!(highest_tail(19), None);
        assert_eq!(highest_tail(20), Some(0.5));
        assert_eq!(highest_tail(100), Some(0.9));
        assert_eq!(highest_tail(999), Some(0.95));
        assert_eq!(highest_tail(1000), Some(0.99));
        assert_eq!(highest_tail(100_000), Some(0.9999));
    }
}
