//! Accuracy metrics: the grid the KS scores read and the relative error of
//! scalar aggregates. The Kolmogorov–Smirnov statistic, the headline
//! accuracy number, is scored by `PiecewiseCdf::sup_diff` (an estimate
//! against a reference) and `Ecdf::ks_distance_to` (a sample against a
//! reference).

/// Default grid resolution for numeric metrics.
pub const DEFAULT_GRID: usize = 2048;

/// Relative error `|est − truth| / truth` (`truth != 0`).
pub fn relative_error(est: f64, truth: f64) -> f64 {
    debug_assert!(truth != 0.0);
    (est - truth).abs() / truth.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
    }
}
