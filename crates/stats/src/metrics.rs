//! Distance metrics between distributions.
//!
//! The 1-D Wasserstein (earth mover's) distance between CDFs and the
//! relative error of scalar aggregates. The Kolmogorov–Smirnov statistic,
//! the headline accuracy number, is scored by `PiecewiseCdf::sup_diff` (an
//! estimate against a reference) and `Ecdf::ks_distance_to` (a sample
//! against a reference).

use crate::{scan_pair, CdfFn};

/// Default grid resolution for numeric metrics.
pub const DEFAULT_GRID: usize = 2048;

/// 1-D Wasserstein-1 distance `∫ |F(x) − G(x)| dx` by the trapezoid rule
/// (each CDF in forward passes, [`CdfFn::cdf_ascending`]).
pub fn wasserstein1<A: CdfFn + ?Sized, B: CdfFn + ?Sized>(a: &A, b: &B, grid: usize) -> f64 {
    let (lo, hi) = union_domain(a, b);
    let step = (hi - lo) / grid as f64;
    let mut sum = 0.0;
    let mut prev = 0.0;
    let x = |i: usize| if i == 0 { lo } else { lo + step * i as f64 };
    scan_pair(a, b, grid + 1, x, |i, fa, fb| {
        let cur = (fa - fb).abs();
        if i > 0 {
            sum += 0.5 * (prev + cur) * step;
        }
        prev = cur;
    });
    sum
}

/// Relative error `|est − truth| / truth` (`truth != 0`).
pub fn relative_error(est: f64, truth: f64) -> f64 {
    debug_assert!(truth != 0.0);
    (est - truth).abs() / truth.abs()
}

fn union_domain<A: CdfFn + ?Sized, B: CdfFn + ?Sized>(a: &A, b: &B) -> (f64, f64) {
    let (alo, ahi) = a.domain();
    let (blo, bhi) = b.domain();
    (alo.min(blo), ahi.max(bhi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;

    #[test]
    fn wasserstein_of_shifted_uniforms_is_shift() {
        let a = Uniform::new(0.0, 1.0);
        let b = Uniform::new(0.25, 1.25);
        let w = wasserstein1(&a, &b, 4096);
        assert!((w - 0.25).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
    }
}
