//! Distance metrics between distributions.
//!
//! Every experiment reports estimation error through these: the
//! Kolmogorov–Smirnov statistic on CDFs (the headline accuracy number), the
//! 1-D Wasserstein (earth mover's) distance, and the relative error of
//! scalar aggregates.

use crate::{scan_pair, CdfFn};

/// Default grid resolution for numeric metrics.
pub const DEFAULT_GRID: usize = 2048;

/// Kolmogorov–Smirnov distance `sup_x |F(x) − G(x)|`, evaluated on a uniform
/// grid of `grid + 1` points over the union of both domains (each CDF in
/// forward passes, [`CdfFn::cdf_ascending`]).
pub fn ks_distance<A: CdfFn + ?Sized, B: CdfFn + ?Sized>(a: &A, b: &B, grid: usize) -> f64 {
    let (lo, hi) = union_domain(a, b);
    let mut d: f64 = 0.0;
    let x = |i: usize| lo + (hi - lo) * i as f64 / grid as f64;
    scan_pair(a, b, grid + 1, x, |_, fa, fb| d = d.max((fa - fb).abs()));
    d
}

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
    fn ks_of_identical_is_zero() {
        let u = Uniform::new(0.0, 1.0);
        assert_eq!(ks_distance(&u, &u, 256), 0.0);
    }

    #[test]
    fn ks_of_shifted_uniforms() {
        // U(0,1) vs U(0.5,1.5): max CDF gap is 0.5 at x ∈ {0.5, 1.0}.
        let a = Uniform::new(0.0, 1.0);
        let b = Uniform::new(0.5, 1.5);
        let d = ks_distance(&a, &b, 1024);
        assert!((d - 0.5).abs() < 1e-3, "d = {d}");
    }

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
