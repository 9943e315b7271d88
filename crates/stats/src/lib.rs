//! # dde-stats
//!
//! Statistical substrate for the ring-DDE reproduction of *"Effective Data
//! Density Estimation in Ring-Based P2P Networks"* (ICDE 2012).
//!
//! This crate knows nothing about P2P networks. It provides:
//!
//! * [`dist`] — parameterized data distributions with exact `pdf`/`cdf`/
//!   `inv_cdf` (the ground truth every experiment compares against), including
//!   truncation and mixture combinators;
//! * [`ecdf`] — empirical CDFs;
//! * [`histogram`] — equi-width histograms and histogram densities;
//! * [`equidepth`] — equi-depth (quantile) summaries, the compact local
//!   statistic each peer ships in probe replies;
//! * [`gk`] — the Greenwald–Khanna streaming quantile sketch, for peers that
//!   cannot afford to keep their data sorted in memory;
//! * [`piecewise`] — monotone piecewise-linear CDFs (the *CDF skeleton*
//!   representation), with exact inversion;
//! * [`inversion`] — the inversion method for random variate generation, the
//!   idea the paper's estimator is built on;
//! * [`kde`] — Gaussian kernel density estimation;
//! * [`metrics`] — distribution distance metrics (Kolmogorov–Smirnov, 1-D
//!   Wasserstein) and the relative error of scalar aggregates;
//! * [`rng`] — deterministic RNG stream derivation so every simulation is
//!   reproducible from a single seed;
//! * [`assert`](mod@assert) — DKW-derived confidence-band assertions for
//!   estimator accuracy tests (KS and Wasserstein bands).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod assert;
pub mod dist;
pub mod ecdf;
pub mod equidepth;
pub mod gk;
pub mod histogram;
pub mod inversion;
pub mod kde;
pub mod metrics;
pub mod piecewise;
pub mod rng;
pub mod streaming;

pub use dist::Distribution;
pub use ecdf::Ecdf;
pub use equidepth::EquiDepthSummary;
pub use histogram::Histogram;
pub use piecewise::PiecewiseCdf;

/// A function that behaves like a cumulative distribution function over a
/// bounded domain.
///
/// Implemented by ground-truth distributions, empirical CDFs, histograms,
/// piecewise skeletons, and kernel density estimates, so that error metrics
/// and the inversion sampler can treat them interchangeably.
pub trait CdfFn {
    /// The cumulative probability `P[X <= x]`, in `[0, 1]`.
    fn cdf(&self, x: f64) -> f64;

    /// The closed domain `[lo, hi]` outside of which `cdf` is 0 or 1.
    fn domain(&self) -> (f64, f64);

    /// The quantile function `inf { x : cdf(x) >= u }`.
    ///
    /// The default implementation inverts [`CdfFn::cdf`] by bisection, which
    /// is correct for any monotone CDF; implementors with an analytic inverse
    /// should override it.
    fn inv_cdf(&self, u: f64) -> f64 {
        invert_cdf_bisect(self, u)
    }
}

/// Inverts a monotone CDF by bisection over its domain.
///
/// Accurate to ~1e-12 of the domain width; `u` is clamped into `[0, 1]`.
pub fn invert_cdf_bisect<C: CdfFn + ?Sized>(cdf: &C, u: f64) -> f64 {
    let u = u.clamp(0.0, 1.0);
    let (mut lo, mut hi) = cdf.domain();
    debug_assert!(lo <= hi, "invalid domain [{lo}, {hi}]");
    if cdf.cdf(lo) >= u {
        return lo;
    }
    if cdf.cdf(hi) <= u {
        return hi;
    }
    // 64 bisection steps shrink the bracket by 2^64: far below f64 resolution.
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cdf.cdf(mid) < u {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo <= f64::EPSILON * (hi.abs() + lo.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Linear;
    impl CdfFn for Linear {
        fn cdf(&self, x: f64) -> f64 {
            (x / 10.0).clamp(0.0, 1.0)
        }
        fn domain(&self) -> (f64, f64) {
            (0.0, 10.0)
        }
    }

    #[test]
    fn bisect_inverts_linear_cdf() {
        for u in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let x = invert_cdf_bisect(&Linear, u);
            assert!((x - 10.0 * u).abs() < 1e-9, "u={u} x={x}");
        }
    }

    #[test]
    fn bisect_clamps_out_of_range_u() {
        assert_eq!(invert_cdf_bisect(&Linear, -0.5), 0.0);
        assert_eq!(invert_cdf_bisect(&Linear, 1.5), 10.0);
    }
}
