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
//! * [`piecewise`] — monotone piecewise-linear CDFs (the *CDF skeleton*
//!   representation), with exact inversion;
//! * [`inversion`] — the inversion method for random variate generation, the
//!   idea the paper's estimator is built on;
//! * [`metrics`] — the 1-D Wasserstein distance and the relative error of
//!   scalar aggregates;
//! * [`rng`] — deterministic RNG stream derivation so every simulation is
//!   reproducible from a single seed;
//! * [`assert`](mod@assert) — DKW-derived confidence-band assertions for
//!   estimator accuracy tests (KS bands).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod assert;
pub mod dist;
pub mod ecdf;
pub mod equidepth;
pub mod histogram;
pub mod inversion;
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

    /// Evaluates [`CdfFn::cdf`] at every point of `xs` into the same index
    /// of `out`, in one ascending pass.
    ///
    /// The contract: `xs` is non-decreasing and holds no NaN, `out` is as
    /// long as `xs`, and every result equals `cdf(x)` bit for bit. Scoring
    /// evaluates both sides of every distance through this, so an
    /// implementor with a sorted representation ([`Ecdf`]'s samples,
    /// [`PiecewiseCdf`]'s control points) overrides it with a forward
    /// cursor instead of a search per point. The default calls `cdf` per
    /// point.
    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.cdf(x);
        }
    }
}

/// Points per chunk of [`scan`] and [`scan_pair`]: they evaluate into fixed
/// stack buffers of this size, so scoring allocates nothing, and its memory
/// grows neither with the sample count nor with the grid.
const CHUNK: usize = 256;

/// Evaluates `c` at the non-decreasing points `point(0)`, …,
/// `point(n − 1)` through [`CdfFn::cdf_ascending`], one fixed-size chunk at
/// a time, and hands `visit` each index with its value, in index order.
pub(crate) fn scan<C: CdfFn + ?Sized>(
    c: &C,
    n: usize,
    point: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, f64),
) {
    let (mut xs, mut fs) = ([0.0; CHUNK], [0.0; CHUNK]);
    for start in (0..n).step_by(CHUNK) {
        let len = CHUNK.min(n - start);
        for (j, x) in xs[..len].iter_mut().enumerate() {
            *x = point(start + j);
        }
        c.cdf_ascending(&xs[..len], &mut fs[..len]);
        for (j, &f) in fs[..len].iter().enumerate() {
            visit(start + j, f);
        }
    }
}

/// [`scan`] for two CDFs at the same points: `visit` gets each index with
/// `a`'s value and `b`'s.
pub(crate) fn scan_pair<A: CdfFn + ?Sized, B: CdfFn + ?Sized>(
    a: &A,
    b: &B,
    n: usize,
    point: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, f64, f64),
) {
    let (mut xs, mut fa, mut fb) = ([0.0; CHUNK], [0.0; CHUNK], [0.0; CHUNK]);
    for start in (0..n).step_by(CHUNK) {
        let len = CHUNK.min(n - start);
        for (j, x) in xs[..len].iter_mut().enumerate() {
            *x = point(start + j);
        }
        a.cdf_ascending(&xs[..len], &mut fa[..len]);
        b.cdf_ascending(&xs[..len], &mut fb[..len]);
        for (j, (&fa, &fb)) in fa[..len].iter().zip(&fb[..len]).enumerate() {
            visit(start + j, fa, fb);
        }
    }
}

/// `s.partition_point(pred)`, searched forward from `from`: `pred` must hold
/// on `s[..from]` (and, as for `partition_point`, on a prefix of `s`).
/// Doubling steps bracket the point, then a binary search finds it inside
/// the last step, so a cursor that moves `d` places pays `O(log d)`
/// comparisons, and one that stays put pays one.
pub(crate) fn gallop<T>(s: &[T], from: usize, mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut lo = from;
    let mut step = 1;
    let hi = loop {
        let probe = lo + step;
        if probe > s.len() {
            break s.len();
        }
        if !pred(&s[probe - 1]) {
            break probe - 1;
        }
        lo = probe;
        step *= 2;
    };
    lo + s[lo..hi].partition_point(pred)
}

/// Sorts `values` ascending by [`f64::total_cmp`], bit for bit as
/// `sort_by(f64::total_cmp)` would, through order-preserving integer keys.
///
/// `total_cmp` orders `f64`s as `i64` orders `b ^ (((b >> 63) as u64 >> 1)
/// as i64)` with `b = x.to_bits() as i64`; the map is its own inverse, and
/// two keys are equal only when the bits are, so an unstable integer sort
/// of the keys gives the one sorted order. Mapping with
/// `into_iter().map(…).collect()` reuses the vector's buffer both ways.
pub fn sort_total(values: Vec<f64>) -> Vec<f64> {
    fn key(b: i64) -> i64 {
        b ^ ((((b >> 63) as u64) >> 1) as i64)
    }
    let mut keys: Vec<i64> = values.into_iter().map(|x| key(x.to_bits() as i64)).collect();
    keys.sort_unstable();
    keys.into_iter().map(|k| f64::from_bits(key(k) as u64)).collect()
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
