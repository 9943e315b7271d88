//! Monotone piecewise-linear CDFs — the *CDF skeleton* representation.
//!
//! The paper's estimator assembles probe results into a small set of
//! `(value, cumulative-probability)` control points; this module is that
//! object, with exact interpolation, exact inversion (the inversion method
//! needs `F⁻¹`), and a derivative view for density readout.

use crate::{gallop, scan, scan_pair, CdfFn};

/// A non-decreasing piecewise-linear function from data values to `[0, 1]`,
/// interpreted as a CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseCdf {
    /// Control points, strictly increasing in `x`, non-decreasing in `F`;
    /// `points[0].1 == 0` and `points[last].1 == 1`.
    points: Vec<(f64, f64)>,
}

impl PiecewiseCdf {
    /// Builds from noisy estimates: sorts by `x`, merges duplicate `x`
    /// (averaging `F`), enforces monotonicity by isotonic running max, and
    /// rescales `F` affinely onto `[0, 1]`.
    ///
    /// This is how the skeleton turns Horvitz–Thompson estimates — which are
    /// unbiased but not individually monotone — into a usable CDF. Returns
    /// `None` if fewer than two distinct `x` values remain.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_noisy_points(mut raw: Vec<(f64, f64)>) -> Option<Self> {
        raw.retain(|(x, f)| x.is_finite() && f.is_finite());
        if raw.len() < 2 {
            return None;
        }
        // total_cmp: no panic path, and a total order even if the retain
        // above ever changes — sort order stays deterministic regardless.
        raw.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

        // Merge duplicate x by averaging F.
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            let x = raw[i].0;
            let mut sum = 0.0;
            let mut cnt = 0;
            while i < raw.len() && raw[i].0 == x {
                sum += raw[i].1;
                cnt += 1;
                i += 1;
            }
            merged.push((x, sum / cnt as f64));
        }
        if merged.len() < 2 {
            return None;
        }

        // Isotonic cleanup: running max.
        let mut run = f64::NEG_INFINITY;
        for p in &mut merged {
            run = run.max(p.1);
            p.1 = run;
        }

        // Affine rescale onto [0, 1].
        let f0 = merged[0].1;
        let f1 = merged[merged.len() - 1].1;
        let span = f1 - f0;
        if span <= 0.0 {
            // Completely flat: fall back to uniform between endpoints.
            let x0 = merged[0].0;
            let x1 = merged[merged.len() - 1].0;
            return Some(Self { points: vec![(x0, 0.0), (x1, 1.0)] });
        }
        for p in &mut merged {
            p.1 = ((p.1 - f0) / span).clamp(0.0, 1.0);
        }
        merged[0].1 = 0.0;
        let n = merged.len();
        merged[n - 1].1 = 1.0;
        Some(Self { points: merged })
    }

    /// The control points.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Probability density (the slope) at `x`; 0 outside the domain.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn density(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo || x > hi {
            return 0.0;
        }
        let i = self.segment_of(x);
        let (x0, f0) = self.points[i];
        let (x1, f1) = self.points[i + 1];
        if x1 > x0 {
            (f1 - f0) / (x1 - x0)
        } else {
            0.0
        }
    }

    /// Index of the segment containing `x` (clamped to valid segments).
    fn segment_of(&self, x: f64) -> usize {
        // First point with .0 > x, minus one; clamp to a valid segment start.
        let idx = self.points.partition_point(|&(px, _)| px <= x);
        idx.saturating_sub(1).min(self.points.len() - 2)
    }

    /// The CDF at `x`, strictly inside the domain, on segment `i`.
    fn interpolate(&self, i: usize, x: f64) -> f64 {
        let (x0, f0) = self.points[i];
        let (x1, f1) = self.points[i + 1];
        if x1 <= x0 {
            return f1;
        }
        f0 + (x - x0) / (x1 - x0) * (f1 - f0)
    }

    /// Largest absolute CDF difference to another CDF, evaluated on this
    /// skeleton's control points plus a uniform refinement grid. Both runs
    /// of points ascend, so each side is evaluated in forward passes
    /// ([`CdfFn::cdf_ascending`]).
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn sup_diff<C: CdfFn + ?Sized>(&self, other: &C, grid: usize) -> f64 {
        let (lo, hi) = self.domain();
        let mut d: f64 = 0.0;
        let points = &self.points;
        scan(other, points.len(), |i| points[i].0, |i, g| d = d.max((points[i].1 - g).abs()));
        let x = |i: usize| lo + (hi - lo) * i as f64 / grid as f64;
        scan_pair(self, other, grid + 1, x, |_, f, g| d = d.max((f - g).abs()));
        d
    }
}

impl CdfFn for PiecewiseCdf {
    fn cdf(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x <= lo {
            return 0.0;
        }
        if x >= hi {
            return 1.0;
        }
        self.interpolate(self.segment_of(x), x)
    }

    fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
    }

    /// Exact inverse: `inf { x : F(x) >= u }`. Flat segments resolve to their
    /// left endpoint.
    fn inv_cdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if u <= 0.0 {
            return self.points[0].0;
        }
        if u >= 1.0 {
            // First x where F reaches 1 (inf convention).
            let idx = self.points.partition_point(|&(_, f)| f < 1.0);
            return self.points[idx.min(self.points.len() - 1)].0;
        }
        // First point with F >= u.
        let idx = self.points.partition_point(|&(_, f)| f < u);
        debug_assert!(idx >= 1 && idx < self.points.len());
        let (x0, f0) = self.points[idx - 1];
        let (x1, f1) = self.points[idx];
        if f1 <= f0 {
            return x1;
        }
        x0 + (u - f0) / (f1 - f0) * (x1 - x0)
    }

    /// One forward segment cursor: each point's segment is searched from
    /// the previous point's ([`CdfFn::cdf`]'s clamps and arithmetic).
    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        debug_assert!(xs.windows(2).all(|w| w[0] <= w[1]), "points not ascending");
        let (lo, hi) = self.domain();
        let last = self.points.len() - 2;
        // Index of the first control point above `x`; it only moves forward.
        let mut above = 0;
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = if x <= lo {
                0.0
            } else if x >= hi {
                1.0
            } else {
                above = gallop(&self.points, above, |&(px, _)| px <= x);
                self.interpolate(above.saturating_sub(1).min(last), x)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;

    /// Builds from control points that are already clean: strictly
    /// increasing `x`, non-decreasing `F ∈ [0, 1]` with 0 at the first point
    /// and 1 at the last. Panics if fewer than two points are given or the
    /// invariants fail.
    fn from_points(points: Vec<(f64, f64)>) -> PiecewiseCdf {
        assert!(points.len() >= 2, "need at least two control points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "x not strictly increasing: {} >= {}", w[0].0, w[1].0);
            assert!(w[0].1 <= w[1].1 + 1e-12, "F not monotone: {} > {}", w[0].1, w[1].1);
        }
        let first = points[0].1;
        let last = points[points.len() - 1].1;
        assert!(first.abs() < 1e-9, "F must start at 0, got {first}");
        assert!((last - 1.0).abs() < 1e-9, "F must end at 1, got {last}");
        PiecewiseCdf { points }
    }

    fn simple() -> PiecewiseCdf {
        from_points(vec![(0.0, 0.0), (1.0, 0.25), (2.0, 0.25), (4.0, 1.0)])
    }

    #[test]
    fn eval_interpolates() {
        let p = simple();
        assert_eq!(p.cdf(-1.0), 0.0);
        assert_eq!(p.cdf(0.0), 0.0);
        assert!((p.cdf(0.5) - 0.125).abs() < 1e-12);
        assert!((p.cdf(1.5) - 0.25).abs() < 1e-12); // flat segment
        assert!((p.cdf(3.0) - 0.625).abs() < 1e-12);
        assert_eq!(p.cdf(4.0), 1.0);
        assert_eq!(p.cdf(9.0), 1.0);
    }

    #[test]
    fn cursor_matches_per_point_cdf() {
        let skeletons = [
            simple(),
            // 0.1 + (0.45 − 0.1) rounds below 0.45, so a point on x = 2
            // must be read on the segment it opens, not the one it closes.
            from_points(vec![(0.0, 0.0), (1.0, 0.1), (2.0, 0.45), (4.0, 1.0)]),
            // One segment, with ends off 0 and 1 by less than `from_points`
            // tolerates: only the domain clamps make `lo` and `hi` read
            // exactly 0 and 1.
            from_points(vec![(0.0, 5e-10), (4.0, 1.0 - 5e-10)]),
        ];
        // Points below, on and between control points (the flat segment
        // too), runs of equal points and points past the top.
        let xs = [-2.0, -0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0, 3.99, 4.0, 4.0, 7.0];
        for p in &skeletons {
            let mut out = [f64::NAN; 14];
            p.cdf_ascending(&xs, &mut out);
            for (&x, &f) in xs.iter().zip(&out) {
                assert_eq!(f.to_bits(), p.cdf(x).to_bits(), "x = {x}, {p:?}");
            }
        }
    }

    #[test]
    fn inverse_round_trips_off_flats() {
        let p = simple();
        for u in [0.01, 0.1, 0.2, 0.3, 0.6, 0.99] {
            let x = p.inv_cdf(u);
            assert!((p.cdf(x) - u).abs() < 1e-12, "u={u} x={x} cdf={}", p.cdf(x));
        }
    }

    #[test]
    fn inverse_resolves_flat_to_left_endpoint() {
        let p = simple();
        // F = 0.25 is attained on [1, 2]; inf convention picks x = 1.
        assert_eq!(p.inv_cdf(0.25), 1.0);
        assert_eq!(p.inv_cdf(0.0), 0.0);
        assert_eq!(p.inv_cdf(1.0), 4.0);
    }

    #[test]
    fn density_is_slope() {
        let p = simple();
        assert!((p.density(0.5) - 0.25).abs() < 1e-12);
        assert_eq!(p.density(1.5), 0.0);
        assert!((p.density(3.0) - 0.375).abs() < 1e-12);
        assert_eq!(p.density(-1.0), 0.0);
    }

    #[test]
    fn noisy_points_are_cleaned() {
        // Non-monotone, duplicated, unscaled inputs.
        let raw = vec![(0.0, 0.1), (1.0, 0.9), (1.0, 0.7), (2.0, 0.6), (3.0, 2.1)];
        let p = PiecewiseCdf::from_noisy_points(raw).unwrap();
        assert_eq!(p.points()[0].1, 0.0);
        assert_eq!(p.points().last().unwrap().1, 1.0);
        let mut prev = -1.0;
        for &(_, f) in p.points() {
            assert!(f >= prev);
            prev = f;
        }
        // Duplicate x was merged.
        assert_eq!(p.points().len(), 4);
    }

    #[test]
    fn noisy_points_flat_input_degrades_to_uniform() {
        let p = PiecewiseCdf::from_noisy_points(vec![(0.0, 0.5), (10.0, 0.5)]).unwrap();
        assert!((p.cdf(5.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn noisy_points_too_few_returns_none() {
        assert!(PiecewiseCdf::from_noisy_points(vec![(1.0, 0.5)]).is_none());
        assert!(PiecewiseCdf::from_noisy_points(vec![(1.0, 0.2), (1.0, 0.8)]).is_none());
        assert!(PiecewiseCdf::from_noisy_points(vec![(f64::NAN, 0.2), (1.0, 0.8)]).is_none());
    }

    #[test]
    fn sup_diff_to_self_is_zero() {
        let p = simple();
        assert!(p.sup_diff(&p, 64) < 1e-12);
    }

    #[test]
    fn sup_diff_to_uniform() {
        let p = from_points(vec![(0.0, 0.0), (1.0, 1.0)]);
        let d = p.sup_diff(&Uniform::new(0.0, 1.0), 32);
        assert!(d < 1e-12, "d = {d}");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_duplicate_x() {
        from_points(vec![(0.0, 0.0), (0.0, 0.5), (1.0, 1.0)]);
    }
}
