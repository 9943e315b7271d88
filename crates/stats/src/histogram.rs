//! Equi-width histograms.
//!
//! Used as (a) a density-estimate output format, (b) the payload gossiped by
//! the Push-Sum baseline, and (c) a compact way to compare estimated vs true
//! densities on a fixed grid.

use crate::CdfFn;

/// An equi-width histogram over `[lo, hi]` with `f64` bin masses.
///
/// Masses are kept as weights (not normalized counts) so histograms can be
/// merged, scaled, and averaged — the operations gossip aggregation needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<f64>,
}

impl Histogram {
    /// Creates an empty histogram with `bins` bins over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad interval [{lo}, {hi}]");
        Self { lo, hi, bins: vec![0.0; bins] }
    }

    /// Wraps existing bin masses over `[lo, hi]` — state an aggregation
    /// protocol kept in a flat buffer of its own.
    ///
    /// # Panics
    /// Panics if `masses` is empty or `lo >= hi`.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_masses(lo: f64, hi: f64, masses: Vec<f64>) -> Self {
        assert!(!masses.is_empty(), "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad interval [{lo}, {hi}]");
        Self { lo, hi, bins: masses }
    }

    /// Builds a histogram of `samples` with unit weight each.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_samples(lo: f64, hi: f64, bins: usize, samples: &[f64]) -> Self {
        let mut h = Self::new(lo, hi, bins);
        for &x in samples {
            h.add(x, 1.0);
        }
        h
    }

    /// Builds a histogram whose bin masses are exact under a known CDF —
    /// the ground-truth histogram used in accuracy metrics.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_cdf<C: CdfFn + ?Sized>(cdf: &C, bins: usize) -> Self {
        let (lo, hi) = cdf.domain();
        let mut h = Self::new(lo, hi, bins);
        let mut prev = cdf.cdf(lo);
        for i in 0..bins {
            let edge = lo + (hi - lo) * (i + 1) as f64 / bins as f64;
            let c = cdf.cdf(edge);
            h.bins[i] = (c - prev).max(0.0);
            prev = c;
        }
        h
    }

    /// Adds `weight` at value `x`; out-of-domain values are clamped into the
    /// first/last bin (data cannot escape the domain in our simulations, but
    /// floating-point boundaries can graze it).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn add(&mut self, x: f64, weight: f64) {
        let idx = self.bin_of(x);
        self.bins[idx] += weight;
    }

    /// The bin index containing `x`, clamped.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bin_of(&self, x: f64) -> usize {
        let n = self.bins.len();
        let raw = ((x - self.lo) / (self.hi - self.lo) * n as f64).floor() as isize;
        raw.clamp(0, n as isize - 1) as usize
    }

    /// Number of bins.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bins(&self) -> usize {
        self.bins.len()
    }

    /// The domain `[lo, hi]`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Total mass.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// The raw mass of bin `i`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn mass(&self, i: usize) -> f64 {
        self.bins[i]
    }

    /// The bin masses.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn masses(&self) -> &[f64] {
        &self.bins
    }

    /// Bin width.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// The midpoint of bin `i`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Probability density at `x` (mass-normalized), 0 if the histogram is
    /// empty or `x` is outside the domain.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn density(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        self.bins[self.bin_of(x)] / (total * self.bin_width())
    }

    /// Adds another histogram's masses into this one.
    ///
    /// # Panics
    /// Panics if shapes differ.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        assert!(
            (self.lo - other.lo).abs() < 1e-9 && (self.hi - other.hi).abs() < 1e-9,
            "domain mismatch"
        );
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Multiplies all masses by `factor` (Push-Sum halving).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn scale(&mut self, factor: f64) {
        for b in &mut self.bins {
            *b *= factor;
        }
    }

    /// Returns a normalized copy whose total mass is 1 (no-op if empty).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn normalized(&self) -> Histogram {
        let total = self.total();
        let mut out = self.clone();
        if total > 0.0 {
            out.scale(1.0 / total);
        }
        out
    }
}

impl CdfFn for Histogram {
    /// CDF with linear interpolation inside bins (mass spread uniformly).
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let total = self.total();
        if total <= 0.0 {
            // Empty histogram: fall back to uniform.
            return (x - self.lo) / (self.hi - self.lo);
        }
        let i = self.bin_of(x);
        let below: f64 = self.bins[..i].iter().sum();
        let bin_lo = self.lo + i as f64 * self.bin_width();
        let frac = (x - bin_lo) / self.bin_width();
        (below + frac * self.bins[i]) / total
    }

    fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;

    #[test]
    fn add_and_density() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5, 1.0);
        h.add(0.7, 1.0);
        h.add(9.99, 2.0);
        assert_eq!(h.total(), 4.0);
        assert_eq!(h.mass(0), 2.0);
        assert_eq!(h.mass(9), 2.0);
        // density integrates to 1: each unit-width bin contributes mass/total.
        assert!((h.density(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamps_out_of_domain() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0, 1.0);
        h.add(5.0, 1.0);
        assert_eq!(h.mass(0), 1.0);
        assert_eq!(h.mass(3), 1.0);
    }

    #[test]
    fn from_cdf_matches_uniform() {
        let h = Histogram::from_cdf(&Uniform::new(0.0, 1.0), 8);
        for i in 0..8 {
            assert!((h.mass(i) - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_interpolates() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5, 3.0);
        h.add(1.5, 1.0);
        assert_eq!(h.cdf(0.0), 0.0);
        assert!((h.cdf(1.0) - 0.75).abs() < 1e-12);
        assert!((h.cdf(0.5) - 0.375).abs() < 1e-12);
        assert_eq!(h.cdf(2.0), 1.0);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = Histogram::from_samples(0.0, 1.0, 4, &[0.1, 0.9]);
        let b = Histogram::from_samples(0.0, 1.0, 4, &[0.1]);
        a.merge(&b);
        assert_eq!(a.total(), 3.0);
        assert_eq!(a.mass(0), 2.0);
        a.scale(0.5);
        assert_eq!(a.total(), 1.5);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 1.0, 8);
        a.merge(&b);
    }

    #[test]
    fn normalized_total_is_one() {
        let h = Histogram::from_samples(0.0, 1.0, 4, &[0.1, 0.2, 0.3]).normalized();
        assert!((h.total() - 1.0).abs() < 1e-12);
    }
}
