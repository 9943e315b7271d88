//! Zipf-cell distribution: Zipf-distributed mass over equal-width cells.
//!
//! The classic P2P workload skew: the domain is divided into `m` equal-width
//! cells and cell `i` (after a pseudo-random permutation *is not* applied —
//! cells are in rank order, so mass decays monotonically across the domain)
//! receives probability `∝ 1/(i+1)^s`. Values are continuous: uniform within
//! their cell, so the density is piecewise constant and the CDF piecewise
//! linear — both exactly computable for ground truth.

use super::cells::Cells;
use super::Distribution;
use crate::CdfFn;

/// Zipf-distributed cell masses over `m` equal-width cells on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    exponent: f64,
    cells: Cells,
}

impl Zipf {
    /// Creates a Zipf-cell distribution with `cells` cells and exponent `s`.
    ///
    /// # Panics
    /// Panics if `cells == 0`, `lo >= hi`, or `s < 0`.
    pub fn new(lo: f64, hi: f64, cells: usize, s: f64) -> Self {
        assert!(cells > 0, "need at least one cell");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad interval [{lo}, {hi}]");
        assert!(s.is_finite() && s >= 0.0, "bad exponent {s}");
        let weights: Vec<f64> = (0..cells).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Self { exponent: s, cells: Cells::new(lo, hi, &weights) }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells.cells()
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }
}

impl CdfFn for Zipf {
    fn cdf(&self, x: f64) -> f64 {
        self.cells.cdf(x)
    }

    fn domain(&self) -> (f64, f64) {
        self.cells.domain()
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        self.cells.inv_cdf(u)
    }
}

impl Distribution for Zipf {
    fn pdf(&self, x: f64) -> f64 {
        self.cells.pdf(x)
    }

    fn name(&self) -> &'static str {
        "zipf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_distribution;

    #[test]
    fn analytic_invariants() {
        check_distribution(&Zipf::new(0.0, 100.0, 64, 1.1), 1e-9);
        check_distribution(&Zipf::new(0.0, 1.0, 10, 2.0), 1e-9);
        check_distribution(&Zipf::new(-50.0, 50.0, 128, 0.5), 1e-9);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(0.0, 10.0, 16, 0.0);
        for x in [1.0, 2.5, 5.0, 7.75] {
            assert!((z.cdf(x) - x / 10.0).abs() < 1e-12, "x={x}: {}", z.cdf(x));
        }
    }

    #[test]
    fn first_cell_has_largest_mass() {
        let z = Zipf::new(0.0, 1.0, 32, 1.2);
        let first = z.cdf(1.0 / 32.0);
        let second = z.cdf(2.0 / 32.0) - first;
        assert!(first > second, "first={first} second={second}");
        // With s=1.2 over 32 cells, the head cell takes a large share.
        assert!(first > 0.2);
    }

    #[test]
    fn inv_cdf_hits_cell_boundaries() {
        let z = Zipf::new(0.0, 64.0, 64, 1.0);
        for i in 0..=64usize {
            let u = z.cells.cum[i];
            let x = z.inv_cdf(u);
            assert!((z.cdf(x) - u).abs() < 1e-12, "i={i} u={u} x={x}");
        }
    }
}
