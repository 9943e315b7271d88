//! Hotspot-Zipf distribution: Zipf-ranked cell masses clustered into
//! contiguous hotspot arcs.
//!
//! The plain [`super::Zipf`] workload puts its heavy cells in rank order
//! across the domain, so the skew is spread out monotonically. Real P2P
//! hotspots are *spatially contiguous*: a popular keyword prefix or a flash
//! topic maps to one contiguous arc of the ring that absorbs most of the
//! traffic. This distribution models that: the domain is divided into `m`
//! equal-width cells, `arcs` evenly-spaced hotspot centres are chosen, and
//! cells are Zipf-ranked by their (wrap-around) distance to the nearest
//! centre — so mass forms `arcs` contiguous bumps that decay away from each
//! centre. Values are uniform within their cell, keeping the density
//! piecewise constant and the CDF piecewise linear, both exactly computable
//! for ground truth.

use super::cells::Cells;
use super::Distribution;
use crate::CdfFn;

/// Zipf-distributed cell masses concentrated into `arcs` contiguous hotspot
/// arcs over `m` equal-width cells on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotZipf {
    exponent: f64,
    arcs: usize,
    cells: Cells,
}

impl HotspotZipf {
    /// Creates a hotspot-Zipf distribution with `cells` cells, exponent `s`,
    /// and `arcs` evenly-spaced hotspot arcs.
    ///
    /// # Panics
    /// Panics if `cells == 0`, `arcs == 0`, `arcs > cells`, `lo >= hi`, or
    /// `s < 0`.
    pub fn new(lo: f64, hi: f64, cells: usize, s: f64, arcs: usize) -> Self {
        assert!(cells > 0, "need at least one cell");
        assert!(arcs > 0 && arcs <= cells, "arcs {arcs} out of 1..={cells}");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad interval [{lo}, {hi}]");
        assert!(s.is_finite() && s >= 0.0, "bad exponent {s}");
        // Rank cells by wrap-around distance to the nearest arc centre
        // (ties broken by cell index, so the ranking is total and
        // deterministic), then hand rank r the Zipf weight 1/(r+1)^s.
        let dist = |i: usize| -> f64 {
            let pos = i as f64 + 0.5;
            (0..arcs)
                .map(|j| {
                    let centre = (j as f64 + 0.5) * cells as f64 / arcs as f64;
                    let d = (pos - centre).abs();
                    d.min(cells as f64 - d)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let mut order: Vec<usize> = (0..cells).collect();
        order.sort_by(|&a, &b| dist(a).total_cmp(&dist(b)).then(a.cmp(&b)));
        let mut weights = vec![0.0; cells];
        for (rank, &cell) in order.iter().enumerate() {
            weights[cell] = 1.0 / ((rank + 1) as f64).powf(s);
        }
        Self { exponent: s, arcs, cells: Cells::new(lo, hi, &weights) }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells.cells()
    }

    /// Number of hotspot arcs.
    pub fn arcs(&self) -> usize {
        self.arcs
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Mass of cell `i` (for tests and bias diagnostics).
    pub fn cell_mass(&self, i: usize) -> f64 {
        self.cells.mass(i)
    }
}

impl CdfFn for HotspotZipf {
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

impl Distribution for HotspotZipf {
    fn pdf(&self, x: f64) -> f64 {
        self.cells.pdf(x)
    }

    fn name(&self) -> &'static str {
        "hotspot-zipf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::test_util::check_distribution;

    #[test]
    fn analytic_invariants() {
        check_distribution(&HotspotZipf::new(0.0, 1000.0, 64, 1.1, 2), 1e-9);
        check_distribution(&HotspotZipf::new(0.0, 1.0, 16, 2.0, 1), 1e-9);
        check_distribution(&HotspotZipf::new(-50.0, 50.0, 128, 0.8, 4), 1e-9);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let h = HotspotZipf::new(0.0, 10.0, 16, 0.0, 3);
        for x in [1.0, 2.5, 5.0, 7.75] {
            assert!((h.cdf(x) - x / 10.0).abs() < 1e-12, "x={x}: {}", h.cdf(x));
        }
    }

    #[test]
    fn mass_decays_away_from_each_arc_centre() {
        // With one arc over an even cell count the centre straddles a cell
        // boundary; walking outward from it, per-cell mass must be
        // non-increasing on both sides — the "contiguous bump" property.
        let cells = 32;
        let h = HotspotZipf::new(0.0, 1.0, cells, 1.2, 1);
        let centre = cells / 2;
        for i in centre..cells - 1 {
            assert!(
                h.cell_mass(i) >= h.cell_mass(i + 1) - 1e-15,
                "right flank not decaying at cell {i}"
            );
        }
        for i in (1..centre).rev() {
            assert!(
                h.cell_mass(i) >= h.cell_mass(i - 1) - 1e-15,
                "left flank not decaying at cell {i}"
            );
        }
    }

    #[test]
    fn hotspot_arcs_absorb_most_mass() {
        // Two arcs, strong skew: the quarter of the domain nearest the two
        // centres should hold a large majority of the mass.
        let cells = 64;
        let h = HotspotZipf::new(0.0, 1.0, cells, 1.3, 2);
        let near: f64 = (0..cells)
            .filter(|&i| {
                let pos = i as f64 + 0.5;
                let d = [16.0, 48.0]
                    .iter()
                    .map(|c| {
                        let d = (pos - c).abs();
                        d.min(cells as f64 - d)
                    })
                    .fold(f64::INFINITY, f64::min);
                d <= cells as f64 / 8.0
            })
            .map(|i| h.cell_mass(i))
            .sum();
        assert!(near > 0.6, "hotspot quarter holds only {near} of the mass");
    }

    #[test]
    fn inv_cdf_hits_cell_boundaries() {
        let h = HotspotZipf::new(0.0, 64.0, 64, 1.0, 2);
        for i in 0..=64usize {
            let u = h.cells.cum[i];
            let x = h.inv_cdf(u);
            assert!((h.cdf(x) - u).abs() < 1e-12, "i={i} u={u} x={x}");
        }
    }
}
