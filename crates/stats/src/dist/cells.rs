//! The equal-width-cell core of [`super::Zipf`] and [`super::HotspotZipf`]:
//! `m` equal-width cells on `[lo, hi]`, each with its own mass, and values
//! uniform within their cell — so the density is piecewise constant and the
//! CDF piecewise linear, both exactly computable for ground truth. The two
//! distributions differ only in which cell gets which Zipf weight.

/// Per-cell masses over `m` equal-width cells on `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Cells {
    lo: f64,
    hi: f64,
    /// Cumulative probability at each cell boundary: `cum[i]` = mass of cells
    /// `< i`; `cum[m] == 1`.
    pub(super) cum: Vec<f64>,
}

impl Cells {
    /// Normalises one weight per cell (in domain order) into cell masses.
    /// The caller checks that there is at least one cell and that
    /// `[lo, hi]` is a finite, non-empty interval.
    pub(super) fn new(lo: f64, hi: f64, weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        let mut cum = Vec::with_capacity(weights.len() + 1);
        cum.push(0.0);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cum.push(acc);
        }
        // Guard against accumulated rounding.
        *cum.last_mut().expect("nonempty") = 1.0;
        Self { lo, hi, cum }
    }

    /// Number of cells.
    pub(super) fn cells(&self) -> usize {
        self.cum.len() - 1
    }

    /// Mass of cell `i`.
    pub(super) fn mass(&self, i: usize) -> f64 {
        self.cum[i + 1] - self.cum[i]
    }

    fn cell_width(&self) -> f64 {
        (self.hi - self.lo) / self.cells() as f64
    }

    /// The cell index containing `x`, clamped to valid cells. The cast
    /// truncates, which is `floor` for a non-negative quotient, and
    /// saturates a negative or NaN one to cell 0, so this is `floor` and a
    /// clamp without `floor`'s out-of-line call on the baseline x86-64
    /// target.
    fn cell_of(&self, x: f64) -> usize {
        (((x - self.lo) / self.cell_width()) as usize).min(self.cells() - 1)
    }

    pub(super) fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    pub(super) fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        let i = self.cell_of(x);
        let cell_lo = self.lo + i as f64 * self.cell_width();
        let frac = (x - cell_lo) / self.cell_width();
        self.cum[i] + frac * self.mass(i)
    }

    pub(super) fn inv_cdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        // partition_point: first index where cum[idx] > u gives the cell.
        let idx = self.cum.partition_point(|&c| c <= u);
        if idx == 0 {
            return self.lo;
        }
        if idx > self.cells() {
            return self.hi;
        }
        let i = idx - 1;
        let mass = self.mass(i);
        let frac = if mass > 0.0 { (u - self.cum[i]) / mass } else { 0.0 };
        self.lo + (i as f64 + frac) * self.cell_width()
    }

    pub(super) fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        let i = self.cell_of(x);
        self.mass(i) / self.cell_width()
    }
}
