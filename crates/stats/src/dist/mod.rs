//! Parameterized data distributions with exact `pdf` / `cdf` / `inv_cdf`.
//!
//! These serve two roles in the reproduction:
//!
//! 1. **Workload generation** — datasets are drawn from them;
//! 2. **Ground truth** — every accuracy metric compares an estimate against
//!    the generating distribution's exact CDF/PDF.
//!
//! All distributions operate on a *bounded* domain (truncating and
//! renormalizing where the natural support is unbounded), because the P2P
//! data domain mapped onto the ring is bounded. The paper's headline claim is
//! that estimation quality is *independent* of which of these generated the
//! data ("distribution-free"), which experiment F3 tests across this whole
//! module.

mod cells;
mod exponential;
mod hotspot;
mod lognormal;
mod mixture;
mod normal;
mod pareto;
mod truncated;
mod uniform;
mod zipf;

pub use exponential::Exponential;
pub use hotspot::HotspotZipf;
pub use lognormal::LogNormal;
pub use mixture::Mixture;
pub use normal::{erf, inv_norm_cdf, std_norm_cdf, Normal};
pub use pareto::BoundedPareto;
pub use truncated::Truncated;
pub use uniform::Uniform;
pub use zipf::Zipf;

use crate::CdfFn;
use rand::RngCore;

/// A fully-specified continuous probability distribution on a bounded domain.
///
/// Object safe: the simulator stores distributions as `Box<dyn Distribution>`.
pub trait Distribution: CdfFn + Send + Sync {
    /// Probability density at `x` (0 outside the domain).
    fn pdf(&self, x: f64) -> f64;

    /// Draws one sample.
    ///
    /// The default implementation uses the inversion method,
    /// `x = F⁻¹(u), u ~ U(0,1)` — the same idea the paper builds its
    /// estimator on (see [`crate::inversion`]).
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng as _;
        let u: f64 = RngAdapter(rng).gen();
        self.inv_cdf(u)
    }

    /// Short human-readable name used in experiment tables.
    fn name(&self) -> &'static str;
}

/// Adapter so `&mut dyn RngCore` can be used with `rand::Rng` extension
/// methods inside default trait methods.
struct RngAdapter<'a>(&'a mut dyn RngCore);

impl RngCore for RngAdapter<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Declarative description of a distribution, for scenario configs.
///
/// [`DistributionKind::build`] instantiates it on a concrete domain,
/// truncating/renormalizing as needed so the result is exact on that domain.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionKind {
    /// Uniform over the domain.
    Uniform,
    /// Normal centred at `center_frac` of the domain with standard deviation
    /// `std_frac` of the domain width, truncated to the domain.
    Normal {
        /// Mean position as a fraction of the domain (0.5 = centre).
        center_frac: f64,
        /// Standard deviation as a fraction of the domain width.
        std_frac: f64,
    },
    /// Exponential decaying from the domain's low end; `rate_scale` rates per
    /// domain width (larger = more concentrated near `lo`).
    Exponential {
        /// Decay rates per domain width.
        rate_scale: f64,
    },
    /// Bounded Pareto anchored at the low end with tail index `shape`.
    Pareto {
        /// Tail index α (smaller = heavier tail).
        shape: f64,
    },
    /// Log-normal with `sigma` shape parameter, truncated to the domain.
    LogNormal {
        /// Shape parameter σ of the underlying normal.
        sigma: f64,
    },
    /// Zipf-distributed cell masses over `cells` equal-width cells.
    Zipf {
        /// Number of equal-width cells.
        cells: usize,
        /// Zipf exponent `s` (larger = more skew).
        exponent: f64,
    },
    /// Zipf-distributed cell masses clustered into `arcs` contiguous hotspot
    /// arcs (the adversarial "flash topic" workload; see
    /// [`HotspotZipf`]).
    HotspotZipf {
        /// Number of equal-width cells.
        cells: usize,
        /// Zipf exponent `s` (larger = more skew).
        exponent: f64,
        /// Number of evenly-spaced hotspot arcs.
        arcs: usize,
    },
    /// Two-component Gaussian mixture (a classic "hard" multi-modal case).
    Bimodal,
    /// Three-component mixture with very unequal weights and scales.
    Trimodal,
}

impl DistributionKind {
    /// Instantiates this distribution on `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or any parameter is out of range.
    pub fn build(&self, lo: f64, hi: f64) -> Box<dyn Distribution> {
        assert!(lo < hi, "empty domain [{lo}, {hi}]");
        let w = hi - lo;
        match *self {
            DistributionKind::Uniform => Box::new(Uniform::new(lo, hi)),
            DistributionKind::Normal { center_frac, std_frac } => {
                Box::new(Truncated::new(Normal::new(lo + center_frac * w, std_frac * w), lo, hi))
            }
            DistributionKind::Exponential { rate_scale } => {
                Box::new(Truncated::new(Exponential::new(lo, rate_scale / w), lo, hi))
            }
            DistributionKind::Pareto { shape } => Box::new(BoundedPareto::new(lo, hi, shape)),
            DistributionKind::LogNormal { sigma } => {
                Box::new(Truncated::new(LogNormal::new(lo, w, sigma), lo, hi))
            }
            DistributionKind::Zipf { cells, exponent } => {
                Box::new(Zipf::new(lo, hi, cells, exponent))
            }
            DistributionKind::HotspotZipf { cells, exponent, arcs } => {
                Box::new(HotspotZipf::new(lo, hi, cells, exponent, arcs))
            }
            DistributionKind::Bimodal => {
                let c1 = Truncated::new(Normal::new(lo + 0.25 * w, 0.06 * w), lo, hi);
                let c2 = Truncated::new(Normal::new(lo + 0.72 * w, 0.10 * w), lo, hi);
                Box::new(Mixture::new(vec![(0.55, Box::new(c1)), (0.45, Box::new(c2))], "bimodal"))
            }
            DistributionKind::Trimodal => {
                let c1 = Truncated::new(Normal::new(lo + 0.12 * w, 0.02 * w), lo, hi);
                let c2 = Truncated::new(Normal::new(lo + 0.50 * w, 0.15 * w), lo, hi);
                let c3 = Truncated::new(Normal::new(lo + 0.90 * w, 0.04 * w), lo, hi);
                Box::new(Mixture::new(
                    vec![(0.20, Box::new(c1)), (0.65, Box::new(c2)), (0.15, Box::new(c3))],
                    "trimodal",
                ))
            }
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            DistributionKind::Uniform => "uniform",
            DistributionKind::Normal { .. } => "normal",
            DistributionKind::Exponential { .. } => "exponential",
            DistributionKind::Pareto { .. } => "pareto",
            DistributionKind::LogNormal { .. } => "lognormal",
            DistributionKind::Zipf { .. } => "zipf",
            DistributionKind::HotspotZipf { .. } => "hotspot-zipf",
            DistributionKind::Bimodal => "bimodal",
            DistributionKind::Trimodal => "trimodal",
        }
    }

    /// The standard suite used by experiment F3 (the distribution-free claim).
    pub fn standard_suite() -> Vec<DistributionKind> {
        vec![
            DistributionKind::Uniform,
            DistributionKind::Normal { center_frac: 0.5, std_frac: 0.12 },
            DistributionKind::Exponential { rate_scale: 8.0 },
            DistributionKind::Pareto { shape: 1.2 },
            DistributionKind::Zipf { cells: 64, exponent: 1.1 },
            DistributionKind::Bimodal,
        ]
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Asserts the basic analytic invariants every distribution must satisfy:
    /// CDF monotone in [0,1] hitting 0/1 at the ends, PDF non-negative and
    /// integrating to ~1, inverse CDF a right-inverse of the CDF, and samples
    /// matching the CDF (KS test at a loose threshold).
    pub fn check_distribution(d: &dyn Distribution, tol_integral: f64) {
        let (lo, hi) = d.domain();
        assert!(lo < hi);
        assert!(d.cdf(lo) <= 1e-9, "cdf(lo) = {}", d.cdf(lo));
        assert!(d.cdf(hi) >= 1.0 - 1e-9, "cdf(hi) = {}", d.cdf(hi));

        // Monotonicity, pdf >= 0, and per-cell pdf/cdf consistency:
        // ∫_cell pdf ≈ ΔCDF, with a 32-point midpoint rule per cell so even
        // sharply peaked densities (Pareto near its anchor) integrate well.
        let n = 512;
        let sub = 32;
        let mut prev = d.cdf(lo);
        let mut integral = 0.0;
        let step = (hi - lo) / n as f64;
        for i in 1..=n {
            let x = lo + step * i as f64;
            let c = d.cdf(x);
            assert!(c + 1e-12 >= prev, "cdf not monotone at x={x}: {c} < {prev}");
            let substep = step / sub as f64;
            let mut cell = 0.0;
            for j in 0..sub {
                let xm = x - step + (j as f64 + 0.5) * substep;
                let p = d.pdf(xm);
                assert!(p >= 0.0, "pdf negative at {xm}: {p}");
                cell += p * substep;
            }
            let dcdf = c - prev;
            assert!(
                (cell - dcdf).abs() <= 0.05 * dcdf.max(1e-12) + 1e-5,
                "cell [{}, {x}]: ∫pdf = {cell}, ΔCDF = {dcdf}",
                x - step
            );
            integral += cell;
            prev = c;
        }
        // The per-cell checks above already prove ∫pdf == ΔCDF everywhere;
        // this global check only guards normalization, so it gets a floor
        // covering quadrature error at density discontinuities.
        let tol = tol_integral.max(2e-3);
        assert!((integral - 1.0).abs() < tol, "pdf integrates to {integral}, expected ~1");

        // inv_cdf is a right-inverse of cdf.
        for &u in &[0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let x = d.inv_cdf(u);
            assert!((d.cdf(x) - u).abs() < 1e-6, "cdf(inv_cdf({u})) = {} (x = {x})", d.cdf(x));
        }

        // Samples follow the CDF: one-sample KS test, loose threshold.
        let mut rng = StdRng::seed_from_u64(7);
        let m = 4000;
        let mut xs: Vec<f64> = (0..m).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let mut ks: f64 = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            assert!((lo..=hi).contains(&x), "sample {x} outside domain");
            let emp_hi = (i + 1) as f64 / m as f64;
            let emp_lo = i as f64 / m as f64;
            let c = d.cdf(x);
            ks = ks.max((c - emp_lo).abs()).max((emp_hi - c).abs());
        }
        // KS critical value at alpha=0.001 for n=4000 is ~0.031.
        assert!(ks < 0.035, "samples fail KS test: D = {ks}");
    }
}
