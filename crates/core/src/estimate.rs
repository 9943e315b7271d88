//! The estimate object: a global CDF/density with query and scoring methods.

use dde_stats::inversion;
use dde_stats::metrics;
use dde_stats::{CdfFn, Histogram, PiecewiseCdf};
use rand::Rng;

/// A global data-distribution estimate.
///
/// Internally a monotone piecewise-linear CDF (the *skeleton*), optionally
/// accompanied by real tuples fetched during Phase-2 remote sampling. All
/// query methods (`cdf`, `pdf`, `quantile`, sampling) and the scoring method
/// (KS against a reference) live here.
#[derive(Debug, Clone)]
pub struct DensityEstimate {
    cdf: PiecewiseCdf,
    /// Real tuples fetched remotely in Phase 2, if any.
    samples: Vec<f64>,
}

impl DensityEstimate {
    /// Wraps a skeleton CDF.
    pub fn from_cdf(cdf: PiecewiseCdf) -> Self {
        Self { cdf, samples: Vec::new() }
    }

    /// Wraps a skeleton CDF together with remotely fetched tuples.
    pub fn with_samples(cdf: PiecewiseCdf, samples: Vec<f64>) -> Self {
        Self { cdf, samples }
    }

    /// The skeleton CDF.
    pub fn skeleton(&self) -> &PiecewiseCdf {
        &self.cdf
    }

    /// Real tuples fetched during estimation (empty unless remote sampling
    /// was requested).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Estimated cumulative probability `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.cdf.cdf(x)
    }

    /// Estimated density at `x` (the skeleton's slope).
    pub fn pdf(&self, x: f64) -> f64 {
        self.cdf.density(x)
    }

    /// Estimated `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        self.cdf.inv_cdf(q)
    }

    /// Estimated fraction of the data in `[lo, hi]` — the selectivity of a
    /// range query, the estimate's flagship application.
    pub fn selectivity(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }

    /// Generates `m` samples of the estimated distribution by the inversion
    /// method (Phase 2, local flavour). Stratified, so the sample's own
    /// deviation from the skeleton is `O(1/m)`.
    pub fn synthesize_samples<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<f64> {
        inversion::sample_stratified(&self.cdf, m, rng)
    }

    /// An equi-width histogram of the estimate with `bins` bins.
    pub fn to_histogram(&self, bins: usize) -> Histogram {
        Histogram::from_cdf(&self.cdf, bins)
    }

    /// Estimated mean of the global data, `∫ x·f̂(x) dx`, integrated exactly
    /// over the skeleton's linear segments.
    pub fn mean(&self) -> f64 {
        // On a segment [(x0,F0),(x1,F1)] the density is constant, so the
        // segment contributes (F1-F0)·(x0+x1)/2.
        self.cdf.points().windows(2).map(|w| (w[1].1 - w[0].1) * 0.5 * (w[0].0 + w[1].0)).sum()
    }

    /// Estimated (population) variance, exact over the skeleton: each linear
    /// segment is a uniform patch with `E[X²] = (x0² + x0·x1 + x1²)/3`.
    fn variance(&self) -> f64 {
        let mean = self.mean();
        let ex2: f64 = self
            .cdf
            .points()
            .windows(2)
            .map(|w| {
                let (x0, x1) = (w[0].0, w[1].0);
                (w[1].1 - w[0].1) * (x0 * x0 + x0 * x1 + x1 * x1) / 3.0
            })
            .sum();
        (ex2 - mean * mean).max(0.0)
    }

    /// Estimated standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Differential entropy of the estimate in nats,
    /// `−Σ (ΔF)·ln(ΔF/Δx)` over the skeleton's segments (flat segments
    /// contribute 0). Useful as a skew/concentration diagnostic: lower
    /// entropy ⇒ more concentrated data ⇒ more load imbalance under range
    /// placement.
    pub fn entropy(&self) -> f64 {
        self.cdf
            .points()
            .windows(2)
            .filter_map(|w| {
                let mass = w[1].1 - w[0].1;
                let width = w[1].0 - w[0].0;
                (mass > 0.0 && width > 0.0).then(|| -mass * (mass / width).ln())
            })
            .sum()
    }

    /// The estimated mode: midpoint of the skeleton segment with the highest
    /// density.
    pub fn mode(&self) -> f64 {
        self.cdf
            .points()
            .windows(2)
            .max_by(|a, b| {
                let da = (a[1].1 - a[0].1) / (a[1].0 - a[0].0).max(f64::MIN_POSITIVE);
                let db = (b[1].1 - b[0].1) / (b[1].0 - b[0].0).max(f64::MIN_POSITIVE);
                da.total_cmp(&db)
            })
            .map(|w| 0.5 * (w[0].0 + w[1].0))
            .expect("invariant: a PiecewiseCdf holds at least two points, so one segment")
    }

    /// Kolmogorov–Smirnov distance to a reference CDF (the headline accuracy
    /// metric in every experiment).
    pub fn ks_to<C: CdfFn + ?Sized>(&self, reference: &C) -> f64 {
        self.cdf.sup_diff(reference, metrics::DEFAULT_GRID)
    }
}

impl CdfFn for DensityEstimate {
    fn cdf(&self, x: f64) -> f64 {
        DensityEstimate::cdf(self, x)
    }

    fn domain(&self) -> (f64, f64) {
        self.cdf.domain()
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        self.cdf.inv_cdf(u)
    }

    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        self.cdf.cdf_ascending(xs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::dist::Uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A skeleton through control points that are already clean (cleaning
    /// leaves them as they are).
    fn clean(points: Vec<(f64, f64)>) -> PiecewiseCdf {
        PiecewiseCdf::from_noisy_points(points).expect("at least two points")
    }

    fn uniform_estimate() -> DensityEstimate {
        DensityEstimate::from_cdf(clean(vec![(0.0, 0.0), (10.0, 1.0)]))
    }

    #[test]
    fn queries() {
        let e = uniform_estimate();
        assert_eq!(e.cdf(5.0), 0.5);
        assert!((e.pdf(5.0) - 0.1).abs() < 1e-12);
        assert_eq!(e.quantile(0.3), 3.0);
        assert!((e.selectivity(2.0, 4.0) - 0.2).abs() < 1e-12);
        assert_eq!(e.selectivity(4.0, 2.0), 0.0);
    }

    #[test]
    fn synthesized_samples_match_skeleton() {
        let e = uniform_estimate();
        let mut rng = StdRng::seed_from_u64(8);
        let samples = e.synthesize_samples(500, &mut rng);
        assert_eq!(samples.len(), 500);
        let ks = dde_stats::Ecdf::new(samples).ks_distance_to(&Uniform::new(0.0, 10.0));
        assert!(ks < 0.01, "ks = {ks}"); // stratified: ~1/m
    }

    #[test]
    fn scores_against_truth() {
        let e = uniform_estimate();
        assert!(e.ks_to(&Uniform::new(0.0, 10.0)) < 1e-12);
        // Against a shifted uniform the error is visible.
        assert!(e.ks_to(&Uniform::new(5.0, 15.0)) > 0.4);
    }

    #[test]
    fn histogram_roundtrip() {
        let e = uniform_estimate();
        let h = e.to_histogram(10);
        for i in 0..10 {
            assert!((h.mass(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn moments_of_uniform() {
        let e = uniform_estimate(); // U(0, 10)
        assert!((e.mean() - 5.0).abs() < 1e-12);
        assert!((e.variance() - 100.0 / 12.0).abs() < 1e-9);
        assert!((e.std_dev() - (100.0f64 / 12.0).sqrt()).abs() < 1e-9);
        // Differential entropy of U(0,10) = ln(10).
        assert!((e.entropy() - 10.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn moments_of_asymmetric_skeleton() {
        // 80% of mass uniform on [0,1], 20% uniform on [1,9]:
        // mean = 0.8·0.5 + 0.2·5 = 1.4.
        let e = DensityEstimate::from_cdf(clean(vec![(0.0, 0.0), (1.0, 0.8), (9.0, 1.0)]));
        assert!((e.mean() - 1.4).abs() < 1e-12);
        // E[X²] = 0.8/3 + 0.2·(1+9+81)/3 = 0.2667 + 6.0667 = 6.3333.
        let var = 0.8 / 3.0 + 0.2 * 91.0 / 3.0 - 1.4 * 1.4;
        assert!((e.variance() - var).abs() < 1e-9);
        // Mode sits in the dense first segment.
        assert!((e.mode() - 0.5).abs() < 1e-12);
        // Concentrated data has lower entropy than U(0,9) would.
        assert!(e.entropy() < 9.0f64.ln());
    }
}
