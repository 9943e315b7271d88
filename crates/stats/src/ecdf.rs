//! Empirical cumulative distribution functions.

use crate::{gallop, scan, sort_total, CdfFn};

/// The empirical CDF of a sample: `F̂(x) = #{xᵢ ≤ x} / n`.
///
/// Backed by a sorted copy of the sample; `cdf` and rank queries are
/// `O(log n)`, and [`CdfFn::cdf_ascending`] gallops forward over the
/// samples, `O(log d)` for a step of `d` ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of `samples` (NaNs are rejected).
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF of an empty sample");
        assert!(samples.iter().all(|x| !x.is_nan()), "ECDF sample contains NaN");
        Self { sorted: sort_total(samples) }
    }

    /// Builds from data already sorted ascending (checked in debug builds).
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "ECDF of an empty sample");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
        Self { sorted }
    }

    /// Number of samples.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true post-construction).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn is_empty(&self) -> bool {
        self.sorted.len() == 0
    }

    /// Number of samples `<= x`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn rank(&self, x: f64) -> usize {
        self.sorted.partition_point(|&v| v <= x)
    }

    /// The `q`-quantile (type-1 / inverse-CDF convention), `q ∈ [0, 1]`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The underlying sorted samples.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Kolmogorov–Smirnov distance to a reference CDF, computed exactly by
    /// evaluating the supremum at the sample jump points (where it is always
    /// attained for a continuous reference).
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn ks_distance_to<C: CdfFn + ?Sized>(&self, reference: &C) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        scan(
            reference,
            self.sorted.len(),
            |i| self.sorted[i],
            |i, f| {
                d = d.max((f - i as f64 / n).abs()).max(((i + 1) as f64 / n - f).abs());
            },
        );
        d
    }
}

impl CdfFn for Ecdf {
    fn cdf(&self, x: f64) -> f64 {
        self.rank(x) as f64 / self.sorted.len() as f64
    }

    fn domain(&self) -> (f64, f64) {
        (self.sorted[0], *self.sorted.last().expect("nonempty"))
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        self.quantile(u)
    }

    /// One forward galloping cursor over the samples: each point's rank
    /// is searched from the previous point's.
    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        debug_assert!(xs.windows(2).all(|w| w[0] <= w[1]), "points not ascending");
        let n = self.sorted.len() as f64;
        let mut rank = 0;
        for (o, &x) in out.iter_mut().zip(xs) {
            rank = gallop(&self.sorted, rank, |&v| v <= x);
            *o = rank as f64 / n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Uniform};

    #[test]
    fn rank_and_cdf() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.rank(0.5), 0);
        assert_eq!(e.rank(1.0), 1);
        assert_eq!(e.rank(2.0), 3);
        assert_eq!(e.rank(10.0), 4);
        assert_eq!(e.cdf(2.0), 0.75);
    }

    #[test]
    fn cursor_matches_per_point_cdf() {
        // Duplicates, both zeros, points on samples, between them, below
        // and above the range, and runs of equal points.
        let e = Ecdf::new(vec![2.0, -1.0, 0.0, -0.0, 2.0, 2.0, 5.5, 9.0]);
        let xs = [-3.0, -1.0, -0.5, -0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 5.5, 8.9, 9.0, 12.0];
        let mut out = [f64::NAN; 14];
        e.cdf_ascending(&xs, &mut out);
        for (&x, &f) in xs.iter().zip(&out) {
            assert_eq!(f.to_bits(), e.cdf(x).to_bits(), "x = {x}");
        }
        e.cdf_ascending(&[], &mut []);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.01), 1.0);
    }

    #[test]
    fn ks_distance_of_perfect_sample_is_small() {
        // Deterministic "perfect" sample: the i/n quantiles of U(0,1).
        let n = 1000;
        let samples: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let e = Ecdf::new(samples);
        let d = e.ks_distance_to(&Uniform::new(0.0, 1.0));
        assert!(d <= 0.5 / n as f64 + 1e-12, "d = {d}");
    }

    #[test]
    fn ks_distance_detects_mismatch() {
        let e = Ecdf::new(vec![0.9, 0.91, 0.95, 0.99]);
        let d = e.ks_distance_to(&Uniform::new(0.0, 1.0));
        assert!(d > 0.8, "d = {d}");
    }

    #[test]
    fn inversion_matches_quantile() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.inv_cdf(0.25), 1.0);
        assert_eq!(e.inv_cdf(0.26), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        Ecdf::new(vec![]);
    }

    #[test]
    fn uniform_trait_object_usable() {
        // Ecdf can stand in anywhere a CdfFn is expected.
        let e = Ecdf::new(vec![0.0, 1.0]);
        let c: &dyn crate::CdfFn = &e;
        assert_eq!(c.domain(), (0.0, 1.0));
        // Derived stream, not thread_rng: nothing in this crate may draw
        // from ambient randomness, even in tests.
        let mut rng = crate::rng::SeedSequence::new(7).stream(crate::rng::Component::Test, 0);
        let x = Uniform::new(0.0, 1.0).sample(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }
}
