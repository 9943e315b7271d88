//! Statistical assertion framework: DKW confidence bands for KS-style
//! accuracy tests.
//!
//! Estimator-accuracy tests compare an estimated CDF against ground truth
//! and assert the distance is "small". A bare threshold conflates two error
//! sources — the estimator's systematic approximation error and the sampling
//! noise of a finite probe/data sample — and a threshold tuned on one seed
//! fails on another. This module makes the split explicit:
//!
//! * the **sampling term** comes from the Dvoretzky–Kiefer–Wolfowitz
//!   inequality: an empirical CDF built from `n` i.i.d. draws deviates from
//!   its generator by more than `ε(n, α) = √(ln(2/α) / 2n)` with probability
//!   at most `α`;
//! * the **systematic term** is an explicit per-test allowance for the
//!   estimator's own bias (summary granularity, HT-weighting error,
//!   staleness under churn).
//!
//! A [`KsBand`] passes iff `observed ≤ systematic + ε(n, α)`. Choosing a
//! per-assertion `α` and summing over the suite's assertions (union bound)
//! gives a *documented* suite-wide false-positive rate; the 100-seed
//! self-check below pins the advertised rate (< 1%) as a test.

/// The DKW sampling band: the radius `ε(n, α) = √(ln(2/α) / 2n)` such that
/// `P[sup |F̂ₙ − F| > ε] ≤ α` for an ECDF of `n` i.i.d. samples.
///
/// # Panics
/// Panics if `n == 0` or `α ∉ (0, 1)`.
fn dkw_epsilon(n: usize, alpha: f64) -> f64 {
    assert!(n > 0, "DKW band needs at least one sample");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha {alpha} out of (0, 1)");
    ((2.0 / alpha).ln() / (2.0 * n as f64)).sqrt()
}

/// Why a band assertion failed (carried in the panic message).
#[derive(Debug, Clone, PartialEq)]
pub struct BandViolation {
    /// The observed statistic.
    pub observed: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
    /// Human-readable breakdown of the tolerance.
    pub detail: String,
}

impl std::fmt::Display for BandViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "observed {:.4} exceeds band {:.4} ({})",
            self.observed, self.tolerance, self.detail
        )
    }
}

/// A KS-distance tolerance band: `systematic + ε(n, α)`.
///
/// `n` is the effective sample size behind the statistic — the number of
/// probes for a single estimate, or `runs · probes` when the assertion is on
/// a mean over independent runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsBand {
    n: usize,
    alpha: f64,
    systematic: f64,
}

impl KsBand {
    /// A band with sampling size `n` at false-positive level `alpha` and no
    /// systematic allowance.
    pub fn new(n: usize, alpha: f64) -> Self {
        Self { n, alpha, systematic: 0.0 }
    }

    /// Adds a systematic (non-sampling) error allowance.
    pub fn with_systematic(self, systematic: f64) -> Self {
        assert!(systematic >= 0.0, "systematic allowance must be non-negative");
        Self { systematic, ..self }
    }

    /// The total tolerance: `systematic + ε(n, α)`.
    fn tolerance(&self) -> f64 {
        self.systematic + dkw_epsilon(self.n, self.alpha)
    }

    /// Checks `observed` against the band.
    pub fn check(&self, observed: f64) -> Result<(), BandViolation> {
        let tolerance = self.tolerance();
        if observed <= tolerance {
            return Ok(());
        }
        Err(BandViolation {
            observed,
            tolerance,
            detail: format!(
                "systematic {:.4} + DKW ε(n={}, α={:e}) {:.4}",
                self.systematic,
                self.n,
                self.alpha,
                dkw_epsilon(self.n, self.alpha)
            ),
        })
    }

    /// Panics with a diagnostic if `observed` exceeds the band.
    #[track_caller]
    pub fn assert(&self, label: &str, observed: f64) {
        if let Err(v) = self.check(observed) {
            panic!("{label}: {v}");
        }
    }
}

/// A 1-Wasserstein tolerance band over a domain of width `width`:
/// `systematic + width · ε(n, α)`.
///
/// Valid because `W₁(F, G) = ∫ |F − G| ≤ width · sup |F − G|`, so the DKW
/// band on the sup distance transfers to W₁ scaled by the domain width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WassersteinBand {
    n: usize,
    alpha: f64,
    width: f64,
    systematic: f64,
}

impl WassersteinBand {
    /// A band for `n` effective samples at level `alpha` over a domain of
    /// the given width.
    ///
    /// # Panics
    /// Panics if `width` is not positive and finite.
    pub fn new(n: usize, alpha: f64, width: f64) -> Self {
        assert!(width > 0.0 && width.is_finite(), "domain width {width} invalid");
        Self { n, alpha, width, systematic: 0.0 }
    }

    /// Adds a systematic error allowance (in domain units).
    pub fn with_systematic(self, systematic: f64) -> Self {
        assert!(systematic >= 0.0, "systematic allowance must be non-negative");
        Self { systematic, ..self }
    }

    /// The total tolerance: `systematic + width · ε(n, α)`.
    fn tolerance(&self) -> f64 {
        self.systematic + self.width * dkw_epsilon(self.n, self.alpha)
    }

    /// Checks `observed` against the band.
    pub fn check(&self, observed: f64) -> Result<(), BandViolation> {
        let tolerance = self.tolerance();
        if observed <= tolerance {
            return Ok(());
        }
        Err(BandViolation {
            observed,
            tolerance,
            detail: format!(
                "systematic {:.4} + width {:.4} · DKW ε(n={}, α={:e}) {:.4}",
                self.systematic,
                self.width,
                self.n,
                self.alpha,
                dkw_epsilon(self.n, self.alpha)
            ),
        })
    }

    /// Panics with a diagnostic if `observed` exceeds the band.
    #[track_caller]
    pub fn assert(&self, label: &str, observed: f64) {
        if let Err(v) = self.check(observed) {
            panic!("{label}: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Component, SeedSequence};
    use rand::Rng;

    #[test]
    fn dkw_matches_closed_form() {
        // ε(n, α) = √(ln(2/α)/2n); at α = 0.05, n = 1000: √(ln 40 / 2000).
        let eps = dkw_epsilon(1000, 0.05);
        assert!((eps - (40.0f64.ln() / 2000.0).sqrt()).abs() < 1e-12);
        // Tighter with more samples, wider with smaller α.
        assert!(dkw_epsilon(4000, 0.05) < eps);
        assert!(dkw_epsilon(1000, 0.001) > eps);
    }

    #[test]
    fn band_arithmetic() {
        let band = KsBand::new(100, 0.01).with_systematic(0.05);
        assert!((band.tolerance() - (0.05 + dkw_epsilon(100, 0.01))).abs() < 1e-12);
        assert!(band.check(band.tolerance()).is_ok());
        assert!(band.check(band.tolerance() + 1e-9).is_err());

        let w = WassersteinBand::new(100, 0.01, 1000.0).with_systematic(2.0);
        assert!((w.tolerance() - (2.0 + 1000.0 * dkw_epsilon(100, 0.01))).abs() < 1e-9);
        assert!(w.check(w.tolerance() + 1e-6).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds band")]
    fn assert_panics_with_breakdown() {
        KsBand::new(50, 0.01).assert("demo", 0.9);
    }

    /// Exact one-sample KS statistic of `sample` against U(0, 1).
    fn ks_uniform(sample: &mut [f64]) -> f64 {
        sample.sort_by(f64::total_cmp);
        let n = sample.len() as f64;
        sample
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let hi = (i as f64 + 1.0) / n - x;
                let lo = x - i as f64 / n;
                hi.max(lo)
            })
            .fold(0.0, f64::max)
    }

    /// The documented false-positive calibration: 100 seeds, each drawing
    /// n = 500 uniforms and checking the exact KS statistic against the pure
    /// DKW band at α = 5·10⁻⁵. By the union bound the probability of *any*
    /// seed failing is ≤ 100 · 5·10⁻⁵ = 0.5% < 1% — the advertised suite
    /// false-positive rate. The sweep is seeded, so the test itself is
    /// deterministic; the bound is what transfers to fresh seeds.
    #[test]
    fn hundred_seed_self_check_stays_inside_band() {
        const N: usize = 500;
        const ALPHA: f64 = 5e-5;
        let band = KsBand::new(N, ALPHA);
        for seed in 0..100 {
            let mut rng = SeedSequence::new(seed).stream(Component::Test, 0);
            let mut sample: Vec<f64> = (0..N).map(|_| rng.gen::<f64>()).collect();
            if let Err(v) = band.check(ks_uniform(&mut sample)) {
                panic!("dkw self-check, seed {seed}: {v}");
            }
        }
    }

    /// The band must still *reject* real regressions: shift the sample and
    /// every seed lands outside.
    #[test]
    fn self_check_detects_systematic_shift() {
        const N: usize = 500;
        let band = KsBand::new(N, 5e-5);
        for seed in 0..20 {
            let mut rng = SeedSequence::new(seed).stream(Component::Test, 1);
            let mut sample: Vec<f64> =
                (0..N).map(|_| (rng.gen::<f64>() * 0.8 + 0.2).min(1.0)).collect();
            let ks = ks_uniform(&mut sample);
            assert!(band.check(ks).is_err(), "a 0.2 shift must fail every seed; seed {seed}: {ks}");
        }
    }
}
