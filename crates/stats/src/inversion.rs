//! The inversion method for random variate generation.
//!
//! `x = F⁻¹(u)` with `u ~ U(0,1)` is an exact sample of any distribution with
//! CDF `F` — the classical result the paper's estimator is "inspired by": if
//! you can evaluate (an estimate of) the **global** CDF of the data spread
//! over a P2P network, you can generate unbiased samples of the global data
//! distribution without any assumption on its shape.

use crate::CdfFn;
use rand::Rng;

/// Draws `n` *stratified* samples: one inversion per equal-probability
/// stratum, `uᵢ ~ U(i/n, (i+1)/n)`.
///
/// Stratification keeps the unbiasedness of plain inversion but removes the
/// clumping variance of i.i.d. uniforms — useful when the samples feed a
/// density estimate, which is exactly the paper's use case.
pub fn sample_stratified<C: CdfFn + ?Sized, R: Rng + ?Sized>(
    cdf: &C,
    n: usize,
    rng: &mut R,
) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let u = (i as f64 + rng.gen::<f64>()) / n as f64;
            cdf.inv_cdf(u)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{BoundedPareto, Normal, Truncated};
    use crate::ecdf::Ecdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `n` i.i.d. draws by plain inversion, `x = F⁻¹(u)` with `u ~ U[0, 1)`.
    fn sample_iid<C: CdfFn + ?Sized>(cdf: &C, n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| cdf.inv_cdf(rng.gen::<f64>())).collect()
    }

    #[test]
    fn inversion_samples_match_cdf() {
        let d = Truncated::new(Normal::new(50.0, 10.0), 0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let xs = sample_iid(&d, 5000, &mut rng);
        let ks = Ecdf::new(xs).ks_distance_to(&d);
        assert!(ks < 0.03, "ks = {ks}");
    }

    #[test]
    fn stratified_beats_iid_on_ks() {
        let d = BoundedPareto::new(0.0, 100.0, 1.5);
        let n = 2000;
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let iid = Ecdf::new(sample_iid(&d, n, &mut r1)).ks_distance_to(&d);
        let strat = Ecdf::new(sample_stratified(&d, n, &mut r2)).ks_distance_to(&d);
        assert!(strat <= iid, "stratified {strat} vs iid {iid}");
        // Stratified KS is bounded by 1/n deterministically.
        assert!(strat <= 1.0 / n as f64 + 1e-9, "strat = {strat}");
    }

    #[test]
    fn samples_stay_in_domain() {
        let d = BoundedPareto::new(10.0, 20.0, 0.7);
        let mut rng = StdRng::seed_from_u64(1);
        for x in sample_iid(&d, 1000, &mut rng) {
            assert!((10.0..=20.0).contains(&x), "{x} escaped the domain");
        }
    }
}
