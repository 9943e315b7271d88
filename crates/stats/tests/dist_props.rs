//! Property tests for the skewed samplers the adversarial scenario pack
//! leans on: seed purity (same seed → byte-identical draws, so forked and
//! fresh builds replay each other) and the monotone rank→mass law that
//! makes "Zipf-skewed" mean what it says.

use dde_stats::dist::{Distribution, HotspotZipf, Zipf};
use dde_stats::CdfFn;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn draws(dist: &dyn Distribution, seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| dist.sample(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed → the identical draw sequence; a different seed → a
    /// different one. Sampling is a pure function of `(params, seed)`.
    #[test]
    fn zipf_sampling_is_seed_pure(
        seed in 0u64..u64::MAX,
        cells in 2usize..64,
        s_milli in 0u64..2500,
    ) {
        let dist = Zipf::new(0.0, 100.0, cells, s_milli as f64 / 1000.0);
        let a = draws(&dist, seed, 64);
        prop_assert_eq!(&a, &draws(&dist, seed, 64));
        prop_assert_ne!(&a, &draws(&dist, seed ^ 0x5EED_5EED, 64));
    }

    /// Analytic rank→mass monotonicity: cell 0 is the head and every later
    /// rank carries no more mass than the one before it.
    #[test]
    fn zipf_cell_mass_is_monotone_in_rank(
        cells in 2usize..64,
        s_milli in 1u64..2500,
    ) {
        let (lo, hi) = (0.0, 100.0);
        let dist = Zipf::new(lo, hi, cells, s_milli as f64 / 1000.0);
        let width = (hi - lo) / cells as f64;
        let mass =
            |i: usize| dist.cdf(lo + (i as f64 + 1.0) * width) - dist.cdf(lo + i as f64 * width);
        for i in 0..cells - 1 {
            prop_assert!(
                mass(i) >= mass(i + 1) - 1e-12,
                "rank {} mass {} < rank {} mass {}",
                i, mass(i), i + 1, mass(i + 1)
            );
        }
    }

    /// Observed frequencies follow the rank law: with real skew, the head
    /// cell collects strictly more samples than the tail cell.
    #[test]
    fn zipf_observed_frequency_follows_rank(
        seed in 0u64..u64::MAX,
        cells in 4usize..32,
        s_milli in 800u64..2000,
    ) {
        let (lo, hi) = (0.0, 100.0);
        let dist = Zipf::new(lo, hi, cells, s_milli as f64 / 1000.0);
        let width = (hi - lo) / cells as f64;
        let mut counts = vec![0usize; cells];
        for x in draws(&dist, seed, 4096) {
            counts[(((x - lo) / width) as usize).min(cells - 1)] += 1;
        }
        prop_assert!(
            counts[0] > counts[cells - 1],
            "head cell {} <= tail cell {} at s = {}",
            counts[0], counts[cells - 1], s_milli as f64 / 1000.0
        );
    }

    /// The hotspot variant is equally seed-pure, stays inside its domain,
    /// and its per-cell masses, read off the CDF at the cell edges as for
    /// `Zipf` above, form a probability vector.
    #[test]
    fn hotspot_zipf_is_seed_pure_and_mass_conserving(
        seed in 0u64..u64::MAX,
        cells in 4usize..64,
        s_milli in 0u64..2000,
        arcs in 1usize..5,
    ) {
        let dist = HotspotZipf::new(0.0, 100.0, cells, s_milli as f64 / 1000.0, arcs);
        let a = draws(&dist, seed, 64);
        prop_assert_eq!(&a, &draws(&dist, seed, 64));
        for &x in &a {
            prop_assert!((0.0..=100.0).contains(&x), "sample {x} escaped the domain");
        }
        let width = 100.0 / cells as f64;
        let mass =
            |i: usize| dist.cdf((i as f64 + 1.0) * width) - dist.cdf(i as f64 * width);
        let total: f64 = (0..cells).map(mass).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "cell masses sum to {total}");
        for i in 0..cells {
            prop_assert!(mass(i) >= 0.0);
        }
    }
}
