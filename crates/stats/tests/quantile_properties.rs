//! Property tests for the quantile substrate: equi-depth summaries must
//! behave like monotone counting functions whose quantiles invert them.

use dde_stats::equidepth::EquiDepthSummary;
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

/// Deterministic base values for one property case.
fn base_values(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SeedSequence::new(seed).stream(Component::Test, 2);
    (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `count_le` is a monotone step-ish function from 0 to `total` that is
    /// exact at the bucket boundaries.
    #[test]
    fn equidepth_count_le_is_monotone_and_bounded(
        n in 500usize..4_000,
        buckets in 2usize..16,
        seed in 0u64..1_000,
    ) {
        let mut sorted = base_values(seed, n);
        sorted.sort_by(f64::total_cmp);
        let s = EquiDepthSummary::from_sorted(&sorted, buckets);
        prop_assert_eq!(s.total(), n as u64);

        let (lo, hi) = (sorted[0], sorted[n - 1]);
        prop_assert!(s.count_le(lo - 1.0) == 0.0, "mass below the minimum");
        prop_assert!((s.count_le(hi) - n as f64).abs() < 1e-9, "mass at the maximum");

        let mut prev = -1.0;
        for i in 0..=128 {
            let x = (lo - 5.0) + (hi - lo + 10.0) * i as f64 / 128.0;
            let c = s.count_le(x);
            prop_assert!((0.0..=n as f64 + 1e-9).contains(&c), "count_le({}) = {}", x, c);
            prop_assert!(c >= prev - 1e-9, "count_le not monotone at {}", x);
            prev = c;
        }

        // Boundary near-exactness: `from_sorted` places boundary i at rank
        // (i·n)/buckets, and `count_le` is exact at boundaries (distinct
        // values here), so the reported mass must sit within a couple of
        // ranks of that.
        let b = s.buckets();
        for (i, &boundary) in s.boundaries().iter().enumerate().skip(1) {
            let expected = (i * n / b) as f64;
            let c = s.count_le(boundary);
            prop_assert!(
                (c - expected).abs() <= 2.0,
                "boundary {} at {}: count_le {} vs rank {}",
                i, boundary, c, expected
            );
        }
    }

    /// Quantile and count_le are mutually consistent: walking a quantile
    /// back through count_le recovers approximately the requested rank.
    #[test]
    fn equidepth_quantile_inverts_count_le(
        n in 500usize..4_000,
        buckets in 2usize..16,
        seed in 0u64..1_000,
    ) {
        let mut sorted = base_values(seed, n);
        sorted.sort_by(f64::total_cmp);
        let s = EquiDepthSummary::from_sorted(&sorted, buckets);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let x = s.quantile(q).expect("nonempty");
            let back = s.count_le(x) / n as f64;
            // One bucket of slack: within a bucket the summary interpolates.
            prop_assert!(
                (back - q).abs() <= 1.0 / buckets as f64 + 1e-9,
                "q {} -> x {} -> {}", q, x, back
            );
        }
    }
}
