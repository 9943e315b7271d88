//! The pooled-summary kernel's contract: `equidepth::pooled_cdf_points`
//! returns, bit for bit, the points of the literal per-point fold the
//! skeleton, pooling and exact estimators used to evaluate,
//!
//! ```text
//! (x, finish(pool.iter().map(|(s, t)| term(s.count_le(x))).sum::<f64>()))
//! ```
//!
//! at every support point, over the summary shapes that stress its
//! shortcuts: empty, single-item and zero-width-bucket summaries, a wrapped
//! summary (both ends of the domain) at index 0, range-ordered and shuffled
//! pools, support thinning, and all three term shapes.

use dde_stats::equidepth::{pooled_cdf_points, EquiDepthSummary, PoolTerm};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const DOMAIN: (f64, f64) = (0.0, 100.0);

/// The per-point fold as the estimators wrote it, support included.
fn reference(
    pool: &[(EquiDepthSummary, PoolTerm)],
    cap: usize,
    finish: impl Fn(f64) -> f64,
) -> Vec<(f64, f64)> {
    let (lo, hi) = DOMAIN;
    let mut support: Vec<f64> = pool
        .iter()
        .flat_map(|(s, _)| s.boundaries().iter().copied())
        .filter(|x| x.is_finite() && *x > lo && *x < hi)
        .collect();
    support.sort_by(f64::total_cmp);
    support.dedup();
    if support.len() > cap {
        let step = support.len() as f64 / cap as f64;
        support = (0..cap).map(|i| support[(i as f64 * step) as usize]).collect();
        support.dedup();
    }
    let mut points = vec![(lo, 0.0)];
    for x in support {
        let sum = pool
            .iter()
            .map(|(s, t)| match *t {
                PoolTerm::Count => s.count_le(x),
                PoolTerm::Scaled(w) => s.count_le(x) * w,
                PoolTerm::Divided(n) => s.count_le(x) / n,
            })
            .sum::<f64>();
        points.push((x, finish(sum)));
    }
    points.push((hi, 1.0));
    points
}

/// One summary of `n` values drawn from `[a, b]` (clamped to the domain),
/// in one of several shapes.
fn summary(rng: &mut StdRng, shape: u8, a: f64, b: f64) -> EquiDepthSummary {
    let buckets = rng.gen_range(1..12);
    let draw = |rng: &mut StdRng| (a + (b - a) * rng.gen::<f64>()).clamp(DOMAIN.0, DOMAIN.1);
    let mut values: Vec<f64> = match shape % 6 {
        0 => Vec::new(),
        1 => vec![draw(rng)],
        // Runs of duplicates: zero-width buckets.
        2 => {
            let (u, v) = (draw(rng), draw(rng));
            (0..rng.gen_range(2..40)).map(|i| if i % 3 == 0 { u } else { v }).collect()
        }
        // The domain's own ends, which the support leaves out.
        3 => (0..rng.gen_range(1..20)).map(|i| if i % 2 == 0 { a } else { b }).collect(),
        _ => (0..rng.gen_range(2..200)).map(|_| draw(rng)).collect(),
    };
    values.sort_by(f64::total_cmp);
    if shape % 7 == 6 && !values.is_empty() {
        // An even-count summary: the count spread evenly over the buckets.
        let quantiles: Vec<f64> =
            (0..=buckets).map(|i| values[(i * (values.len() - 1)) / buckets]).collect();
        return EquiDepthSummary::from_quantiles(&quantiles, values.len() as u64);
    }
    EquiDepthSummary::from_sorted(&values, buckets)
}

/// A pool of `k` summaries laid out like one estimator's replies.
fn pool(seed: u64, k: usize, layout: u8, terms: u8) -> Vec<(EquiDepthSummary, PoolTerm)> {
    let mut rng = SeedSequence::new(seed).stream(Component::Test, 7);
    let width = 100.0 / k as f64;
    let mut summaries: Vec<EquiDepthSummary> = (0..k)
        .map(|j| {
            let shape = rng.gen::<u8>();
            match layout % 4 {
                // Range placement: reply j holds the j-th slice of the
                // domain, slices overlapping a little.
                0 | 1 => {
                    let a = j as f64 * width - width * 0.2;
                    summary(&mut rng, shape, a, a + width * 1.4)
                }
                // Hashed placement: every reply spans the domain.
                _ => summary(&mut rng, shape, DOMAIN.0, DOMAIN.1),
            }
        })
        .collect();
    match layout % 4 {
        // A wrapped peer first: its arc crosses the ring's zero, so it holds
        // both the top and the bottom of the domain.
        1 => {
            let mut values: Vec<f64> = (0..rng.gen_range(2..60))
                .map(|i| {
                    let u = rng.gen::<f64>() * width;
                    if i % 2 == 0 {
                        u
                    } else {
                        100.0 - u
                    }
                })
                .collect();
            values.sort_by(f64::total_cmp);
            summaries[0] = EquiDepthSummary::from_sorted(&values, rng.gen_range(1..10));
        }
        // Replies in random order.
        2 => {
            for i in (1..summaries.len()).rev() {
                summaries.swap(i, rng.gen_range(0..=i));
            }
        }
        _ => {}
    }
    summaries
        .into_iter()
        .map(|s| {
            let term = match (terms % 4, rng.gen::<u8>() % 3) {
                (0, _) | (3, 0) => PoolTerm::Count,
                (1, _) | (3, 1) => PoolTerm::Scaled(1.0 / rng.gen_range(1e-6..1.0)),
                _ => PoolTerm::Divided(s.total().max(1) as f64),
            };
            (s, term)
        })
        .collect()
}

fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points.iter().map(|&(x, f)| (x.to_bits(), f.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_the_literal_fold_bit_for_bit(
        seed in 0u64..1_000_000,
        k in 1usize..48,
        layout in 0u8..4,
        terms in 0u8..4,
        cap in prop_oneof![Just(3usize), Just(16usize), Just(64usize), Just(4_096usize)],
        denom in 0.5f64..5_000.0,
    ) {
        let pool = pool(seed, k, layout, terms);
        let finish = |c: f64| c / denom;
        let expected = reference(&pool, cap, finish);
        let got = pooled_cdf_points(pool.iter().map(|(s, t)| (s, *t)), DOMAIN, cap, finish);
        prop_assert_eq!(bits(&got), bits(&expected), "seed {} k {} layout {}", seed, k, layout);
    }
}

/// The pinned shapes, one at a time: no summaries, only empty ones, a
/// single item, one zero-width bucket at the domain's end.
#[test]
fn edge_pools_match_the_literal_fold() {
    let single = |v: f64| EquiDepthSummary::from_sorted(&[v], 4);
    let pools: Vec<Vec<(EquiDepthSummary, PoolTerm)>> = vec![
        vec![],
        vec![(EquiDepthSummary::from_sorted(&[], 1), PoolTerm::Count); 3],
        vec![(single(42.0), PoolTerm::Scaled(3.0))],
        vec![
            (single(42.0), PoolTerm::Count),
            (EquiDepthSummary::from_sorted(&[], 1), PoolTerm::Count),
        ],
        vec![
            (EquiDepthSummary::from_sorted(&[7.0, 7.0, 7.0, 100.0], 3), PoolTerm::Divided(4.0)),
            (single(7.0), PoolTerm::Divided(1.0)),
        ],
    ];
    for (i, pool) in pools.iter().enumerate() {
        for cap in [1, 2, 4_096] {
            let expected = reference(pool, cap, |c| c / 7.0);
            let got =
                pooled_cdf_points(pool.iter().map(|(s, t)| (s, *t)), DOMAIN, cap, |c| c / 7.0);
            assert_eq!(bits(&got), bits(&expected), "pool {i}, cap {cap}");
        }
    }
}
