//! `StreamingTruth::ks_of_parts` ≡ the materialized KS path.
//!
//! The mega-scale regime never concatenates the global sample vector, so
//! the streamed k-way merge must reproduce the materialized computation —
//! `Ecdf::new(union).ks_distance_to(generator)` — exactly, for every
//! generator kind the scenario builders emit and for arbitrary partitions
//! of the sample into per-peer slices (including empty peers and ties).

use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::streaming::StreamingTruth;
use dde_stats::Ecdf;
use proptest::prelude::*;
use rand::Rng;

/// Every generator kind a [`dde_sim` scenario] can carry.
fn kinds() -> Vec<DistributionKind> {
    vec![
        DistributionKind::Uniform,
        DistributionKind::Normal { center_frac: 0.5, std_frac: 0.15 },
        DistributionKind::Exponential { rate_scale: 4.0 },
        DistributionKind::Pareto { shape: 1.2 },
        DistributionKind::LogNormal { sigma: 0.75 },
        DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        DistributionKind::HotspotZipf { cells: 32, exponent: 1.2, arcs: 2 },
        DistributionKind::Bimodal,
        DistributionKind::Trimodal,
    ]
}

/// Samples `n` values from `kind`, splits them into `peers` slices of
/// random sizes (some empty), and sorts each slice — the shape of per-peer
/// stores after bulk load.
fn partitioned_sample(
    kind: &DistributionKind,
    seed: u64,
    n: usize,
    peers: usize,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let dist = kind.build(0.0, 1000.0);
    let mut rng = SeedSequence::new(seed).stream(Component::Dataset, 3);
    let all: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); peers];
    for &v in &all {
        parts[rng.gen_range(0..peers)].push(v);
    }
    for p in &mut parts {
        p.sort_by(f64::total_cmp);
    }
    (parts, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Agreement to < 1e-9 (in fact bit-identical) on every generator kind.
    #[test]
    fn streamed_ks_matches_materialized_ks(
        seed in 0u64..(1u64 << 32),
        n in 1usize..600,
        peers in 1usize..24,
    ) {
        for kind in kinds() {
            let (parts, all) = partitioned_sample(&kind, seed, n, peers);
            let dist = kind.build(0.0, 1000.0);
            let materialized = Ecdf::new(all).ks_distance_to(dist.as_ref());
            let truth = StreamingTruth::new(kind.build(0.0, 1000.0), n as u64);
            let streamed = truth.ks_of_parts(parts.iter().map(Vec::as_slice));
            prop_assert!(
                (streamed - materialized).abs() < 1e-9,
                "{kind:?}: streamed {streamed} vs materialized {materialized}"
            );
            // The stronger, documented claim: the merge visits values in the
            // same total order, so the two paths are bit-identical.
            prop_assert_eq!(streamed, materialized, "{:?}", kind);
        }
    }

    /// Incremental truth: after journaling adds (items inserted since the
    /// parts were frozen) and removes (a subset of streamed values), the
    /// folded KS is bit-identical to a full recompute over the mutated
    /// multiset — for every generator kind.
    #[test]
    fn journaled_deltas_match_full_recompute(
        seed in 0u64..(1u64 << 32),
        n in 2usize..400,
        peers in 1usize..16,
        add_n in 0usize..64,
        remove_frac in 0.0f64..0.5,
    ) {
        for kind in kinds() {
            let (parts, all) = partitioned_sample(&kind, seed, n, peers);
            let dist = kind.build(0.0, 1000.0);
            let mut rng = SeedSequence::new(seed ^ 0xD317A).stream(Component::Dataset, 7);
            let adds: Vec<f64> = (0..add_n).map(|_| dist.sample(&mut rng)).collect();
            // Remove a random subset of the *streamed* values (multiset
            // semantics: duplicates removed once per journal entry).
            let remove_n = ((n as f64) * remove_frac) as usize;
            let mut pool = all.clone();
            let mut removes = Vec::with_capacity(remove_n);
            for _ in 0..remove_n {
                removes.push(pool.swap_remove(rng.gen_range(0..pool.len())));
            }
            // Materialized recompute over the mutated multiset.
            let mut mutated = pool;
            mutated.extend(&adds);
            mutated.sort_by(f64::total_cmp);
            let expected_items = mutated.len() as u64;
            let materialized = Ecdf::new(mutated).ks_distance_to(dist.as_ref());
            let mut truth = StreamingTruth::new(kind.build(0.0, 1000.0), n as u64);
            truth.journal_adds(adds);
            truth.journal_removes(removes);
            prop_assert_eq!(truth.items(), expected_items, "{:?}", kind);
            let streamed = truth.ks_of_parts(parts.iter().map(Vec::as_slice));
            prop_assert!(
                (streamed - materialized).abs() < 1e-9,
                "{kind:?}: folded {streamed} vs recomputed {materialized}"
            );
            prop_assert_eq!(streamed, materialized, "{:?}", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The journal as churn drives it: batches of adds and removes appended
    /// in arrival order, with `ks_of_parts` read between batches. Each read
    /// sorts the journal copies it merges, so it is bit-identical to a full
    /// recompute over the multiset mutated so far. Removals draw from
    /// everything live, journaled adds included, over values with
    /// duplicates and both zeros, and a read never disturbs later batches.
    #[test]
    fn batched_journal_reads_match_full_recompute(
        seed in 0u64..(1u64 << 32),
        n in 1usize..300,
        peers in 1usize..12,
        batches in 1usize..7,
    ) {
        for kind in kinds() {
            let (mut parts, _) = partitioned_sample(&kind, seed, n, peers);
            let dist = kind.build(0.0, 1000.0);
            let mut rng = SeedSequence::new(seed ^ 0x10C4).stream(Component::Dataset, 9);
            let zeros = [-0.0, 0.0];
            let pick = |rng: &mut rand::rngs::StdRng| {
                if rng.gen_range(0..6) == 0 { zeros[rng.gen_range(0..2usize)] } else { dist.sample(rng) }
            };
            // Frozen parts may hold both zeros too.
            parts[0].extend(zeros);
            parts[0].sort_by(f64::total_cmp);
            let mut live: Vec<f64> = parts.iter().flatten().copied().collect();
            let mut truth = StreamingTruth::new(kind.build(0.0, 1000.0), live.len() as u64);
            for batch in 0..batches {
                let adds: Vec<f64> = (0..rng.gen_range(0..40)).map(|_| pick(&mut rng)).collect();
                live.extend(&adds);
                let mut removes = Vec::new();
                for _ in 0..rng.gen_range(0..=live.len() / 3) {
                    removes.push(live.swap_remove(rng.gen_range(0..live.len())));
                }
                // Some batches journal removals first.
                if rng.gen_range(0..2) == 0 {
                    truth.journal_adds(adds);
                    truth.journal_removes(removes);
                } else {
                    truth.journal_removes(removes);
                    truth.journal_adds(adds);
                }
                prop_assert_eq!(truth.items(), live.len() as u64, "{:?} batch {}", kind, batch);
                let streamed = truth.ks_of_parts(parts.iter().map(Vec::as_slice));
                let recomputed = if live.is_empty() {
                    0.0
                } else {
                    Ecdf::new(live.clone()).ks_distance_to(dist.as_ref())
                };
                prop_assert_eq!(
                    streamed.to_bits(),
                    recomputed.to_bits(),
                    "{:?} batch {}: journaled {} vs recomputed {}",
                    kind,
                    batch,
                    streamed,
                    recomputed
                );
            }
        }
    }
}

/// Duplicated values across different parts must not perturb the running
/// max: the KS statistic is evaluated per *rank*, and ranks of tied values
/// commute.
#[test]
fn cross_part_ties_are_exact() {
    let kind = DistributionKind::Zipf { cells: 8, exponent: 1.4 };
    let dist = kind.build(0.0, 1000.0);
    // Zipf cells quantize samples, so collisions across parts are common;
    // force some exact ones too.
    let parts: Vec<Vec<f64>> =
        vec![vec![125.0, 125.0, 500.0], vec![125.0, 875.0], vec![], vec![500.0, 500.0, 500.0]];
    let mut all: Vec<f64> = parts.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    let materialized = Ecdf::new(all).ks_distance_to(dist.as_ref());
    let truth = StreamingTruth::new(kind.build(0.0, 1000.0), 8);
    let streamed = truth.ks_of_parts(parts.iter().map(Vec::as_slice));
    assert_eq!(streamed, materialized);
}
