//! The analytic (streamed) truth path agrees with the live stores on real
//! builds.
//!
//! `crates/stats/tests/streaming_truth.rs` proves the merge arithmetic on
//! synthetic partitions; this suite closes the loop at the scenario level:
//! for every generator kind the builders emit, a small built network's
//! per-peer stores streamed through [`StreamingTruth::ks_of_parts`] must
//! reproduce the KS distance of an `Ecdf` of the ring's live values to
//! < 1e-9, before and after F12b's churn.

use dde_ring::ChurnBatch;
use dde_sim::experiments::f12b_churn::{item_turnover, membership_batch};
use dde_sim::{build_fresh, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::streaming::StreamingTruth;
use dde_stats::Ecdf;
use proptest::prelude::*;

/// The ECDF of every value the ring holds.
fn live_ecdf(net: &dde_ring::Network) -> Ecdf {
    Ecdf::from_sorted(net.live_values().iter().copied().collect())
}

fn agreement_gap(kind: DistributionKind, seed: u64) -> f64 {
    let s = Scenario::default()
        .with_peers(48)
        .with_items(3_000)
        .with_seed(seed)
        .with_distribution(kind);
    let built = build_fresh(&s);
    let materialized = live_ecdf(&built.net).ks_distance_to(built.truth.as_ref());
    let truth = StreamingTruth::new(built.truth, built.net.total_items());
    let parts: Vec<&[f64]> =
        built.net.ids().map(|id| built.net.node(id).expect("alive").store.values()).collect();
    let streamed = truth.ks_of_parts(parts);
    (streamed - materialized).abs()
}

/// The churn-delta path: per-peer parts are frozen *before* the network
/// churns, and every later data delta — turnover inserts/deletes and crash
/// losses — is journaled into the streamed truth instead of re-streaming
/// the stores. The stale parts plus journals must still agree with an ECDF
/// of the post-churn network's live values: that is how a journaled truth
/// (ringbench `churn`'s) stays current in `O(deltas)` instead of
/// `O(items)` per round.
fn churned_agreement_gap(kind: DistributionKind, seed: u64) -> f64 {
    let s = Scenario::default()
        .with_peers(64)
        .with_items(4_000)
        .with_seed(seed)
        .with_distribution(kind);
    let mut built = build_fresh(&s);
    let initial = built.net.total_items();
    let frozen: Vec<Vec<f64>> = built
        .net
        .ids()
        .map(|id| built.net.node(id).expect("alive").store.values().to_vec())
        .collect();

    let mut batch = ChurnBatch::new();
    let mut adds = Vec::new();
    let mut removes = Vec::new();
    for round in 0..2 {
        let applied = membership_batch(&mut built.net, &mut batch, seed, round);
        removes.extend(applied.lost);
        let (inserted, removed) = item_turnover(&mut built, round);
        adds.extend(inserted);
        removes.extend(removed);
    }

    let materialized = live_ecdf(&built.net).ks_distance_to(built.truth.as_ref());
    let mut truth = StreamingTruth::new(built.truth, initial);
    truth.journal_adds(adds);
    truth.journal_removes(removes);
    let streamed = truth.ks_of_parts(frozen.iter().map(Vec::as_slice));
    (streamed - materialized).abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Per-peer stores are a partition of the realized dataset (bulk load
    /// conserves items), so the streamed KS against the generator must match
    /// the materialized one on every built scenario.
    #[test]
    fn streamed_truth_matches_materialized_truth_on_builds(seed in 0u64..(1u64 << 32)) {
        for kind in [
            DistributionKind::Uniform,
            DistributionKind::Pareto { shape: 1.2 },
            DistributionKind::HotspotZipf { cells: 32, exponent: 1.2, arcs: 2 },
            DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        ] {
            let gap = agreement_gap(kind.clone(), seed);
            prop_assert!(gap < 1e-9, "{kind:?}: streamed vs materialized KS differ by {gap}");
        }
    }

    /// Same closure for the churn column: batched membership windows plus
    /// item turnover, with crash losses and turnover deltas journaled into
    /// the streamed truth, agree with the ECDF of the post-churn stores.
    #[test]
    fn streamed_truth_matches_materialized_truth_after_churn(seed in 0u64..(1u64 << 32)) {
        for kind in [
            DistributionKind::Uniform,
            DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        ] {
            let gap = churned_agreement_gap(kind.clone(), seed);
            prop_assert!(gap < 1e-9, "{kind:?}: churned streamed vs materialized KS differ by {gap}");
        }
    }
}
