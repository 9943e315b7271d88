//! Ground-truth freshness and conservation.
//!
//! [`Network::global_values`] is the sorted global multiset every accuracy
//! number is scored against. These tests pin that it never serves a *stale*
//! snapshot after a write, a leave, a crash or stabilization, and that it
//! agrees with the item counters throughout.

use dde_ring::{ChurnConfig, ChurnProcess, Network, Placement, RingId};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

fn net_with_data(peers: usize, items: usize, seed: u64) -> Network {
    let seq = SeedSequence::new(seed);
    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut data_rng = seq.stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..items).map(|_| data_rng.gen::<f64>() * 1000.0).collect();
    net.bulk_load(&data);
    net
}

/// The oracle: walk every store directly.
fn collected_truth(net: &Network) -> Vec<f64> {
    let mut all: Vec<f64> =
        net.ids().flat_map(|id| net.node(id).unwrap().store.values().to_vec()).collect();
    all.sort_by(f64::total_cmp);
    all
}

#[test]
fn insert_evaluate_delete_evaluate_never_sees_stale_truth() {
    let mut net = net_with_data(32, 3_200, 2);
    let initiator = net.ids().next().unwrap();
    let before = net.global_values();

    // Insert → evaluate: the inserted value must be visible immediately.
    net.insert(initiator, 123.25).unwrap();
    let with = net.global_values();
    assert_eq!(with.len(), before.len() + 1);
    assert!(with.binary_search_by(|v| v.total_cmp(&123.25)).is_ok());
    assert_eq!(with, collected_truth(&net));

    // Delete → evaluate: back to the original multiset.
    let (removed, _) = net.delete(initiator, 123.25).unwrap();
    assert!(removed);
    let after = net.global_values();
    assert_eq!(after, before, "stale truth after delete");
    assert_eq!(after, collected_truth(&net));
}

#[test]
fn membership_churn_invalidates_the_cache() {
    let mut net = net_with_data(64, 6_400, 3);
    let ids: Vec<RingId> = net.ids().collect();

    // A graceful leave hands data off (multiset preserved), a crash loses
    // the victim's primaries; either way the truth must track the oracle.
    net.leave(ids[5]).unwrap();
    assert_eq!(net.global_values(), collected_truth(&net), "stale truth after leave");

    net.fail(ids[20]).unwrap();
    let after_fail = net.global_values();
    assert_eq!(after_fail, collected_truth(&net), "stale truth after fail");
    assert!(after_fail.len() < 6_400, "the crash should have lost data");

    for _ in 0..3 {
        net.stabilize_round();
    }
    assert_eq!(net.global_values(), collected_truth(&net), "stale truth after stabilization");
}

/// The exact-aggregation estimator consumes `global_values()`-style state
/// after churn; stale truth shows up as an N mismatch there. Pin the raw
/// count instead, through the same mutation sequence.
#[test]
fn total_items_and_truth_agree_through_churn() {
    let mut net = net_with_data(48, 4_800, 4);
    let ids: Vec<RingId> = net.ids().collect();
    for (i, &id) in ids.iter().enumerate().take(12) {
        if i % 3 == 0 {
            net.fail(id).unwrap();
        } else {
            net.leave(id).unwrap();
        }
        net.stabilize_round();
        let truth = net.global_values();
        assert_eq!(truth.len() as u64, net.total_items(), "truth and counters diverged");
        assert_eq!(truth, collected_truth(&net));
    }
}

/// Bit patterns, so that `-0.0` and `0.0` count as different values.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Items held by a peer other than the owner of their placed ring point.
fn misplaced(net: &Network) -> usize {
    let placement = net.placement();
    net.ids()
        .map(|id| {
            let store = &net.node(id).unwrap().store;
            store.values().iter().filter(|&&x| net.true_owner(placement.place(x)) != id).count()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one-pass collect ≡ collect-and-sort, bit for bit: under range and
    /// hashed placement, on a 1-peer ring and a larger one, over data with
    /// duplicates, both zeros, the domain ends and values clamped past them
    /// (the smallest and largest land on ring 0 and the ring's top).
    #[test]
    fn one_pass_truth_matches_collect_and_sort(
        seed: u64,
        peers in 2usize..64,
        items in 0usize..1500,
        hashed: bool,
    ) {
        let mut rng = SeedSequence::new(seed).stream(Component::Dataset, 0);
        let pool = [-0.0, 0.0, 1000.0, -5.0, 1005.0, 250.0, rng.gen::<f64>() * 1000.0];
        let data: Vec<f64> = (0..items)
            .map(|_| if rng.gen_range(0..4) == 0 { pool[rng.gen_range(0..pool.len())] } else { rng.gen::<f64>() * 1000.0 })
            .collect();
        let placement =
            if hashed { Placement::hashed(0.0, 1000.0) } else { Placement::range(0.0, 1000.0) };
        for p in [1, peers] {
            let ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
            let mut net = Network::build_bulk(ids, placement);
            net.bulk_load(&data);
            prop_assert_eq!(bits(&net.global_values()), bits(&collected_truth(&net)));
            prop_assert_eq!(net.global_values().len(), items);
        }
    }
}

/// Protocol churn hands data over along routing state that may be stale (a
/// leaver's first live successor, a joiner's successor's believed
/// predecessor), so items can sit on peers that do not own them until a
/// later repair moves them. The collect must then fall back to the sort and
/// still match the reference.
#[test]
fn truth_matches_collect_and_sort_after_protocol_churn() {
    for placement in [Placement::range(0.0, 1000.0), Placement::hashed(0.0, 1000.0)] {
        let mut net = net_with_data(64, 6_400, 5);
        if placement != net.placement() {
            let data = net.global_values();
            net = Network::build_bulk(net.ids().collect(), placement);
            net.bulk_load(&data);
        }
        let mut rng = SeedSequence::new(5).stream(Component::Churn, 0);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.2, 1.0));
        churn.run(&mut net, 3.0, &mut rng);
        assert!(misplaced(&net) > 0, "churn left every item on its owner");
        assert_eq!(bits(&net.global_values()), bits(&collected_truth(&net)));
    }
}

/// `-0.0` and `0.0` land on the same store under range placement. Whatever
/// order they arrive in, by routed insert or churn insert, every store keeps
/// `total_cmp` order (`-0.0` first), so the one-pass collect needs no
/// fallback sort and equals collect-and-sort; a routed delete drops only the
/// bit-equal copy.
#[test]
fn both_zeros_in_either_order_keep_stores_in_total_order() {
    for first in [-0.0, 0.0] {
        let mut net = net_with_data(16, 800, 9);
        let initiator = net.ids().next().unwrap();
        for x in [first, -first, first] {
            net.insert(initiator, x).unwrap();
            net.churn_insert_item(-x);
        }
        for id in net.ids() {
            let values = net.node(id).unwrap().store.values();
            assert!(
                values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
                "first {first:?}: a store left total_cmp order"
            );
        }
        assert_eq!(bits(&net.global_values()), bits(&collected_truth(&net)), "first {first:?}");
        let zeros = |net: &Network| {
            let all = net.global_values();
            (
                all.iter().filter(|v| v.to_bits() == (-0.0f64).to_bits()).count(),
                all.iter().filter(|v| v.to_bits() == 0.0f64.to_bits()).count(),
            )
        };
        assert_eq!(zeros(&net), (3, 3), "first {first:?}");
        assert!(net.delete(initiator, first).unwrap().0);
        let left = if first.is_sign_negative() { (2, 3) } else { (3, 2) };
        assert_eq!(zeros(&net), left, "first {first:?}: delete dropped the other zero");
    }
}
