//! Ground-truth freshness and conservation.
//!
//! [`Network::global_values`] is the sorted global multiset every accuracy
//! number is scored against. These tests pin that it never serves a *stale*
//! snapshot after a write, a leave, a crash or stabilization, and that it
//! agrees with the item counters throughout.

use dde_ring::{Network, Placement, RingId};
use dde_stats::rng::{Component, SeedSequence};
use rand::Rng;

fn net_with_data(peers: usize, items: usize, seed: u64) -> Network {
    let seq = SeedSequence::new(seed);
    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build(ids, Placement::range(0.0, 1000.0));
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
