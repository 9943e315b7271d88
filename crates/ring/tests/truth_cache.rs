//! Ground-truth freshness and conservation, and the live view's contract.
//!
//! [`Network::live_values`] is the global multiset every live-data score is
//! computed against. These tests pin that it never serves a *stale*
//! snapshot after a write, a leave, a crash or stabilization, that it
//! agrees with the item counters throughout, and the view's contract
//! ([`check_view`]) in every case: range and hashed rings, empty stores,
//! the position-0 wrap split, both zeros and duplicates, churn, and items
//! planted off their owners.

use dde_ring::{ChurnConfig, ChurnProcess, LiveValues, Network, Placement, RingId};
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::{CdfFn, Ecdf};
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

/// The stores' values concatenated in ring order: position 0's values
/// placed at or before its id, positions 1…P−1, then position 0's wrap
/// tail.
fn ring_order(net: &Network) -> Vec<f64> {
    let ids: Vec<RingId> = net.ids().collect();
    let Some(&first) = ids.first() else { return Vec::new() };
    let head = net.node(first).unwrap().store.values();
    let split = head.partition_point(|&x| net.placement().place(x) <= first);
    let mut all = head[..split].to_vec();
    for &id in &ids[1..] {
        all.extend_from_slice(net.node(id).unwrap().store.values());
    }
    all.extend_from_slice(&head[split..]);
    all
}

/// Bit patterns, so that `-0.0` and `0.0` count as different values.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The view's contract on `net`, against `Ecdf::from_sorted` over
/// [`collected_truth`]:
/// - every store is in `total_cmp` order (the view's precondition);
/// - `iter()` yields the collected truth's bits in its order, and `len()`
///   counts them;
/// - the view takes the runs arm exactly when [`ring_order`] is in
///   `total_cmp` order, and that arm yields references into the stores;
/// - `cdf` at every point, and `cdf_ascending` over all points in one pass,
///   are bit-equal to the `Ecdf`'s, as are `inv_cdf` and `domain`. The
///   points are every value, its bit neighbours, the two zeros and points
///   past both ends.
///
/// Returns which arm the view took.
fn check_view(net: &Network, case: &str) -> bool {
    for id in net.ids() {
        let values = net.node(id).unwrap().store.values();
        let sorted = values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le());
        assert!(sorted, "{case}: the store at {id} left total_cmp order");
    }
    let truth = collected_truth(net);
    let view = net.live_values();
    let got: Vec<f64> = view.iter().copied().collect();
    assert_eq!(bits(&got), bits(&truth), "{case}: iter() differs from the collected truth");
    assert_eq!(view.len(), truth.len(), "{case}: len");
    let ascending = ring_order(net).windows(2).all(|w| w[0].total_cmp(&w[1]).is_le());
    let in_place = matches!(view, LiveValues::Runs(_));
    assert_eq!(
        in_place, ascending,
        "{case}: runs arm taken {in_place}, ring order sorted {ascending}"
    );
    if in_place {
        let mut stores: Vec<(usize, usize)> = net
            .ids()
            .map(|id| {
                let range = net.node(id).unwrap().store.values().as_ptr_range();
                (range.start as usize, range.end as usize)
            })
            .collect();
        stores.sort_unstable();
        for v in view.iter() {
            let at = v as *const f64 as usize;
            let i = stores.partition_point(|&(start, _)| start <= at);
            assert!(i > 0 && at < stores[i - 1].1, "{case}: the runs arm yielded a copy");
        }
    }
    if truth.is_empty() {
        return in_place;
    }
    let ecdf = Ecdf::from_sorted(truth.clone());
    let (lo, hi) = (truth[0], truth[truth.len() - 1]);
    let mut xs: Vec<f64> = truth
        .iter()
        .flat_map(|&v| {
            let b = v.to_bits();
            [v, f64::from_bits(b.wrapping_add(1)), f64::from_bits(b.wrapping_sub(1))]
        })
        .chain([-0.0, 0.0, lo - 1.0, hi + 1.0, f64::NEG_INFINITY, f64::INFINITY])
        .filter(|x| !x.is_nan())
        .collect();
    xs.sort_by(f64::total_cmp);
    let mut out = vec![f64::NAN; xs.len()];
    view.cdf_ascending(&xs, &mut out);
    for (&x, &f) in xs.iter().zip(&out) {
        let want = ecdf.cdf(x).to_bits();
        assert_eq!(f.to_bits(), want, "{case}: cdf_ascending at {x:?}");
        assert_eq!(view.cdf(x).to_bits(), want, "{case}: cdf at {x:?}");
    }
    for i in 0..=64 {
        let u = f64::from(i) / 64.0;
        assert_eq!(view.inv_cdf(u).to_bits(), ecdf.inv_cdf(u).to_bits(), "{case}: inv_cdf({u})");
    }
    assert_eq!(bits(&[view.domain().0, view.domain().1]), bits(&[lo, hi]), "{case}: domain");
    in_place
}

#[test]
fn insert_evaluate_delete_evaluate_never_sees_stale_truth() {
    let mut net = net_with_data(32, 3_200, 2);
    let initiator = net.ids().next().unwrap();
    let before: Vec<f64> = net.live_values().iter().copied().collect();

    // Insert → evaluate: the inserted value must be visible immediately.
    net.insert(initiator, 123.25).unwrap();
    assert!(check_view(&net, "after insert"));
    let with: Vec<f64> = net.live_values().iter().copied().collect();
    assert_eq!(with.len(), before.len() + 1);
    assert!(with.binary_search_by(|v| v.total_cmp(&123.25)).is_ok());

    // Delete → evaluate: back to the original multiset.
    let (removed, _) = net.delete(initiator, 123.25).unwrap();
    assert!(removed);
    assert!(check_view(&net, "after delete"));
    let after: Vec<f64> = net.live_values().iter().copied().collect();
    assert_eq!(after, before, "stale truth after delete");
}

#[test]
fn membership_churn_invalidates_the_cache() {
    let mut net = net_with_data(64, 6_400, 3);
    let ids: Vec<RingId> = net.ids().collect();

    // A graceful leave hands data off (multiset preserved), a crash loses
    // the victim's primaries; either way the truth must track the oracle.
    net.leave(ids[5]).unwrap();
    check_view(&net, "after leave");

    net.fail(ids[20]).unwrap();
    check_view(&net, "after fail");
    assert!(net.live_values().len() < 6_400, "the crash should have lost data");

    for _ in 0..3 {
        net.stabilize_round();
    }
    check_view(&net, "after stabilization");
}

/// The exact-aggregation estimator consumes the same stores after churn;
/// stale truth shows up as an N mismatch there. Pin the raw count too,
/// through the same mutation sequence.
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
        assert_eq!(
            net.live_values().len() as u64,
            net.total_items(),
            "truth and counters diverged"
        );
        check_view(&net, &format!("after departure {i}"));
    }
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

    /// The view's contract under range and hashed placement, on a 1-peer
    /// ring and a larger one (more peers than items leaves stores empty;
    /// zero items leaves them all empty), over data with duplicates, both
    /// zeros, the domain ends and values clamped past them (the smallest
    /// and largest land on ring 0 and the ring's top, so position 0 holds
    /// a head and a wrap tail).
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
            let in_place = check_view(&net, &format!("{placement:?}, {p} peers, {items} items"));
            prop_assert_eq!(net.live_values().len(), items);
            if !hashed {
                prop_assert!(in_place, "a range-placed bulk load is in ring order");
            }
        }
    }
}

/// Protocol churn hands data over along routing state that may be stale (a
/// leaver's first live successor, a joiner's successor's believed
/// predecessor), so items can sit on peers that do not own them until a
/// later repair moves them. The view must then take the sorted copy and
/// still match the reference.
#[test]
fn truth_matches_collect_and_sort_after_protocol_churn() {
    for placement in [Placement::range(0.0, 1000.0), Placement::hashed(0.0, 1000.0)] {
        let mut net = net_with_data(64, 6_400, 5);
        if placement != net.placement() {
            let data: Vec<f64> = net.live_values().iter().copied().collect();
            net = Network::build_bulk(net.ids().collect(), placement);
            net.bulk_load(&data);
        }
        let mut rng = SeedSequence::new(5).stream(Component::Churn, 0);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.2, 1.0));
        churn.run(&mut net, 3.0, &mut rng);
        assert!(misplaced(&net) > 0, "churn left every item on its owner");
        check_view(&net, &format!("{placement:?} after protocol churn"));
    }
}

/// Items planted off their owners, on a range ring. A copy of a store's
/// first value planted at the end of the previous store keeps the ring
/// order sorted with one value on both sides of a run boundary, so the view
/// stays in place and must count both copies at that value. A value planted
/// above the next store's first breaks the order, so the view must take the
/// sorted copy.
#[test]
fn items_planted_off_their_owners() {
    let mut net = net_with_data(24, 2_400, 6);
    let ids: Vec<RingId> = net.ids().collect();
    let store = |net: &Network, i: usize| net.node(ids[i]).unwrap().store.values().to_vec();
    let (a, b) = (1..ids.len() - 1)
        .map(|i| (i, i + 1))
        .find(|&(a, b)| !store(&net, a).is_empty() && !store(&net, b).is_empty())
        .expect("two adjacent loaded stores");
    let first_of_b = store(&net, b)[0];
    net.node_mut(ids[a]).unwrap().store.insert(first_of_b);
    assert!(misplaced(&net) > 0);
    assert!(check_view(&net, "a duplicate across a run boundary"), "still in ring order");

    let past_b = store(&net, b)[1];
    net.node_mut(ids[a]).unwrap().store.insert(past_b);
    assert!(!check_view(&net, "a value above the next store's first"), "out of ring order");
}

/// `-0.0` and `0.0` land on the same store under range placement. Whatever
/// order they arrive in, by routed insert or churn insert, every store keeps
/// `total_cmp` order (`-0.0` first), so the view reads the stores in place
/// and equals collect-and-sort; a routed delete drops only the bit-equal
/// copy.
#[test]
fn both_zeros_in_either_order_keep_stores_in_total_order() {
    for first in [-0.0, 0.0] {
        let mut net = net_with_data(16, 800, 9);
        let initiator = net.ids().next().unwrap();
        for x in [first, -first, first] {
            net.insert(initiator, x).unwrap();
            net.churn_insert_item(-x);
        }
        assert!(check_view(&net, &format!("first {first:?}")), "first {first:?}: not in place");
        let zeros = |net: &Network| {
            let view = net.live_values();
            (
                view.iter().filter(|v| v.to_bits() == (-0.0f64).to_bits()).count(),
                view.iter().filter(|v| v.to_bits() == 0.0f64.to_bits()).count(),
            )
        };
        assert_eq!(zeros(&net), (3, 3), "first {first:?}");
        assert!(net.delete(initiator, first).unwrap().0);
        let left = if first.is_sign_negative() { (2, 3) } else { (3, 2) };
        assert_eq!(zeros(&net), left, "first {first:?}: delete dropped the other zero");
    }
}
