//! `Network::build_bulk` ≡ the incremental join path, and
//! `Network::bulk_load`'s sorted sweep ≡ the per-item owner search it
//! replaced.
//!
//! The O(P) bulk constructor skips per-join stabilization entirely, so its
//! claim to correctness is *equivalence*: wiring a ring in one pass must
//! produce exactly the routing state the overlay protocol itself converges
//! to — identical successor lists, predecessors, finger tables, lookup
//! routes, and item owners. Property-tested over seeds and every node
//! layout the scenario builders emit (uniform, load-balanced, adversarial).
//! The bulk load's sweep is held to the same layouts, under both
//! placements, store for store and bit for bit.

use dde_ring::{Network, Placement, RingId};
use dde_sim::{build_fresh, NodeLayout, Scenario};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

/// Ring ids drawn from a real scenario build, so the sweep covers the id
/// *shapes* the suite actually runs (including the adversarially packed
/// layout), not just uniform entropy.
fn layout_ids(seed: u64, peers: usize, layout: NodeLayout) -> Vec<RingId> {
    let s =
        Scenario::default().with_peers(peers).with_items(1_000).with_seed(seed).with_layout(layout);
    build_fresh(&s).net.ids().collect()
}

/// Builds the same membership through the overlay protocol: a 1-peer seed
/// ring, one `join` per id, then stabilization to full quiescence (a whole
/// finger sweep with zero corrections).
fn incremental(ids: &[RingId], placement: Placement) -> Network {
    let mut net = Network::build_bulk(vec![ids[0]], placement);
    for &id in &ids[1..] {
        net.join(id, ids[0]).expect("fault-free join");
    }
    // 4 fingers re-checked per node per round ⇒ 16 rounds sweep all 64
    // levels. Quiescence = one full sweep with zero corrections, so every
    // pointer has been *re-verified* against the converged successor state.
    let mut clean_rounds = 0;
    for round in 0.. {
        assert!(round < 96, "stabilization failed to quiesce after {round} rounds");
        if net.stabilize_round() == 0 {
            clean_rounds += 1;
            if clean_rounds == 16 {
                break;
            }
        } else {
            clean_rounds = 0;
        }
    }
    net
}

/// The equivalence oracle: node-for-node routing state, route-for-route
/// lookups, and item-for-item owner assignments must match.
fn assert_equivalent(bulk: &mut Network, inc: &mut Network, seed: u64) {
    let ids: Vec<RingId> = bulk.ids().collect();
    assert_eq!(ids, inc.ids().collect::<Vec<_>>(), "membership differs");
    for &id in &ids {
        let b = bulk.node(id).expect("alive in bulk");
        let i = inc.node(id).expect("alive in incremental");
        assert_eq!(b.successors, i.successors, "{id}: successor lists differ");
        assert_eq!(b.predecessor, i.predecessor, "{id}: predecessors differ");
        assert_eq!(b.fingers, i.fingers, "{id}: finger tables differ");
    }

    // Same routes: identical state must route identically, hop for hop.
    let mut rng = SeedSequence::new(seed).stream(Component::Workload, 7);
    for probe in 0..64 {
        let from = ids[rng.gen_range(0..ids.len())];
        let target = RingId(rng.gen());
        let a = bulk.lookup(from, target).expect("bulk routes");
        let b = inc.lookup(from, target).expect("incremental routes");
        assert_eq!(a.owner, b.owner, "probe {probe}: owners differ for {target}");
        assert_eq!(a.hops, b.hops, "probe {probe}: hop counts differ for {target}");
    }

    // Same owner assignments: a shared dataset lands item-for-item on the
    // same peers.
    let data: Vec<f64> = (0..512).map(|_| rng.gen_range(0.0..1000.0)).collect();
    bulk.bulk_load(&data);
    inc.bulk_load(&data);
    for &id in &ids {
        assert_eq!(
            bulk.node(id).expect("alive").store.values(),
            inc.node(id).expect("alive").store.values(),
            "{id}: stores differ after identical bulk load"
        );
    }
}

fn check(seed: u64, ids: Vec<RingId>) {
    let placement = Placement::range(0.0, 1000.0);
    let mut bulk = Network::build_bulk(ids.clone(), placement);
    let mut inc = incremental(&ids, placement);
    assert_equivalent(&mut bulk, &mut inc, seed);
}

/// The ids `{0} ∪ {2^f : f < 64}`. Wired, the peer at `2^k` names a
/// different peer at every level above `k`, so its table holds `64 − k`
/// finger runs, and the peer at 0 holds 64: 41 of the 65 tables outgrow the
/// 24 inline run slots and spill.
fn spilling_ids() -> Vec<RingId> {
    std::iter::once(RingId(0)).chain((0..64).map(|f| RingId(1 << f))).collect()
}

/// The finger runs of `id`'s table: present levels whose target differs
/// from the previous present level's.
fn finger_runs(net: &Network, id: RingId) -> usize {
    let targets: Vec<RingId> = net.node(id).expect("alive").fingers.present().collect();
    targets.len().min(1) + targets.windows(2).filter(|w| w[0] != w[1]).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Equivalence over seeds × layouts at the sizes the quick suite runs.
    #[test]
    fn bulk_build_matches_incremental_joins(
        seed in 0u64..(1u64 << 32),
        peers in prop_oneof![Just(16usize), Just(256usize)],
        layout in prop_oneof![
            Just(NodeLayout::UniformIds),
            Just(NodeLayout::LoadBalanced),
            Just(NodeLayout::Adversarial),
        ],
    ) {
        check(seed, layout_ids(seed, peers, layout));
    }
}

/// One deep cell at the mega-scale shape's edge: 4096 peers, adversarial
/// layout. A single pinned seed keeps the heavyweight convergence loop out
/// of the proptest budget while still exercising the size where the bulk
/// sweep's virtual-doubling wrap actually matters.
#[test]
fn bulk_build_matches_incremental_joins_at_4096() {
    check(0xF12, layout_ids(0xF12, 4_096, NodeLayout::Adversarial));
}

/// One pinned cell whose tables spill: the join seeding copies spilled
/// tables and stabilization's one-level writes move tables into a spill,
/// and the result must still equal the bulk wiring.
#[test]
fn bulk_build_matches_incremental_joins_with_spilled_finger_tables() {
    let ids = spilling_ids();
    let bulk = Network::build_bulk(ids.clone(), Placement::range(0.0, 1000.0));
    let runs: Vec<usize> = ids.iter().map(|&id| finger_runs(&bulk, id)).collect();
    assert_eq!(runs.iter().filter(|&&r| r > 24).count(), 41, "{runs:?}");
    assert_eq!(runs[0], 64);
    check(0x5B11, ids);
}

/// `Network::bulk_load` as it stood before the sorted sweep, kept as the
/// sweep's reference: one owner search per item in input order, a scatter
/// into per-owner vectors, and one `extend_values` per owner.
fn per_item_bulk_load(net: &mut Network, items: &[f64]) {
    let ids: Vec<RingId> = net.ids().collect();
    let placement = net.placement();
    // Two passes: count each owner's share, then fill exactly-sized
    // buckets — no reallocation during the distribution.
    let mut owners: Vec<usize> = Vec::with_capacity(items.len());
    let mut counts: Vec<usize> = vec![0; ids.len()];
    for &x in items {
        let t = placement.place(x);
        let pos = match ids.partition_point(|&k| k < t) {
            p if p == ids.len() => 0,
            p => p,
        };
        owners.push(pos);
        counts[pos] += 1;
    }
    let mut per_owner: Vec<Vec<f64>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (&x, &pos) in items.iter().zip(&owners) {
        per_owner[pos].push(x);
    }
    for (pos, vals) in per_owner.into_iter().enumerate() {
        if !vals.is_empty() {
            net.node_mut(ids[pos]).expect("alive").store.extend_values(vals);
        }
    }
}

/// Up to 600 items on the domain `[0, 1000]` that stress the sweep's edges:
/// duplicates, ±0.0, the domain bounds and infinities, values below `lo`
/// and above `hi`, and values that range placement puts past the last id
/// (and so wraps to position 0).
fn edge_items(seed: u64, last_id: RingId) -> Vec<f64> {
    let (lo, hi) = (0.0, 1000.0);
    let past_last = (hi - lo) * (1.0 - last_id.0 as f64 / 2f64.powi(64));
    let special = [-0.0, 0.0, lo, hi, f64::NEG_INFINITY, f64::INFINITY, f64::MIN_POSITIVE];
    let mut rng = SeedSequence::new(seed).stream(Component::Dataset, 1);
    let n = rng.gen_range(0..600);
    let mut items: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let x = match rng.gen_range(0..10) {
            0 => special[rng.gen_range(0..special.len())],
            1 if !items.is_empty() => items[rng.gen_range(0..items.len())],
            2 => hi - past_last * rng.gen_range(0.0..1.0),
            3 => lo - rng.gen_range(0.0..10.0),
            4 => hi + rng.gen_range(0.0..10.0),
            _ => rng.gen_range(lo..hi),
        };
        items.push(x);
    }
    items
}

fn store_bits(net: &Network) -> Vec<(RingId, Vec<u64>)> {
    net.ids()
        .map(|id| {
            let store = &net.node(id).expect("alive").store;
            (id, store.values().iter().map(|x| x.to_bits()).collect())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The sweep ≡ the per-item reference over seeds × {range, hashed} ×
    /// the three layouts' ids, plus ids on item positions. The input comes
    /// as drawn, by ascending value, or by placed id; the ring order of
    /// each placement (the first under range, the second under hashed)
    /// skips the sort. It comes borrowed (copied into the load buffer) or
    /// owned (the buffer itself), and loads in two parts, so the second
    /// part meets non-empty stores.
    #[test]
    fn bulk_load_sweep_matches_per_item_reference(
        seed in 0u64..(1u64 << 32),
        peers in prop_oneof![Just(1usize), Just(16usize), Just(256usize)],
        layout in prop_oneof![
            Just(NodeLayout::UniformIds),
            Just(NodeLayout::LoadBalanced),
            Just(NodeLayout::Adversarial),
        ],
        hashed in any::<bool>(),
        order in 0u8..3,
        split in 0.0f64..1.0,
        owned in any::<bool>(),
    ) {
        let mut ids = layout_ids(seed, peers, layout);
        let placement =
            if hashed { Placement::hashed(0.0, 1000.0) } else { Placement::range(0.0, 1000.0) };
        let mut items = edge_items(seed, *ids.last().expect("peers"));
        // A few peers sit exactly on an item's ring position, which the
        // peer owns (ownership is at-or-after).
        ids.extend(items.iter().step_by(97).map(|&x| placement.place(x)));
        match order {
            0 => {}
            1 => items.sort_by(f64::total_cmp),
            _ => items.sort_by_key(|&x| placement.place(x)),
        }
        let (first, second) = items.split_at((split * items.len() as f64) as usize);
        let mut sweep = Network::build_bulk(ids.clone(), placement);
        let mut reference = Network::build_bulk(ids, placement);
        for part in [first, second] {
            if owned {
                sweep.bulk_load(part.to_vec());
            } else {
                sweep.bulk_load(part);
            }
            per_item_bulk_load(&mut reference, part);
        }
        prop_assert_eq!(store_bits(&sweep), store_bits(&reference));
        prop_assert_eq!(sweep.total_items(), items.len() as u64);
    }
}
