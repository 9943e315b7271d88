//! `ChurnBatch::apply` ≡ a one-event-at-a-time reference model.
//!
//! The batched repair sweep coalesces a whole window of membership events
//! into one column splice and one monotone repair pass, so its claim to
//! correctness is *equivalence* with applying the same events one at a
//! time in recorded order. That sequential semantics lives here as a small
//! model, not in the library: an ordered map of alive id → sorted store,
//! where a join drains the arc `(pred, id]` from its successor, a leave
//! hands its whole store to its successor, a crash drops it, departures
//! are refused at 2 peers, and each event tallies the Handoff/Stabilize
//! charges it bills. The wiring reference is `Network::build_bulk` of the
//! model's final membership (itself proven equal to the converged protocol
//! state by `bulk_equivalence.rs`).
//!
//! The batch must match the model in membership, successor lists,
//! predecessors, finger tables, per-peer stores, crash losses,
//! Handoff/Stabilize message counts and bytes, and 64 seeded lookup routes
//! (hop for hop) — both when the window is applied as one batch and when
//! every event is applied as its own 1-event batch. Epoch counters differ
//! by construction (one bump per batch) and are deliberately out of scope.
//!
//! Property-tested over seeds × sizes × every node layout the scenario
//! builders emit, with a pinned 4096-peer adversarial cell guarding the
//! shape where repair locality actually matters.

use dde_ring::messages::HEADER_BYTES;
use dde_ring::node::SUCCESSOR_LIST_LEN;
use dde_ring::{ChurnApplied, ChurnBatch, ChurnEvent, MessageKind, Network, Placement, RingId};
use dde_sim::{build_fresh, NodeLayout, Scenario};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

/// Ring ids drawn from a real scenario build, so the sweep covers the id
/// *shapes* the suite actually runs, not just uniform entropy.
fn layout_ids(seed: u64, peers: usize, layout: NodeLayout) -> Vec<RingId> {
    let s =
        Scenario::default().with_peers(peers).with_items(1_000).with_seed(seed).with_layout(layout);
    build_fresh(&s).net.ids().collect()
}

/// A mixed membership window: ~6% joins, ~3% leaves, ~3% crashes (at least
/// one of each), all on distinct ids so the batch's one-event-per-id policy
/// is not exercised (its skip behavior has its own pinned unit tests).
fn event_window(net: &Network, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = SeedSequence::new(seed).stream(Component::Churn, 11);
    let ids: Vec<RingId> = net.ids().collect();
    let p = ids.len();
    let joins = (p / 16).max(2);
    let deaths = (p / 16).max(2);
    let mut events = Vec::new();
    for _ in 0..joins {
        loop {
            let id = RingId(rng.gen());
            if !net.is_alive(id) && !events.iter().any(|e: &ChurnEvent| e.id() == id) {
                events.push(ChurnEvent::Join(id));
                break;
            }
        }
    }
    // Distinct victims, spread across the ring.
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < deaths {
        let v = rng.gen_range(0..p);
        if !victims.contains(&v) {
            victims.push(v);
        }
    }
    for (k, &v) in victims.iter().enumerate() {
        if k % 2 == 0 {
            events.push(ChurnEvent::Leave(ids[v]));
        } else {
            events.push(ChurnEvent::Crash(ids[v]));
        }
    }
    // Interleave so joins and departures alternate through the window
    // (order-dependent heir/donor resolution is the hard part).
    let mut shuffled = Vec::with_capacity(events.len());
    while !events.is_empty() {
        let i = rng.gen_range(0..events.len());
        shuffled.push(events.swap_remove(i));
    }
    shuffled
}

/// The sequential reference: alive id → sorted store, mutated one event at
/// a time, with the message charges each event bills and the outcome
/// tally (`repair` aside) a batch must report.
struct Model {
    placement: Placement,
    stores: BTreeMap<RingId, Vec<f64>>,
    messages: BTreeMap<MessageKind, u64>,
    bytes: u64,
    tally: ChurnApplied,
}

impl Model {
    fn of(net: &Network) -> Self {
        let stores = net.ids().map(|id| (id, net.node(id).expect("alive").store.values().to_vec()));
        Self {
            placement: net.placement(),
            stores: stores.collect(),
            messages: BTreeMap::new(),
            bytes: 0,
            tally: ChurnApplied::default(),
        }
    }

    /// The first alive id clockwise after `id`.
    fn successor(&self, id: RingId) -> RingId {
        let next = self.stores.range((Excluded(id), Unbounded)).next();
        *next.or_else(|| self.stores.iter().next()).expect("nonempty").0
    }

    /// The last alive id counter-clockwise before `id`.
    fn predecessor(&self, id: RingId) -> RingId {
        let prev = self.stores.range(..id).next_back();
        *prev.or_else(|| self.stores.iter().next_back()).expect("nonempty").0
    }

    fn bill(&mut self, kind: MessageKind, payload: usize) {
        *self.messages.entry(kind).or_default() += 1;
        self.bytes += (HEADER_BYTES + payload) as u64;
    }

    /// Applies one event, or counts it skipped if infeasible.
    fn apply(&mut self, ev: ChurnEvent) {
        let p = self.stores.len();
        let feasible = match ev {
            ChurnEvent::Join(id) => p > 0 && !self.stores.contains_key(&id),
            ChurnEvent::Leave(id) | ChurnEvent::Crash(id) => p > 2 && self.stores.contains_key(&id),
        };
        if !feasible {
            self.tally.skipped += 1;
            return;
        }
        match ev {
            ChurnEvent::Join(id) => {
                let (pred, placement) = (self.predecessor(id), self.placement);
                let donor = self.stores.get_mut(&self.successor(id)).expect("alive");
                let (moved, kept): (Vec<f64>, Vec<f64>) =
                    donor.iter().partition(|&&x| placement.place(x).in_arc(pred, id));
                *donor = kept;
                self.bill(MessageKind::Handoff, 8 * moved.len());
                self.bill(MessageKind::Stabilize, 8 * (1 + SUCCESSOR_LIST_LEN.min(p).max(1)));
                self.tally.joins += 1;
                self.tally.items_moved += moved.len() as u64;
                self.stores.insert(id, moved);
            }
            ChurnEvent::Leave(id) => {
                let heir = self.successor(id);
                let data = self.stores.remove(&id).expect("alive");
                self.bill(MessageKind::Handoff, 8 * data.len());
                self.tally.leaves += 1;
                self.tally.items_moved += data.len() as u64;
                let heir_store = self.stores.get_mut(&heir).expect("alive");
                heir_store.extend(data);
                heir_store.sort_by(f64::total_cmp);
                self.bill(MessageKind::Stabilize, 8 * (1 + SUCCESSOR_LIST_LEN.min(p - 2).max(1)));
            }
            ChurnEvent::Crash(id) => {
                let data = self.stores.remove(&id).expect("alive");
                self.tally.crashes += 1;
                self.tally.lost.extend(data);
            }
        }
    }
}

/// The equivalence oracle: `got` (churned from `base`, reporting
/// `applied`) must match the model's membership, stores, outcome tally and
/// charges, and `reference`'s wiring and routes.
fn assert_matches(
    label: &str,
    model: &Model,
    reference: &Network,
    base: &Network,
    got: &mut Network,
    applied: &ChurnApplied,
    seed: u64,
) {
    let ids: Vec<RingId> = got.ids().collect();
    assert!(ids.iter().eq(model.stores.keys()), "{label}: membership differs");
    for &id in &ids {
        let (g, r) = (got.node(id).expect("alive"), reference.node(id).expect("alive"));
        assert_eq!(g.successors, r.successors, "{label} {id}: successor lists differ");
        assert_eq!(g.predecessor, r.predecessor, "{label} {id}: predecessors differ");
        assert_eq!(g.fingers, r.fingers, "{label} {id}: finger tables differ");
        assert_eq!(g.store.values(), &model.stores[&id][..], "{label} {id}: stores differ");
    }
    let expected = ChurnApplied { repair: applied.repair, ..model.tally.clone() };
    assert_eq!(applied, &expected, "{label}: outcome tallies differ");
    for kind in [MessageKind::Handoff, MessageKind::Stabilize] {
        let billed = got.stats().count(kind) - base.stats().count(kind);
        let expected = model.messages.get(&kind).copied().unwrap_or(0);
        assert_eq!(billed, expected, "{label}: {kind:?} message counts differ");
    }
    let bytes = got.stats().total_bytes() - base.stats().total_bytes();
    assert_eq!(bytes, model.bytes, "{label}: byte charges differ");
    assert!(got.check_invariants().is_empty(), "{label}: {:?}", got.check_invariants());

    // Same seeded routes, hop for hop.
    let mut reference = reference.clone();
    let mut rng = SeedSequence::new(seed).stream(Component::Workload, 7);
    for probe in 0..64 {
        let from = ids[rng.gen_range(0..ids.len())];
        let target = RingId(rng.gen());
        let a = got.lookup(from, target).expect("batch routes");
        let b = reference.lookup(from, target).expect("reference routes");
        assert_eq!(a.owner, b.owner, "{label} probe {probe}: owners differ for {target}");
        assert_eq!(a.hops, b.hops, "{label} probe {probe}: hop counts differ for {target}");
    }
}

fn check(seed: u64, ids: Vec<RingId>, window: fn(&Network, u64) -> Vec<ChurnEvent>) {
    let placement = Placement::range(0.0, 1000.0);
    let peers = ids.len();
    let mut base = Network::build_bulk(ids, placement);
    let mut rng = SeedSequence::new(seed).stream(Component::Dataset, 5);
    let data: Vec<f64> = (0..peers * 20).map(|_| rng.gen_range(0.0..1000.0)).collect();
    base.bulk_load(&data);
    let events = window(&base, seed);

    let mut model = Model::of(&base);
    for &ev in &events {
        model.apply(ev);
    }
    let reference = Network::build_bulk(model.stores.keys().copied().collect(), placement);
    let mut batch = ChurnBatch::new();

    // The whole window as one batch.
    let mut whole = base.clone();
    for &ev in &events {
        batch.push(ev);
    }
    let out = batch.apply(&mut whole);
    assert_matches("window", &model, &reference, &base, &mut whole, &out, seed);

    // Every event as its own 1-event batch.
    let mut single = base.clone();
    let mut total = ChurnApplied::default();
    for &ev in &events {
        batch.push(ev);
        let out = batch.apply(&mut single);
        total.joins += out.joins;
        total.leaves += out.leaves;
        total.crashes += out.crashes;
        total.skipped += out.skipped;
        total.items_moved += out.items_moved;
        total.lost.extend(out.lost);
    }
    assert_matches("1-event", &model, &reference, &base, &mut single, &total, seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Equivalence over seeds × layouts at the sizes the quick suite runs.
    #[test]
    fn batched_churn_matches_sequential_events(
        seed in 0u64..(1u64 << 32),
        peers in prop_oneof![Just(16usize), Just(256usize)],
        layout in prop_oneof![
            Just(NodeLayout::UniformIds),
            Just(NodeLayout::LoadBalanced),
            Just(NodeLayout::Adversarial),
        ],
    ) {
        check(seed, layout_ids(seed, peers, layout), event_window);
    }
}

/// One deep cell at the mega-scale shape's edge: 4096 peers, adversarial
/// layout, a ~500-event window. Pinned seed to keep it out of the proptest
/// budget.
#[test]
fn batched_churn_matches_sequential_events_at_4096() {
    check(0xF12B, layout_ids(0xF12B, 4_096, NodeLayout::Adversarial), event_window);
}

/// The spill cell's window, four events that move a table across the
/// 24-run line and back. On the ids `{0} ∪ {2^f : f < 64}` the peer at
/// `2^39` holds 25 runs, and its levels 49 and 54 each name a peer of
/// their own (`2^50`, `2^55`). Once `2^50` leaves, levels 49 and 50 both
/// name `2^51` and merge (24 runs), the join at `2^50 + 1` splits them
/// (25), and the leave of `2^55` merges levels 54 and 55 (24). The peer
/// at 0 leaves first, so the top level's run names `1`, not an id equal
/// to the zeroed tail of the slots, and a run lost in a move shows.
fn spill_window(_: &Network, _: u64) -> Vec<ChurnEvent> {
    vec![
        ChurnEvent::Leave(RingId(0)),
        ChurnEvent::Leave(RingId(1 << 50)),
        ChurnEvent::Join(RingId((1 << 50) + 1)),
        ChurnEvent::Leave(RingId(1 << 55)),
    ]
}

/// One pinned cell whose tables spill: the ids `{0} ∪ {2^f : f < 64}`,
/// where the peer at `2^k` holds `64 − k` finger runs and the peer at 0
/// holds 64, so 41 of the 65 tables outgrow the 24 inline run slots. The
/// repair's range writes and whole-table rewires must move runs into and
/// out of the spill and still equal the bulk wiring.
#[test]
fn batched_churn_matches_sequential_events_with_spilled_finger_tables() {
    let ids = std::iter::once(RingId(0)).chain((0..64).map(|f| RingId(1 << f))).collect();
    check(0x5B11, ids, spill_window);
}
