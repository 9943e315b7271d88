//! Proof that the steady-state lookup hot path never touches the heap, and
//! that a bulk load's allocations do not grow with the ring.
//!
//! This binary installs [`CountingAlloc`] as its global allocator and counts
//! this thread's allocations across a block of warmed-up lookups. The
//! routing path is designed allocation-free — a one-pass best-candidate
//! scan over inline routing state (`Node::best_candidate`),
//! stack successor snapshots, array-indexed message counters — and this
//! test is the regression fence that keeps it that way.

use dde_ring::{BatchRouter, ChurnBatch, MessageKind, Network, Placement, RingId};
use dde_stats::alloc::{thread_allocations, CountingAlloc};
use dde_stats::rng::{Component, SeedSequence};
use rand::rngs::StdRng;
use rand::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_lookup_allocates_nothing() {
    let seq = SeedSequence::new(42);
    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..512).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut rng = seq.stream(Component::Workload, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");

    // Warm-up: fault-free, churn-free lookups have no lazy state to pull in,
    // but a warm-up block keeps the fence honest if that ever changes.
    for _ in 0..64 {
        net.lookup(from, RingId(rng.gen())).expect("routes");
    }

    let before = thread_allocations();
    let mut hops = 0u32;
    for _ in 0..1_000 {
        hops += net.lookup(from, RingId(rng.gen())).expect("routes").hops;
    }
    let delta = thread_allocations() - before;
    assert!(hops > 1_000, "multi-hop routes expected in a 512-peer ring");
    assert_eq!(delta, 0, "lookup hot path allocated {delta} times over 1000 lookups");
}

#[test]
fn warmed_batched_lookup_allocates_nothing() {
    // The serving hot path: same-origin windows routed through a shared
    // BatchRouter. The router's edge table grows during warm-up and is
    // reused (`begin_window` bumps a stamp, never shrinks), so warmed windows
    // must stay off the heap exactly like per-op lookups. Warm-up windows are
    // wider than measured ones, so the edge high-water mark is already set.
    let seq = SeedSequence::new(1404);
    let mut id_rng = seq.stream(Component::NodeIds, 3);
    let mut ids: Vec<RingId> = (0..512).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut rng = seq.stream(Component::Workload, 3);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let mut batch = BatchRouter::new();

    for _ in 0..4 {
        batch.begin_window();
        for _ in 0..64 {
            net.lookup_batched(from, RingId(rng.gen()), &mut batch).expect("routes");
        }
    }

    let before = thread_allocations();
    let mut hops = 0u32;
    for _ in 0..63 {
        batch.begin_window();
        for _ in 0..16 {
            hops += net.lookup_batched(from, RingId(rng.gen()), &mut batch).expect("routes").hops;
        }
    }
    let delta = thread_allocations() - before;
    assert!(hops > 1_000, "multi-hop routes expected in a 512-peer ring");
    assert_eq!(delta, 0, "batched lookup hot path allocated {delta} times over 1008 lookups");
}

#[test]
fn wide_batch_windows_reuse_the_edge_table() {
    // Windows of 512 same-origin lookups pay a few thousand distinct edges
    // each. Opening a window must recycle the grown edge table (a stamp
    // bump), not clear or rebuild it, so equally wide windows after the
    // first one stay off the heap.
    let seq = SeedSequence::new(0xB47C);
    let mut id_rng = seq.stream(Component::NodeIds, 5);
    let ids: Vec<RingId> = (0..4096).map(|_| RingId(id_rng.gen())).collect();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut rng = seq.stream(Component::Workload, 5);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let mut batch = BatchRouter::new();
    let window = |net: &mut Network, batch: &mut BatchRouter, rng: &mut StdRng| {
        batch.begin_window();
        let before = net.stats().count(MessageKind::LookupHop);
        for _ in 0..512 {
            net.lookup_batched(from, RingId(rng.gen()), batch).expect("routes");
        }
        // Each hop edge paid in the window charges two `LookupHop` messages.
        (net.stats().count(MessageKind::LookupHop) - before) / 2
    };

    for _ in 0..2 {
        window(&mut net, &mut batch, &mut rng);
    }

    let before = thread_allocations();
    let mut widest = 0;
    for _ in 0..16 {
        widest = widest.max(window(&mut net, &mut batch, &mut rng));
    }
    let delta = thread_allocations() - before;
    assert!(widest > 1_000, "wide windows expected, widest paid only {widest} edges");
    assert_eq!(delta, 0, "wide batch windows allocated {delta} times over 16 windows");
}

#[test]
fn bulk_built_lookup_stays_allocation_free() {
    // The mega-scale construction path: `build_bulk` wires the arena in one
    // O(P·log P) pass and a join-only `ChurnBatch` admits a block of 64
    // joiners with one splice and one repair sweep. Both must leave the
    // same kind of arena layout the incremental path produces — warmed
    // lookups stay off the heap.
    let seq = SeedSequence::new(99);
    let mut id_rng = seq.stream(Component::NodeIds, 2);
    let ids: Vec<RingId> = (0..512).map(|_| RingId(id_rng.gen())).collect();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut block = ChurnBatch::new();
    for _ in 0..64 {
        block.join(RingId(id_rng.gen()));
    }
    assert!(block.apply(&mut net).joins > 0, "the join block must add peers");
    let mut rng = seq.stream(Component::Workload, 2);
    let from = net.random_peer(&mut rng).expect("nonempty");

    for _ in 0..64 {
        net.lookup(from, RingId(rng.gen())).expect("routes");
    }

    let before = thread_allocations();
    let mut hops = 0u32;
    for _ in 0..1_000 {
        hops += net.lookup(from, RingId(rng.gen())).expect("routes").hops;
    }
    let delta = thread_allocations() - before;
    assert!(hops > 1_000, "multi-hop routes expected in a 500+-peer ring");
    assert_eq!(delta, 0, "bulk-built lookup allocated {delta} times over 1000 lookups");
}

/// One churn window: 8 joins at fresh uniform ids, 4 graceful leaves, and
/// 4 crashes, coalesced into a single batched repair sweep. Returns the
/// number of membership events actually applied.
fn churn_window(net: &mut Network, batch: &mut ChurnBatch, rng: &mut StdRng) -> u64 {
    for _ in 0..8 {
        batch.join(RingId(rng.gen()));
    }
    for _ in 0..4 {
        batch.leave(net.random_peer(rng).expect("nonempty"));
    }
    for _ in 0..4 {
        batch.crash(net.random_peer(rng).expect("nonempty"));
    }
    let applied = batch.apply(net);
    applied.joins + applied.leaves + applied.crashes
}

#[test]
fn warmed_batch_churn_allocates_nothing() {
    // The amortized mutation path: a warmed `ChurnBatch` window — staged
    // joins in recycled arena slots, column splice through the batch's
    // retained spare buffers, one monotone repair sweep — must stay off the
    // heap on a data-free ring. Every buffer involved is cleared between
    // windows, never dropped, and each window's deaths release the very
    // slots the next window's joins claim through the arena's LIFO free
    // list. Windows are kept small enough (16 events) that the batch's
    // id-ordering sorts stay in their no-buffer insertion regime.
    let seq = SeedSequence::new(0xC4A2);
    let mut id_rng = seq.stream(Component::NodeIds, 4);
    let mut ids: Vec<RingId> = (0..512).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut rng = seq.stream(Component::Churn, 0);
    let mut batch = ChurnBatch::new();

    // Warm-up: sets the event/overlay/spare-column high-water marks and
    // seeds the free list with the slots the measured joins will reuse.
    for _ in 0..4 {
        churn_window(&mut net, &mut batch, &mut rng);
    }

    let before = thread_allocations();
    let mut applied = 0u64;
    for _ in 0..64 {
        applied += churn_window(&mut net, &mut batch, &mut rng);
    }
    let delta = thread_allocations() - before;
    assert!(applied > 900, "windows must actually churn, applied only {applied} events");
    assert_eq!(delta, 0, "warmed batch churn allocated {delta} times over 64 windows");
}

#[test]
fn hotspot_arc_lookup_stays_allocation_free() {
    // The adversarial scenario pack's id shape: most peers packed into one
    // narrow arc (1/64th of the ring), a handful spread over the rest, and
    // every lookup aimed *into* the packed arc. Degenerate finger tables
    // must not push the warmed routing path onto the heap.
    let seq = SeedSequence::new(77);
    let mut id_rng = seq.stream(Component::NodeIds, 1);
    let arc_start = 0xC000_0000_0000_0000u64;
    let arc_span = u64::MAX / 64;
    let mut ids: Vec<RingId> =
        (0..448).map(|_| RingId(arc_start.wrapping_add(id_rng.gen::<u64>() % arc_span))).collect();
    ids.extend((0..64).map(|_| RingId(id_rng.gen())));
    ids.sort();
    ids.dedup();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut rng = seq.stream(Component::Workload, 1);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let hot = move |rng: &mut rand::rngs::StdRng| {
        RingId(arc_start.wrapping_add(rng.gen::<u64>() % arc_span))
    };

    for _ in 0..64 {
        let target = hot(&mut rng);
        net.lookup(from, target).expect("routes");
    }

    let before = thread_allocations();
    for _ in 0..1_000 {
        let target = hot(&mut rng);
        net.lookup(from, target).expect("routes");
    }
    let delta = thread_allocations() - before;
    assert_eq!(delta, 0, "hotspot-arc lookup allocated {delta} times over 1000 lookups");
}

#[test]
fn bulk_load_allocations_do_not_grow_with_the_ring() {
    // Every store views its run in the one load buffer (position 0 merges
    // a copy when it holds a head run and a wrap tail), so a load allocates
    // the same few blocks (the buffer's copy and `Arc`, position 0's merged
    // store) on 512 peers as on 4 096. A per-store copy would allocate once
    // per non-empty store.
    let allocs = |peers: usize, placement: Placement| {
        let seq = SeedSequence::new(0xB0A7);
        let mut id_rng = seq.stream(Component::NodeIds, 5);
        let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, placement);
        let mut rng = seq.stream(Component::Dataset, 5);
        let items: Vec<f64> = (0..peers * 20).map(|_| rng.gen_range(0.0..1000.0)).collect();
        let before = thread_allocations();
        net.bulk_load(&items);
        let delta = thread_allocations() - before;
        assert_eq!(net.total_items(), items.len() as u64);
        delta
    };
    for placement in [Placement::range(0.0, 1000.0), Placement::hashed(0.0, 1000.0)] {
        let (small, large) = (allocs(512, placement), allocs(4096, placement));
        assert_eq!(
            small, large,
            "{placement:?}: bulk_load allocated {small} times on 512 peers, {large} on 4096"
        );
    }
}
