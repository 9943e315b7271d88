//! Integration tests for overlay routing: correctness against ground truth,
//! logarithmic hop counts, resilience to failures, and message accounting.

use dde_ring::{LookupError, MessageKind, Network, Placement, RingId};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

fn random_net(p: usize, seed: u64) -> Network {
    let seq = SeedSequence::new(seed);
    let mut rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
    ids.sort();
    ids.dedup();
    Network::build_bulk(ids, Placement::range(0.0, 1000.0))
}

#[test]
fn lookup_matches_true_owner_everywhere() {
    let mut net = random_net(128, 42);
    let seq = SeedSequence::new(7);
    let mut rng = seq.stream(Component::Test, 0);
    let initiators: Vec<RingId> = net.ids().collect();
    for i in 0..500 {
        let target = RingId(rng.gen());
        let from = initiators[i % initiators.len()];
        let res = net.lookup(from, target).expect("perfect ring must route");
        assert_eq!(res.owner, net.true_owner(target), "target {target} from {from}");
    }
}

#[test]
fn hops_are_logarithmic() {
    for (p, max_mean) in [(64usize, 8.0), (512, 11.0), (4096, 14.0)] {
        let mut net = random_net(p, 1);
        let seq = SeedSequence::new(2);
        let mut rng = seq.stream(Component::Test, p as u64);
        let from = net.random_peer(&mut rng).unwrap();
        let mut total_hops = 0u64;
        let n_lookups = 200;
        for _ in 0..n_lookups {
            let res = net.lookup(from, RingId(rng.gen())).unwrap();
            total_hops += u64::from(res.hops);
        }
        let mean = total_hops as f64 / n_lookups as f64;
        // Chord bound: ~0.5·log2(P) expected hops.
        assert!(mean <= max_mean, "P={p}: mean hops {mean}");
        assert!(mean >= 1.0, "P={p}: implausibly low hop count {mean}");
    }
}

#[test]
fn lookup_own_arc_is_free() {
    let mut net = random_net(64, 3);
    let ids: Vec<RingId> = net.ids().collect();
    for &id in &ids {
        let res = net.lookup(id, id).unwrap();
        assert_eq!(res.owner, id);
        assert_eq!(res.hops, 0);
    }
}

#[test]
fn probe_reply_is_consistent() {
    let mut net = random_net(32, 5);
    let items: Vec<f64> = (0..2000).map(|i| (i % 1000) as f64).collect();
    net.bulk_load(&items);
    let seq = SeedSequence::new(4);
    let mut rng = seq.stream(Component::Probes, 0);
    let from = net.random_peer(&mut rng).unwrap();
    for _ in 0..50 {
        let point = RingId(rng.gen());
        let reply = net.probe(from, point).unwrap();
        assert_eq!(reply.peer, net.true_owner(point));
        let node = net.node(reply.peer).unwrap();
        assert_eq!(reply.count, node.store.len() as u64);
        assert_eq!(reply.summary.total(), reply.count);
        assert_eq!(reply.predecessor, node.predecessor);
    }
    assert_eq!(net.stats().count(MessageKind::Probe), 50);
    assert_eq!(net.stats().count(MessageKind::ProbeReply), 50);
}

#[test]
fn routing_survives_failures_without_stabilization() {
    let mut net = random_net(256, 9);
    let seq = SeedSequence::new(10);
    let mut rng = seq.stream(Component::Churn, 0);
    // Kill 20% of peers abruptly; successor lists (len 8) must carry lookups.
    let victims: Vec<RingId> = {
        let ids: Vec<RingId> = net.ids().collect();
        ids.iter().copied().filter(|_| rng.gen::<f64>() < 0.2).collect()
    };
    for v in &victims {
        net.fail(*v).unwrap();
    }
    let from = net.random_peer(&mut rng).unwrap();
    let mut ok = 0;
    let trials = 200;
    for _ in 0..trials {
        let target = RingId(rng.gen());
        match net.lookup(from, target) {
            Ok(res) => {
                assert!(net.is_alive(res.owner));
                ok += 1;
            }
            Err(LookupError::NoRoute | LookupError::HopLimitExceeded) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(ok as f64 / trials as f64 > 0.95, "only {ok}/{trials} lookups survived");
    // Timeouts must have been charged for dead hops.
    assert!(net.stats().count(MessageKind::LookupTimeout) > 0);
}

#[test]
fn lookup_errors_on_dead_initiator() {
    let mut net = random_net(8, 11);
    assert_eq!(net.lookup(RingId(12345), RingId(1)), Err(LookupError::InitiatorDead));
}

#[test]
fn single_node_owns_everything() {
    let mut net = Network::build_bulk(vec![RingId(77)], Placement::range(0.0, 1.0));
    net.bulk_load(vec![0.1, 0.5, 0.9]);
    for t in [0u64, 77, u64::MAX] {
        let res = net.lookup(RingId(77), RingId(t)).unwrap();
        assert_eq!(res.owner, RingId(77));
    }
    assert_eq!(net.total_items(), 3);
}

#[test]
fn message_accounting_matches_hops() {
    let mut net = random_net(128, 13);
    let seq = SeedSequence::new(6);
    let mut rng = seq.stream(Component::Test, 1);
    let from = net.random_peer(&mut rng).unwrap();
    let before = net.stats().clone();
    let res = net.lookup(from, RingId(rng.gen())).unwrap();
    let delta = net.stats().since(&before);
    // 2 messages per hop on a healthy ring, no timeouts.
    assert_eq!(delta.count(MessageKind::LookupHop), 2 * u64::from(res.hops));
    assert_eq!(delta.count(MessageKind::LookupTimeout), 0);
    assert_eq!(delta.lookups(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a perfectly wired ring, lookup owner == ground-truth owner.
    #[test]
    fn lookup_correct_prop(seed in 0u64..1000, target: u64) {
        let mut net = random_net(48, seed);
        let from = net.ids().next().unwrap();
        let res = net.lookup(from, RingId(target)).unwrap();
        prop_assert_eq!(res.owner, net.true_owner(RingId(target)));
    }

    /// Bulk-loaded items always sit on their true owner.
    #[test]
    fn bulk_load_places_correctly(seed in 0u64..200) {
        let mut net = random_net(16, seed);
        let vals: Vec<f64> = (0..200).map(|i| i as f64 * 5.0).collect();
        net.bulk_load(&vals);
        prop_assert!(net.check_invariants().is_empty());
        prop_assert_eq!(net.total_items(), 200);
        let _ = &mut net;
    }
}
