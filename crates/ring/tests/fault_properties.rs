//! Property tests for routing under injected faults: whatever the fault
//! plan and churn mix, a lookup either returns the true owner or fails with
//! a typed error — it never silently returns a wrong owner — and identical
//! fault seeds replay identically.

use dde_ring::{FaultPlan, LookupError, Network, Placement, RingId};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a fully-alive ring, transient faults (lost requests, lost replies,
    /// sick peers) may fail a lookup but must NEVER make it return a wrong
    /// owner: the true owner is alive, so passing ownership to a successor
    /// would be an integrity violation.
    #[test]
    fn transient_faults_never_yield_wrong_owner(
        seed in 0u64..500,
        fault_seed: u64,
        loss in 0.0f64..0.5,
        reply_loss in 0.0f64..0.3,
        sick in 0.0f64..0.2,
    ) {
        let mut net = random_net(48, seed);
        net.set_fault_plan(
            FaultPlan::new(fault_seed)
                .with_loss(loss)
                .with_reply_loss(reply_loss)
                .with_sick(sick, 16),
        );
        let seq = SeedSequence::new(seed ^ 0xF0);
        let mut rng = seq.stream(Component::Test, 0);
        let from = net.random_peer(&mut rng).expect("nonempty");
        for _ in 0..20 {
            let target = RingId(rng.gen());
            match net.lookup(from, target) {
                Ok(res) => prop_assert_eq!(
                    res.owner,
                    net.true_owner(target),
                    "wrong owner under transient faults"
                ),
                // Typed failures are the allowed outcome.
                Err(
                    LookupError::MessageLost
                    | LookupError::NoRoute
                    | LookupError::HopLimitExceeded,
                ) => {}
                Err(e) => panic!("unexpected error on an alive ring: {e}"),
            }
        }
    }

    /// With a churn mix on top (a fraction of peers abruptly dead, plus
    /// crash faults killing peers mid-request), a lookup still only ever
    /// returns an alive owner — or a typed error.
    #[test]
    fn faults_and_churn_return_alive_owner_or_typed_error(
        seed in 0u64..500,
        fault_seed: u64,
        kill in 0.0f64..0.3,
        loss in 0.0f64..0.4,
        crash in 0.0f64..0.05,
    ) {
        let mut net = random_net(64, seed);
        let seq = SeedSequence::new(seed ^ 0xC4);
        let mut rng = seq.stream(Component::Churn, 0);
        let victims: Vec<RingId> = {
            let ids: Vec<RingId> = net.ids().collect();
            // Leave at least a handful alive.
            ids.iter().copied().filter(|_| rng.gen::<f64>() < kill).take(48).collect()
        };
        for v in victims {
            let _ = net.fail(v);
        }
        net.set_fault_plan(
            FaultPlan::new(fault_seed).with_loss(loss).with_crash(crash),
        );
        let from = net.random_peer(&mut rng).expect("nonempty");
        for _ in 0..20 {
            if !net.is_alive(from) {
                break; // a crash fault can kill the initiator's node
            }
            let target = RingId(rng.gen());
            // Every error is typed and acceptable here; an Ok owner must be
            // alive.
            if let Ok(res) = net.lookup(from, target) {
                prop_assert!(net.is_alive(res.owner), "lookup returned a dead owner");
            }
        }
    }

    /// The same fault seed against the same operation sequence replays
    /// byte-identically — outcomes and message accounting included.
    #[test]
    fn same_fault_seed_replays_lookups_identically(
        seed in 0u64..200,
        fault_seed: u64,
        loss in 0.0f64..0.4,
    ) {
        let run = || {
            let mut net = random_net(32, seed);
            net.set_fault_plan(FaultPlan::new(fault_seed).with_loss(loss));
            let seq = SeedSequence::new(seed ^ 0xAB);
            let mut rng = seq.stream(Component::Test, 1);
            let from = net.random_peer(&mut rng).expect("nonempty");
            let outcomes: Vec<String> = (0..15)
                .map(|_| format!("{:?}", net.lookup(from, RingId(rng.gen()))))
                .collect();
            (outcomes, format!("{:?}", net.stats()))
        };
        prop_assert_eq!(run(), run());
    }

    /// Stabilization under crash faults: the helper lookup toward `id + 1`
    /// can route through `id` itself, and a crash fault on that hop kills
    /// the peer whose round it is. That round ends there and every other
    /// peer's round goes on: no panic, and the local invariants hold after
    /// every round. Convergence is not asserted while faults still fire; a
    /// storm that isolates survivors is healed once it ends (see
    /// `isolated_survivors_rejoin_once_faults_stop`).
    #[test]
    fn stabilization_survives_crash_faults(
        seed in 0u64..500,
        fault_seed: u64,
        peers in 8usize..=200,
        crash in 0.0f64..0.08,
        loss in 0.0f64..0.2,
        replication in 0usize..3,
        rounds in 1usize..=4,
    ) {
        let mut net = random_net(peers, seed);
        let items: Vec<f64> = (0..peers * 8).map(|i| (i * 37 % 1000) as f64).collect();
        net.bulk_load(&items);
        net.set_replication(replication);
        net.set_fault_plan(FaultPlan::new(fault_seed).with_crash(crash).with_loss(loss));
        for round in 0..rounds {
            net.stabilize_round();
            let violations = net.check_local_invariants();
            prop_assert!(violations.is_empty(), "round {round}: {violations:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A crash storm can leave a survivor with no alive successor, finger
    /// or predecessor, whom no other peer's routing state names either.
    /// Once the faults stop, stabilization rejoins it: the survivor takes a
    /// temporary successor from the maintenance peer cache, and within 64
    /// clean rounds no peer is left without a successor, the whole ring
    /// holds its invariants, and every item that survived the storm is
    /// still stored.
    #[test]
    fn isolated_survivors_rejoin_once_faults_stop(
        seed in 0u64..500,
        fault_seed: u64,
        peers in 8usize..=200,
        crash in 0.0f64..0.08,
    ) {
        let mut net = random_net(peers, seed);
        let items: Vec<f64> = (0..peers * 8).map(|i| (i * 37 % 1000) as f64).collect();
        net.bulk_load(&items);
        net.set_fault_plan(FaultPlan::new(fault_seed).with_crash(crash).with_loss(0.1));
        for _ in 0..4 {
            net.stabilize_round();
        }
        net.clear_fault_plan();
        let survived = net.total_items();
        for _ in 0..64 {
            net.stabilize_round();
        }
        prop_assert_eq!(net.total_items(), survived, "clean rounds lost items");
        let isolated: Vec<RingId> = net
            .ids()
            .filter(|&id| net.node(id).expect("listed id").successor().is_none())
            .collect();
        prop_assert!(isolated.is_empty(), "no successor after 64 clean rounds: {isolated:?}");
        let violations = net.check_invariants();
        prop_assert!(violations.is_empty(), "{violations:?}");
    }
}
