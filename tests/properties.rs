//! Cross-crate property tests: scenario-level invariants that must hold for
//! arbitrary parameters within sane ranges.

use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
use dde_ring::RingId;
use dde_sim::{build, NodeLayout, PlacementMode, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::Rng;

/// Total items held as replicas across the network.
fn total_replica_items(net: &dde_ring::Network) -> u64 {
    net.ids()
        .flat_map(|id| net.node(id).expect("listed id").replicas.values())
        .map(|(store, _)| store.len() as u64)
        .sum()
}

fn arb_distribution() -> impl Strategy<Value = DistributionKind> {
    prop_oneof![
        Just(DistributionKind::Uniform),
        (0.2f64..0.8, 0.05f64..0.3)
            .prop_map(|(c, s)| DistributionKind::Normal { center_frac: c, std_frac: s }),
        (2.0f64..20.0).prop_map(|r| DistributionKind::Exponential { rate_scale: r }),
        (0.6f64..3.0).prop_map(|a| DistributionKind::Pareto { shape: a }),
        ((4usize..64), (0.2f64..1.5))
            .prop_map(|(c, e)| DistributionKind::Zipf { cells: c, exponent: e }),
        Just(DistributionKind::Bimodal),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        16usize..128,
        500usize..5_000,
        arb_distribution(),
        prop_oneof![Just(PlacementMode::Range), Just(PlacementMode::Hashed)],
        prop_oneof![Just(NodeLayout::UniformIds), Just(NodeLayout::LoadBalanced)],
        1usize..32,
        0u64..1_000,
    )
        .prop_map(|(peers, items, distribution, placement, layout, buckets, seed)| Scenario {
            peers,
            items,
            domain: (0.0, 1000.0),
            distribution,
            placement,
            layout,
            summary_buckets: buckets,
            flash_crowd: 0,
            capacity: None,
            partition: None,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Building any scenario yields a consistent ring holding every item.
    #[test]
    fn built_scenarios_are_consistent(scenario in arb_scenario()) {
        let built = build(&scenario);
        prop_assert_eq!(built.net.total_items(), scenario.items as u64);
        prop_assert!(built.net.check_invariants().is_empty());
        prop_assert!(built.net.len() >= 2);
    }

    /// Routing finds the true owner from any initiator, on any scenario.
    #[test]
    fn lookups_always_find_true_owner(scenario in arb_scenario(), target: u64) {
        let mut built = build(&scenario);
        let seq = SeedSequence::new(scenario.seed);
        let mut rng = seq.stream(Component::Workload, 1);
        let from = built.net.random_peer(&mut rng).expect("nonempty");
        let res = built.net.lookup(from, RingId(target)).expect("healthy ring routes");
        prop_assert_eq!(res.owner, built.net.true_owner(RingId(target)));
    }

    /// The estimator returns a valid CDF and plausible totals on any scenario.
    #[test]
    fn estimates_are_valid_cdfs(scenario in arb_scenario()) {
        let mut built = build(&scenario);
        let seq = SeedSequence::new(scenario.seed);
        let mut rng = seq.stream(Component::Estimator, 0);
        let initiator = built.net.random_peer(&mut rng).expect("nonempty");
        let report = DfDde::new(DfDdeConfig::with_probes(32))
            .estimate(&mut built.net, initiator, &mut rng)
            .expect("healthy network estimates");
        let est = &report.estimate;
        let (lo, hi) = scenario.domain;
        let mut prev = -1.0f64;
        for i in 0..=64 {
            let x = lo + (hi - lo) * i as f64 / 64.0;
            let c = est.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c));
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!((est.cdf(lo) - 0.0).abs() < 1e-9);
        prop_assert!((est.cdf(hi) - 1.0).abs() < 1e-9);
        // N̂ is positive and not absurd (within 50x of truth even at k=32).
        let n_hat = report.estimated_total.expect("df-dde reports totals");
        prop_assert!(n_hat > 0.0);
        prop_assert!(n_hat < scenario.items as f64 * 50.0);
    }

    /// Probing any ring position returns a reply consistent with the probed
    /// peer's actual store.
    #[test]
    fn probe_replies_are_self_consistent(scenario in arb_scenario(), point: u64) {
        let mut built = build(&scenario);
        let seq = SeedSequence::new(scenario.seed);
        let mut rng = seq.stream(Component::Probes, 2);
        let from = built.net.random_peer(&mut rng).expect("nonempty");
        let reply = built.net.probe(from, RingId(point)).expect("probes");
        prop_assert_eq!(reply.peer, built.net.true_owner(RingId(point)));
        prop_assert_eq!(reply.summary.total(), reply.count);
        let node = built.net.node(reply.peer).expect("alive");
        prop_assert_eq!(reply.count, node.store.len() as u64);
        // Summary count_le never exceeds the true count and is monotone.
        let mid = 500.0;
        let c = reply.summary.count_le(mid);
        prop_assert!(c >= 0.0 && c <= reply.count as f64 + 1e-9);
    }

    /// Churn-free repeated estimation is deterministic given the stream id.
    #[test]
    fn estimation_is_reproducible(seed in 0u64..500) {
        let scenario = Scenario::default().with_peers(48).with_items(2_000).with_seed(seed);
        let run = || {
            let mut built = build(&scenario);
            let seq = SeedSequence::new(seed);
            let mut rng = seq.stream(Component::Estimator, 3);
            let initiator = built.net.random_peer(&mut rng).expect("nonempty");
            let r = DfDde::new(DfDdeConfig::with_probes(24))
                .estimate(&mut built.net, initiator, &mut rng)
                .expect("estimates");
            (r.messages(), r.estimate.cdf(500.0).to_bits())
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Range queries return exactly the stored items in the interval, on any
    /// scenario, regardless of placement mode.
    #[test]
    fn range_queries_are_exact(
        scenario in arb_scenario(),
        a in 0.0f64..1000.0,
        w in 0.0f64..400.0,
    ) {
        let mut built = build(&scenario);
        let (lo, hi) = (a, (a + w).min(1000.0));
        let expected: usize = built
            .net
            .ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| built.net.node(id).expect("alive").store.count_range(lo, hi))
            .sum();
        let seq = SeedSequence::new(scenario.seed);
        let mut rng = seq.stream(Component::Workload, 7);
        let from = built.net.random_peer(&mut rng).expect("nonempty");
        let result = built.net.range_query(from, lo, hi).expect("healthy ring queries");
        prop_assert_eq!(result.items.len(), expected);
        prop_assert!(result.items.iter().all(|&x| (lo..=hi).contains(&x)));
    }

    /// Replication seeding conserves primaries and creates exactly r copies;
    /// stabilization rounds never create or destroy primary data on a
    /// churn-free network.
    #[test]
    fn replication_conserves_data(scenario in arb_scenario(), r in 0usize..4) {
        let mut built = build(&scenario);
        built.net.set_replication(r);
        let primaries = built.net.total_items();
        prop_assert_eq!(primaries, scenario.items as u64);
        let copies = total_replica_items(&built.net);
        let r_eff = r.min(built.net.len() - 1) as u64;
        prop_assert_eq!(copies, r_eff * primaries);
        for _ in 0..2 {
            built.net.stabilize_round();
        }
        prop_assert_eq!(built.net.total_items(), primaries);
        prop_assert_eq!(total_replica_items(&built.net), r_eff * primaries);
    }

    /// Aggregate estimates are finite, positive where they must be, and the
    /// ratio estimates (mean) stay inside the domain hull.
    #[test]
    fn aggregates_are_sane(scenario in arb_scenario()) {
        let mut built = build(&scenario);
        let seq = SeedSequence::new(scenario.seed);
        let mut rng = seq.stream(Component::Estimator, 11);
        let initiator = built.net.random_peer(&mut rng).expect("nonempty");
        let rep = DfDde::new(DfDdeConfig::with_probes(32))
            .estimate(&mut built.net, initiator, &mut rng)
            .expect("healthy network estimates");
        let (count, sum, mean, variance) = rep.aggregates().expect("df-dde reports totals");
        prop_assert!(count > 0.0 && count.is_finite());
        prop_assert!(sum.is_finite());
        prop_assert!(variance >= 0.0);
        let (lo, hi) = scenario.domain;
        prop_assert!((lo..=hi).contains(&mean), "mean {mean} outside domain");
        let q = rep.estimate.quantile(0.5);
        prop_assert!((lo..=hi).contains(&q));
    }
}

/// Non-proptest: a quick deterministic check that `Rng` seeds in this file
/// actually produce different probe positions (guards against accidentally
/// reusing a stream).
#[test]
fn rng_streams_are_distinct() {
    let seq = SeedSequence::new(77);
    let a: u64 = seq.stream(Component::Probes, 0).gen();
    let b: u64 = seq.stream(Component::Probes, 1).gen();
    assert_ne!(a, b);
}
