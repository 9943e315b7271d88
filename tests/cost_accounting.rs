//! Message-accounting invariants across the stack: every estimator charges
//! all (and only) its own traffic, costs scale as designed, every message
//! kind is billed by some library path, and the counters are exact enough to
//! base the paper's efficiency claims on.

use std::collections::BTreeSet;

use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation, GossipConfig,
    RandomWalkConfig, RandomWalkSampling, SampleMode,
};
use dde_ring::{FaultPlan, MessageKind, MessageStats, RingId};
use dde_sim::{build, run_estimator, run_workload, BuiltScenario, Scenario, WorkloadSpec};

fn scenario(peers: usize) -> Scenario {
    Scenario::default().with_peers(peers).with_items(10_000).with_seed(61)
}

#[test]
fn dfdde_cost_is_k_probes_plus_routing() {
    let mut built = build(&scenario(256));
    // Exactly 50 probe request/reply pairs…
    let seq = dde_stats::rng::SeedSequence::new(61);
    let mut rng = seq.stream(dde_stats::rng::Component::Estimator, 5);
    let initiator = built.net.random_peer(&mut rng).unwrap();
    let report = DfDde::new(DfDdeConfig::with_probes(50))
        .estimate(&mut built.net, initiator, &mut rng)
        .unwrap();
    assert_eq!(report.cost.count(MessageKind::Probe), 50);
    assert_eq!(report.cost.count(MessageKind::ProbeReply), 50);
    // …plus routing: ~log2(256)/2 hops per probe, 2 msgs per hop.
    let hops = report.cost.count(MessageKind::LookupHop);
    assert!(hops >= 50, "implausibly few routing messages: {hops}");
    assert!(hops <= 50 * 2 * 16, "routing exploded: {hops}");
    // Nothing else was charged.
    assert_eq!(report.cost.count(MessageKind::Gossip), 0);
    assert_eq!(report.cost.count(MessageKind::WalkStep), 0);
    assert_eq!(report.cost.count(MessageKind::Handoff), 0);
}

#[test]
fn remote_sampling_charges_tuple_traffic() {
    let mut built = build(&scenario(128));
    let seq = dde_stats::rng::SeedSequence::new(61);
    let mut rng = seq.stream(dde_stats::rng::Component::Estimator, 6);
    let initiator = built.net.random_peer(&mut rng).unwrap();
    let report = DfDde::new(DfDdeConfig {
        sample_mode: SampleMode::RemoteTuples { m: 40 },
        ..DfDdeConfig::with_probes(32)
    })
    .estimate(&mut built.net, initiator, &mut rng)
    .unwrap();
    assert_eq!(report.cost.count(MessageKind::TupleSample), 80); // 40 req + 40 reply
}

#[test]
fn exact_walk_scales_linearly_with_network() {
    let mut msgs = Vec::new();
    for p in [64usize, 256] {
        let mut built = build(&scenario(p));
        let r = run_estimator(&mut built, &ExactAggregation::new(), 0).unwrap();
        msgs.push((p, r.messages));
        assert_eq!(r.peers_contacted, p);
    }
    let (p0, m0) = msgs[0];
    let (p1, m1) = msgs[1];
    let ratio = m1 as f64 / m0 as f64;
    let p_ratio = p1 as f64 / p0 as f64;
    assert!((ratio / p_ratio - 1.0).abs() < 0.2, "walk cost should scale with P: {msgs:?}");
}

#[test]
fn gossip_cost_is_rounds_times_peers_exactly() {
    let mut built = build(&scenario(96));
    let seq = dde_stats::rng::SeedSequence::new(61);
    let mut rng = seq.stream(dde_stats::rng::Component::Estimator, 7);
    let initiator = built.net.random_peer(&mut rng).unwrap();
    let report = GossipAggregation::new(GossipConfig { rounds: 7, bins: 16 })
        .estimate(&mut built.net, initiator, &mut rng)
        .unwrap();
    assert_eq!(report.cost.count(MessageKind::Gossip), 7 * 96);
    // Gossip bytes dominated by histograms: ≥ bins · 8 bytes per message.
    assert!(report.bytes() as usize >= 7 * 96 * 16 * 8);
}

#[test]
fn walk_cost_is_steps_exactly() {
    let mut built = build(&scenario(128));
    let cfg = RandomWalkConfig { peers: 10, burn_in: 20, gap: 5, ..RandomWalkConfig::default() };
    let seq = dde_stats::rng::SeedSequence::new(61);
    let mut rng = seq.stream(dde_stats::rng::Component::Estimator, 8);
    let initiator = built.net.random_peer(&mut rng).unwrap();
    let report =
        RandomWalkSampling::new(cfg).estimate(&mut built.net, initiator, &mut rng).unwrap();
    assert_eq!(report.cost.count(MessageKind::WalkStep), 2 * (20 + 10 * 5));
    assert_eq!(report.cost.count(MessageKind::Probe), 10);
}

#[test]
fn run_cost_deltas_do_not_leak_between_runs() {
    let mut built = build(&scenario(128));
    let a = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(16)), 0).unwrap();
    let b = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(16)), 1).unwrap();
    // Deltas are per-run: the second run's count is independent of the first.
    assert!(a.messages > 0 && b.messages > 0);
    assert!((a.messages as f64 / b.messages as f64 - 1.0).abs() < 0.5);
    // The network's cumulative counter saw both runs.
    assert!(built.net.stats().total_messages() >= a.messages + b.messages);
}

/// What one estimate by `estimator` on `built` charged, from the report's
/// own `MessageStats`.
fn estimate_cost(
    estimator: &dyn DensityEstimator,
    built: &mut BuiltScenario,
    stream: u64,
) -> MessageStats {
    let seq = dde_stats::rng::SeedSequence::new(61);
    let mut rng = seq.stream(dde_stats::rng::Component::Estimator, stream);
    let initiator = built.net.random_peer(&mut rng).unwrap();
    estimator.estimate(&mut built.net, initiator, &mut rng).unwrap().cost
}

/// Every kind in `MessageKind::ALL` is billed by at least one small run of
/// library code, read from the runs' own stats; the test records nothing
/// itself. A kind added to the `message_kinds!` table that no path bills
/// fails here by name.
#[test]
fn every_message_kind_is_billed() {
    let mut costs = Vec::new();

    // DF-DDE with remote tuple sampling, gossip and the random walk.
    let tuples = DfDde::new(DfDdeConfig {
        sample_mode: SampleMode::RemoteTuples { m: 8 },
        ..DfDdeConfig::with_probes(16)
    });
    let gossip = GossipAggregation::new(GossipConfig { rounds: 2, bins: 8 });
    let walk = RandomWalkSampling::new(RandomWalkConfig {
        peers: 4,
        burn_in: 4,
        gap: 2,
        ..RandomWalkConfig::default()
    });
    for (i, estimator) in [&tuples as &dyn DensityEstimator, &gossip, &walk].into_iter().enumerate()
    {
        costs.push(estimate_cost(estimator, &mut build(&scenario(64)), i as u64));
    }

    // DF-DDE under a fault plan with every fault class.
    let mut faulted = build(&scenario(128));
    faulted.net.set_fault_plan(
        FaultPlan::new(61)
            .with_loss(0.05)
            .with_reply_loss(0.05)
            .with_crash(0.02)
            .with_sick(0.05, 8)
            .with_capacity(0.1, 8, 4)
            .with_partition(0, u64::MAX / 8),
    );
    costs.push(estimate_cost(&DfDde::new(DfDdeConfig::with_probes(64)), &mut faulted, 3));

    // Leave, fail, lookup, join and stabilize on a replicated ring.
    let mut ring = build(&scenario(64));
    let net = &mut ring.net;
    net.set_replication(2);
    let ids: Vec<RingId> = net.ids().collect();
    net.leave(ids[1]).unwrap();
    net.fail(ids[2]).unwrap();
    net.lookup(ids[0], ids[3]).unwrap();
    net.join(ids[2], ids[0]).unwrap(); // the crashed peer rejoins
    net.stabilize_round();
    costs.push(net.stats().clone());

    let mut billed: BTreeSet<MessageKind> = costs
        .iter()
        .flat_map(|cost| MessageKind::ALL.into_iter().filter(|&kind| cost.count(kind) > 0))
        .collect();

    // A default serving run, which piggybacks. It serves on a fork of the
    // build, so its report carries the piggyback count it read from the
    // fork's stats.
    let served = run_workload(&build(&scenario(128)), &WorkloadSpec::default(), 0);
    if served.piggyback_msgs > 0 {
        billed.insert(MessageKind::ProbePiggyback);
    }

    let never: Vec<MessageKind> =
        MessageKind::ALL.into_iter().filter(|kind| !billed.contains(kind)).collect();
    assert!(never.is_empty(), "never billed: {never:?}");
}
