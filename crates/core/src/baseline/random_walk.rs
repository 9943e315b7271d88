//! Metropolis–Hastings random-walk peer sampling.
//!
//! The decentralized way to sample peers ≈uniformly without knowing the
//! membership: walk the overlay graph, correcting for degree with the
//! Metropolis filter (propose a uniform neighbor, accept with probability
//! `min(1, deg(cur)/deg(next))`). After a burn-in the walk's position is
//! near-uniform over peers; spacing samples by a gap decorrelates them.
//!
//! Pooling then has the same choices (and the same equal-weight bias) as
//! [`super::uniform_peer`]; what changes is the *cost*: every step is a
//! degree query (a request and a reply), so `k` samples cost
//! `burn_in + k·gap` such exchanges plus the reply traffic.

use crate::baseline::{pool_replies, PoolWeighting};
use crate::estimate::DensityEstimate;
use crate::estimator::{
    distinct_peers, with_cost, DensityEstimator, EstimateError, EstimationReport,
};
use crate::skeleton::SUPPORT_CAP;
use dde_ring::{MessageKind, Network, ProbeReply, RingId};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Configuration for [`RandomWalkSampling`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWalkConfig {
    /// Number of peer samples (`k`).
    pub peers: usize,
    /// Steps discarded before the first sample.
    pub burn_in: usize,
    /// Steps between consecutive samples.
    pub gap: usize,
    /// How replies are pooled.
    pub weighting: PoolWeighting,
}

impl Default for RandomWalkConfig {
    fn default() -> Self {
        Self { peers: 64, burn_in: 32, gap: 8, weighting: PoolWeighting::Equal }
    }
}

/// Random-walk peer-sampling estimator (see module docs).
#[derive(Debug, Clone)]
pub struct RandomWalkSampling {
    config: RandomWalkConfig,
}

impl RandomWalkSampling {
    /// Creates the estimator.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: RandomWalkConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn config(&self) -> &RandomWalkConfig {
        &self.config
    }

    /// One Metropolis–Hastings step; returns the (possibly unchanged)
    /// position. Every proposal costs a degree query at the proposed peer,
    /// a request and a reply, whether or not the walk then moves; a lost
    /// request charges the request alone and keeps the walk in place.
    fn mh_step(net: &mut Network, view: &mut WalkView, cur: RingId, rng: &mut StdRng) -> RingId {
        let nbrs = view.neighbours(net, cur);
        if nbrs.is_empty() {
            return cur;
        }
        let proposed = nbrs[rng.gen_range(0..nbrs.len())];
        let deg_cur = nbrs.len() as f64;
        let deg_prop = view.neighbours(net, proposed).len().max(1) as f64;
        // Degree query at the proposed peer: one request + one reply. A
        // lost request stalls the walk for this step (the walker times out
        // in place — extra cost, slower mixing).
        net.stats_mut().record(MessageKind::WalkStep, 8);
        if net.message_lost(cur, proposed) {
            return cur;
        }
        net.stats_mut().record(MessageKind::WalkStep, 8);
        if rng.gen::<f64>() < (deg_cur / deg_prop).min(1.0) {
            proposed
        } else {
            cur
        }
    }

    /// The walk itself: `burn_in` steps, then `peers` samples `gap` steps
    /// apart, each fetched from the initiator. `step` moves the walker.
    fn walk(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
        mut step: impl FnMut(&mut Network, RingId, &mut StdRng) -> RingId,
    ) -> Vec<ProbeReply> {
        let cfg = self.config;
        let mut cur = initiator;
        for _ in 0..cfg.burn_in {
            cur = step(net, cur, rng);
        }
        let mut replies: Vec<ProbeReply> = Vec::with_capacity(cfg.peers);
        for _ in 0..cfg.peers {
            // Sample the current position, then decorrelate. Under a fault
            // plan the sampling exchange can lose its request or its reply
            // — that sample is simply gone (the walk has no retry protocol).
            net.stats_mut().record(MessageKind::Probe, 8);
            if !net.message_lost(initiator, cur) {
                // The walk starts at the live initiator and moves only to
                // neighbours listed alive, and nothing in an estimate
                // changes membership.
                let node = net.node(cur).expect("invariant: the walk stays on live peers");
                let summary = node.store.summary(net.summary_buckets());
                let reply = ProbeReply {
                    peer: cur,
                    predecessor: node.predecessor,
                    count: node.store.len() as u64,
                    sum: node.store.sum(),
                    sum_sq: node.store.sum_sq(),
                    summary,
                    hops: 0,
                };
                net.stats_mut().record(MessageKind::ProbeReply, 24 + reply.summary.wire_size());
                if !net.reply_lost(cur, initiator) {
                    replies.push(reply);
                }
            }
            for _ in 0..cfg.gap {
                cur = step(net, cur, rng);
            }
        }
        replies
    }
}

/// The overlay as one walk sees it: each visited peer's distinct alive
/// neighbours (successors, fingers, predecessor), computed on its first
/// visit. A walk does not change the overlay, so a peer's list — and its
/// degree — stays valid for the rest of the estimate.
#[derive(Debug, Default)]
struct WalkView {
    /// Visited peer → its range of `list`.
    spans: BTreeMap<RingId, (usize, usize)>,
    list: Vec<RingId>,
    candidates: Vec<RingId>,
}

impl WalkView {
    fn neighbours(&mut self, net: &Network, id: RingId) -> &[RingId] {
        let (list, candidates) = (&mut self.list, &mut self.candidates);
        let &mut (start, end) = self.spans.entry(id).or_insert_with(|| {
            candidates.clear();
            if let Some(node) = net.node(id) {
                candidates.extend(
                    node.successors
                        .iter()
                        .copied()
                        .chain(node.fingers.present())
                        .chain(node.predecessor)
                        .filter(|&n| n != id),
                );
            }
            // Dedup before the liveness check: fingers repeat nearby peers.
            candidates.sort_unstable();
            candidates.dedup();
            let start = list.len();
            list.extend(candidates.iter().copied().filter(|&n| net.is_alive(n)));
            (start, list.len())
        });
        &self.list[start..end]
    }
}

impl DensityEstimator for RandomWalkSampling {
    fn name(&self) -> &'static str {
        match self.config.weighting {
            PoolWeighting::Equal => "random-walk",
            PoolWeighting::CountWeighted => "random-walk-cw",
        }
    }

    fn estimate(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<EstimationReport, EstimateError> {
        if !net.is_alive(initiator) {
            return Err(EstimateError::InitiatorDead);
        }
        let domain = net.placement().domain();
        let cfg = self.config;
        let mut view = WalkView::default();
        let (replies, cost) = with_cost(net, |net| {
            Ok(self
                .walk(net, initiator, rng, |net, cur, rng| Self::mh_step(net, &mut view, cur, rng)))
        })?;

        let contacted = replies.len();
        let cdf = pool_replies(&replies, domain, SUPPORT_CAP, cfg.weighting)
            .ok_or(EstimateError::InsufficientProbes { got: contacted, need: cfg.peers })?;
        Ok(EstimationReport {
            estimate: DensityEstimate::from_cdf(cdf),
            cost,
            peers_contacted: distinct_peers(replies.iter().map(|r| r.peer)),
            estimated_total: None,
            estimated_sum: None,
            estimated_sum_sq: None,
            probes_requested: cfg.peers,
            probes_succeeded: contacted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::{FaultPlan, Placement};
    use dde_stats::dist::DistributionKind;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::SeedableRng;

    fn build_net(peers: usize, items: usize, kind: &DistributionKind, seed: u64) -> Network {
        let seq = SeedSequence::new(seed);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 100.0));
        let dist = kind.build(0.0, 100.0);
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..items).map(|_| dist.sample(&mut data_rng)).collect();
        net.bulk_load(&data);
        net
    }

    #[test]
    fn walk_visits_many_distinct_peers() {
        let mut net = build_net(128, 1_000, &DistributionKind::Uniform, 8);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let mut cur = initiator;
        let mut view = WalkView::default();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            cur = RandomWalkSampling::mh_step(&mut net, &mut view, cur, &mut rng);
            seen.insert(cur);
        }
        assert!(seen.len() > 60, "walk only reached {} peers", seen.len());
    }

    #[test]
    fn walk_distribution_is_roughly_uniform() {
        // Chi-square-ish check: visit counts after mixing shouldn't be wildly
        // unequal (MH corrects finger-degree differences).
        let mut net = build_net(32, 100, &DistributionKind::Uniform, 9);
        let mut rng = StdRng::seed_from_u64(2);
        let initiator = net.random_peer(&mut rng).unwrap();
        let mut cur = initiator;
        let mut view = WalkView::default();
        for _ in 0..100 {
            cur = RandomWalkSampling::mh_step(&mut net, &mut view, cur, &mut rng);
        }
        let mut visits: std::collections::BTreeMap<RingId, u32> = Default::default();
        let total = 6_000;
        for _ in 0..total {
            cur = RandomWalkSampling::mh_step(&mut net, &mut view, cur, &mut rng);
            *visits.entry(cur).or_insert(0) += 1;
        }
        let expected = total as f64 / 32.0;
        let visited_frac = visits.len() as f64 / 32.0;
        assert!(visited_frac > 0.95, "only {} of 32 peers visited", visits.len());
        for (&peer, &v) in &visits {
            assert!((v as f64) < 4.0 * expected, "peer {peer} visited {v}× vs expected {expected}");
        }
    }

    #[test]
    fn estimates_and_charges_walk_cost() {
        let kind = DistributionKind::Uniform;
        let mut net = build_net(128, 20_000, &kind, 10);
        let truth = kind.build(0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let initiator = net.random_peer(&mut rng).unwrap();
        let cfg = RandomWalkConfig { peers: 48, ..RandomWalkConfig::default() };
        let est = RandomWalkSampling::new(cfg).estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(est.probes_succeeded, 48);
        assert!(est.peers_contacted <= 48, "{} peers", est.peers_contacted);
        assert!(est.estimate.ks_to(truth.as_ref()) < 0.2);
        // Walk steps dominate the cost: burn_in + k·gap exchanges, 2 msgs each.
        let steps = (cfg.burn_in + cfg.peers * cfg.gap) as u64;
        assert_eq!(est.cost.count(MessageKind::WalkStep), 2 * steps);
    }

    /// The reference neighbour list, rebuilt on every call.
    fn neighbours_rebuilt(net: &Network, id: RingId) -> Vec<RingId> {
        let Some(node) = net.node(id) else { return Vec::new() };
        let mut nbrs: Vec<RingId> = node
            .successors
            .iter()
            .copied()
            .chain(node.fingers.present())
            .chain(node.predecessor)
            .filter(|&n| n != id && net.is_alive(n))
            .collect();
        nbrs.sort();
        nbrs.dedup();
        nbrs
    }

    /// [`RandomWalkSampling::mh_step`] with both neighbour lists rebuilt
    /// every step: the reference the memoized step must match.
    fn mh_step_rebuilt(net: &mut Network, cur: RingId, rng: &mut StdRng) -> RingId {
        let nbrs = neighbours_rebuilt(net, cur);
        if nbrs.is_empty() {
            return cur;
        }
        let proposed = nbrs[rng.gen_range(0..nbrs.len())];
        let deg_cur = nbrs.len() as f64;
        let deg_prop = neighbours_rebuilt(net, proposed).len().max(1) as f64;
        net.stats_mut().record(MessageKind::WalkStep, 8);
        if net.message_lost(cur, proposed) {
            return cur;
        }
        net.stats_mut().record(MessageKind::WalkStep, 8);
        if rng.gen::<f64>() < (deg_cur / deg_prop).min(1.0) {
            proposed
        } else {
            cur
        }
    }

    #[test]
    fn memoized_walk_matches_per_step_rebuilds_under_loss() {
        let cfg = RandomWalkConfig { peers: 40, burn_in: 16, gap: 5, ..Default::default() };
        let walker = RandomWalkSampling::new(cfg);
        for seed in 0..6u64 {
            let mut base = build_net(80, 4_000, &DistributionKind::Bimodal, 30 + seed);
            // Silent crashes leave dead entries in routing state, so the
            // alive filter matters; loss and reply loss make steps stall.
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..6 {
                let victim = base.random_peer(&mut rng).unwrap();
                base.fail(victim).unwrap();
            }
            base.set_fault_plan(FaultPlan::new(seed).with_loss(0.2).with_reply_loss(0.1));
            let initiator = base.random_peer(&mut rng).unwrap();
            let (mut memo_net, mut ref_net) = (base.fork(), base.fork());
            let (mut memo_rng, mut ref_rng) = (rng.clone(), rng.clone());

            let mut view = WalkView::default();
            let (mut memo_path, mut ref_path) = (Vec::new(), Vec::new());
            let memo = walker.walk(&mut memo_net, initiator, &mut memo_rng, |net, cur, rng| {
                let next = RandomWalkSampling::mh_step(net, &mut view, cur, rng);
                memo_path.push(next);
                next
            });
            let reference = walker.walk(&mut ref_net, initiator, &mut ref_rng, |net, cur, rng| {
                let next = mh_step_rebuilt(net, cur, rng);
                ref_path.push(next);
                next
            });

            assert_eq!(memo_path, ref_path, "seed {seed}: trajectories differ");
            assert!(memo_path.iter().any(|&p| p != initiator), "seed {seed}: walk never moved");
            assert_eq!(memo, reference, "seed {seed}: replies differ");
            assert_eq!(memo_net.stats(), ref_net.stats(), "seed {seed}: charges differ");
            assert!(memo_net.stats().count(MessageKind::FaultDrop) > 0, "seed {seed}: no loss");
            assert_eq!(memo_net.fault_plan(), ref_net.fault_plan(), "seed {seed}: fault draws");
            assert_eq!(memo_rng.gen::<u64>(), ref_rng.gen::<u64>(), "seed {seed}: rng draws");
        }
    }

    #[test]
    fn dead_initiator_errors() {
        let mut net = build_net(16, 100, &DistributionKind::Uniform, 11);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            RandomWalkSampling::new(RandomWalkConfig::default()).estimate(
                &mut net,
                RingId(77),
                &mut rng
            ),
            Err(EstimateError::InitiatorDead)
        ));
    }

    /// On a 16-peer ring, a walk of 128 samples revisits peers: the report
    /// counts the distinct peers sampled, and every reply as a succeeded
    /// probe.
    #[test]
    fn peers_contacted_counts_distinct_peers() {
        let mut net = build_net(16, 200, &DistributionKind::Uniform, 13);
        let mut rng = StdRng::seed_from_u64(3);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = RandomWalkSampling::new(RandomWalkConfig { peers: 128, ..Default::default() });
        let mut view = WalkView::default();
        let replies = est.walk(&mut net.fork(), initiator, &mut rng.clone(), |net, cur, rng| {
            RandomWalkSampling::mh_step(net, &mut view, cur, rng)
        });
        let peers: std::collections::BTreeSet<RingId> = replies.iter().map(|r| r.peer).collect();
        let rep = est.estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(rep.probes_succeeded, 128);
        assert_eq!(rep.peers_contacted, peers.len());
        assert!((2..=16).contains(&rep.peers_contacted), "{} peers", rep.peers_contacted);
    }
}
