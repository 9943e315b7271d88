//! Uniform peer sampling — the classic baseline.
//!
//! `k` peers are chosen uniformly at random (an idealized sampler: real
//! systems approximate it with random walks, see
//! [`super::random_walk`]); each is routed to and probed, and the local
//! summaries are pooled. The cost model is honest — knowing a peer's id,
//! reaching it costs a real `O(log P)` lookup, charged through the network.
//!
//! The [`PoolWeighting::Equal`] flavour is *the* biased estimator the paper
//! argues against; [`PoolWeighting::CountWeighted`] is the repaired variant
//! (consistent, though with higher variance than DF-DDE's ring-position
//! probing at equal message cost — experiment F1/T3 quantifies this).

use crate::baseline::pool_replies;
pub use crate::baseline::PoolWeighting;
use crate::estimate::DensityEstimate;
use crate::estimator::{
    distinct_peers, with_cost, DensityEstimator, EstimateError, EstimationReport,
};
use crate::skeleton::SUPPORT_CAP;
use dde_ring::{Network, RingId};
use rand::rngs::StdRng;

/// Configuration for [`UniformPeerSampling`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformPeerConfig {
    /// Number of peers to sample (`k`).
    pub peers: usize,
    /// How replies are pooled.
    pub weighting: PoolWeighting,
}

impl Default for UniformPeerConfig {
    fn default() -> Self {
        Self { peers: 64, weighting: PoolWeighting::Equal }
    }
}

/// Uniform-peer-sampling estimator (see module docs).
#[derive(Debug, Clone)]
pub struct UniformPeerSampling {
    config: UniformPeerConfig,
}

impl UniformPeerSampling {
    /// Creates the estimator.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: UniformPeerConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn config(&self) -> &UniformPeerConfig {
        &self.config
    }
}

impl DensityEstimator for UniformPeerSampling {
    fn name(&self) -> &'static str {
        match self.config.weighting {
            PoolWeighting::Equal => "uniform-peer",
            PoolWeighting::CountWeighted => "uniform-peer-cw",
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
        let need = self.config.peers;
        let (replies, cost) = with_cost(net, |net| {
            let mut replies = Vec::with_capacity(need);
            let mut failures = 0usize;
            while replies.len() < need {
                // Idealized uniform peer choice; the *routing* to it is real.
                let Some(target) = net.random_peer(rng) else {
                    return Err(EstimateError::Routing(dde_ring::LookupError::EmptyNetwork));
                };
                match net.probe(initiator, target) {
                    Ok(r) => replies.push(r),
                    Err(dde_ring::LookupError::InitiatorDead) => {
                        return Err(EstimateError::InitiatorDead)
                    }
                    Err(_) => {
                        failures += 1;
                        if failures > 16 {
                            break;
                        }
                    }
                }
            }
            Ok(replies)
        })?;

        let contacted = replies.len();
        let total: f64 = replies.iter().map(|r| r.count as f64).sum();
        let cdf = pool_replies(&replies, domain, SUPPORT_CAP, self.config.weighting)
            .ok_or(EstimateError::InsufficientProbes { got: contacted, need })?;
        // Uniform peer sampling estimates N as P·mean(n): possible only when
        // P is known; we report the per-sample mean total instead (scaled by
        // the alive count, which the simulator knows — flagged as idealized).
        let n_hat =
            if contacted > 0 { Some(total / contacted as f64 * net.len() as f64) } else { None };
        Ok(EstimationReport {
            estimate: DensityEstimate::from_cdf(cdf),
            cost,
            peers_contacted: distinct_peers(replies.iter().map(|r| r.peer)),
            estimated_total: n_hat,
            estimated_sum: None,
            estimated_sum_sq: None,
            probes_requested: need,
            probes_succeeded: contacted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfdde::{DfDde, DfDdeConfig};
    use dde_ring::Placement;
    use dde_stats::dist::DistributionKind;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::{Rng, SeedableRng};

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
    fn equal_weighting_is_biased_even_on_uniform_data() {
        // Under range placement per-peer volume is ∝ arc length, which
        // varies exponentially across peers even with uniform data — so
        // equal-weight pooling (one vote per peer, regardless of volume)
        // distorts the estimate, while count weighting stays consistent.
        let kind = DistributionKind::Uniform;
        let mut net = build_net(128, 20_000, &kind, 5);
        let truth = kind.build(0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let eq = UniformPeerSampling::new(UniformPeerConfig::default())
            .estimate(&mut net, initiator, &mut rng.clone())
            .unwrap();
        let cw = UniformPeerSampling::new(UniformPeerConfig {
            weighting: PoolWeighting::CountWeighted,
            ..UniformPeerConfig::default()
        })
        .estimate(&mut net, initiator, &mut rng)
        .unwrap();
        let ks_eq = eq.estimate.ks_to(truth.as_ref());
        let ks_cw = cw.estimate.ks_to(truth.as_ref());
        assert!(ks_cw < 0.25, "count-weighted should be reasonable: {ks_cw}");
        assert!(ks_cw < ks_eq, "count-weighted {ks_cw} should beat equal {ks_eq}");
    }

    #[test]
    fn biased_on_skewed_data_where_dfdde_is_not() {
        // The paper's core comparison: heavy skew under range placement.
        let kind = DistributionKind::Pareto { shape: 1.2 };
        let truth = kind.build(0.0, 100.0);
        let mut ks_naive = 0.0;
        let mut ks_dfdde = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let mut net = build_net(192, 30_000, &kind, 300 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let initiator = net.random_peer(&mut rng).unwrap();
            let naive = UniformPeerSampling::new(UniformPeerConfig {
                peers: 96,
                ..UniformPeerConfig::default()
            })
            .estimate(&mut net, initiator, &mut rng.clone())
            .unwrap();
            let dfdde = DfDde::new(DfDdeConfig::with_probes(96))
                .estimate(&mut net, initiator, &mut rng)
                .unwrap();
            ks_naive += naive.estimate.ks_to(truth.as_ref()) / runs as f64;
            ks_dfdde += dfdde.estimate.ks_to(truth.as_ref()) / runs as f64;
        }
        assert!(
            ks_naive > 2.0 * ks_dfdde,
            "expected clear bias: naive {ks_naive} vs df-dde {ks_dfdde}"
        );
    }

    #[test]
    fn count_weighting_repairs_the_bias() {
        let kind = DistributionKind::Pareto { shape: 1.2 };
        let truth = kind.build(0.0, 100.0);
        let mut ks_eq = 0.0;
        let mut ks_cw = 0.0;
        for seed in 0..5 {
            let mut net = build_net(192, 30_000, &kind, 400 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let initiator = net.random_peer(&mut rng).unwrap();
            let mut cfg = UniformPeerConfig { peers: 96, ..UniformPeerConfig::default() };
            let eq = UniformPeerSampling::new(cfg)
                .estimate(&mut net, initiator, &mut rng.clone())
                .unwrap();
            cfg.weighting = PoolWeighting::CountWeighted;
            let cw = UniformPeerSampling::new(cfg).estimate(&mut net, initiator, &mut rng).unwrap();
            ks_eq += eq.estimate.ks_to(truth.as_ref());
            ks_cw += cw.estimate.ks_to(truth.as_ref());
        }
        assert!(ks_cw < ks_eq, "count-weighted {ks_cw} should beat equal {ks_eq}");
    }

    #[test]
    fn charges_routing_messages() {
        let mut net = build_net(256, 5_000, &DistributionKind::Uniform, 6);
        let mut rng = StdRng::seed_from_u64(2);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = UniformPeerSampling::new(UniformPeerConfig {
            peers: 32,
            ..UniformPeerConfig::default()
        })
        .estimate(&mut net, initiator, &mut rng)
        .unwrap();
        assert_eq!(est.probes_succeeded, 32);
        assert!(est.peers_contacted <= 32, "{} peers", est.peers_contacted);
        // Routing to each sampled peer costs hops.
        assert!(est.messages() > 64, "messages = {}", est.messages());
    }

    /// On a 16-peer ring, 128 samples hit some peers more than once: the
    /// report counts the distinct peers drawn, and every reply as a
    /// succeeded probe.
    #[test]
    fn peers_contacted_counts_distinct_peers() {
        let mut net = build_net(16, 200, &DistributionKind::Uniform, 13);
        let mut rng = StdRng::seed_from_u64(3);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = UniformPeerSampling::new(UniformPeerConfig { peers: 128, ..Default::default() });
        // A fault-free probe of an alive peer answers from that peer, and
        // probing draws nothing from the stream, so the replies' peers are
        // the sampler's first 128 draws.
        let mut draws = rng.clone();
        let peers: std::collections::BTreeSet<RingId> =
            (0..128).map(|_| net.random_peer(&mut draws).unwrap()).collect();
        let rep = est.estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(rep.probes_succeeded, 128);
        assert_eq!(rep.peers_contacted, peers.len());
        assert!((2..=16).contains(&rep.peers_contacted), "{} peers", rep.peers_contacted);
    }
}
