//! Exact aggregation by a full ring walk — the accuracy gold standard and
//! the `O(P)`-message cost yardstick every cheap estimator is compared to.

use crate::estimate::DensityEstimate;
use crate::estimator::{with_cost, DensityEstimator, EstimateError, EstimationReport};
use dde_ring::{MessageKind, Network, RingId};
use dde_stats::equidepth::{pooled_cdf_points, PoolTerm};
use dde_stats::PiecewiseCdf;
use rand::rngs::StdRng;

/// Cap on support points of the assembled CDF.
const SUPPORT_CAP: usize = 16_384;

/// Walks the entire ring, collecting every peer's count and summary, and
/// assembles the exact global CDF (exact at all summary boundaries).
#[derive(Debug, Clone, Default)]
pub struct ExactAggregation;

impl ExactAggregation {
    /// Creates the aggregator.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new() -> Self {
        Self
    }
}

impl DensityEstimator for ExactAggregation {
    fn name(&self) -> &'static str {
        "exact-walk"
    }

    fn estimate(
        &self,
        net: &mut Network,
        initiator: RingId,
        _rng: &mut StdRng,
    ) -> Result<EstimationReport, EstimateError> {
        if !net.is_alive(initiator) {
            return Err(EstimateError::InitiatorDead);
        }
        let (lo, hi) = net.placement().domain();
        let ((points, n_total, visited), cost) = with_cost(net, |net| {
            // Walk the ring via successor pointers, gathering summaries.
            let mut summaries = Vec::new();
            let mut cur = initiator;
            let limit = net.len() * 2 + 8;
            let mut visited = 0usize;
            loop {
                // `cur` is the live initiator or a successor found alive
                // below, and nothing in an estimate changes membership.
                let node = net.node(cur).expect("invariant: the walk stays on live peers");
                let summary = node.store.summary(net.summary_buckets());
                let succs = node.successors;
                if cur != initiator {
                    // Fetching this peer's statistic: request + reply.
                    net.stats_mut().record(MessageKind::Probe, 8);
                    net.stats_mut().record(MessageKind::ProbeReply, 16 + summary.wire_size());
                }
                summaries.push((summary.total(), summary));
                visited += 1;
                // Find the next alive successor (timeouts on dead ones).
                let mut next = None;
                for s in succs {
                    if net.is_alive(s) {
                        next = Some(s);
                        break;
                    }
                    net.stats_mut().record(MessageKind::LookupTimeout, 8);
                }
                let Some(next) = next else { break };
                if next == initiator || visited > limit {
                    break;
                }
                cur = next;
            }

            let n_total: u64 = summaries.iter().map(|(n, _)| n).sum();
            if n_total == 0 {
                return Err(EstimateError::NoData);
            }

            // Exact cumulative counts: C(x) = Σᵢ cᵢ(x), at the union of all
            // boundaries thinned to the cap.
            let terms = summaries.iter().map(|(_, s)| (s, PoolTerm::Count));
            let points = pooled_cdf_points(terms, (lo, hi), SUPPORT_CAP, |c| c / n_total as f64);
            Ok((points, n_total, visited))
        })?;

        let cdf = PiecewiseCdf::from_noisy_points(points)
            .ok_or(EstimateError::InsufficientProbes { got: 0, need: 2 })?;
        Ok(EstimationReport {
            estimate: DensityEstimate::from_cdf(cdf),
            cost,
            peers_contacted: visited,
            estimated_total: Some(n_total as f64),
            estimated_sum: None,
            estimated_sum_sq: None,
            probes_requested: visited,
            probes_succeeded: visited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn visits_every_peer_exactly_once() {
        let mut net = build_net(64, 5_000, &DistributionKind::Uniform, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let rep = ExactAggregation::new().estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(rep.peers_contacted, 64);
        assert_eq!(rep.estimated_total, Some(5_000.0));
        // Cost is Θ(P): one probe+reply per edge of the walk.
        assert_eq!(rep.cost.count(MessageKind::Probe), 63);
    }

    #[test]
    fn matches_ground_truth_closely() {
        for kind in [
            DistributionKind::Uniform,
            DistributionKind::Pareto { shape: 1.2 },
            DistributionKind::Bimodal,
        ] {
            let mut net = build_net(128, 40_000, &kind, 2);
            net.set_summary_buckets(16);
            let truth = kind.build(0.0, 100.0);
            let mut rng = StdRng::seed_from_u64(2);
            let initiator = net.random_peer(&mut rng).unwrap();
            let rep = ExactAggregation::new().estimate(&mut net, initiator, &mut rng).unwrap();
            // Error sources: sampling noise of the dataset itself plus
            // within-bucket interpolation — both small.
            let ks = rep.estimate.ks_to(truth.as_ref());
            assert!(ks < 0.02, "{}: ks = {ks}", kind.label());
        }
    }

    #[test]
    fn empty_data_errors() {
        let mut net = build_net(8, 0, &DistributionKind::Uniform, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let initiator = net.random_peer(&mut rng).unwrap();
        assert!(matches!(
            ExactAggregation::new().estimate(&mut net, initiator, &mut rng),
            Err(EstimateError::NoData)
        ));
    }

    #[test]
    fn dead_initiator_errors() {
        let mut net = build_net(8, 100, &DistributionKind::Uniform, 4);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            ExactAggregation::new().estimate(&mut net, RingId(1), &mut rng),
            Err(EstimateError::InitiatorDead)
        ));
    }
}
