//! Global aggregate queries over the same probe machinery — the "query
//! processing" application family: COUNT, SUM, AVG, VAR(/STD), and
//! range-restricted COUNT, all estimated from one round of `k` probes.
//!
//! The same Hansen–Hurwitz/Horvitz–Thompson argument that makes the CDF
//! skeleton unbiased (see [`crate::skeleton`]) applies verbatim to any
//! per-peer additive quantity: probe replies carry `(n, Σx, Σx²)`, so
//!
//! ```text
//!   N̂  = (1/k)·Σⱼ nⱼ/sⱼ          ŜUM = (1/k)·Σⱼ sumⱼ/sⱼ
//!   ÂVG = ŜUM / N̂                 V̂AR = ŜQ/N̂ − ÂVG²
//! ```
//!
//! are all distribution-free. Range COUNT comes from the CDF skeleton:
//! `N̂·(F̂(hi) − F̂(lo))`.

use crate::dfdde::{DfDde, DfDdeConfig};
use crate::estimator::{with_cost, EstimateError};
use crate::skeleton::{CdfSkeleton, Weighting};
use dde_ring::{MessageStats, Network, ProbeReply, RingId};
use dde_stats::CdfFn as _;
use rand::rngs::StdRng;

/// Estimated global aggregates, with exact cost attribution.
#[derive(Debug, Clone)]
pub struct AggregateReport {
    /// Estimated global item count.
    pub count: f64,
    /// Estimated global sum.
    pub sum: f64,
    /// Estimated global mean (`sum/count`).
    pub mean: f64,
    /// Estimated global (population) variance; clamped at 0.
    pub variance: f64,
    /// The CDF skeleton (for range counts and quantiles).
    skeleton: CdfSkeleton,
    /// Message cost of this query.
    pub cost: MessageStats,
    /// Probes used.
    pub probes_used: usize,
}

impl AggregateReport {
    /// Estimated global standard deviation.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Estimated number of items in `[lo, hi]`.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn range_count(&self, lo: f64, hi: f64) -> f64 {
        if hi < lo {
            return 0.0;
        }
        self.count * (self.skeleton.cdf.cdf(hi) - self.skeleton.cdf.cdf(lo)).max(0.0)
    }

    /// Estimated `q`-quantile of the global data.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn quantile(&self, q: f64) -> f64 {
        self.skeleton.cdf.inv_cdf(q)
    }
}

/// Aggregate-query estimator: one probe round answers COUNT/SUM/AVG/VAR and
/// any number of range counts.
#[derive(Debug, Clone)]
pub struct AggregateEstimator {
    config: DfDdeConfig,
}

impl AggregateEstimator {
    /// Creates the estimator with `k` probes (HT weighting, stratified).
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn with_probes(probes: usize) -> Self {
        Self { config: DfDdeConfig::with_probes(probes) }
    }

    /// Creates from a full DF-DDE configuration.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: DfDdeConfig) -> Self {
        Self { config }
    }

    /// Runs the aggregate query from `initiator`.
    ///
    /// Determinism: draws randomness only from the caller-supplied RNG stream; identical inputs and RNG state produce identical output.
    pub fn query(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<AggregateReport, EstimateError> {
        let domain = net.placement().domain();
        let prober = DfDde::new(self.config);
        let (replies, cost) = with_cost(net, |net| prober.run_probes(net, initiator, rng))?;
        let agg = estimate_aggregates(&replies, self.config.weighting)?;
        let skeleton = prober.build_skeleton(&replies, domain)?;
        Ok(AggregateReport {
            count: agg.0,
            sum: agg.1,
            mean: agg.2,
            variance: agg.3,
            probes_used: skeleton.probes_used,
            skeleton,
            cost,
        })
    }
}

/// The HT aggregate arithmetic on raw replies:
/// `(count, sum, mean, variance)`. Fails like [`CdfSkeleton::from_probes`]:
/// [`EstimateError::InsufficientProbes`], counting the usable replies, with
/// fewer than 2, and [`EstimateError::NoData`] when the estimated count is
/// not positive.
///
/// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
fn estimate_aggregates(
    replies: &[ProbeReply],
    weighting: Weighting,
) -> Result<(f64, f64, f64, f64), EstimateError> {
    let usable: Vec<(&ProbeReply, f64)> = replies
        .iter()
        .filter_map(|r| {
            let pred = r.predecessor?;
            let s = r.peer.arc_fraction_from(pred);
            (s > 0.0).then_some((r, s))
        })
        .collect();
    if usable.len() < 2 {
        return Err(EstimateError::InsufficientProbes { got: usable.len(), need: 2 });
    }
    let k = usable.len() as f64;
    let weight = |s: f64| match weighting {
        Weighting::HorvitzThompson => 1.0 / s,
        Weighting::Unweighted => 1.0,
    };
    let n: f64 = usable.iter().map(|(r, s)| r.count as f64 * weight(*s)).sum::<f64>() / k;
    if n <= 0.0 {
        return Err(EstimateError::NoData);
    }
    let sum: f64 = usable.iter().map(|(r, s)| r.sum * weight(*s)).sum::<f64>() / k;
    let sum_sq: f64 = usable.iter().map(|(r, s)| r.sum_sq * weight(*s)).sum::<f64>() / k;
    let mean = sum / n;
    let variance = (sum_sq / n - mean * mean).max(0.0);
    Ok((n, sum, mean, variance))
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

    fn exact_aggregates(net: &Network) -> (f64, f64, f64, f64) {
        let vals = net.global_values();
        let n = vals.len() as f64;
        let sum: f64 = vals.iter().sum();
        let mean = sum / n;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (n, sum, mean, var)
    }

    #[test]
    fn aggregates_match_exact_within_tolerance() {
        let kind = DistributionKind::Normal { center_frac: 0.6, std_frac: 0.15 };
        let mut net = build_net(256, 40_000, &kind, 71);
        let (n, sum, mean, var) = exact_aggregates(&net);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let rep =
            AggregateEstimator::with_probes(128).query(&mut net, initiator, &mut rng).unwrap();
        assert!((rep.count - n).abs() / n < 0.1, "count {} vs {n}", rep.count);
        assert!((rep.sum - sum).abs() / sum < 0.1, "sum {} vs {sum}", rep.sum);
        assert!((rep.mean - mean).abs() / mean < 0.05, "mean {} vs {mean}", rep.mean);
        assert!((rep.variance - var).abs() / var < 0.25, "var {} vs {var}", rep.variance);
        assert!(rep.std_dev() > 0.0);
    }

    #[test]
    fn range_count_tracks_truth() {
        let kind = DistributionKind::Zipf { cells: 32, exponent: 1.0 };
        let mut net = build_net(256, 40_000, &kind, 73);
        let mut rng = StdRng::seed_from_u64(2);
        let initiator = net.random_peer(&mut rng).unwrap();
        let rep =
            AggregateEstimator::with_probes(160).query(&mut net, initiator, &mut rng).unwrap();
        for (lo, hi) in [(0.0, 10.0), (20.0, 50.0), (90.0, 100.0)] {
            let exact: usize = net
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|id| net.node(id).unwrap().store.count_range(lo, hi))
                .sum();
            let est = rep.range_count(lo, hi);
            let err = (est - exact as f64).abs() / 40_000.0;
            assert!(err < 0.08, "[{lo},{hi}]: est {est:.0} vs {exact} (err {err:.3})");
        }
        assert_eq!(rep.range_count(5.0, 1.0), 0.0);
    }

    #[test]
    fn mean_is_distribution_free() {
        // The mean estimate stays accurate across skews at fixed cost.
        for kind in [
            DistributionKind::Uniform,
            DistributionKind::Exponential { rate_scale: 8.0 },
            DistributionKind::Bimodal,
        ] {
            let mut net = build_net(192, 20_000, &kind, 79);
            let (_, _, mean, _) = exact_aggregates(&net);
            let mut rng = StdRng::seed_from_u64(3);
            let initiator = net.random_peer(&mut rng).unwrap();
            let rep =
                AggregateEstimator::with_probes(128).query(&mut net, initiator, &mut rng).unwrap();
            assert!(
                (rep.mean - mean).abs() / mean.abs().max(1.0) < 0.1,
                "{}: mean {} vs {mean}",
                kind.label(),
                rep.mean
            );
        }
    }

    #[test]
    fn too_few_probes_error() {
        let mut net = build_net(8, 100, &DistributionKind::Uniform, 83);
        let mut rng = StdRng::seed_from_u64(4);
        let initiator = net.random_peer(&mut rng).unwrap();
        // probes = 0 → no replies → insufficient.
        let est = AggregateEstimator::new(DfDdeConfig { probes: 0, ..DfDdeConfig::default() });
        assert!(matches!(
            est.query(&mut net, initiator, &mut rng),
            Err(EstimateError::InsufficientProbes { .. })
        ));
    }

    #[test]
    fn raw_arithmetic_on_synthetic_replies() {
        // Two half-ring peers: counts 10 & 30, sums 100 & 900.
        use dde_stats::equidepth::EquiDepthSummary;
        let h = u64::MAX / 2;
        let mk = |peer: u64, pred: u64, count: u64, sum: f64, sum_sq: f64| ProbeReply {
            peer: RingId(peer),
            predecessor: Some(RingId(pred)),
            count,
            sum,
            sum_sq,
            summary: EquiDepthSummary::from_sorted(&[1.0], 1),
            hops: 0,
        };
        let replies =
            vec![mk(h, u64::MAX, 10, 100.0, 1_100.0), mk(u64::MAX, h, 30, 900.0, 28_000.0)];
        let (n, sum, mean, var) =
            estimate_aggregates(&replies, Weighting::HorvitzThompson).unwrap();
        // Each arc fraction is 1/2 → weights 2; k = 2.
        assert!((n - 40.0).abs() < 1e-9);
        assert!((sum - 1000.0).abs() < 1e-9);
        assert!((mean - 25.0).abs() < 1e-9);
        // E[X²] = 29100/40 = 727.5; var = 727.5 - 625 = 102.5.
        assert!((var - 102.5).abs() < 1e-9);
    }

    /// The aggregate query over a ring with no items fails with `NoData`,
    /// like the estimate.
    #[test]
    fn query_on_a_ring_without_items_is_no_data() {
        let mut net = build_net(32, 0, &DistributionKind::Uniform, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = AggregateEstimator::new(DfDdeConfig::with_probes(16));
        let result = est.query(&mut net, initiator, &mut rng);
        assert!(matches!(result, Err(EstimateError::NoData)), "{:?}", result.err());
    }
}
