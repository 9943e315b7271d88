//! The paper's estimator: **D**istribution-**F**ree **D**ata **D**ensity
//! **E**stimation.
//!
//! Phase 1 probes `k` uniform random ring positions and assembles the replies
//! into a [`CdfSkeleton`] (Horvitz–Thompson-corrected global CDF). Phase 2
//! optionally generates samples by the inversion method — locally from the
//! skeleton, or by fetching real tuples from the peers owning the sampled
//! quantiles. Cost: `k · O(log P)` messages for Phase 1, plus `m · O(log P)`
//! for remote Phase 2.

use crate::estimate::DensityEstimate;
use crate::estimator::{
    distinct_peers, with_cost, DensityEstimator, EstimateError, EstimationReport,
};
use crate::retry::RetryPolicy;
use crate::skeleton::{usable, CdfSkeleton, Weighting, SUPPORT_CAP};
use dde_ring::{LookupError, Network, ProbeReply, RingId};
use dde_stats::CdfFn as _;
use rand::rngs::StdRng;
use rand::Rng;

/// How Phase-1 probe positions are drawn on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStrategy {
    /// One uniform position per equal ring stratum (`uⱼ ∈ [j/k, (j+1)/k)`).
    ///
    /// Still unbiased under Horvitz–Thompson (each position is uniform
    /// within its stratum and the strata tile the ring), but with far lower
    /// variance: spatially clustered mass — the hotspot peers skewed data
    /// creates — is covered *systematically* instead of by luck. This is the
    /// natural reading of the paper's "sampling the global cumulative
    /// distribution function".
    Stratified,
    /// Independent uniform positions (the textbook estimator; ablation).
    IidUniform,
}

/// Phase-2 sampling behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// No Phase 2: read density straight off the skeleton (zero extra cost).
    SkeletonOnly,
    /// Fetch `m` real tuples by routing to the peers owning the sampled
    /// quantiles (`m · O(log P)` extra messages).
    RemoteTuples {
        /// Number of tuples to fetch.
        m: usize,
    },
}

/// Configuration for [`DfDde`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfDdeConfig {
    /// Number of ring-position probes (`k`).
    pub probes: usize,
    /// Probe-position strategy.
    pub strategy: ProbeStrategy,
    /// Phase-2 behaviour.
    pub sample_mode: SampleMode,
    /// Horvitz–Thompson on (the method) or off (T3 ablation).
    pub weighting: Weighting,
    /// Retry policy for individual probes: churn and injected faults can
    /// break them; lost probes are re-issued against fresh random ring
    /// positions with exponential backoff, and a probe whose attempts run
    /// out is simply skipped (the skeleton degrades gracefully).
    pub retry: RetryPolicy,
}

impl Default for DfDdeConfig {
    fn default() -> Self {
        Self {
            probes: 64,
            strategy: ProbeStrategy::Stratified,
            sample_mode: SampleMode::SkeletonOnly,
            weighting: Weighting::HorvitzThompson,
            retry: RetryPolicy::default(),
        }
    }
}

impl DfDdeConfig {
    /// Convenience: default config with `k` probes.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn with_probes(probes: usize) -> Self {
        Self { probes, ..Self::default() }
    }
}

/// The distribution-free density estimator (see module docs).
#[derive(Debug, Clone)]
pub struct DfDde {
    config: DfDdeConfig,
}

impl DfDde {
    /// Creates the estimator with the given configuration.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: DfDdeConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn config(&self) -> &DfDdeConfig {
        &self.config
    }

    /// Phase 1 alone: run the probes and return the raw replies (exposed for
    /// the continuous estimator, which manages its own probe window).
    ///
    /// The k attempt-0 points go to [`Network::probe_wave`] first, drawn
    /// from a clone of `rng`, so the k routes overlap their record misses;
    /// the clone replaces `rng` only when the wave answers, and then the
    /// replies, billing and next draw are what the per-stratum loop would
    /// have given. When the wave declines (a fault plan, a dead initiator,
    /// a route that meets a dead peer), the loop runs from the untouched
    /// `rng`. A clone, not a [`crate::ProbePlan`]: a plan draws every point
    /// before any retry, and under faults the loop interleaves them.
    ///
    /// Determinism: draws randomness only from the caller-supplied RNG stream; identical inputs and RNG state produce identical output.
    pub fn run_probes(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<Vec<ProbeReply>, EstimateError> {
        let k = self.config.probes;
        let mut wave_rng = rng.clone();
        let points: Vec<RingId> = (0..k).map(|j| self.stratum_point(j, k, &mut wave_rng)).collect();
        if let Some(replies) = net.probe_wave(initiator, &points) {
            *rng = wave_rng;
            return Ok(replies);
        }
        let mut replies = Vec::with_capacity(k);
        for j in 0..k {
            replies.extend(self.probe_stratum(net, initiator, j, k, None, rng)?);
        }
        Ok(replies)
    }

    /// A fresh probe position for stratum `j` of `k`: uniform within
    /// `[j/k, (j+1)/k)` of the ring under [`ProbeStrategy::Stratified`],
    /// anywhere under [`ProbeStrategy::IidUniform`]. Draws one `u64`.
    pub(crate) fn stratum_point(&self, j: usize, k: usize, rng: &mut StdRng) -> RingId {
        match self.config.strategy {
            ProbeStrategy::IidUniform => RingId(rng.gen()),
            ProbeStrategy::Stratified => {
                let stratum = (u128::from(u64::MAX) + 1) / k.max(1) as u128;
                let offset = u128::from(rng.gen::<u64>()) % stratum;
                RingId((j as u128 * stratum + offset) as u64)
            }
        }
    }

    /// The one Phase-1 probe/retry loop, for stratum `j` of `k`. Attempt 0
    /// probes `first` when the caller pre-drew it ([`crate::ProbePlan`]);
    /// every other attempt draws a fresh point (the old one may sit behind a
    /// lossy link or a sick peer) *inside the stratum* — re-issuing globally
    /// uniform would quietly un-stratify the design and inflate variance
    /// under loss. `Ok(None)`: the attempts ran out.
    pub(crate) fn probe_stratum(
        &self,
        net: &mut Network,
        initiator: RingId,
        j: usize,
        k: usize,
        first: Option<RingId>,
        rng: &mut StdRng,
    ) -> Result<Option<ProbeReply>, EstimateError> {
        let retry = self.config.retry;
        for attempt in 0..retry.max_attempts.max(1) {
            let point =
                first.filter(|_| attempt == 0).unwrap_or_else(|| self.stratum_point(j, k, rng));
            match net.probe(initiator, point) {
                Ok(reply) => return Ok(Some(reply)),
                Err(LookupError::InitiatorDead) => return Err(EstimateError::InitiatorDead),
                // Waiting time (timeout + backoff) is the retry policy's side
                // of the cost model; the network already charged the messages.
                Err(_) => net.stats_mut().record_delay(retry.failed_attempt_cost(attempt)),
            }
        }
        Ok(None)
    }

    /// Builds the skeleton from replies (the wrapper every Phase-1 caller
    /// uses: this estimator, the continuous one and the piggybacked refresh).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn build_skeleton(
        &self,
        replies: &[ProbeReply],
        domain: (f64, f64),
    ) -> Result<CdfSkeleton, EstimateError> {
        CdfSkeleton::from_probes(replies, domain, SUPPORT_CAP, self.config.weighting)
    }
}

impl DensityEstimator for DfDde {
    fn name(&self) -> &'static str {
        match self.config.weighting {
            Weighting::HorvitzThompson => "df-dde",
            Weighting::Unweighted => "df-dde-unweighted",
        }
    }

    fn estimate(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<EstimationReport, EstimateError> {
        let domain = net.placement().domain();
        let need = self.config.probes;
        let ((skeleton, samples, contacted), cost) = with_cost(net, |net| {
            // Phase 1. A partial reply set is fine — the skeleton degrades
            // gracefully and the report says how many of `k` were usable —
            // but below 2 usable replies no skeleton exists.
            let replies = self.run_probes(net, initiator, rng)?;
            if replies.len() < need.min(2) {
                return Err(EstimateError::InsufficientProbes { got: replies.len(), need });
            }
            let skeleton = self.build_skeleton(&replies, domain)?;
            // Two probes can land on one peer.
            let contacted = distinct_peers(usable(&replies).map(|(r, _)| r.peer));

            // Phase 2.
            let mut samples = Vec::new();
            if let SampleMode::RemoteTuples { m } = self.config.sample_mode {
                let map = net.placement().domain_map().copied();
                for i in 0..m {
                    // Stratified quantile, inverted through the skeleton.
                    let u = (i as f64 + rng.gen::<f64>()) / m as f64;
                    let x_hat = skeleton.cdf.inv_cdf(u);
                    // Route to the peer owning the estimated quantile. Under
                    // range placement that peer holds data near x̂; under
                    // hashed placement any peer holds an exchangeable subset,
                    // so a uniform ring point is equivalent.
                    let point = match &map {
                        Some(m) => m.to_ring(x_hat),
                        None => RingId(rng.gen()),
                    };
                    if let Ok((Some(tuple), _)) = net.sample_tuple(initiator, point, rng) {
                        samples.push(tuple);
                    }
                }
            }
            Ok((skeleton, samples, contacted))
        })?;

        Ok(EstimationReport {
            estimate: DensityEstimate::with_samples(skeleton.cdf, samples),
            cost,
            peers_contacted: contacted,
            estimated_total: Some(skeleton.n_hat),
            estimated_sum: Some(skeleton.sum_hat),
            estimated_sum_sq: Some(skeleton.sum_sq_hat),
            probes_requested: need,
            probes_succeeded: skeleton.probes_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::{MessageKind, Placement};
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
    fn recovers_skewed_distribution() {
        let kind = DistributionKind::Zipf { cells: 32, exponent: 1.1 };
        let mut net = build_net(256, 50_000, &kind, 1);
        let truth = kind.build(0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(9);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = DfDde::new(DfDdeConfig::with_probes(128))
            .estimate(&mut net, initiator, &mut rng)
            .unwrap();
        let ks = est.estimate.ks_to(truth.as_ref());
        assert!(ks < 0.1, "ks = {ks}");
        let n_hat = est.estimated_total.unwrap();
        assert!((n_hat - 50_000.0).abs() / 50_000.0 < 0.25, "n_hat = {n_hat}");
    }

    /// Builds a **load-balanced** ring: node ids placed at the data's
    /// quantiles (each peer holds ~equal item counts), the steady state of
    /// range-partitioned systems with load balancing (Mercury, P-Ring).
    /// There, arc length anti-correlates with data density, which is exactly
    /// the regime where dropping the Horvitz–Thompson correction is
    /// structurally biased.
    fn build_load_balanced_net(
        peers: usize,
        items: usize,
        kind: &DistributionKind,
        seed: u64,
    ) -> Network {
        let seq = SeedSequence::new(seed);
        let dist = kind.build(0.0, 100.0);
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..items).map(|_| dist.sample(&mut data_rng)).collect();
        let placement = Placement::range(0.0, 100.0);
        let map = *placement.domain_map().unwrap();
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        let mut ids: Vec<RingId> = (1..=peers)
            .map(|i| {
                let q = sorted[(i * items / peers).min(items - 1)];
                map.to_ring(q)
            })
            .collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, placement);
        net.bulk_load(&data);
        net
    }

    #[test]
    fn ht_beats_unweighted_on_load_balanced_ring() {
        let kind = DistributionKind::Zipf { cells: 32, exponent: 1.1 };
        let truth = kind.build(0.0, 100.0);
        let mut ks_ht = 0.0;
        let mut ks_raw = 0.0;
        let runs = 4;
        for seed in 0..runs {
            let mut net = build_load_balanced_net(192, 30_000, &kind, 100 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let initiator = net.random_peer(&mut rng).unwrap();
            let mut cfg = DfDdeConfig::with_probes(96);
            let est_ht = DfDde::new(cfg).estimate(&mut net, initiator, &mut rng.clone()).unwrap();
            cfg.weighting = Weighting::Unweighted;
            let est_raw = DfDde::new(cfg).estimate(&mut net, initiator, &mut rng).unwrap();
            ks_ht += est_ht.estimate.ks_to(truth.as_ref()) / runs as f64;
            ks_raw += est_raw.estimate.ks_to(truth.as_ref()) / runs as f64;
        }
        assert!(
            ks_ht < 0.6 * ks_raw,
            "HT should clearly beat unweighted on a load-balanced ring: {ks_ht} vs {ks_raw}"
        );
    }

    #[test]
    fn cost_scales_with_probes() {
        let kind = DistributionKind::Uniform;
        let mut net = build_net(512, 10_000, &kind, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let initiator = net.random_peer(&mut rng).unwrap();
        let small = DfDde::new(DfDdeConfig::with_probes(16))
            .estimate(&mut net, initiator, &mut rng)
            .unwrap();
        let large = DfDde::new(DfDdeConfig::with_probes(128))
            .estimate(&mut net, initiator, &mut rng)
            .unwrap();
        assert_eq!(small.cost.count(MessageKind::Probe), 16);
        assert_eq!(large.cost.count(MessageKind::Probe), 128);
        assert!(large.messages() > 4 * small.messages());
        // Probes cost O(log P) each, not O(P).
        assert!(large.messages() < 128 * 40, "messages = {} for 128 probes", large.messages());
    }

    #[test]
    fn remote_tuples_are_real_data() {
        let kind = DistributionKind::Normal { center_frac: 0.5, std_frac: 0.12 };
        let mut net = build_net(128, 20_000, &kind, 7);
        let all: std::collections::BTreeSet<u64> =
            net.live_values().iter().map(|v| v.to_bits()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let initiator = net.random_peer(&mut rng).unwrap();
        let cfg = DfDdeConfig {
            sample_mode: SampleMode::RemoteTuples { m: 200 },
            ..DfDdeConfig::with_probes(64)
        };
        let est = DfDde::new(cfg).estimate(&mut net, initiator, &mut rng).unwrap();
        let samples = est.estimate.samples();
        assert!(samples.len() > 150, "only {} tuples fetched", samples.len());
        for s in samples {
            assert!(all.contains(&s.to_bits()), "sample {s} is not a stored tuple");
        }
        // And they follow the true distribution.
        let truth = kind.build(0.0, 100.0);
        let ks = dde_stats::Ecdf::new(samples.to_vec()).ks_distance_to(truth.as_ref());
        assert!(ks < 0.2, "remote-tuple ks = {ks}");
    }

    #[test]
    fn insufficient_probes_error() {
        let kind = DistributionKind::Uniform;
        let mut net = build_net(4, 100, &kind, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let est = DfDde::new(DfDdeConfig::with_probes(8));
        assert!(matches!(
            est.estimate(&mut net, RingId(424242), &mut rng),
            Err(EstimateError::InitiatorDead)
        ));
    }

    #[test]
    fn works_under_hashed_placement() {
        // Hashed placement: every peer holds an exchangeable subset; the
        // estimator must still recover the distribution.
        let seq = SeedSequence::new(21);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let ids: Vec<RingId> = (0..128).map(|_| RingId(id_rng.gen())).collect();
        let mut net = Network::build_bulk(ids, Placement::hashed(0.0, 100.0));
        let kind = DistributionKind::Exponential { rate_scale: 8.0 };
        let dist = kind.build(0.0, 100.0);
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..20_000).map(|_| dist.sample(&mut data_rng)).collect();
        net.bulk_load(&data);

        let mut rng = StdRng::seed_from_u64(2);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = DfDde::new(DfDdeConfig::with_probes(64))
            .estimate(&mut net, initiator, &mut rng)
            .unwrap();
        let ks = est.estimate.ks_to(dist.as_ref());
        assert!(ks < 0.1, "hashed-placement ks = {ks}");
    }

    /// Probes that land on one peer contact it once: on a 16-peer ring, 128
    /// probes contact the distinct peers that replied, and every reply
    /// counts as a usable probe.
    #[test]
    fn peers_contacted_counts_distinct_peers() {
        let mut net = build_net(16, 200, &DistributionKind::Uniform, 13);
        let mut rng = StdRng::seed_from_u64(3);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = DfDde::new(DfDdeConfig::with_probes(128));
        let replies = est.run_probes(&mut net.fork(), initiator, &mut rng.clone()).unwrap();
        let peers: std::collections::BTreeSet<RingId> = replies.iter().map(|r| r.peer).collect();
        let rep = est.estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(rep.probes_succeeded, 128);
        assert_eq!(rep.peers_contacted, peers.len());
        assert!((2..=16).contains(&rep.peers_contacted), "{} peers", rep.peers_contacted);
    }

    /// A ring that holds no items estimates `N̂ = 0`, and the estimate says
    /// so, rather than reading as a shortfall of probes.
    #[test]
    fn estimate_on_a_ring_without_items_is_no_data() {
        let mut net = build_net(32, 0, &DistributionKind::Uniform, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = DfDde::new(DfDdeConfig::with_probes(16));
        let result = est.estimate(&mut net, initiator, &mut rng);
        assert!(matches!(result, Err(EstimateError::NoData)), "{:?}", result.err());
    }
}
