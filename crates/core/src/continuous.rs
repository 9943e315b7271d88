//! Continuous estimation under churn — the "dynamic networks" extension.
//!
//! Instead of probing from scratch for every estimate, a peer maintains a
//! sliding window of the most recent probe replies and refreshes a few per
//! tick. The estimate is always available (rebuilt from the window on
//! demand) and its staleness is controlled by the refresh rate: experiment
//! F5b sweeps refresh against churn to show the trade-off.

use crate::dfdde::{DfDde, DfDdeConfig};
use crate::estimate::DensityEstimate;
use crate::estimator::EstimateError;
use dde_ring::{Network, ProbeReply, RingId};
use rand::rngs::StdRng;

/// Configuration for [`ContinuousEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContinuousConfig {
    /// Maximum probes kept in the window.
    pub window: usize,
    /// Fresh probes issued per [`ContinuousEstimator::tick`].
    pub refresh_per_tick: usize,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        Self { window: 64, refresh_per_tick: 8 }
    }
}

/// A peer-resident estimator that keeps its CDF fresh under churn.
#[derive(Debug, Clone)]
pub struct ContinuousEstimator {
    config: ContinuousConfig,
    /// Probe replies, oldest first.
    window: Vec<ProbeReply>,
}

impl ContinuousEstimator {
    /// Creates an estimator with an empty probe window.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: ContinuousConfig) -> Self {
        Self { config, window: Vec::with_capacity(config.window) }
    }

    /// Probes currently held.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn probes_held(&self) -> usize {
        self.window.len()
    }

    /// Fills the window up to capacity with fresh probes (charged to the
    /// network) regardless of the refresh rate — bootstrap before monitoring.
    ///
    /// Determinism: draws randomness only from the caller-supplied RNG stream; identical inputs and RNG state produce identical output.
    pub fn prefill(
        &mut self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<(), EstimateError> {
        let missing = self.config.window.saturating_sub(self.window.len());
        self.refresh(net, initiator, rng, missing)
    }

    /// Issues `refresh_per_tick` fresh probes (charged to the network) and
    /// evicts the oldest beyond the window. Call once per simulation tick.
    ///
    /// Determinism: draws randomness only from the caller-supplied RNG stream; identical inputs and RNG state produce identical output.
    pub fn tick(
        &mut self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<(), EstimateError> {
        self.refresh(net, initiator, rng, self.config.refresh_per_tick)
    }

    /// The current estimate, rebuilt from the probe window (stale probes —
    /// from peers that may have departed or split their arcs — are used
    /// as-is: that staleness *is* the dynamic-network error being studied).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn current_estimate(&self, domain: (f64, f64)) -> Result<DensityEstimate, EstimateError> {
        let skeleton = DfDde::new(DfDdeConfig::default()).build_skeleton(&self.window, domain)?;
        Ok(DensityEstimate::from_cdf(skeleton.cdf))
    }

    /// Runs `probes` fresh stratified probes into the window, then evicts
    /// the oldest replies beyond its capacity. Lost probes are re-issued
    /// against fresh ring positions under the default retry policy; a
    /// refresh that still comes up short just contributes fewer probes.
    fn refresh(
        &mut self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
        probes: usize,
    ) -> Result<(), EstimateError> {
        let prober = DfDde::new(DfDdeConfig::with_probes(probes));
        self.window.extend(prober.run_probes(net, initiator, rng)?);
        let excess = self.window.len().saturating_sub(self.config.window);
        self.window.drain(..excess);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::{ChurnConfig, ChurnProcess, Placement};
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
    fn window_fills_and_bounds() {
        let kind = DistributionKind::Uniform;
        let mut net = build_net(128, 10_000, &kind, 30);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let cfg = ContinuousConfig { window: 32, refresh_per_tick: 10 };
        let mut est = ContinuousEstimator::new(cfg);
        assert!(est.current_estimate((0.0, 100.0)).is_err()); // empty window
        for _ in 0..10 {
            est.tick(&mut net, initiator, &mut rng).unwrap();
        }
        assert_eq!(est.probes_held(), 32); // capped
        let e = est.current_estimate((0.0, 100.0)).unwrap();
        let truth = kind.build(0.0, 100.0);
        assert!(e.ks_to(truth.as_ref()) < 0.15);
    }

    #[test]
    fn tracks_through_churn() {
        let kind = DistributionKind::Normal { center_frac: 0.5, std_frac: 0.12 };
        let mut net = build_net(192, 30_000, &kind, 31);
        let seq = SeedSequence::new(32);
        let mut churn_rng = seq.stream(Component::Churn, 0);
        let mut est_rng = seq.stream(Component::Estimator, 0);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.05, 0.5));
        let mut cont = ContinuousEstimator::new(ContinuousConfig::default());

        // The initiator must survive: pick one and never let churn kill it…
        // churn picks randomly, so instead re-pick the initiator if it dies.
        let mut initiator = net.random_peer(&mut est_rng).unwrap();
        let mut ok_estimates = 0;
        for tick in 0..12 {
            churn.run(&mut net, 1.0, &mut churn_rng);
            if !net.is_alive(initiator) {
                initiator = net.random_peer(&mut est_rng).unwrap();
            }
            if cont.tick(&mut net, initiator, &mut est_rng).is_err() {
                continue;
            }
            // First ticks only hold a handful of probes: warm-up, skip.
            if tick < 3 {
                continue;
            }
            if let Ok(e) = cont.current_estimate((0.0, 100.0)) {
                // Crashes under range placement lose contiguous value ranges,
                // so the right reference is the *surviving* data, not the
                // original generator.
                let ks = e.ks_to(&net.live_values());
                assert!(ks < 0.4, "estimate collapsed under churn: ks = {ks}");
                ok_estimates += 1;
            }
        }
        assert!(ok_estimates >= 8, "only {ok_estimates} estimates succeeded");
    }
}
