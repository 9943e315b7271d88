//! The estimator interface and its report type.

use crate::estimate::DensityEstimate;
use dde_ring::{LookupError, MessageStats, Network, RingId};
use rand::rngs::StdRng;

/// Why an estimation run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimateError {
    /// Too few probes succeeded to build a skeleton.
    InsufficientProbes {
        /// Probes that succeeded.
        got: usize,
        /// Probes required.
        need: usize,
    },
    /// The initiating peer is gone.
    InitiatorDead,
    /// The network holds no data at all.
    NoData,
    /// An unrecoverable routing failure.
    Routing(LookupError),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::InsufficientProbes { got, need } => {
                write!(f, "only {got}/{need} probes succeeded")
            }
            EstimateError::InitiatorDead => write!(f, "initiating peer departed"),
            EstimateError::NoData => write!(f, "network holds no data"),
            EstimateError::Routing(e) => write!(f, "routing failure: {e}"),
        }
    }
}

impl std::error::Error for EstimateError {}

impl From<LookupError> for EstimateError {
    fn from(e: LookupError) -> Self {
        match e {
            LookupError::InitiatorDead => EstimateError::InitiatorDead,
            other => EstimateError::Routing(other),
        }
    }
}

/// The outcome of one estimation run: the estimate plus exactly what it cost.
#[derive(Debug, Clone)]
pub struct EstimationReport {
    /// The density/CDF estimate.
    pub estimate: DensityEstimate,
    /// Message/hop cost of this run only (delta of the network counters).
    pub cost: MessageStats,
    /// Peers successfully probed / visited / walked to.
    pub peers_contacted: usize,
    /// Estimated global item count (`N̂`), when the method produces one.
    pub estimated_total: Option<f64>,
    /// Estimated global sum of the values (`ŜUM`), when the method
    /// produces one.
    pub estimated_sum: Option<f64>,
    /// Estimated global sum of the squared values (`ŜQ`), when the method
    /// produces one.
    pub estimated_sum_sq: Option<f64>,
    /// Probes/samples the method set out to collect (`k`).
    pub probes_requested: usize,
    /// Probes/samples that actually succeeded (for DF-DDE, the usable
    /// replies). Under faults or churn this may fall short of
    /// `probes_requested`; the estimate is then built from the partial set
    /// rather than erroring.
    pub probes_succeeded: usize,
}

impl EstimationReport {
    /// Total messages this run sent.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn messages(&self) -> u64 {
        self.cost.total_messages()
    }

    /// Total bytes this run moved.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bytes(&self) -> u64 {
        self.cost.total_bytes()
    }

    /// The aggregate answers of this estimate, `(COUNT, SUM, AVG, VAR)`:
    /// `N̂`, `ŜUM`, `AVG = ŜUM/N̂` and the population variance
    /// `VAR = max(ŜQ/N̂ − AVG², 0)`, when the method estimates the count and
    /// both sums.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn aggregates(&self) -> Option<(f64, f64, f64, f64)> {
        let (n, sum) = (self.estimated_total?, self.estimated_sum?);
        let mean = sum / n;
        Some((n, sum, mean, (self.estimated_sum_sq? / n - mean * mean).max(0.0)))
    }
}

/// A global-density estimation strategy runnable against a network.
///
/// Implementations must charge **all** their traffic to the network's
/// [`MessageStats`]; the driver snapshots the counters around the call to
/// attribute cost.
///
/// Estimators are `Send + Sync`: they are plain configuration (all run
/// state lives in the network and the per-run RNG), which lets the parallel
/// experiment runner share them across worker threads.
pub trait DensityEstimator: Send + Sync {
    /// Short name used in experiment tables (e.g. `"df-dde"`).
    fn name(&self) -> &'static str;

    /// Runs one estimation from `initiator` against `net`.
    fn estimate(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<EstimationReport, EstimateError>;
}

/// Snapshots the network's counters, runs `f`, and returns `(result, delta)`.
///
/// Shared plumbing for all estimator implementations.
pub(crate) fn with_cost<T>(
    net: &mut Network,
    f: impl FnOnce(&mut Network) -> Result<T, EstimateError>,
) -> Result<(T, MessageStats), EstimateError> {
    let before = net.stats().clone();
    let out = f(net)?;
    let delta = net.stats().since(&before);
    Ok((out, delta))
}

/// How many distinct peers `peers` names: a peer that replied twice was
/// contacted once. DF-DDE and both peer-sampling baselines report
/// [`EstimationReport::peers_contacted`] through it.
pub(crate) fn distinct_peers(peers: impl IntoIterator<Item = RingId>) -> usize {
    let mut peers: Vec<RingId> = peers.into_iter().collect();
    peers.sort_unstable();
    peers.dedup();
    peers.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = EstimateError::InsufficientProbes { got: 3, need: 8 };
        assert_eq!(e.to_string(), "only 3/8 probes succeeded");
        let e: EstimateError = LookupError::InitiatorDead.into();
        assert_eq!(e, EstimateError::InitiatorDead);
        let e: EstimateError = LookupError::NoRoute.into();
        assert!(matches!(e, EstimateError::Routing(LookupError::NoRoute)));
    }
}
