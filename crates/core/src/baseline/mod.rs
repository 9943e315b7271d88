//! Baseline estimators the paper compares against.
//!
//! Each represents a family of prior approaches to global statistics in P2P
//! systems:
//!
//! * [`uniform_peer`] — sample peers uniformly and pool their local
//!   statistics. With equal weights this estimates the *average per-peer*
//!   distribution, which differs from the *data* distribution whenever
//!   volume per peer is skewed — the bias the paper is about.
//! * [`random_walk`] — the decentralized way to approximate uniform peer
//!   sampling (Metropolis–Hastings over the overlay), with the same pooling
//!   choices and extra walk cost.
//! * [`gossip`] — Push-Sum histogram aggregation: provably converges to the
//!   exact global histogram, but costs `rounds × P` messages.

pub mod gossip;
pub mod random_walk;
pub mod uniform_peer;

use dde_ring::ProbeReply;
use dde_stats::equidepth::{pooled_cdf_points, PoolTerm};
use dde_stats::PiecewiseCdf;

/// How pooled replies are weighted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolWeighting {
    /// `F̂(x) = (1/k)·Σⱼ Fⱼ(x)` — averages per-peer *distributions*. Biased
    /// for the data distribution whenever per-peer volume correlates with
    /// value (i.e., skewed data under range placement).
    Equal,
    /// `F̂(x) = Σⱼ cⱼ(x) / Σⱼ nⱼ` — weights peers by their item counts.
    /// Consistent under uniform peer sampling.
    CountWeighted,
}

/// Pools probed peers' summaries into a CDF under the given weighting.
///
/// Returns `None` when no usable replies exist (e.g. all peers empty under
/// count weighting).
pub(crate) fn pool_replies(
    replies: &[ProbeReply],
    domain: (f64, f64),
    support_cap: usize,
    weighting: PoolWeighting,
) -> Option<PiecewiseCdf> {
    let points = match weighting {
        PoolWeighting::Equal => {
            // An empty peer's summary has no boundaries, so skipping it
            // leaves the support as it was.
            let nonempty = || replies.iter().filter(|r| r.count > 0);
            let k = nonempty().count();
            if k == 0 {
                return None;
            }
            let k = k as f64;
            let terms = nonempty().map(|r| (&r.summary, PoolTerm::Divided(r.count as f64)));
            pooled_cdf_points(terms, domain, support_cap, |c| c / k)
        }
        PoolWeighting::CountWeighted => {
            let total: f64 = replies.iter().map(|r| r.count as f64).sum();
            if total <= 0.0 {
                return None;
            }
            let terms = replies.iter().map(|r| (&r.summary, PoolTerm::Count));
            pooled_cdf_points(terms, domain, support_cap, |c| c / total)
        }
    };
    PiecewiseCdf::from_noisy_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::RingId;
    use dde_stats::equidepth::EquiDepthSummary;
    use dde_stats::CdfFn;

    fn reply(peer: u64, values: Vec<f64>) -> ProbeReply {
        let mut v = values;
        v.sort_by(f64::total_cmp);
        ProbeReply {
            peer: RingId(peer),
            predecessor: Some(RingId(peer.wrapping_sub(1))),
            count: v.len() as u64,
            sum: v.iter().sum(),
            sum_sq: v.iter().map(|x| x * x).sum(),
            summary: EquiDepthSummary::from_sorted(&v, 4),
            hops: 0,
        }
    }

    #[test]
    fn equal_weight_averages_distributions() {
        // Peer A: 1 item at 10; peer B: 99 items at 90.
        // Equal weighting: F̂(50) = (1 + 0)/2 = 0.5 — badly biased.
        // Count weighting: F̂(50) = 1/100 = 0.01 — correct.
        let replies = vec![reply(1, vec![10.0]), reply(2, vec![90.0; 99])];
        let eq = pool_replies(&replies, (0.0, 100.0), 256, PoolWeighting::Equal).unwrap();
        let cw = pool_replies(&replies, (0.0, 100.0), 256, PoolWeighting::CountWeighted).unwrap();
        // Evaluate at a support point (10.0): between support points the
        // skeleton interpolates linearly, which is not what's under test.
        assert!((eq.cdf(10.0) - 0.5).abs() < 0.05, "equal: {}", eq.cdf(10.0));
        assert!(cw.cdf(10.0) < 0.05, "count-weighted: {}", cw.cdf(10.0));
    }

    #[test]
    fn empty_replies_are_none() {
        assert!(pool_replies(&[], (0.0, 1.0), 16, PoolWeighting::Equal).is_none());
        let empties = vec![reply(1, vec![]), reply(2, vec![])];
        assert!(pool_replies(&empties, (0.0, 1.0), 16, PoolWeighting::Equal).is_none());
        assert!(pool_replies(&empties, (0.0, 1.0), 16, PoolWeighting::CountWeighted).is_none());
    }

    #[test]
    fn empty_peers_are_skipped_under_equal_weighting() {
        let replies = vec![reply(1, vec![]), reply(2, vec![25.0, 75.0])];
        let eq = pool_replies(&replies, (0.0, 100.0), 256, PoolWeighting::Equal).unwrap();
        assert!((eq.cdf(25.0) - 0.5).abs() < 0.05, "{}", eq.cdf(25.0));
    }
}
