//! Piggybacked Phase-1 probing for serving workloads.
//!
//! Under sustained foreground traffic most probe targets are *already being
//! visited*: a lookup that resolves at peer `X` has paid the full routing
//! cost of reaching `X`, and `X`'s probe statistic can ride back on that
//! in-flight reply for the price of the incremental payload alone
//! ([`dde_ring::Network::piggyback_probe`]). A [`ProbePlan`] makes that
//! sound: it draws the Phase-1 probe *points* up front — exactly the way
//! [`DfDde::run_probes`] would, one uniform point per stratum — and then
//! lets the workload driver satisfy any of them opportunistically. Because
//! the points themselves are drawn uniformly (never chosen by the traffic),
//! the inclusion probability of each peer is unchanged and the
//! Horvitz–Thompson correction in [`crate::CdfSkeleton`] stays valid; only
//! the *transport* differs. Dedicated probes (with the configured retry
//! policy, retries staying within-stratum) cover whatever the traffic did
//! not, so the estimate is complete even at zero load.
//!
//! The equivalence claim — a piggybacked estimate agrees with a dedicated
//! one within the DKW band on identical snapshots — is asserted by
//! `crates/sim/tests/piggyback_equivalence.rs`.

use crate::dfdde::DfDde;
use crate::estimator::EstimateError;
use dde_ring::{Network, ProbeReply, RingId};
use rand::rngs::StdRng;

/// A planned set of Phase-1 probe points whose replies may be satisfied by
/// piggybacking on foreground lookups before dedicated probes are issued.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// The planned probe points, index = stratum.
    points: Vec<RingId>,
    /// Collected replies, aligned with `points`.
    replies: Vec<Option<ProbeReply>>,
    /// How many replies arrived by piggyback (vs dedicated probes).
    piggybacked: usize,
}

impl ProbePlan {
    /// Draws one probe point per stratum from `rng`, exactly as
    /// [`DfDde::run_probes`]'s first attempts would.
    ///
    /// Determinism: draws randomness only from the caller-supplied RNG
    /// stream; identical inputs and RNG state produce identical output.
    pub fn plan(estimator: &DfDde, rng: &mut StdRng) -> Self {
        let k = estimator.config().probes;
        let points: Vec<RingId> = (0..k).map(|j| estimator.stratum_point(j, k, rng)).collect();
        Self { replies: vec![None; points.len()], points, piggybacked: 0 }
    }

    /// Offers a foreground lookup's resolved `owner` to the plan: every
    /// still-uncovered point that `owner` believes it owns is harvested as a
    /// piggybacked reply. Returns how many points this call covered.
    ///
    /// Determinism: draws no randomness; harvest order is the plan's fixed
    /// stratum order, so identical network state yields identical replies.
    pub fn offer_owner(&mut self, net: &mut Network, owner: RingId) -> usize {
        // Read the owner's believed arc once: a point outside it cannot be
        // harvested (the same test `piggyback_probe` applies), so only the
        // rare covered points pay for the owner lookup a reply needs.
        let Some(pred) = net.node(owner).and_then(|n| n.predecessor) else {
            return 0;
        };
        let mut harvested = 0;
        for (slot, &point) in self.replies.iter_mut().zip(&self.points) {
            if slot.is_some() || !point.in_arc(pred, owner) {
                continue;
            }
            if let Some(reply) = net.piggyback_probe(owner, point) {
                *slot = Some(reply);
                harvested += 1;
            }
        }
        self.piggybacked += harvested;
        harvested
    }

    /// Replies that arrived by piggyback. Deterministic read of plan state.
    pub fn piggybacked(&self) -> usize {
        self.piggybacked
    }

    /// Total planned probe points. Deterministic read of plan state.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan holds no points at all. Deterministic read of plan
    /// state.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Issues dedicated probes for every still-uncovered point through the
    /// same per-stratum loop as [`DfDde::run_probes`] (first attempt at the
    /// planned point, retries redrawn within the stratum, waiting time
    /// charged through the retry policy) and returns all replies in stratum
    /// order. A probe whose attempts run out is skipped; the skeleton
    /// degrades gracefully.
    ///
    /// Determinism: randomness comes only from the caller-supplied RNG
    /// stream (retry redraws), in fixed stratum order — identical inputs,
    /// network state, and RNG state produce identical replies and billing.
    pub fn complete(
        mut self,
        estimator: &DfDde,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<Vec<ProbeReply>, EstimateError> {
        let k = self.points.len();
        for (j, (slot, &point)) in self.replies.iter_mut().zip(&self.points).enumerate() {
            if slot.is_none() {
                *slot = estimator.probe_stratum(net, initiator, j, k, Some(point), rng)?;
            }
        }
        Ok(self.replies.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfdde::DfDdeConfig;
    use dde_ring::{MessageKind, Placement};
    use rand::{Rng, SeedableRng};

    fn small_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<RingId> = (0..64).map(|_| RingId(rng.gen())).collect();
        let mut net = Network::build(ids, Placement::range(0.0, 100.0));
        let data: Vec<f64> = (0..5000).map(|_| rng.gen::<f64>() * 100.0).collect();
        net.bulk_load(&data);
        net
    }

    #[test]
    fn plan_draws_one_point_per_stratum() {
        let est = DfDde::new(DfDdeConfig::with_probes(16));
        let mut rng = StdRng::seed_from_u64(1);
        let plan = ProbePlan::plan(&est, &mut rng);
        assert_eq!(plan.len(), 16);
        assert_eq!(plan.piggybacked(), 0);
        let stratum = (u128::from(u64::MAX) + 1) / 16;
        for (j, p) in plan.points.iter().enumerate() {
            let lo = (j as u128 * stratum) as u64;
            assert!(u128::from(p.0) >= j as u128 * stratum, "point {p} below stratum {j} ({lo})");
            assert!(u128::from(p.0) < (j as u128 + 1) * stratum, "point {p} above stratum {j}");
        }
    }

    #[test]
    fn offered_owner_covers_only_its_own_arc_and_charges_piggyback() {
        let mut net = small_net(7);
        let est = DfDde::new(DfDdeConfig::with_probes(32));
        let mut rng = StdRng::seed_from_u64(2);
        let mut plan = ProbePlan::plan(&est, &mut rng);
        // Offer every owner once: all points must end covered, all by
        // piggyback, with zero dedicated probe messages.
        let owners: Vec<RingId> = net.ids().collect();
        let before = net.stats().clone();
        for owner in owners {
            plan.offer_owner(&mut net, owner);
        }
        assert_eq!(plan.piggybacked(), 32);
        let d = net.stats().since(&before);
        assert_eq!(d.count(MessageKind::ProbePiggyback), 32);
        assert_eq!(d.count(MessageKind::Probe), 0);
        assert_eq!(d.lookups(), 0, "piggybacking must not route");
    }

    #[test]
    fn complete_falls_back_to_dedicated_probes() {
        let mut net = small_net(9);
        let est = DfDde::new(DfDdeConfig::with_probes(24));
        let mut rng = StdRng::seed_from_u64(3);
        let plan = ProbePlan::plan(&est, &mut rng);
        let initiator = net.ids().next().unwrap();
        let before = net.stats().clone();
        let replies = plan.complete(&est, &mut net, initiator, &mut rng).unwrap();
        assert_eq!(replies.len(), 24);
        let d = net.stats().since(&before);
        assert_eq!(d.count(MessageKind::Probe), 24);
        assert_eq!(d.count(MessageKind::ProbePiggyback), 0);
    }

    #[test]
    fn mixed_transport_builds_the_same_shape_skeleton() {
        let mut net = small_net(11);
        let est = DfDde::new(DfDdeConfig::with_probes(32));
        let mut rng = StdRng::seed_from_u64(4);
        let mut plan = ProbePlan::plan(&est, &mut rng);
        // Cover roughly half the plan via piggyback, the rest dedicated.
        for owner in net.ids().collect::<Vec<_>>().into_iter().step_by(2) {
            plan.offer_owner(&mut net, owner);
        }
        let piggybacked = plan.piggybacked();
        assert!(piggybacked < plan.len(), "some strata should remain for dedicated probes");
        let initiator = net.ids().next().unwrap();
        let replies = plan.complete(&est, &mut net, initiator, &mut rng).unwrap();
        assert_eq!(replies.len(), 32);
        assert!(piggybacked > 0);
        let skeleton = est.build_skeleton(&replies, (0.0, 100.0)).unwrap();
        assert!(skeleton.n_hat > 0.0);
    }
}
