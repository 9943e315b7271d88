//! CDF-skeleton construction from probe replies — the statistical heart of
//! the paper's method.
//!
//! A probe at a uniform random ring position lands on peer `i` with
//! probability `sᵢ` = its arc fraction, which the peer knows exactly (its own
//! id and predecessor define it). For any per-peer quantity `fᵢ`, the
//! Hansen–Hurwitz / Horvitz–Thompson estimator over `k` with-replacement
//! draws,
//!
//! ```text
//!   (1/k) · Σⱼ f_{p(j)} / s_{p(j)},
//! ```
//!
//! is an **unbiased** estimator of `Σᵢ fᵢ` — with no assumption whatsoever
//! about how data is distributed across peers. Applying it to `fᵢ = nᵢ`
//! (local counts) estimates the global item count `N`; applying it to
//! `fᵢ = cᵢ(x)` (local count of items ≤ x, read off the peer's equi-depth
//! summary) estimates the global cumulative count `C(x)`. The ratio
//! `F̂(x) = Ĉ(x)/N̂` is the global CDF estimate, evaluated at the union of all
//! probed summaries' bucket boundaries and assembled into a monotone
//! piecewise-linear skeleton.
//!
//! The `Unweighted` mode drops the `1/s` correction — exactly the bias the
//! paper's "free from sampling bias" claim is about; experiment T3 measures
//! the difference.

use crate::estimator::EstimateError;
use dde_ring::ProbeReply;
use dde_stats::equidepth::{pooled_cdf_points, PoolTerm};
use dde_stats::PiecewiseCdf;

/// Cap on the interior support points of a DF-DDE skeleton or a pooled
/// baseline CDF (the union of probed summary boundaries is uniformly thinned
/// beyond it).
pub(crate) const SUPPORT_CAP: usize = 4096;

/// Whether probe replies are reweighted by inclusion probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Horvitz–Thompson: divide by the peer's known arc fraction (unbiased).
    HorvitzThompson,
    /// No correction (the naive, biased estimator — ablation only).
    Unweighted,
}

/// A global-CDF skeleton estimated from probe replies, with diagnostics.
#[derive(Debug, Clone)]
pub struct CdfSkeleton {
    /// The estimated global CDF.
    pub cdf: PiecewiseCdf,
    /// Estimated global item count `N̂`.
    pub n_hat: f64,
    /// Probe replies actually used (replies without a known predecessor are
    /// dropped — their inclusion probability is unknown).
    pub probes_used: usize,
}

impl CdfSkeleton {
    /// Builds a skeleton from probe replies.
    ///
    /// `domain` pins the CDF's endpoints; `support_cap` bounds the number of
    /// interior support points (uniformly thinned if the union of summary
    /// boundaries exceeds it). Fails with
    /// [`EstimateError::InsufficientProbes`], counting the usable replies,
    /// when fewer than 2 exist, and with [`EstimateError::NoData`] when the
    /// estimated total is not positive.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_probes(
        replies: &[ProbeReply],
        domain: (f64, f64),
        support_cap: usize,
        weighting: Weighting,
    ) -> Result<CdfSkeleton, EstimateError> {
        debug_assert!(domain.0 < domain.1);
        // Usable replies: inclusion probability must be known.
        let usable = || {
            replies.iter().filter_map(|r| {
                let pred = r.predecessor?;
                let s = r.peer.arc_fraction_from(pred);
                (s > 0.0).then_some((r, s))
            })
        };
        let probes_used = usable().count();
        if probes_used < 2 {
            return Err(EstimateError::InsufficientProbes { got: probes_used, need: 2 });
        }
        let k = probes_used as f64;

        let weight = |s: f64| match weighting {
            Weighting::HorvitzThompson => 1.0 / s,
            Weighting::Unweighted => 1.0,
        };

        let n_hat = usable().map(|(r, s)| r.count as f64 * weight(s)).sum::<f64>() / k;
        if n_hat <= 0.0 {
            return Err(EstimateError::NoData);
        }

        // Ĉ(x) at each support point, then F̂ = Ĉ/N̂.
        let points = pooled_cdf_points(
            usable().map(|(r, s)| (&r.summary, PoolTerm::Scaled(weight(s)))),
            domain,
            support_cap,
            |c| c / k / n_hat,
        );
        // The domain's ends are two distinct points, so this cannot fail
        // while N̂ is a positive number.
        let cdf = PiecewiseCdf::from_noisy_points(points).ok_or(EstimateError::NoData)?;
        Ok(CdfSkeleton { cdf, n_hat, probes_used })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::RingId;
    use dde_stats::equidepth::EquiDepthSummary;
    use dde_stats::CdfFn;

    /// Builds a fake reply: peer owning `(pred, peer]` with `values` stored.
    fn reply(peer: u64, pred: u64, mut values: Vec<f64>) -> ProbeReply {
        values.sort_by(f64::total_cmp);
        ProbeReply {
            peer: RingId(peer),
            predecessor: Some(RingId(pred)),
            count: values.len() as u64,
            sum: values.iter().sum(),
            sum_sq: values.iter().map(|x| x * x).sum(),
            summary: EquiDepthSummary::from_sorted(&values, 8),
            hops: 0,
        }
    }

    const Q: u64 = u64::MAX / 4;

    /// Four peers, quarter arcs each, uniform data: every quarter of [0,100]
    /// holds 25 items.
    fn uniform_replies() -> Vec<ProbeReply> {
        let vals = |a: usize| -> Vec<f64> { (0..25).map(|i| a as f64 * 25.0 + i as f64).collect() };
        vec![
            reply(Q, 4 * Q - 1, vals(0)), // wraps: pred near top
            reply(2 * Q, Q, vals(1)),
            reply(3 * Q, 2 * Q, vals(2)),
            reply(4 * Q - 1, 3 * Q, vals(3)),
        ]
    }

    #[test]
    fn equal_arcs_recover_uniform_cdf_and_total() {
        let sk = CdfSkeleton::from_probes(
            &uniform_replies(),
            (0.0, 100.0),
            1024,
            Weighting::HorvitzThompson,
        )
        .unwrap();
        assert_eq!(sk.probes_used, 4);
        assert!((sk.n_hat - 100.0).abs() < 1.0, "n_hat = {}", sk.n_hat);
        for x in [10.0, 25.0, 50.0, 75.0, 90.0] {
            assert!((sk.cdf.cdf(x) - x / 100.0).abs() < 0.03, "cdf({x}) = {}", sk.cdf.cdf(x));
        }
    }

    #[test]
    fn ht_corrects_unequal_arcs() {
        // Two peers: one owns 3/4 of the ring with 10 items, the other 1/4
        // with 90 items. Probing each exactly once (as if one uniform probe
        // hit each), HT must recover N = 100; unweighted sees 50.
        let big_arc = reply(3 * Q, 4 * Q - 1, (0..10).map(|i| i as f64 * 7.5).collect());
        let small_arc = reply(4 * Q - 1, 3 * Q, (0..90).map(|i| 75.0 + i as f64 * 0.27).collect());
        let replies = vec![big_arc, small_arc];

        let ht = CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::HorvitzThompson)
            .unwrap();
        // HT: (10/0.75 + 90/0.25)/2 = (13.33 + 360)/2 = 186.7 — unbiased only
        // in expectation over the probe distribution, not per-draw. Verify
        // instead that weighting changed the answer in the right direction:
        let raw =
            CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::Unweighted).unwrap();
        assert!((raw.n_hat - 50.0).abs() < 1e-9);
        assert!(ht.n_hat > raw.n_hat); // up-weights the dense small arc

        // The CDF shapes differ materially: HT pushes mass toward the dense
        // region [75, 100].
        assert!(ht.cdf.cdf(75.0) < raw.cdf.cdf(75.0));
    }

    #[test]
    fn unbiasedness_over_probe_distribution() {
        // Analytic check of the estimator itself: peers with arc fractions
        // s = [0.75, 0.25] and counts [10, 90]. E[n̂ per draw] =
        // Σ s_i · (n_i/s_i) = Σ n_i = 100 — exactly N, independent of skew.
        let s = [0.75, 0.25];
        let n = [10.0, 90.0];
        let expectation: f64 = s.iter().zip(&n).map(|(si, ni)| si * (ni / si)).sum();
        assert_eq!(expectation, 100.0);
    }

    #[test]
    fn drops_replies_without_predecessor() {
        let mut replies = uniform_replies();
        replies[0].predecessor = None;
        let sk = CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::HorvitzThompson)
            .unwrap();
        assert_eq!(sk.probes_used, 3);
    }

    #[test]
    fn too_few_replies_is_none() {
        let replies = vec![uniform_replies().remove(0)];
        assert_eq!(
            CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::HorvitzThompson)
                .unwrap_err(),
            EstimateError::InsufficientProbes { got: 1, need: 2 }
        );
        assert_eq!(
            CdfSkeleton::from_probes(&[], (0.0, 100.0), 64, Weighting::Unweighted).unwrap_err(),
            EstimateError::InsufficientProbes { got: 0, need: 2 }
        );
    }

    /// Replies without a predecessor are not counted as usable: four
    /// replies, three of them without, are one usable reply, not four.
    #[test]
    fn insufficient_probes_counts_usable_replies() {
        let mut replies = uniform_replies();
        for r in &mut replies[1..] {
            r.predecessor = None;
        }
        assert_eq!(
            CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::HorvitzThompson)
                .unwrap_err(),
            EstimateError::InsufficientProbes { got: 1, need: 2 }
        );
    }

    /// Replies that all count 0 estimate `N̂ = 0`: the ring holds no data,
    /// whatever the number of replies.
    #[test]
    fn all_empty_replies_are_no_data() {
        let replies: Vec<ProbeReply> = uniform_replies()
            .iter()
            .map(|r| reply(r.peer.0, r.predecessor.unwrap().0, vec![]))
            .collect();
        for weighting in [Weighting::HorvitzThompson, Weighting::Unweighted] {
            assert_eq!(
                CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, weighting).unwrap_err(),
                EstimateError::NoData
            );
        }
    }

    #[test]
    fn support_cap_is_respected() {
        let sk = CdfSkeleton::from_probes(
            &uniform_replies(),
            (0.0, 100.0),
            4,
            Weighting::HorvitzThompson,
        )
        .unwrap();
        // lo + capped interior + hi.
        assert!(sk.cdf.points().len() <= 6, "{} points", sk.cdf.points().len());
    }

    #[test]
    fn duplicate_probes_are_separate_draws() {
        // Hitting the same peer twice (with replacement) must not crash and
        // keeps the estimator consistent.
        let mut replies = uniform_replies();
        replies.push(replies[0].clone());
        let sk = CdfSkeleton::from_probes(&replies, (0.0, 100.0), 1024, Weighting::HorvitzThompson)
            .unwrap();
        assert_eq!(sk.probes_used, 5);
        assert!(sk.n_hat > 0.0);
    }
}
