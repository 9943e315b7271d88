//! Tests of the aggregate queries one DF-DDE estimate answers: COUNT, SUM,
//! AVG, VAR and range COUNT, from the sums `CdfSkeleton::from_probes` adds
//! in its one pass over the replies.

#[cfg(test)]
mod tests {
    use crate::estimator::with_cost;
    use crate::skeleton::SUPPORT_CAP;
    use crate::{
        CdfSkeleton, DensityEstimate, DensityEstimator, DfDde, DfDdeConfig, EstimateError,
        EstimationReport, Weighting,
    };
    use dde_ring::{FaultPlan, MessageStats, Network, Placement, ProbeReply, RingId};
    use dde_stats::dist::DistributionKind;
    use dde_stats::equidepth::EquiDepthSummary;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The second Horvitz–Thompson pass the skeleton's sums replaced,
    /// verbatim: it repeated the usable-reply rule, the weights, `N̂` and
    /// both errors. The skeleton's `N̂`, `ŜUM` and `ŜQ`, and the report's AVG
    /// and VAR, must match it bit for bit, and fail with the same errors.
    mod reference {
        use crate::{EstimateError, Weighting};
        use dde_ring::ProbeReply;

        /// The HT aggregate arithmetic on raw replies:
        /// `(count, sum, mean, variance)`. Fails like [`CdfSkeleton::from_probes`]:
        /// [`EstimateError::InsufficientProbes`], counting the usable replies, with
        /// fewer than 2, and [`EstimateError::NoData`] when the estimated count is
        /// not positive.
        ///
        /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
        pub fn estimate_aggregates(
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
    }

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
        let vals = net.live_values();
        let n = vals.len() as f64;
        let sum: f64 = vals.iter().sum();
        let mean = sum / n;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (n, sum, mean, var)
    }

    /// One DF-DDE estimate with `probes` probes from a random initiator.
    fn estimate(net: &mut Network, probes: usize, seed: u64) -> EstimationReport {
        let mut rng = StdRng::seed_from_u64(seed);
        let initiator = net.random_peer(&mut rng).unwrap();
        DfDde::new(DfDdeConfig::with_probes(probes)).estimate(net, initiator, &mut rng).unwrap()
    }

    /// The report `DfDde::estimate` makes of a skeleton, cost aside.
    fn report_of(sk: CdfSkeleton) -> EstimationReport {
        EstimationReport {
            estimate: DensityEstimate::from_cdf(sk.cdf),
            cost: MessageStats::default(),
            peers_contacted: 0,
            estimated_total: Some(sk.n_hat),
            estimated_sum: Some(sk.sum_hat),
            estimated_sum_sq: Some(sk.sum_sq_hat),
            probes_requested: sk.probes_used,
            probes_succeeded: sk.probes_used,
        }
    }

    fn bits(v: (f64, f64, f64, f64)) -> [u64; 4] {
        [v.0.to_bits(), v.1.to_bits(), v.2.to_bits(), v.3.to_bits()]
    }

    #[test]
    fn aggregates_match_exact_within_tolerance() {
        let kind = DistributionKind::Normal { center_frac: 0.6, std_frac: 0.15 };
        let mut net = build_net(256, 40_000, &kind, 71);
        let (n, sum, mean, var) = exact_aggregates(&net);
        let (count_hat, sum_hat, mean_hat, var_hat) =
            estimate(&mut net, 128, 1).aggregates().unwrap();
        assert!((count_hat - n).abs() / n < 0.1, "count {count_hat} vs {n}");
        assert!((sum_hat - sum).abs() / sum < 0.1, "sum {sum_hat} vs {sum}");
        assert!((mean_hat - mean).abs() / mean < 0.05, "mean {mean_hat} vs {mean}");
        assert!((var_hat - var).abs() / var < 0.25, "var {var_hat} vs {var}");
        assert!(var_hat.sqrt() > 0.0);
    }

    #[test]
    fn range_count_tracks_truth() {
        let kind = DistributionKind::Zipf { cells: 32, exponent: 1.0 };
        let mut net = build_net(256, 40_000, &kind, 73);
        let rep = estimate(&mut net, 160, 2);
        let range_count =
            |lo: f64, hi: f64| rep.estimated_total.unwrap() * rep.estimate.selectivity(lo, hi);
        for (lo, hi) in [(0.0, 10.0), (20.0, 50.0), (90.0, 100.0)] {
            let exact: usize = net
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|id| net.node(id).unwrap().store.count_range(lo, hi))
                .sum();
            let est = range_count(lo, hi);
            let err = (est - exact as f64).abs() / 40_000.0;
            assert!(err < 0.08, "[{lo},{hi}]: est {est:.0} vs {exact} (err {err:.3})");
        }
        assert_eq!(range_count(5.0, 1.0), 0.0);
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
            let (_, _, mean_hat, _) = estimate(&mut net, 128, 3).aggregates().unwrap();
            assert!(
                (mean_hat - mean).abs() / mean.abs().max(1.0) < 0.1,
                "{}: mean {mean_hat} vs {mean}",
                kind.label()
            );
        }
    }

    #[test]
    fn too_few_probes_error() {
        let mut net = build_net(8, 100, &DistributionKind::Uniform, 83);
        let mut rng = StdRng::seed_from_u64(4);
        let initiator = net.random_peer(&mut rng).unwrap();
        // probes = 0 → no replies → insufficient.
        let est = DfDde::new(DfDdeConfig { probes: 0, ..DfDdeConfig::default() });
        assert!(matches!(
            est.estimate(&mut net, initiator, &mut rng),
            Err(EstimateError::InsufficientProbes { .. })
        ));
    }

    #[test]
    fn raw_arithmetic_on_synthetic_replies() {
        // Two half-ring peers: counts 10 & 30, sums 100 & 900. Each summary
        // totals its count, or the HT pass would drop the reply.
        let h = u64::MAX / 2;
        let mk = |peer: u64, pred: u64, count: u64, sum: f64, sum_sq: f64| ProbeReply {
            peer: RingId(peer),
            predecessor: Some(RingId(pred)),
            count,
            sum,
            sum_sq,
            summary: EquiDepthSummary::from_sorted(&vec![1.0; count as usize], 1),
            hops: 0,
        };
        let replies =
            vec![mk(h, u64::MAX, 10, 100.0, 1_100.0), mk(u64::MAX, h, 30, 900.0, 28_000.0)];
        let sk = CdfSkeleton::from_probes(
            &replies,
            (0.0, 100.0),
            SUPPORT_CAP,
            Weighting::HorvitzThompson,
        )
        .unwrap();
        let (n, sum, mean, var) = report_of(sk).aggregates().unwrap();
        // Each arc fraction is 1/2 → weights 2; k = 2.
        assert!((n - 40.0).abs() < 1e-9);
        assert!((sum - 1000.0).abs() < 1e-9);
        assert!((mean - 25.0).abs() < 1e-9);
        // E[X²] = 29100/40 = 727.5; var = 727.5 - 625 = 102.5.
        assert!((var - 102.5).abs() < 1e-9);
    }

    /// An estimate over a ring with no items fails with `NoData`, as the
    /// retired pass did on the same replies.
    #[test]
    fn query_on_a_ring_without_items_is_no_data() {
        let mut net = build_net(32, 0, &DistributionKind::Uniform, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = DfDde::new(DfDdeConfig::with_probes(16));
        let replies = est.run_probes(&mut net.fork(), initiator, &mut rng.clone()).unwrap();
        let old = reference::estimate_aggregates(&replies, Weighting::HorvitzThompson);
        assert_eq!(old.unwrap_err(), EstimateError::NoData);
        let result = est.estimate(&mut net, initiator, &mut rng);
        assert!(matches!(result, Err(EstimateError::NoData)), "{:?}", result.err());
    }

    /// A seeded reply set: peers on random arcs, about one in five without a
    /// predecessor. Counts are all zero in about one set in six and at most
    /// one in another, so `N̂` can fall below 1. In about one set in four,
    /// replies may understate their sum of squares, as a lying peer could,
    /// so VAR reaches its clamp at 0.
    fn replies(rng: &mut StdRng) -> Vec<ProbeReply> {
        let max_count: usize = [0, 2, 40, 40, 40, 40][rng.gen_range(0..6usize)];
        let lying = rng.gen_range(0..4) == 0;
        (0..rng.gen_range(0..12))
            .map(|_| {
                let count = if max_count == 0 { 0 } else { rng.gen_range(0..max_count) };
                let mut values: Vec<f64> =
                    (0..count).map(|_| rng.gen::<f64>() * 100.0 - 20.0).collect();
                values.sort_by(f64::total_cmp);
                let sum_sq: f64 = values.iter().map(|x| x * x).sum();
                ProbeReply {
                    peer: RingId(rng.gen()),
                    predecessor: (rng.gen_range(0..5) > 0).then(|| RingId(rng.gen())),
                    count: count as u64,
                    sum: values.iter().sum(),
                    sum_sq: if lying { sum_sq * rng.gen::<f64>() } else { sum_sq },
                    summary: EquiDepthSummary::from_sorted(&values, 8),
                    hops: 0,
                }
            })
            .collect()
    }

    /// The one pass ≡ the retired second pass on seeded reply sets, under
    /// both weightings: `N̂`, `ŜUM`, `ŜQ`, AVG and VAR by bits, or the same
    /// error. `ŜQ` is held as the retired pass's `sum` of the replies with
    /// each `sum` replaced by its `sum_sq`.
    #[test]
    fn one_pass_matches_the_retired_second_pass() {
        let (mut oks, mut below_one, mut clamped, mut short, mut empty) = (0, 0, 0, 0, 0);
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let replies = replies(&mut rng);
            let squares: Vec<ProbeReply> =
                replies.iter().map(|r| ProbeReply { sum: r.sum_sq, ..r.clone() }).collect();
            for weighting in [Weighting::HorvitzThompson, Weighting::Unweighted] {
                let old = reference::estimate_aggregates(&replies, weighting);
                let new = CdfSkeleton::from_probes(&replies, (-20.0, 80.0), SUPPORT_CAP, weighting);
                match (old, new) {
                    (Ok(old), Ok(sk)) => {
                        let sum_sq = reference::estimate_aggregates(&squares, weighting).unwrap().1;
                        assert_eq!(sk.sum_sq_hat.to_bits(), sum_sq.to_bits(), "seed {seed}: ŜQ");
                        let new = report_of(sk).aggregates().unwrap();
                        assert_eq!(bits(new), bits(old), "seed {seed}: {new:?} vs {old:?}");
                        oks += 1;
                        below_one += usize::from(old.0 < 1.0);
                        clamped += usize::from(old.3 == 0.0);
                    }
                    (Err(old), Err(new)) => {
                        assert_eq!(new, old, "seed {seed}");
                        match new {
                            EstimateError::NoData => empty += 1,
                            _ => short += 1,
                        }
                    }
                    (old, new) => panic!("seed {seed}: {old:?} vs {:?}", new.map(|s| s.n_hat)),
                }
            }
        }
        let seen = [oks, below_one, clamped, short, empty];
        assert!(seen.iter().all(|&n| n >= 10), "ok, N̂ < 1, VAR = 0, short, empty: {seen:?}");
    }

    /// `DfDde::estimate` ≡ the retired query (`run_probes`, then the second
    /// pass) on forks of faulted rings from one RNG state: the same
    /// aggregates by bits, usable probes, messages and next draw.
    #[test]
    fn estimate_matches_the_retired_query() {
        let kind = DistributionKind::Zipf { cells: 32, exponent: 1.1 };
        for (seed, loss) in [(1, 0.0), (7, 0.2), (42, 0.4)] {
            let mut net = build_net(128, 10_000, &kind, seed);
            net.set_fault_plan(FaultPlan::new(seed).with_loss(loss).with_reply_loss(loss / 2.0));
            let mut rng = StdRng::seed_from_u64(seed);
            let initiator = net.random_peer(&mut rng).unwrap();
            for weighting in [Weighting::HorvitzThompson, Weighting::Unweighted] {
                let est = DfDde::new(DfDdeConfig { weighting, ..DfDdeConfig::with_probes(48) });
                let (mut old_net, mut old_rng) = (net.fork(), rng.clone());
                let (replies, old_cost) =
                    with_cost(&mut old_net, |n| est.run_probes(n, initiator, &mut old_rng))
                        .unwrap();
                let old = reference::estimate_aggregates(&replies, weighting).unwrap();
                let rep = est.estimate(&mut net.fork(), initiator, &mut rng).unwrap();
                assert_eq!(bits(rep.aggregates().unwrap()), bits(old), "seed {seed}");
                assert_eq!(rep.probes_succeeded, replies.len(), "seed {seed}");
                assert_eq!(rep.cost, old_cost, "seed {seed}");
                assert_eq!(rng.gen::<u64>(), old_rng.gen::<u64>(), "seed {seed}");
            }
        }
    }
}
