//! The wrappers forward `CdfFn::cdf_ascending` faithfully.
//!
//! `DensityEstimate` forwards to its skeleton's segment cursor, the live
//! view (`Network::live_values`) to its stores' galloping cursor, and
//! `StreamingTruth` to its generator. On real DF-DDE estimates over built
//! scenarios, the ascending evaluation of each must equal `cdf` per point
//! bit for bit, and the headline score, `DensityEstimate::ks_to`, must
//! equal its per-point form against both truths. `crates/stats/tests/ascending_eval.rs` holds
//! the cursors themselves to the same contract on synthetic inputs.

use dde_core::dfdde::{DfDde, DfDdeConfig};
use dde_core::estimator::DensityEstimator;
use dde_sim::{build_fresh, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::metrics::DEFAULT_GRID;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::streaming::StreamingTruth;
use dde_stats::{CdfFn, PiecewiseCdf};
use proptest::prelude::*;
use rand::Rng;

/// `PiecewiseCdf::sup_diff`'s per-point body, verbatim.
fn sup_diff_per_point<C: CdfFn + ?Sized>(p: &PiecewiseCdf, other: &C, grid: usize) -> f64 {
    let (lo, hi) = p.domain();
    let mut d: f64 = 0.0;
    for &(x, f) in p.points() {
        d = d.max((f - other.cdf(x)).abs());
    }
    for i in 0..=grid {
        let x = lo + (hi - lo) * i as f64 / grid as f64;
        d = d.max((p.cdf(x) - other.cdf(x)).abs());
    }
    d
}

fn assert_ascending_matches_cdf<C: CdfFn + ?Sized>(c: &C, xs: &[f64], what: &str) {
    let mut out = vec![f64::NAN; xs.len()];
    c.cdf_ascending(xs, &mut out);
    for (&x, &f) in xs.iter().zip(&out) {
        assert_eq!(f.to_bits(), c.cdf(x).to_bits(), "{what}: x = {x:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn wrappers_forward_the_ascending_evaluation(seed in 0u64..(1u64 << 32)) {
        let kinds = [
            DistributionKind::Uniform,
            DistributionKind::Zipf { cells: 64, exponent: 1.1 },
            DistributionKind::HotspotZipf { cells: 32, exponent: 1.2, arcs: 2 },
            DistributionKind::Bimodal,
        ];
        for kind in kinds {
            let s = Scenario::default()
                .with_peers(32)
                .with_items(1_500)
                .with_seed(seed)
                .with_distribution(kind.clone());
            let mut built = build_fresh(&s);
            let initiator = built.net.ids().next().expect("nonempty");
            let mut rng = SeedSequence::new(seed).stream(Component::Estimator, 0);
            let est = DfDde::new(DfDdeConfig::with_probes(16))
                .estimate(&mut built.net, initiator, &mut rng)
                .expect("healthy ring")
                .estimate;
            let (lo, hi) = s.domain;
            let live = built.net.live_values();
            let streamed = StreamingTruth::new(kind.build(lo, hi), s.items as u64);

            // Samples and control points hit exactly, both zeros, points
            // past both ends, and runs of equal points.
            let mut xs: Vec<f64> = live.iter().copied().collect();
            xs.extend(est.skeleton().points().iter().map(|&(x, _)| x));
            xs.extend([-0.0, 0.0, lo - 1.0, hi + 1.0, -1e12, 1e12]);
            xs.extend((0..64).map(|_| lo + (hi - lo) * rng.gen::<f64>()));
            let runs: Vec<f64> = xs.iter().step_by(7).copied().collect();
            xs.extend(runs);
            xs.sort_by(f64::total_cmp);

            let what = format!("{kind:?} seed {seed}");
            assert_ascending_matches_cdf(&est, &xs, &format!("DensityEstimate, {what}"));
            let truths: [(&dyn CdfFn, &str); 2] =
                [(&live, "live view"), (&streamed, "StreamingTruth")];
            for (truth, arm) in truths {
                assert_ascending_matches_cdf(truth, &xs, &format!("{arm}, {what}"));
                let want = sup_diff_per_point(est.skeleton(), truth, DEFAULT_GRID);
                prop_assert_eq!(est.ks_to(truth).to_bits(), want.to_bits(), "{} {}", arm, what);
            }
        }
    }
}
