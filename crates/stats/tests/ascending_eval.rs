//! `CdfFn::cdf_ascending` ≡ `cdf` per point, and every scorer built on it ≡
//! the per-point loop it replaced.
//!
//! Scoring evaluates each side of a distance at ascending points in forward
//! passes: `Ecdf` gallops over its samples, `PiecewiseCdf` over its control
//! points, `StreamingTruth` forwards to its generator, and the generators
//! keep the trait's per-point default. Every value must equal `cdf(x)` bit
//! for bit, so every distance must equal, bit for bit, the per-point body
//! it replaced. Those bodies are kept below verbatim, test-only, as the
//! reference.

use dde_stats::dist::DistributionKind;
use dde_stats::metrics::DEFAULT_GRID;
use dde_stats::streaming::StreamingTruth;
use dde_stats::{CdfFn, Ecdf, PiecewiseCdf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every generator kind a scenario can carry; all keep the trait default.
fn kinds() -> Vec<DistributionKind> {
    vec![
        DistributionKind::Uniform,
        DistributionKind::Normal { center_frac: 0.5, std_frac: 0.15 },
        DistributionKind::Exponential { rate_scale: 4.0 },
        DistributionKind::Pareto { shape: 1.2 },
        DistributionKind::LogNormal { sigma: 0.75 },
        DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        DistributionKind::HotspotZipf { cells: 32, exponent: 1.2, arcs: 2 },
        DistributionKind::Bimodal,
        DistributionKind::Trimodal,
    ]
}

/// Values that sit on the generators' domain `[0, 1000]` ends, both zeros,
/// duplicates, and points just outside.
const POOL: [f64; 9] = [-0.0, 0.0, 0.0, 125.0, 500.0, 500.0, 1000.0, -3.0, 1003.0];

fn value(rng: &mut StdRng) -> f64 {
    if rng.gen_range(0..3) == 0 {
        POOL[rng.gen_range(0..POOL.len())]
    } else {
        rng.gen::<f64>() * 1000.0
    }
}

/// An ECDF of 1 to 600 samples (past one 256-point scan chunk), with
/// duplicates and both zeros.
fn ecdf(rng: &mut StdRng) -> Ecdf {
    let n = if rng.gen_range(0..4) == 0 { 1 } else { rng.gen_range(1..600) };
    Ecdf::new((0..n).map(|_| value(rng)).collect())
}

/// A skeleton of 2 to about 300 control points, or the minimal 2-point one.
fn skeleton(rng: &mut StdRng) -> PiecewiseCdf {
    let m = if rng.gen_range(0..4) == 0 { 2 } else { rng.gen_range(2..300) };
    let raw: Vec<(f64, f64)> = (0..m).map(|_| (value(rng), rng.gen::<f64>())).collect();
    PiecewiseCdf::from_noisy_points(raw).unwrap_or_else(|| {
        PiecewiseCdf::from_noisy_points(vec![(-0.0, 0.0), (1000.0, 1.0)]).expect("two points")
    })
}

/// Ascending query points: the given exact hits (samples, control points),
/// pool values, random points in and around the domain, points far below
/// and above it, each repeated up to three times to make runs of equal
/// points.
fn queries(rng: &mut StdRng, hits: &[f64]) -> Vec<f64> {
    let mut xs: Vec<f64> = hits.to_vec();
    xs.extend(POOL);
    xs.extend((0..rng.gen_range(0..200)).map(|_| rng.gen::<f64>() * 1100.0 - 50.0));
    xs.extend([-1e9, 1e9, f64::NEG_INFINITY, f64::INFINITY]);
    let runs: Vec<f64> = xs.iter().filter(|_| rng.gen_range(0..8) == 0).copied().collect();
    xs.extend(runs.iter().chain(&runs));
    xs.sort_by(f64::total_cmp);
    xs
}

/// `cdf_ascending` over all of `xs`, and again over random consecutive
/// pieces of it (each call starts a fresh cursor), equals `cdf` per point
/// by bits. An empty slice writes nothing.
fn assert_ascending_matches_cdf<C: CdfFn + ?Sized>(
    c: &C,
    xs: &[f64],
    rng: &mut StdRng,
    what: &str,
) {
    let mut out = vec![f64::NAN; xs.len()];
    c.cdf_ascending(xs, &mut out);
    for (&x, &f) in xs.iter().zip(&out) {
        assert_eq!(f.to_bits(), c.cdf(x).to_bits(), "{what}: x = {x:?}");
    }
    let mut pieces = vec![f64::NAN; xs.len()];
    let mut start = 0;
    while start < xs.len() {
        let end = (start + rng.gen_range(0..40usize)).min(xs.len());
        c.cdf_ascending(&xs[start..end], &mut pieces[start..end]);
        start = end;
    }
    assert_eq!(bits(&pieces), bits(&out), "{what}: pieces differ from one pass");
    c.cdf_ascending(&[], &mut []);
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// The per-point bodies the ascending scorers replaced, verbatim.

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

fn ks_distance_to_per_point<C: CdfFn + ?Sized>(e: &Ecdf, reference: &C) -> f64 {
    let n = e.samples().len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in e.samples().iter().enumerate() {
        let f = reference.cdf(x);
        d = d.max((f - i as f64 / n).abs()).max(((i + 1) as f64 / n - f).abs());
    }
    d
}

/// Every scorer against its per-point body, by bits, for one pair.
fn assert_scorers_match<B: CdfFn + ?Sized>(
    e: &Ecdf,
    p: &PiecewiseCdf,
    other: &B,
    grid: usize,
    what: &str,
) {
    let same = |a: f64, b: f64, scorer: &str| {
        assert_eq!(a.to_bits(), b.to_bits(), "{scorer} against {what}: {a} vs {b}");
    };
    same(p.sup_diff(other, grid), sup_diff_per_point(p, other, grid), "sup_diff");
    same(e.ks_distance_to(other), ks_distance_to_per_point(e, other), "ks_distance_to");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ascending evaluation ≡ `cdf` per point, for each cursor, for the
    /// streamed truth's forward and for every generator's trait default.
    #[test]
    fn ascending_evaluation_matches_per_point_cdf(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = ecdf(&mut rng);
        let p = skeleton(&mut rng);
        let mut hits = e.samples().to_vec();
        hits.extend(p.points().iter().map(|&(x, _)| x));
        let xs = queries(&mut rng, &hits);
        assert_ascending_matches_cdf(&e, &xs, &mut rng, "Ecdf");
        assert_ascending_matches_cdf(&p, &xs, &mut rng, "PiecewiseCdf");
        for kind in kinds() {
            let what = format!("{kind:?}");
            let truth = StreamingTruth::new(kind.build(0.0, 1000.0), 1);
            assert_ascending_matches_cdf(&truth, &xs, &mut rng, &format!("StreamingTruth {what}"));
            assert_ascending_matches_cdf(kind.build(0.0, 1000.0).as_ref(), &xs, &mut rng, &what);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `sup_diff` and `ks_distance_to` ≡ their per-point bodies, by bits:
    /// against every generator, an ECDF and a skeleton, at the default grid
    /// and a small odd one.
    #[test]
    fn scorers_match_their_per_point_bodies(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (e, p) = (ecdf(&mut rng), skeleton(&mut rng));
        let (e2, p2) = (ecdf(&mut rng), skeleton(&mut rng));
        for grid in [DEFAULT_GRID, 37] {
            for kind in kinds() {
                let what = format!("{kind:?}");
                assert_scorers_match(&e, &p, kind.build(0.0, 1000.0).as_ref(), grid, &what);
            }
            assert_scorers_match(&e, &p, &e2, grid, "an ECDF");
            assert_scorers_match(&e, &p, &p2, grid, "a skeleton");
            assert_scorers_match(&e, &p, &p, grid, "itself");
        }
    }
}
