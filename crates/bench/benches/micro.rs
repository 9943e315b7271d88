//! Microbenchmarks of the substrate hot paths: routing, probing, membership
//! churn, store and summary operations, skeleton assembly, the baseline
//! estimators, KDE, and metrics.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dde_core::{
    CdfSkeleton, DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation,
    GossipConfig, RandomWalkConfig, RandomWalkSampling, Weighting,
};
use dde_ring::{BatchRouter, ChurnBatch, FingerTable, LocalStore, Network, Placement, RingId};
use dde_stats::dist::{BoundedPareto, Distribution, Normal, Truncated};
use dde_stats::equidepth::EquiDepthSummary;
use dde_stats::kde::{Bandwidth, Kde};
use dde_stats::metrics::ks_distance;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::{CdfFn, Ecdf, PiecewiseCdf};
use rand::Rng;

fn ring_net(p: usize, seed: u64) -> Network {
    let mut rng = SeedSequence::new(seed).stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
    ids.sort();
    ids.dedup();
    Network::build(ids, Placement::range(0.0, 1000.0))
}

/// Random lookups from one peer. 10⁵ peers is the memory-bound regime the
/// `static` workload runs; the smaller rings stay cache-resident.
fn lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/lookup");
    for p in [256usize, 4096, 100_000] {
        let mut net = ring_net(p, 1);
        let mut rng = SeedSequence::new(2).stream(Component::Workload, p as u64);
        let from = net.random_peer(&mut rng).expect("nonempty");
        g.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| net.lookup(from, RingId(rng.gen())).expect("routes"));
        });
    }
    g.finish();
}

/// Both sides of the run-length finger table's trade: the writes that
/// churn repair makes, on a table shaped like a wired one at 10⁵ peers
/// (levels 0..47 name the successor, the 17 above each a distinct peer).
fn finger_write(c: &mut Criterion) {
    let levels: Vec<Option<RingId>> =
        (0..64u64).map(|f| Some(RingId(if f < 47 { 1 } else { f << 40 }))).collect();
    let wired = FingerTable::from_levels(levels.iter().copied());
    let joiner = Some(RingId(7));
    let mut g = c.benchmark_group("micro/finger_write");
    // A leave hands one single-level run to the heir: renamed in place.
    g.bench_function("rename", |b| {
        b.iter(|| {
            let mut t = black_box(wired);
            t.set(50, joiner);
            t
        });
    });
    // A join inside the successor run splits it in three.
    g.bench_function("split", |b| {
        b.iter(|| {
            let mut t = black_box(wired);
            t.set(20, joiner);
            t
        });
    });
    // A joiner's predecessor: every successor level moves to the joiner.
    g.bench_function("predecessor_47_levels", |b| {
        b.iter(|| {
            let mut t = black_box(wired);
            t.set_range(0..47, joiner);
            t
        });
    });
    g.bench_function("from_levels", |b| {
        b.iter(|| FingerTable::from_levels(black_box(&levels).iter().copied()));
    });
    g.finish();
}

/// One same-origin window of `w` batched lookups per iteration. Edge dedup
/// is O(1) per hop, so time per window should grow linearly in `w`.
fn lookup_batched(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/lookup_batched_window");
    let mut net = ring_net(4096, 1);
    let mut batch = BatchRouter::new();
    for w in [16usize, 512] {
        let mut rng = SeedSequence::new(2).stream(Component::Workload, w as u64);
        let from = net.random_peer(&mut rng).expect("nonempty");
        g.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            b.iter(|| {
                batch.begin_window();
                for _ in 0..w {
                    net.lookup_batched(from, RingId(rng.gen()), &mut batch).expect("routes");
                }
                batch.edges_paid()
            });
        });
    }
    g.finish();
}

fn probe(c: &mut Criterion) {
    let mut net = ring_net(1024, 3);
    let dist = Truncated::new(Normal::new(500.0, 120.0), 0.0, 1000.0);
    let mut data_rng = SeedSequence::new(3).stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut data_rng)).collect();
    net.bulk_load(&data);
    let mut rng = SeedSequence::new(4).stream(Component::Probes, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");
    c.bench_function("micro/probe", |b| {
        b.iter(|| net.probe(from, RingId(rng.gen())).expect("probes"));
    });
}

fn global_values(c: &mut Criterion) {
    let mut net = ring_net(512, 11);
    let dist = Truncated::new(Normal::new(500.0, 120.0), 0.0, 1000.0);
    let mut data_rng = SeedSequence::new(11).stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut data_rng)).collect();
    net.bulk_load(&data);
    let mut rng = SeedSequence::new(12).stream(Component::Workload, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let mut g = c.benchmark_group("micro/global_values");
    // A truth read after a write: every call collects and sorts the 100k
    // values afresh.
    g.bench_function("insert_collect_delete", |b| {
        b.iter(|| {
            net.insert(from, black_box(123.456)).expect("routes");
            let n = net.global_values().len();
            net.delete(from, 123.456).expect("routes");
            n
        });
    });
    g.finish();
}

fn store_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro/store");
    let store = LocalStore::from_values((0..10_000).map(|i| (i % 997) as f64).collect());
    g.bench_function("count_le", |b| b.iter(|| store.count_le(black_box(498.5))));
    g.bench_function("summary_8", |b| b.iter(|| store.summary(8)));
    g.bench_function("summary_64", |b| b.iter(|| store.summary(64)));
    g.finish();
}

fn equidepth_query(c: &mut Criterion) {
    let sorted: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    let s = EquiDepthSummary::from_sorted(&sorted, 32);
    c.bench_function("micro/equidepth_count_le", |b| b.iter(|| s.count_le(black_box(54_321.5))));
}

fn skeleton_assembly(c: &mut Criterion) {
    // Build realistic probe replies once, then time the assembly alone.
    let mut net = ring_net(1024, 5);
    let dist = BoundedPareto::new(0.0, 1000.0, 1.2);
    let mut data_rng = SeedSequence::new(5).stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut data_rng)).collect();
    net.bulk_load(&data);
    let mut rng = SeedSequence::new(6).stream(Component::Probes, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let replies: Vec<_> =
        (0..256).map(|_| net.probe(from, RingId(rng.gen())).expect("probes")).collect();
    c.bench_function("micro/skeleton_from_256_probes", |b| {
        b.iter(|| {
            CdfSkeleton::from_probes(&replies, (0.0, 1000.0), 4096, Weighting::HorvitzThompson)
                .expect("builds")
        });
    });
    // DF-DDE's own shape, as `static` and `serve` build it: 64 stratified
    // probes under range placement arrive in value order, so the pooled
    // fold keeps a growing run of full replies and cuts the empty tail.
    let replies = DfDde::new(DfDdeConfig::with_probes(64))
        .run_probes(&mut net, from, &mut rng)
        .expect("probes");
    c.bench_function("micro/skeleton_from_64_probes", |b| {
        b.iter(|| {
            CdfSkeleton::from_probes(&replies, (0.0, 1000.0), 4096, Weighting::HorvitzThompson)
                .expect("builds")
        });
    });
}

/// One whole estimate per iteration on a 256-peer ring, for the baselines
/// whose per-estimate cost is their own arithmetic rather than routing.
fn baseline_estimates(c: &mut Criterion) {
    let mut net = ring_net(256, 13);
    let dist = Truncated::new(Normal::new(500.0, 120.0), 0.0, 1000.0);
    let mut data_rng = SeedSequence::new(13).stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..50_000).map(|_| dist.sample(&mut data_rng)).collect();
    net.bulk_load(&data);
    let mut rng = SeedSequence::new(14).stream(Component::Estimator, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");
    let estimators: [(&str, Box<dyn DensityEstimator>); 3] = [
        ("gossip_256", Box::new(GossipAggregation::new(GossipConfig::default()))),
        ("walk_256", Box::new(RandomWalkSampling::new(RandomWalkConfig::default()))),
        ("exact_256", Box::new(ExactAggregation::new())),
    ];
    let mut g = c.benchmark_group("micro/estimate");
    for (name, est) in &estimators {
        g.bench_function(*name, |b| {
            b.iter(|| est.estimate(&mut net, from, &mut rng).expect("estimates").messages());
        });
    }
    g.finish();
}

fn kde_eval(c: &mut Criterion) {
    let dist = Truncated::new(Normal::new(0.0, 1.0), -5.0, 5.0);
    let mut rng = SeedSequence::new(7).stream(Component::Test, 0);
    let samples: Vec<f64> = (0..5_000).map(|_| dist.sample(&mut rng)).collect();
    let kde = Kde::fit(samples, Bandwidth::Silverman, (-5.0, 5.0));
    c.bench_function("micro/kde_pdf", |b| b.iter(|| kde.pdf(black_box(0.7))));
}

fn metrics_ks(c: &mut Criterion) {
    let mut rng = SeedSequence::new(8).stream(Component::Test, 0);
    let dist = Truncated::new(Normal::new(0.0, 1.0), -5.0, 5.0);
    let ecdf = Ecdf::new((0..10_000).map(|_| dist.sample(&mut rng)).collect());
    let pw = PiecewiseCdf::from_points(vec![(-5.0, 0.0), (0.0, 0.5), (5.0, 1.0)]);
    c.bench_function("micro/ks_distance_2048", |b| b.iter(|| ks_distance(&ecdf, &pw, 2048)));
    // Keep the CdfFn import meaningfully used.
    assert!(pw.cdf(0.0) > 0.4);
}

fn churn(c: &mut Criterion) {
    // The three membership-mutation policies F12b weighs against each other,
    // on a data-free 4096-peer ring (isolating repair machinery from data
    // handoff): one coalesced `ChurnBatch` window, the same event mix as 64
    // one-event batches, and the teardown-and-rebuild a snapshot-immutable
    // design would pay instead. Windows are join/death
    // balanced (32/16/16) so the ring size stays put across iterations.
    let mut g = c.benchmark_group("micro/churn");
    let p = 4096;
    {
        let mut rng = SeedSequence::new(21).stream(Component::NodeIds, 0);
        let ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
        let mut rng = SeedSequence::new(22).stream(Component::Churn, 0);
        let mut batch = ChurnBatch::new();
        g.bench_function("batched_64_event_window", |b| {
            b.iter(|| {
                for _ in 0..32 {
                    batch.join(RingId(rng.gen()));
                }
                for _ in 0..16 {
                    batch.leave(net.random_peer(&mut rng).expect("nonempty"));
                }
                for _ in 0..16 {
                    batch.crash(net.random_peer(&mut rng).expect("nonempty"));
                }
                batch.apply(&mut net).joins
            });
        });
    }
    {
        let mut rng = SeedSequence::new(23).stream(Component::NodeIds, 0);
        let ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
        let mut rng = SeedSequence::new(24).stream(Component::Churn, 0);
        let mut batch = ChurnBatch::new();
        g.bench_function("incremental_64_events", |b| {
            b.iter(|| {
                for _ in 0..32 {
                    batch.join(RingId(rng.gen()));
                    batch.apply(&mut net);
                }
                for _ in 0..16 {
                    batch.leave(net.random_peer(&mut rng).expect("nonempty"));
                    batch.apply(&mut net);
                }
                for _ in 0..16 {
                    batch.crash(net.random_peer(&mut rng).expect("nonempty"));
                    batch.apply(&mut net);
                }
                net.len()
            });
        });
    }
    {
        let mut rng = SeedSequence::new(25).stream(Component::NodeIds, 0);
        let ids: Vec<RingId> = (0..p).map(|_| RingId(rng.gen())).collect();
        let net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
        g.bench_function("teardown_rebuild", |b| {
            b.iter(|| {
                let ids: Vec<RingId> = net.ids().collect();
                Network::build_bulk(ids, Placement::range(0.0, 1000.0)).len()
            });
        });
    }
    g.finish();
}

fn range_query(c: &mut Criterion) {
    let mut net = ring_net(512, 9);
    let dist = Truncated::new(Normal::new(500.0, 150.0), 0.0, 1000.0);
    let mut data_rng = SeedSequence::new(9).stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..50_000).map(|_| dist.sample(&mut data_rng)).collect();
    net.bulk_load(&data);
    let mut rng = SeedSequence::new(10).stream(Component::Workload, 0);
    let from = net.random_peer(&mut rng).expect("nonempty");
    c.bench_function("micro/range_query_5pct", |b| {
        b.iter(|| net.range_query(from, 475.0, 525.0).expect("queries"));
    });
}

criterion_group!(
    micro,
    lookup,
    finger_write,
    lookup_batched,
    probe,
    global_values,
    churn,
    range_query,
    store_ops,
    equidepth_query,
    skeleton_assembly,
    baseline_estimates,
    kde_eval,
    metrics_ks
);
criterion_main!(micro);
