//! Fault-injection integration tests: the estimator stack against seeded
//! message faults — accuracy with retries, graceful degradation without,
//! and byte-identical deterministic replay.

use dde_core::{CdfSkeleton, DfDde, DfDdeConfig, RetryPolicy, Weighting};
use dde_ring::FaultPlan;
use dde_sim::{build, run_estimator, BuiltScenario, Scenario};
use dde_stats::assert::KsBand;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::CdfFn as _;
use proptest::prelude::*;

const K: usize = 128;

fn scenario() -> Scenario {
    Scenario::default().with_peers(192).with_items(15_000).with_seed(77)
}

/// A fresh build with the standard sweep plan (request loss `loss`, reply
/// loss half that) installed.
fn faulted_build(loss: f64) -> BuiltScenario {
    let s = scenario();
    let mut built = build(&s);
    if loss > 0.0 {
        built.net.set_fault_plan(
            FaultPlan::new(s.seed ^ 0xFA17).with_loss(loss).with_reply_loss(loss / 2.0),
        );
    }
    built
}

fn mean_ks(loss: f64, runs: usize) -> f64 {
    let mut built = faulted_build(loss);
    let est = DfDde::new(DfDdeConfig::with_probes(K));
    let mut total = 0.0;
    for run in 0..runs {
        let r = run_estimator(&mut built, &est, run as u64).expect("estimation survives faults");
        total += r.ks_vs_generator;
    }
    total / runs as f64
}

#[test]
fn dfdde_meets_ks_bound_at_ten_percent_loss() {
    let clean = mean_ks(0.0, 3);
    let lossy = mean_ks(0.1, 3);
    // Retries re-issue lost probes within their stratum, so 10% loss must
    // not meaningfully degrade accuracy: within 2x of the clean KS and
    // still inside the band the clean estimator meets. The mean of 3 runs
    // of K probes has effective sample size 3K; the systematic term covers
    // summary granularity and HT-weighting error (see TESTING.md).
    let band = KsBand::new(3 * K, 1e-3).with_systematic(0.05);
    band.assert("clean mean ks", clean);
    assert!(lossy <= 2.0 * clean, "ks degraded under loss: {lossy} vs clean {clean}");
    band.assert("lossy mean ks", lossy);
}

#[test]
fn no_retries_degrades_gracefully() {
    let mut built = faulted_build(0.3);
    let est = DfDde::new(DfDdeConfig { retry: RetryPolicy::none(), ..DfDdeConfig::with_probes(K) });
    // With retries off at 30% loss, a chunk of probes must fail — the
    // estimator reports the shortfall instead of erroring.
    let r = run_estimator(&mut built, &est, 0).expect("partial skeleton still estimates");
    assert_eq!(r.probes_requested, K);
    assert!(
        r.probes_succeeded < K,
        "expected probe shortfall at 30% loss without retries, got {}/{K}",
        r.probes_succeeded
    );
    assert!(r.probes_succeeded > K / 4, "too few probes survived: {}", r.probes_succeeded);
    assert!(r.ks_vs_generator <= 1.0);
}

#[test]
fn same_fault_seed_replays_byte_identical_stats() {
    let run = || {
        use dde_core::DensityEstimator as _;
        let mut built = faulted_build(0.2);
        let seq = SeedSequence::new(scenario().seed);
        let mut rng = seq.stream(Component::Estimator, 0);
        let initiator = built.net.random_peer(&mut rng).expect("nonempty");
        let est = DfDde::new(DfDdeConfig::with_probes(K));
        let report = est.estimate(&mut built.net, initiator, &mut rng).expect("estimates");
        (format!("{:?}", built.net.stats()), report.messages(), report.probes_succeeded)
    };
    let (stats_a, msgs_a, ok_a) = run();
    let (stats_b, msgs_b, ok_b) = run();
    assert_eq!(stats_a, stats_b, "same fault seed must replay byte-identically");
    assert_eq!(msgs_a, msgs_b);
    assert_eq!(ok_a, ok_b);
}

#[test]
fn loss_sweep_stays_sane() {
    for loss in [0.0, 0.1, 0.3] {
        let mut built = faulted_build(loss);
        let est = DfDde::new(DfDdeConfig::with_probes(K));
        let before = built.net.stats().clone();
        let r = run_estimator(&mut built, &est, 0).unwrap_or_else(|e| panic!("loss {loss}: {e}"));
        let delta = built.net.stats().since(&before);
        assert!(r.ks_vs_generator <= 0.5, "loss {loss}: ks = {}", r.ks_vs_generator);
        assert!(r.probes_succeeded >= 2, "loss {loss}: {} probes", r.probes_succeeded);
        if loss == 0.0 {
            assert_eq!(delta.total_faults(), 0, "clean run must inject nothing");
        } else {
            assert!(delta.total_faults() > 0, "loss {loss} injected no faults");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The skeleton built from ANY surviving subset of a probe round is a
    /// valid monotone CDF pinned to the domain endpoints — partial probe
    /// sets degrade the estimate, never its shape.
    #[test]
    fn skeleton_from_any_surviving_subset_is_monotone(
        mask in any::<u64>(),
        seed in 0u64..200,
    ) {
        let s = Scenario::default().with_peers(64).with_items(3_000).with_seed(seed);
        let mut built = build(&s);
        let seq = SeedSequence::new(seed);
        let mut rng = seq.stream(Component::Probes, 5);
        let initiator = built.net.random_peer(&mut rng).expect("nonempty");
        let est = DfDde::new(DfDdeConfig::with_probes(48));
        let replies = est.run_probes(&mut built.net, initiator, &mut rng).expect("probes");
        // Bit j of the mask decides whether probe j "survived".
        let subset: Vec<_> = replies
            .iter()
            .enumerate()
            .filter(|(j, _)| mask >> (j % 64) & 1 == 1)
            .map(|(_, r)| r.clone())
            .collect();
        let skel = CdfSkeleton::from_probes(&subset, s.domain, 4096, Weighting::HorvitzThompson);
        // Fewer than 2 usable replies → no skeleton (graceful), nothing to check.
        prop_assume!(skel.is_ok());
        let skel = skel.expect("checked above");
        let (lo, hi) = s.domain;
        prop_assert!(skel.n_hat > 0.0);
        prop_assert!(skel.probes_used <= subset.len());
        let mut prev = -1.0f64;
        for i in 0..=64 {
            let x = lo + (hi - lo) * i as f64 / 64.0;
            let c = skel.cdf.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c), "cdf({x}) = {c}");
            prop_assert!(c + 1e-12 >= prev, "cdf not monotone at {x}: {c} < {prev}");
            prev = c;
        }
        prop_assert!((skel.cdf.cdf(lo) - 0.0).abs() < 1e-9);
        prop_assert!((skel.cdf.cdf(hi) - 1.0).abs() < 1e-9);
    }
}
