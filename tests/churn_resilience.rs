//! Full-lifecycle churn integration: the network endures joins, graceful
//! leaves, and crashes while estimation keeps working; stabilization repairs
//! the ring; data handoff preserves graceful movers' data.

use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
use dde_ring::{ChurnConfig, ChurnProcess, RingId};
use dde_sim::{build, Scenario};
use dde_stats::assert::KsBand;
use dde_stats::rng::{Component, SeedSequence};
use rand::Rng;

fn scenario() -> Scenario {
    Scenario::default().with_peers(192).with_items(25_000).with_seed(53)
}

#[test]
fn graceful_only_churn_loses_no_data() {
    let mut built = build(&scenario());
    let seq = SeedSequence::new(99);
    let mut rng = seq.stream(Component::Churn, 0);
    let cfg =
        ChurnConfig { join_rate: 0.1, leave_rate: 0.1, fail_rate: 0.0, stabilize_period: 0.5 };
    let mut churn = ChurnProcess::new(cfg);
    let before = built.net.total_items();
    let outcome = churn.run(&mut built.net, 15.0, &mut rng);
    assert!(outcome.joins > 50, "{outcome:?}");
    assert!(outcome.leaves > 50, "{outcome:?}");
    assert_eq!(built.net.total_items(), before, "graceful churn must not lose items");
}

#[test]
fn crashes_lose_only_the_crashed_arcs() {
    let mut built = build(&scenario());
    let seq = SeedSequence::new(101);
    let mut rng = seq.stream(Component::Churn, 0);
    let cfg =
        ChurnConfig { join_rate: 0.0, leave_rate: 0.0, fail_rate: 0.05, stabilize_period: 0.5 };
    let mut churn = ChurnProcess::new(cfg);
    let before = built.net.total_items();
    let outcome = churn.run(&mut built.net, 5.0, &mut rng);
    let after = built.net.total_items();
    assert!(outcome.fails > 10, "{outcome:?}");
    assert!(after < before, "crashes must lose data");
    // Loss proportional-ish to crashed fraction (generous bounds: arcs vary).
    let lost_frac = 1.0 - after as f64 / before as f64;
    let crash_frac = outcome.fails as f64 / (192 + outcome.fails) as f64;
    assert!(lost_frac < crash_frac * 4.0 + 0.05, "lost {lost_frac:.3} vs crashed {crash_frac:.3}");
}

#[test]
fn ring_heals_and_estimation_recovers_after_storm() {
    let mut built = build(&scenario());
    let seq = SeedSequence::new(103);
    let mut churn_rng = seq.stream(Component::Churn, 0);
    let mut est_rng = seq.stream(Component::Estimator, 0);

    // A violent storm with *no* stabilization budget during it.
    let cfg =
        ChurnConfig { join_rate: 0.3, leave_rate: 0.15, fail_rate: 0.15, stabilize_period: 5.0 };
    let mut churn = ChurnProcess::new(cfg);
    churn.run(&mut built.net, 4.0, &mut churn_rng);

    // Then the network settles. Healing a storm-created segment of nodes
    // that nobody routes to is O(segment length) rounds in Chord (each
    // notify chain extends one peer per round), so allow a realistic budget
    // and stop early once quiet.
    for _ in 0..40 {
        if built.net.stabilize_round() == 0 {
            break;
        }
    }
    // Full heal: routing state AND data placement consistent (stabilization
    // includes the data-repair pass, so no "item" violations either).
    let violations = built.net.check_invariants();
    assert!(violations.is_empty(), "ring did not heal: {violations:?}");

    // Estimation on the healed ring matches the surviving data. The storm
    // crashed contiguous value ranges out of existence, so the surviving
    // CDF has sharp shelves — harder than any smooth distribution.
    let initiator = built.net.random_peer(&mut est_rng).unwrap();
    let report = DfDde::new(DfDdeConfig::with_probes(128))
        .estimate(&mut built.net, initiator, &mut est_rng)
        .expect("healed network estimates");
    let ks = report.estimate.ks_to(&built.net.live_values());
    // 128 probe replies are the effective sample behind the skeleton; the
    // systematic term covers summary granularity plus the post-storm shelf
    // structure (see TESTING.md for the band methodology).
    KsBand::new(128, 1e-3).with_systematic(0.03).assert("post-heal estimate", ks);
}

/// Regression guard for crash-heal races: across repeated storm → heal
/// cycles, *every* heal must restore both the always-true local invariants
/// and the full ground-truth ring + data-placement invariants. A single
/// storm can miss repair orderings that only arise when stale state from a
/// previous storm meets fresh churn, so cycle several times.
#[test]
fn every_heal_cycle_restores_all_invariants() {
    let mut built = build(&scenario());
    let seq = SeedSequence::new(109);
    let mut churn_rng = seq.stream(Component::Churn, 0);
    let cfg =
        ChurnConfig { join_rate: 0.25, leave_rate: 0.12, fail_rate: 0.12, stabilize_period: 5.0 };
    let mut churn = ChurnProcess::new(cfg);

    for cycle in 0..4 {
        churn.run(&mut built.net, 2.5, &mut churn_rng);
        let mut quiesced = false;
        for _ in 0..40 {
            if built.net.stabilize_round() == 0 {
                quiesced = true;
                break;
            }
        }
        assert!(quiesced, "cycle {cycle}: stabilization never went quiet");
        let local = built.net.check_local_invariants();
        assert!(local.is_empty(), "cycle {cycle}: local invariants broken: {local:?}");
        let full = built.net.check_invariants();
        assert!(full.is_empty(), "cycle {cycle}: heal left violations: {full:?}");
    }
}

#[test]
fn lookups_remain_correct_during_sustained_churn() {
    let mut built = build(&scenario());
    let seq = SeedSequence::new(107);
    let mut churn_rng = seq.stream(Component::Churn, 0);
    let mut rng = seq.stream(Component::Workload, 0);
    let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.1, 0.5));

    let mut ok = 0u32;
    let mut total = 0u32;
    for _ in 0..10 {
        churn.run(&mut built.net, 1.0, &mut churn_rng);
        let from = built.net.random_peer(&mut rng).unwrap();
        for _ in 0..20 {
            let target = RingId(rng.gen());
            total += 1;
            if let Ok(res) = built.net.lookup(from, target) {
                assert!(built.net.is_alive(res.owner));
                ok += 1;
            }
        }
    }
    assert!(
        f64::from(ok) / f64::from(total) > 0.97,
        "only {ok}/{total} lookups succeeded under churn"
    );
}
