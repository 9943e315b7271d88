//! F5b (extension) — continuous estimation under **data drift**: probe
//! refresh vs estimate staleness when the stored data itself evolves.
//!
//! Peer churn alone barely moves the *distribution* (graceful leaves keep
//! the data; crashes delete arcs but the shape mostly persists) — a frozen
//! pre-churn window stays surprisingly accurate, as our first version of
//! this experiment discovered. What invalidates an old estimate is the
//! **data changing**: each tick, a slice of items is deleted and re-inserted
//! from a distribution whose mode slides across the domain. A frozen window
//! then describes yesterday's data; refresh probes track today's.
//!
//! Expected shape: `refresh = 0` decays toward the total drift; error drops
//! monotonically as refresh rises; even a modest refresh (≈ window/8 per
//! tick) stays close to the fresh-estimate floor. All rows share the same
//! drift/churn realizations, so the column is directly comparable.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use dde_core::{ContinuousConfig, ContinuousEstimator};
use dde_ring::{ChurnConfig, ChurnProcess, Network, RingId};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;
use rand::rngs::StdRng;
use rand::Rng;

/// Refresh rates (probes per tick) swept.
fn refresh_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        // 0 = never refresh after warm-up: the pure-staleness anchor.
        Scale::Quick => vec![0, 16],
        Scale::Full => vec![0, 1, 4, 16, 32],
    }
}

/// Replaces `count` items with samples from a normal whose mode sits at
/// `center_frac` of the domain (the drift step), via real overlay writes.
fn drift_step(
    net: &mut Network,
    initiator: RingId,
    count: usize,
    center_frac: f64,
    rng: &mut StdRng,
) {
    let (lo, hi) = net.placement().domain();
    let dist = DistributionKind::Normal { center_frac, std_frac: 0.08 }.build(lo, hi);
    for _ in 0..count {
        // Delete a uniform random existing tuple (found by remote sampling),
        // then insert a fresh one from the drifted distribution.
        let point = RingId(rng.gen());
        if let Ok((Some(victim), _)) = net.sample_tuple(initiator, point, rng) {
            let _ = net.delete(initiator, victim);
        }
        let x = dist.sample(rng);
        let _ = net.insert(initiator, x);
    }
}

/// One monitored run: mean KS vs *current* data over the last 4 ticks.
fn monitored_run(
    scenario: &crate::scenario::Scenario,
    refresh: usize,
    repeat: u64,
    ticks: usize,
) -> f64 {
    // Easy-to-estimate base (its static estimation floor is ~0.03, far below
    // the drift signal) that then slides to the other side of the domain.
    let scenario = scenario
        .clone()
        .with_distribution(DistributionKind::Normal { center_frac: 0.3, std_frac: 0.08 });
    let scenario = &scenario;
    let mut built = build(scenario);
    let seq = SeedSequence::new(scenario.seed ^ 0xD1CE);
    let mut churn_rng = seq.stream(Component::Churn, repeat);
    let mut drift_rng = seq.stream(Component::Workload, repeat);
    let mut est_rng = seq.stream(Component::Estimator, repeat * 1000 + refresh as u64);
    let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.02, 0.5));
    let mut cont = ContinuousEstimator::new(ContinuousConfig {
        refresh_per_tick: refresh,
        ..ContinuousConfig::default()
    });
    let mut initiator = built.net.random_peer(&mut est_rng).expect("nonempty");
    // Warm-up: every refresh level starts from the same full window.
    while cont.probes_held() < 64 {
        if cont.prefill(&mut built.net, initiator, &mut est_rng).is_err() {
            initiator = built.net.random_peer(&mut est_rng).expect("nonempty");
        }
    }
    // Drift: 6% of the data per tick, mode sliding 0.3 → 0.7 of the domain
    // (~96% of the data replaced by the end of the run).
    let per_tick = scenario.items * 6 / 100;
    let mut tail = Vec::new();
    for tick in 0..ticks {
        churn.run(&mut built.net, 1.0, &mut churn_rng);
        if !built.net.is_alive(initiator) {
            initiator = built.net.random_peer(&mut est_rng).expect("nonempty");
        }
        let center = 0.3 + 0.4 * (tick + 1) as f64 / ticks as f64;
        drift_step(&mut built.net, initiator, per_tick, center, &mut drift_rng);
        let _ = cont.tick(&mut built.net, initiator, &mut est_rng);
        if tick + 4 >= ticks {
            if let Ok(e) = cont.current_estimate(scenario.domain) {
                let truth_now = Ecdf::new(built.net.global_values());
                tail.push(e.ks_to(&truth_now));
            }
        }
    }
    if tail.is_empty() {
        1.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Builds figure F5b's series.
pub fn f5b_continuous_refresh(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let ticks = 16;
    let repeats = scale.repeats().min(3);
    let mut t = Table::new(
        format!(
            "F5b: continuous estimator vs data drift (6%/tick replaced, mode 0.3->0.7, \
             churn 0.02, {ticks} ticks, window 64, {repeats} repeats, same drift per row)"
        ),
        &["refresh/tick", "ks(current) last-4-ticks"],
    );
    let sweep = refresh_sweep(scale);
    // One cell per (refresh, repeat): `monitored_run` owns its whole world
    // (build + churn + drift + estimator), so the grid is fully parallel.
    let mut plan = ExecPlan::new();
    for &refresh in &sweep {
        for r in 0..repeats {
            let scenario = &scenario;
            plan.push(move || monitored_run(scenario, refresh, r as u64, ticks));
        }
    }
    let results = plan.run();
    for (i, refresh) in sweep.iter().enumerate() {
        let ks = results[i * repeats..(i + 1) * repeats]
            .iter()
            .map(|r| r.value / repeats as f64)
            .sum::<f64>();
        t.push_row(vec![refresh.to_string(), f(ks)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5b_refresh_tracks_drift_where_frozen_window_cannot() {
        let t = &f5b_continuous_refresh(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        let frozen: f64 = t.rows[0][1].parse().unwrap(); // refresh = 0
        let fresh: f64 = t.rows[1][1].parse().unwrap(); // refresh = 16
        assert!(
            fresh < 0.5 * frozen,
            "refresh must clearly beat a frozen window under drift: {fresh} vs {frozen}"
        );
        assert!(fresh < 0.25, "fresh window should track the drifted data: {fresh}");
    }
}
