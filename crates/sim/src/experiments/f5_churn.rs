//! F5 — estimation accuracy under churn.
//!
//! Protocol: run symmetric churn (joins balance departures) for 10 time
//! units with stabilization every 0.5 units, then estimate on the churned
//! network — stale fingers, half-repaired successor lists, relocated data.
//! Accuracy is measured against the **surviving** data (crashes lose data;
//! that loss is the network's problem, not the estimator's).
//!
//! Expected shape: graceful degradation — KS grows mildly with churn rate,
//! and probe failures/timeouts appear only at the aggressive end.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::scenario::Scenario;
use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
use dde_ring::{ChurnConfig, ChurnProcess, MessageKind};
use dde_stats::rng::{Component, SeedSequence};

/// Churn rates swept (events per peer per time unit).
pub fn churn_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.0, 0.05, 0.2],
        Scale::Full => vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.4],
    }
}

/// One churned estimation run; returns `(ks_vs_surviving, timeouts,
/// probe_failures)`.
fn churned_run(
    scenario: &Scenario,
    rate: f64,
    probes: usize,
    run_index: u64,
) -> Option<(f64, u64, u64)> {
    let mut built = build(scenario);
    let seq = SeedSequence::new(scenario.seed ^ 0xC0FFEE);
    let mut churn_rng = seq.stream(Component::Churn, run_index);
    let mut est_rng = seq.stream(Component::Estimator, run_index);
    if rate > 0.0 {
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(rate, 0.5));
        churn.run(&mut built.net, 10.0, &mut churn_rng);
    }
    let initiator = built.net.random_peer(&mut est_rng)?;
    let before = built.net.stats().clone();
    let est = DfDde::new(DfDdeConfig::with_probes(probes));
    let report = est.estimate(&mut built.net, initiator, &mut est_rng).ok()?;
    let delta = built.net.stats().since(&before);
    let ks = report.estimate.ks_to(&built.net.live_values());
    let timeouts = delta.count(MessageKind::LookupTimeout);
    let failures = (probes - report.probes_succeeded) as u64;
    Some((ks, timeouts, failures))
}

/// Builds figure F5's series.
pub fn f5_accuracy_under_churn(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let k = default_probes(scale);
    let rates = churn_sweep(scale);
    let repeats = scale.repeats();
    // Finest useful grain: one cell per (rate, run) — `churned_run` already
    // builds its own network, so runs are fully independent.
    let mut plan = ExecPlan::new();
    for &rate in &rates {
        for run in 0..repeats {
            let scenario = &scenario;
            plan.push(move || churned_run(scenario, rate, k, run as u64));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("F5: accuracy under churn (10 time units of churn, then estimate; k = {k})"),
        &["churn rate", "ks(surviving)", "±std", "timeouts", "probe shortfall"],
    );
    for (i, rate) in rates.iter().enumerate() {
        let mut ks = Vec::new();
        let mut touts = Vec::new();
        let mut fails = Vec::new();
        for r in &results[i * repeats..(i + 1) * repeats] {
            if let Some((k_, to, fl)) = r.value {
                ks.push(k_);
                touts.push(to as f64);
                fails.push(fl as f64);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let std = |v: &[f64]| {
            if v.len() < 2 {
                return 0.0;
            }
            let m = mean(v);
            (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
        };
        t.push_row(vec![
            format!("{rate}"),
            f(mean(&ks)),
            f(std(&ks)),
            f(mean(&touts)),
            f(mean(&fails)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f5_degrades_gracefully() {
        let t = &f5_accuracy_under_churn(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 3);
        let ks_calm: f64 = t.rows[0][1].parse().unwrap();
        let ks_storm: f64 = t.rows[2][1].parse().unwrap();
        assert!(ks_calm < 0.12, "calm network should estimate well: {ks_calm}");
        // Heavy churn hurts but must not collapse the estimate.
        assert!(ks_storm < 0.45, "estimate collapsed under churn: {ks_storm}");
    }
}
