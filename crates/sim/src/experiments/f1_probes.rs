//! F1 — estimation accuracy vs number of probes `k`, for every method.
//!
//! Expected shape (the abstract's "high estimation accuracy with low
//! estimation cost"): DF-DDE's KS error decays like `O(1/√k)` and is the
//! best of all sampling methods at every `k`; equal-weight peer sampling
//! *plateaus* (bias does not average out); count-weighted peer sampling is
//! consistent but noisier than DF-DDE.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, PoolWeighting, RandomWalkConfig, RandomWalkSampling,
    UniformPeerConfig, UniformPeerSampling,
};

/// Probe budgets swept.
pub fn probe_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![8, 32, 128],
        Scale::Full => vec![8, 16, 32, 64, 128, 256, 512],
    }
}

/// Builds figure F1's series.
pub fn f1_accuracy_vs_probes(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let repeats = scale.repeats();
    let ks = probe_sweep(scale);
    let mut plan = ExecPlan::new();
    for &k in &ks {
        // One cell per (k, estimator): fresh build, independent of every
        // other cell, so the grid parallelizes without ordering effects.
        for estimator in sampling_estimators(k) {
            let scenario = &scenario;
            plan.push(move || aggregate_cell(scenario, |_| (), estimator.as_ref(), repeats));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        "F1: KS accuracy vs probes k (mean over repeats; msgs = df-dde mean)",
        &["k", "df-dde", "±std", "uniform-peer", "uniform-peer-cw", "random-walk", "msgs(df-dde)"],
    );
    for (i, k) in ks.iter().enumerate() {
        let cell = |j: usize| &results[i * 4 + j].value;
        let (dfdde, up, upcw, walk) = (cell(0), cell(1), cell(2), cell(3));
        t.push_row(vec![
            k.to_string(),
            f(dfdde.ks_mean),
            f(dfdde.ks_std),
            f(up.ks_mean),
            f(upcw.ks_mean),
            f(walk.ks_mean),
            f(dfdde.messages_mean),
        ]);
    }
    vec![t]
}

/// The estimators compared in F1/F4, at probe budget `k` (shared helper).
fn sampling_estimators(k: usize) -> Vec<Box<dyn DensityEstimator>> {
    vec![
        Box::new(DfDde::new(DfDdeConfig::with_probes(k))),
        Box::new(UniformPeerSampling::new(UniformPeerConfig {
            peers: k,
            ..UniformPeerConfig::default()
        })),
        Box::new(UniformPeerSampling::new(UniformPeerConfig {
            peers: k,
            weighting: PoolWeighting::CountWeighted,
            ..UniformPeerConfig::default()
        })),
        Box::new(RandomWalkSampling::new(RandomWalkConfig {
            peers: k,
            ..RandomWalkConfig::default()
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_error_decays_with_k_for_dfdde() {
        let tables = f1_accuracy_vs_probes(Scale::Quick);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 3);
        let ks_first: f64 = t.rows[0][1].parse().unwrap();
        let ks_last: f64 = t.rows[t.rows.len() - 1][1].parse().unwrap();
        assert!(ks_last < ks_first, "df-dde error should shrink with k: {ks_first} -> {ks_last}");
        // At the largest k, df-dde beats the biased baseline.
        let naive_last: f64 = t.rows[t.rows.len() - 1][3].parse().unwrap();
        assert!(ks_last < naive_last, "df-dde {ks_last} vs uniform-peer {naive_last}");
    }
}
