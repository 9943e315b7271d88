//! F3 — the **distribution-free** claim: accuracy across data distributions.
//!
//! Expected shape: DF-DDE's KS error is roughly constant across the whole
//! distribution suite (uniform, normal, exponential, Pareto, Zipf, bimodal),
//! while the biased baseline's error *grows with skew* — the heart of the
//! abstract's "regardless of distribution models of the underlying data".

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{DensityEstimator, DfDde, DfDdeConfig, UniformPeerConfig, UniformPeerSampling};
use dde_stats::dist::DistributionKind;

/// Builds figure F3's series.
pub fn f3_distribution_free(scale: Scale) -> Vec<Table> {
    let k = default_probes(scale);
    let suite = DistributionKind::standard_suite();
    let mut plan = ExecPlan::new();
    for kind in &suite {
        let scenario = default_scenario(scale).with_distribution(kind.clone());
        // Three cells per distribution: df-dde, the biased baseline, and the
        // exact walk (1 repeat — it is deterministic up to its start peer).
        let cells: Vec<(Box<dyn DensityEstimator>, usize)> = vec![
            (Box::new(DfDde::new(DfDdeConfig::with_probes(k))), scale.repeats()),
            (
                Box::new(UniformPeerSampling::new(UniformPeerConfig {
                    peers: k,
                    ..UniformPeerConfig::default()
                })),
                scale.repeats(),
            ),
            (Box::new(dde_core::ExactAggregation::new()), 1),
        ];
        for (estimator, repeats) in cells {
            let scenario = scenario.clone();
            plan.push(move || aggregate_cell(&scenario, estimator.as_ref(), repeats));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("F3: KS accuracy per data distribution (k = {k})"),
        &["distribution", "df-dde", "±std", "uniform-peer", "exact-walk"],
    );
    for (i, kind) in suite.iter().enumerate() {
        let cell = |j: usize| &results[i * 3 + j].value;
        let (dfdde, naive, exact) = (cell(0), cell(1), cell(2));
        t.push_row(vec![
            kind.label().into(),
            f(dfdde.ks_mean),
            f(dfdde.ks_std),
            f(naive.ks_mean),
            f(exact.ks_mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_dfdde_is_flat_where_naive_degrades() {
        let t = &f3_distribution_free(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 6);
        let dfdde: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let naive: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // DF-DDE stays in a narrow band across the in-band distribution
        // families. Pareto (row 3) is excluded from the flatness band: at
        // α = 1.2 a *single peer* owns the majority of all items, and no
        // k ≪ P probing scheme can reliably resolve a majority-mass
        // point-peer (see the F3 discussion in EXPERIMENTS.md — the probe
        // either hits that peer or the estimate misses half the mass; the
        // limit is intrinsic to sampling, not to the method, and F1 shows
        // it recede as k → P).
        let in_band: Vec<f64> =
            dfdde.iter().enumerate().filter(|(i, _)| *i != 3).map(|(_, v)| *v).collect();
        let df_max = in_band.iter().cloned().fold(0.0f64, f64::max);
        let df_min = in_band.iter().cloned().fold(1.0f64, f64::min);
        assert!(df_max < 0.15, "df-dde degraded somewhere: max ks {df_max}");
        assert!(df_max < df_min * 8.0 + 0.05, "df-dde not flat: {dfdde:?}");
        // The naive baseline collapses on the skewed entries (pareto row 3,
        // zipf row 4) but not on uniform (row 0).
        assert!(naive[3] > 2.0 * naive[0], "pareto should hurt naive: {naive:?}");
        assert!(naive[4] > 2.0 * naive[0], "zipf should hurt naive: {naive:?}");
        // Even on the stress row df-dde must beat the biased baseline.
        assert!(naive[3] > 1.5 * dfdde[3], "df-dde should win on pareto: {naive:?} vs {dfdde:?}");
        assert!(naive[4] > 1.5 * dfdde[4], "df-dde should win on zipf: {naive:?} vs {dfdde:?}");
    }
}
