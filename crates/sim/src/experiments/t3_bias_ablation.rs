//! T3 — the bias ablation: where exactly does "free from sampling bias"
//! come from?
//!
//! Four cells: node layout {uniform ids, load-balanced} × Horvitz–Thompson
//! weighting {on, off}, plus the naive equal-weight peer-sampling row.
//! Expected shape: with HT on, accuracy is good under **both** layouts; with
//! HT off it collapses under the load-balanced layout (arc length
//! anti-correlates with density there); naive peer sampling is bad under
//! both because its bias is volume-, not arc-, driven.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use crate::scenario::NodeLayout;
use dde_core::skeleton::Weighting;
use dde_core::{DensityEstimator, DfDde, DfDdeConfig, UniformPeerConfig, UniformPeerSampling};

/// Builds table T3.
pub fn t3_bias_ablation(scale: Scale) -> Vec<Table> {
    let k = default_probes(scale);
    let layouts = [NodeLayout::UniformIds, NodeLayout::LoadBalanced];
    let mut plan = ExecPlan::new();
    for layout in layouts {
        let scenario = default_scenario(scale).with_layout(layout);
        // Three cells per layout: HT on, HT off, naive baseline.
        let estimators: Vec<Box<dyn DensityEstimator>> = vec![
            Box::new(DfDde::new(DfDdeConfig::with_probes(k))),
            Box::new(DfDde::new(DfDdeConfig {
                weighting: Weighting::Unweighted,
                ..DfDdeConfig::with_probes(k)
            })),
            Box::new(UniformPeerSampling::new(UniformPeerConfig {
                peers: k,
                ..UniformPeerConfig::default()
            })),
        ];
        for estimator in estimators {
            let scenario = scenario.clone();
            plan.push(move || aggregate_cell(&scenario, estimator.as_ref(), scale.repeats()));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("T3: bias ablation, KS(gen) by layout x estimator (k = {k})"),
        &["layout", "df-dde (HT)", "df-dde (no HT)", "uniform-peer (equal)"],
    );
    for (i, layout) in layouts.iter().enumerate() {
        let cell = |j: usize| &results[i * 3 + j].value;
        let (ht, raw, naive) = (cell(0), cell(1), cell(2));
        t.push_row(vec![format!("{layout:?}"), f(ht.ks_mean), f(raw.ks_mean), f(naive.ks_mean)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3_ht_is_robust_across_layouts() {
        let t = &t3_bias_ablation(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        let ht_uniform: f64 = t.rows[0][1].parse().unwrap();
        let ht_balanced: f64 = t.rows[1][1].parse().unwrap();
        let raw_balanced: f64 = t.rows[1][2].parse().unwrap();
        assert!(ht_uniform < 0.12, "HT under uniform ids: {ht_uniform}");
        assert!(ht_balanced < 0.12, "HT under load balancing: {ht_balanced}");
        // Dropping HT under load balancing is the structural failure.
        assert!(
            raw_balanced > 2.0 * ht_balanced,
            "no-HT should collapse under load balancing: {raw_balanced} vs {ht_balanced}"
        );
    }
}
