//! T1 — the default parameter table, plus baseline health numbers for the
//! default scenario (the anchor every figure varies one axis of).

use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use crate::scenario::Scenario;
use dde_core::{DfDde, DfDdeConfig, ExactAggregation};

/// The default scenario each scale uses.
pub fn default_scenario(scale: Scale) -> Scenario {
    match scale {
        Scale::Quick => Scenario::default().with_peers(256).with_items(20_000),
        Scale::Full => Scenario::default(),
    }
}

/// The default probe count (`k`).
pub fn default_probes(scale: Scale) -> usize {
    match scale {
        // Quick runs on a small (256-peer) ring, where the skewed default
        // workload needs a denser probe set to keep smoke-test thresholds
        // meaningful; Full uses the paper-style k = P/8 regime.
        Scale::Quick => 128,
        Scale::Full => 128,
    }
}

/// Builds table T1.
pub fn t1_default_parameters(scale: Scale) -> Vec<Table> {
    let s = default_scenario(scale);
    let mut params = Table::new("T1: default parameters", &["parameter", "value"]);
    params.push_row(vec!["peers (P)".into(), s.peers.to_string()]);
    params.push_row(vec!["items (N)".into(), s.items.to_string()]);
    params.push_row(vec!["domain".into(), format!("[{}, {}]", s.domain.0, s.domain.1)]);
    params.push_row(vec!["distribution".into(), s.distribution.label().into()]);
    params.push_row(vec!["placement".into(), format!("{:?}", s.placement)]);
    params.push_row(vec!["layout".into(), format!("{:?}", s.layout)]);
    params.push_row(vec!["summary buckets (b)".into(), s.summary_buckets.to_string()]);
    params.push_row(vec!["probes (k)".into(), default_probes(scale).to_string()]);
    params.push_row(vec!["repeats".into(), scale.repeats().to_string()]);

    let mut health = Table::new(
        "T1b: default-scenario health",
        &["method", "ks(gen)", "ks(data)", "msgs", "KB", "hops/lookup", "N err"],
    );
    let mut plan = ExecPlan::new();
    for est in [
        Box::new(DfDde::new(DfDdeConfig::with_probes(default_probes(scale))))
            as Box<dyn dde_core::DensityEstimator>,
        Box::new(ExactAggregation::new()),
    ] {
        let s = &s;
        plan.push(move || aggregate_cell(s, est.as_ref(), scale.repeats()));
    }
    for r in plan.run() {
        let a = r.value;
        health.push_row(vec![
            a.method.into(),
            f(a.ks_mean),
            f(a.ks_data_mean),
            f(a.messages_mean),
            f(a.bytes_mean / 1024.0),
            f(a.hops_mean),
            a.count_error_mean.map_or_else(|| "-".into(), f),
        ]);
    }
    vec![params, health]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_produces_two_tables() {
        let tables = t1_default_parameters(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert!(tables[0].rows.len() >= 8);
        assert_eq!(tables[1].rows.len(), 2);
        // The exact walk row must be (near-)exact.
        let exact_ks: f64 = tables[1].rows[1][2].parse().unwrap();
        assert!(exact_ks < 0.03, "exact ks(data) = {exact_ks}");
    }
}
