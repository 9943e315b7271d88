//! F7 — accuracy and cost vs dataset size `N`.
//!
//! Expected shape: message cost is **independent of N** (probes move
//! summaries, not data) and accuracy is flat-to-slightly-improving (larger
//! datasets have less of their own sampling noise) — the "cheap regardless
//! of data volume" half of scalability.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{DfDde, DfDdeConfig};

/// Dataset sizes swept.
fn dataset_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![5_000, 50_000],
        Scale::Full => vec![10_000, 100_000, 1_000_000],
    }
}

/// Builds figure F7's series.
pub fn f7_dataset_size(scale: Scale) -> Vec<Table> {
    let k = default_probes(scale);
    let mut t = Table::new(
        format!("F7: accuracy & cost vs dataset size N (k = {k})"),
        &["N", "ks(gen)", "ks(data)", "msgs", "N-hat rel.err"],
    );
    let sizes = dataset_sweep(scale);
    let mut plan = ExecPlan::new();
    for &n in &sizes {
        plan.push(move || {
            let scenario = default_scenario(scale).with_items(n);
            aggregate_cell(&scenario, &DfDde::new(DfDdeConfig::with_probes(k)), scale.repeats())
        });
    }
    let results = plan.run();
    for (n, r) in sizes.iter().zip(&results) {
        let a = &r.value;
        t.push_row(vec![
            n.to_string(),
            f(a.ks_mean),
            f(a.ks_data_mean),
            f(a.messages_mean),
            a.count_error_mean.map_or_else(|| "-".into(), f),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f7_cost_independent_of_dataset_size() {
        let t = &f7_dataset_size(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        let msgs_small: f64 = t.rows[0][3].parse().unwrap();
        let msgs_large: f64 = t.rows[1][3].parse().unwrap();
        // 10× the data, same message bill (within noise).
        assert!(
            (msgs_large / msgs_small - 1.0).abs() < 0.15,
            "cost should not scale with N: {msgs_small} vs {msgs_large}"
        );
        let ks_small: f64 = t.rows[0][1].parse().unwrap();
        let ks_large: f64 = t.rows[1][1].parse().unwrap();
        assert!(ks_large < ks_small * 2.0 + 0.02, "accuracy regressed with N");
    }
}
