//! F2 — accuracy and cost vs network size, at a fixed probe budget.
//!
//! Expected shape: KS accuracy is essentially **flat** in `P` (the estimator
//! samples mass, not peers), while cost grows only as `k·O(log P)` — the
//! scalability half of the abstract's claim.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{DfDde, DfDdeConfig};

/// Network sizes swept.
pub fn size_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![64, 256, 1024],
        Scale::Full => vec![256, 1024, 4096, 16384],
    }
}

/// Builds figure F2's series.
pub fn f2_accuracy_vs_network_size(scale: Scale) -> Vec<Table> {
    let k = default_probes(scale);
    let sizes = size_sweep(scale);
    let mut plan = ExecPlan::new();
    for &p in &sizes {
        plan.push(move || {
            let scenario = default_scenario(scale).with_peers(p);
            aggregate_cell(&scenario, &DfDde::new(DfDdeConfig::with_probes(k)), scale.repeats())
        });
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("F2: accuracy & cost vs network size P (k = {k})"),
        &["P", "ks(gen)", "±std", "msgs", "hops/lookup"],
    );
    for (p, r) in sizes.iter().zip(&results) {
        let a = &r.value;
        t.push_row(vec![
            p.to_string(),
            f(a.ks_mean),
            f(a.ks_std),
            f(a.messages_mean),
            f(a.hops_mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f2_accuracy_flat_cost_logarithmic() {
        let t = &f2_accuracy_vs_network_size(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 3);
        let ks_small: f64 = t.rows[0][1].parse().unwrap();
        let ks_large: f64 = t.rows[2][1].parse().unwrap();
        // Accuracy does not degrade with network size (allow noise headroom).
        assert!(ks_large < ks_small * 2.5 + 0.02, "{ks_small} -> {ks_large}");
        // Hops grow with log P: 16× more peers ⇒ clearly more hops, but far
        // less than 16×.
        let hops_small: f64 = t.rows[0][4].parse().unwrap();
        let hops_large: f64 = t.rows[2][4].parse().unwrap();
        assert!(hops_large > hops_small);
        assert!(hops_large < hops_small * 4.0);
    }
}
