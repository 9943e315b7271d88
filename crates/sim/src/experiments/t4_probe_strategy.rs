//! T4 (ablation) — probe-position strategy: stratified vs i.i.d. uniform.
//!
//! The reconstruction reads the paper's "sampling the global cumulative
//! distribution function" as *systematic* (stratified) ring sampling: one
//! uniform position per equal ring stratum. Both strategies are unbiased
//! under Horvitz–Thompson; the difference is pure variance — clustered mass
//! (hotspot peers) is covered systematically instead of by luck.
//!
//! Expected shape: stratified dominates at every budget, by ~1.5–2.5× in KS
//! on the skewed default workload, at identical message cost.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{DfDde, DfDdeConfig, ProbeStrategy};

/// Builds table T4.
pub fn t4_probe_strategy(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let budgets: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[16, 32, 64, 128, 256, 512],
    };
    // Two cells per budget: stratified vs i.i.d. probe positions.
    let mut plan = ExecPlan::new();
    for &k in budgets {
        for strategy in [ProbeStrategy::Stratified, ProbeStrategy::IidUniform] {
            let scenario = &scenario;
            plan.push(move || {
                aggregate_cell(
                    scenario,
                    &DfDde::new(DfDdeConfig { strategy, ..DfDdeConfig::with_probes(k) }),
                    scale.repeats(),
                )
            });
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        "T4: probe strategy ablation, KS(gen) at equal message cost",
        &["k", "stratified", "±std", "iid uniform", "±std", "iid/stratified"],
    );
    for (i, &k) in budgets.iter().enumerate() {
        let strat = &results[i * 2].value;
        let iid = &results[i * 2 + 1].value;
        t.push_row(vec![
            k.to_string(),
            f(strat.ks_mean),
            f(strat.ks_std),
            f(iid.ks_mean),
            f(iid.ks_std),
            f(iid.ks_mean / strat.ks_mean.max(1e-9)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t4_stratified_never_loses() {
        let t = &t4_probe_strategy(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let strat: f64 = row[1].parse().unwrap();
            let iid: f64 = row[3].parse().unwrap();
            assert!(
                strat <= iid * 1.15,
                "stratified ({strat}) should not lose to iid ({iid}) at k={}",
                row[0]
            );
        }
        // At the larger budget, the advantage is material.
        let ratio: f64 = t.rows[1][5].parse().unwrap();
        assert!(ratio > 1.2, "expected a clear stratification win: ratio = {ratio}");
    }
}
