//! F11 — estimation accuracy under injected message faults.
//!
//! Protocol: install a seeded [`FaultPlan`] on the default network (request
//! loss swept 0–30%, reply loss at half the request rate, no crashes so the
//! membership stays fixed and rows are comparable), then estimate. DF-DDE
//! runs with its default [`dde_core::RetryPolicy`] — lost probes are re-issued against
//! fresh ring positions — while gossip and the random walk take losses as
//! the raw protocols do: Push-Sum loses mass (drift), the walk loses samples
//! and stalls.
//!
//! Expected shape: DF-DDE stays flat well past 10% loss, paying a modest
//! message/cost inflation for retries; the baselines have no repair path and
//! degrade faster.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate;
use crate::scenario::Scenario;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, GossipAggregation, GossipConfig, RandomWalkConfig,
    RandomWalkSampling,
};
use dde_ring::FaultPlan;

/// Message-loss probabilities swept.
fn loss_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.0, 0.1, 0.3],
        Scale::Full => vec![0.0, 0.05, 0.1, 0.2, 0.3],
    }
}

/// The fault plan used for one sweep point: request loss `loss`, reply loss
/// at half that, deterministic in the scenario seed. No crashes — F11
/// isolates message faults from membership change (F5 covers churn).
fn sweep_plan(scenario: &Scenario, loss: f64) -> FaultPlan {
    FaultPlan::new(scenario.seed ^ 0xFA17).with_loss(loss).with_reply_loss(loss / 2.0)
}

/// Aggregates one estimator on a fresh build with the given plan installed
/// — one parallel-runner cell.
fn faulted_aggregate(
    scenario: &Scenario,
    loss: f64,
    estimator: &dyn DensityEstimator,
    repeats: usize,
) -> crate::runner::AggregatedResult {
    let mut built = crate::build::build(scenario);
    built.net.set_fault_plan(sweep_plan(scenario, loss));
    aggregate(&mut built, estimator, repeats)
}

/// Builds figure F11's series.
pub fn f11_faults(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let k = default_probes(scale);
    let losses = loss_sweep(scale);
    let dfdde = DfDde::new(DfDdeConfig::with_probes(k));
    let gossip = GossipAggregation::new(GossipConfig::default());
    let walk =
        RandomWalkSampling::new(RandomWalkConfig { peers: k, ..RandomWalkConfig::default() });
    // Three cells per loss point, one per method; the estimators are shared
    // by reference (they are stateless config).
    let mut plan = ExecPlan::new();
    for &loss in &losses {
        let methods: [&dyn DensityEstimator; 3] = [&dfdde, &gossip, &walk];
        for est in methods {
            let scenario = &scenario;
            plan.push(move || faulted_aggregate(scenario, loss, est, scale.repeats()));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("F11: accuracy under message faults (reply loss = loss/2, k = {k}, retries on)"),
        &["loss", "df-dde ks", "±std", "ok/k", "msgs", "cost ×", "gossip ks", "walk ks"],
    );
    let mut df_msgs_clean = None;
    for (i, loss) in losses.iter().enumerate() {
        let cell = |j: usize| &results[i * 3 + j].value;
        let (df, go, wa) = (cell(0), cell(1), cell(2));
        let clean = *df_msgs_clean.get_or_insert(df.messages_mean);
        t.push_row(vec![
            format!("{loss}"),
            f(df.ks_mean),
            f(df.ks_std),
            f(df.probes_ok_mean / k as f64),
            f(df.messages_mean),
            f(df.messages_mean / clean),
            f(go.ks_mean),
            f(wa.ks_mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f11_dfdde_stays_flat_while_baselines_degrade() {
        let t = &f11_faults(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 3);
        let col = |row: usize, c: usize| -> f64 { t.rows[row][c].parse().unwrap() };
        // Acceptance: DF-DDE KS at 10% loss within 2× of its 0%-loss value.
        let (ks0, ks10) = (col(0, 1), col(1, 1));
        assert!(ks10 <= 2.0 * ks0, "df-dde degraded: ks@0.1 = {ks10} vs ks@0 = {ks0}");
        // Retries keep the probe set essentially complete at 10% loss.
        assert!(col(1, 3) > 0.95, "ok/k at 10% loss = {}", col(1, 3));
        // Cost inflation is real but modest at 10% loss.
        let cost10 = col(1, 5);
        assert!(cost10 > 1.0 && cost10 < 2.0, "cost × at 10% = {cost10}");
        // Push-Sum has no repair path: lost pushes are lost mass, so its
        // error grows steadily with the loss rate.
        let (gossip0, gossip30) = (col(0, 6), col(2, 6));
        assert!(gossip30 > 1.5 * gossip0, "gossip should drift with loss: {gossip0} -> {gossip30}");
        // The walk (equal-weight pooling, no retries) never comes close.
        let (df30, walk30) = (col(2, 1), col(2, 7));
        assert!(df30 < walk30, "df-dde {df30} should beat the walk {walk30} at 30% loss");
    }
}
