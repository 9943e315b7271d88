//! F4 — the cost–accuracy frontier: messages spent vs KS error reached, for
//! every method including the expensive ones.
//!
//! Expected shape: DF-DDE dominates the sampling methods (lower error at
//! equal messages); exact-walk and gossip reach the best accuracy but at
//! `O(P)` / `O(rounds·P)` message cost — one to three orders of magnitude
//! more than DF-DDE needs for near-equal accuracy.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation, GossipConfig,
    PoolWeighting, UniformPeerConfig, UniformPeerSampling,
};

/// Builds figure F4's frontier points.
pub fn f4_cost_accuracy_frontier(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let budgets: &[usize] = match scale {
        Scale::Quick => &[32, 128],
        Scale::Full => &[16, 64, 256],
    };

    // One operating point per row; each becomes one cell in table order.
    let mut points: Vec<(String, String, Box<dyn DensityEstimator>, usize)> = Vec::new();
    for &k in budgets {
        points.push((
            "df-dde".into(),
            format!("k={k}"),
            Box::new(DfDde::new(DfDdeConfig::with_probes(k))),
            scale.repeats(),
        ));
    }
    for &k in budgets {
        points.push((
            "uniform-peer-cw".into(),
            format!("k={k}"),
            Box::new(UniformPeerSampling::new(UniformPeerConfig {
                peers: k,
                weighting: PoolWeighting::CountWeighted,
            })),
            scale.repeats(),
        ));
    }
    for rounds in [10usize, 30] {
        points.push((
            "gossip".into(),
            format!("r={rounds}"),
            Box::new(GossipAggregation::new(GossipConfig { rounds, ..GossipConfig::default() })),
            1,
        ));
    }
    points.push(("exact-walk".into(), "full".into(), Box::new(ExactAggregation::new()), 1));

    let mut plan = ExecPlan::new();
    let mut labels = Vec::with_capacity(points.len());
    for (method, budget, estimator, repeats) in points {
        labels.push((method, budget));
        let scenario = &scenario;
        plan.push(move || aggregate_cell(scenario, estimator.as_ref(), repeats));
    }
    let results = plan.run();

    let mut t = Table::new(
        "F4: cost-accuracy frontier (each row one operating point)",
        &["method", "budget", "msgs", "KB", "ks(gen)"],
    );
    for ((method, budget), r) in labels.into_iter().zip(&results) {
        let a = &r.value;
        t.push_row(vec![
            method,
            budget,
            f(a.messages_mean),
            f(a.bytes_mean / 1024.0),
            f(a.ks_mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f4_dfdde_is_cheaper_than_aggregation_at_similar_accuracy() {
        let t = &f4_cost_accuracy_frontier(Scale::Quick)[0];
        // Locate the largest df-dde point and the gossip r=30 point.
        let dfdde_best = t.rows.iter().rev().find(|r| r[0] == "df-dde").unwrap();
        let gossip_big = t.rows.iter().find(|r| r[0] == "gossip" && r[1] == "r=30").unwrap();
        let exact = t.rows.iter().find(|r| r[0] == "exact-walk").unwrap();
        let (df_msgs, df_ks): (f64, f64) =
            (dfdde_best[2].parse().unwrap(), dfdde_best[4].parse().unwrap());
        let g_msgs: f64 = gossip_big[2].parse().unwrap();
        let e_msgs: f64 = exact[2].parse().unwrap();
        // df-dde reaches decent accuracy with far fewer messages.
        assert!(df_ks < 0.1, "df-dde ks = {df_ks}");
        assert!(g_msgs > 5.0 * df_msgs, "gossip {g_msgs} vs df-dde {df_msgs}");
        assert!(e_msgs > df_msgs / 3.0, "exact-walk should not be free");
    }
}
