//! F13 — accuracy under the adversarial & heterogeneous scenario pack.
//!
//! Protocol: the default scenario is re-run with one adversarial axis
//! switched on at a time — Zipf hotspot arcs in the *data*, adversarial
//! node *placement*, a flash crowd in the *membership*, a heterogeneous
//! capacity class in the *links*, and a spatially-correlated arc partition
//! in the *topology* — and DF-DDE, gossip, and the random walk estimate on
//! each. Axes ride in the [`Scenario`] itself (not a post-build setup
//! pass), so every cell flows through the snapshot cache and the `--jobs`
//! determinism matrix like any other experiment.
//!
//! Expected shape: DF-DDE's arc-length correction keeps it inside its DKW
//! band on every connected axis (hotspots, adversarial ids, flash crowds,
//! slow peers); the equal-weight baselines degrade where arc length and
//! data share decorrelate. The arc partition is the exception for
//! everybody: an unreachable arc's mass is an irreducible bias, and the
//! row instead pins that probes are actually lost and the damage stays
//! bounded by the cut mass.

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use crate::scenario::{CapacitySpec, NodeLayout, PartitionSpec, Scenario};
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, GossipAggregation, GossipConfig, RandomWalkConfig,
    RandomWalkSampling,
};
use dde_stats::dist::DistributionKind;

/// The axis cells swept: `(label, scenario)` pairs, baseline first.
fn axis_sweep(scale: Scale) -> Vec<(&'static str, Scenario)> {
    let base = default_scenario(scale);
    vec![
        ("baseline", base.clone()),
        (
            "hotspot-zipf",
            base.clone().with_distribution(DistributionKind::HotspotZipf {
                cells: 64,
                exponent: 1.2,
                arcs: 2,
            }),
        ),
        ("adversarial-ids", base.clone().with_layout(NodeLayout::Adversarial)),
        ("flash-crowd", base.clone().with_flash_crowd(base.peers / 8)),
        (
            // A quarter of the peers run at 4x delay, and a scaled reply
            // draw above 10 units misses the caller's patience — so probes
            // into the slow class genuinely time out and retry, instead of
            // the axis being pure (invisible-in-KS) delay scaling.
            "capacity-skew",
            base.clone().with_capacity(CapacitySpec { slow_pm: 250, factor: 4, deadline: 10 }),
        ),
        ("arc-partition", base.with_partition(PartitionSpec { start_pm: 550, span_pm: 150 })),
    ]
}

/// Builds figure F13's table.
pub fn f13_adversarial(scale: Scale) -> Vec<Table> {
    let axes = axis_sweep(scale);
    let k = default_probes(scale);
    let dfdde = DfDde::new(DfDdeConfig::with_probes(k));
    let gossip = GossipAggregation::new(GossipConfig::default());
    let walk =
        RandomWalkSampling::new(RandomWalkConfig { peers: k, ..RandomWalkConfig::default() });
    let mut plan = ExecPlan::new();
    for (_, scenario) in &axes {
        let methods: [&dyn DensityEstimator; 3] = [&dfdde, &gossip, &walk];
        for est in methods {
            plan.push(move || aggregate_cell(scenario, est, scale.repeats()));
        }
    }
    let results = plan.run();
    let mut t = Table::new(
        format!("F13: adversarial & heterogeneous axes (k = {k}, one axis on per row)"),
        &["axis", "df-dde ks", "±std", "ok/k", "msgs", "gossip ks", "walk ks"],
    );
    for (i, (label, _)) in axes.iter().enumerate() {
        let cell = |j: usize| &results[i * 3 + j].value;
        let (df, go, wa) = (cell(0), cell(1), cell(2));
        t.push_row(vec![
            (*label).into(),
            f(df.ks_mean),
            f(df.ks_std),
            f(df.probes_ok_mean / k as f64),
            f(df.messages_mean),
            f(go.ks_mean),
            f(wa.ks_mean),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::assert::KsBand;

    #[test]
    fn f13_dfdde_holds_its_dkw_band_on_every_connected_axis() {
        let t = &f13_adversarial(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 6);
        let col = |row: usize, c: usize| -> f64 { t.rows[row][c].parse().unwrap() };
        let k = default_probes(Scale::Quick);
        // One DKW band per connected axis: sampling noise of a k-probe
        // estimate at α = 1e-3, plus the axis's systematic budget (summary
        // quantization, crowd-churned arcs).
        for (row, systematic) in [(0usize, 0.05), (1, 0.06), (2, 0.08), (3, 0.06), (4, 0.06)] {
            KsBand::new(k, 1e-3)
                .with_systematic(systematic)
                .assert(&format!("f13 df-dde @ {}", t.rows[row][0]), col(row, 1));
        }
        // The partition cuts a 15%-of-ring arc: probes into it are lost
        // (ok/k strictly below 1) and accuracy genuinely degrades — an
        // unreachable arc's mass is irreducible bias, and a repeat whose
        // initiator sits *inside* the arc sees only the minority side. The
        // row documents the damage rather than promising a band.
        assert!(col(5, 3) < 0.999, "partition lost no probes: ok/k = {}", col(5, 3));
        assert!(
            col(5, 1) > col(0, 1) && col(5, 1) < 1.0,
            "partitioned df-dde ks = {} (baseline {})",
            col(5, 1),
            col(0, 1)
        );
        // Adversarial placement decorrelates arc length from data share:
        // DF-DDE's correction absorbs it, the equal-weight walk does not.
        assert!(
            col(2, 1) < col(2, 6),
            "df-dde {} should beat the walk {} under adversarial ids",
            col(2, 1),
            col(2, 6)
        );
    }
}
