//! F12 — the mega-scale regime: accuracy and cost from 10³ to 10⁶ peers.
//!
//! The scalability claim, pushed to its edge: with items ∝ P, a fixed probe
//! budget `k` should hold its DKW accuracy band **unchanged** across three
//! decades of network size while per-estimate cost grows only as
//! `k·O(log P)` routing hops. The aggregation baselines bracket it from both
//! sides — gossip pays `O(rounds·P)` messages for near-exact accuracy (and
//! becomes infeasible long before 10⁶), the Metropolis–Hastings walk pays
//! `O(burn_in + k·gap)` steps for equal-weight-biased samples.
//!
//! Mega-scale cells lean on the scale paths this crate provides:
//! `Network::build_bulk` wires the ring in `O(P·log P)` without per-join
//! stabilization, the arena keeps per-peer routing state allocation-free,
//! and the realized-data score reads the stores in place
//! ([`dde_ring::Network::live_values`]), so even the 2·10⁷-item cell holds
//! its dataset once, in the ring's load buffer.

use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use crate::scenario::Scenario;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, GossipAggregation, GossipConfig, RandomWalkConfig,
    RandomWalkSampling,
};
/// Items per peer: the dataset grows with the network, as real deployments
/// do, so every size is measured at the same per-peer load.
pub const ITEMS_PER_PEER: usize = 20;

/// Fixed probe budget. Holding `k` constant across the sweep is the point:
/// accuracy depends on sampled mass, not on `P`, so only hop cost may grow.
pub const PROBES: usize = 64;

/// Largest `P` gossip runs at, per scale. Push-Sum costs `rounds·P`
/// histogram messages *per estimate*; at 10⁶ peers that is ~5·10⁷ messages
/// per repeat — the infeasibility this figure documents. Rows above the cap
/// print a `skipped` marker with the modeled cost. The quick suite caps at
/// 10³ so smoke tests stay in seconds; the full sweep measures through 10⁵.
fn gossip_cap(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1_000,
        Scale::Full => 100_000,
    }
}

/// Repeats per cell, both scales. A 10⁶-peer cell costs as much as a whole
/// quick suite; three repeats bound the noise without owning the night.
const REPEATS: usize = 3;

/// Network sizes swept: three decades at full scale.
fn scale_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1_000, 10_000],
        Scale::Full => vec![1_000, 10_000, 100_000, 1_000_000],
    }
}

/// The scenario for one sweep point: the T1 default workload (skewed Zipf
/// data under range placement — every [`dde_stats::dist::DistributionKind`]
/// carries a closed-form CDF, so the analytic truth path has an exact
/// generator to stream against), with only the size axis varied: items ∝ P.
pub fn scale_scenario(p: usize) -> Scenario {
    Scenario::default().with_peers(p).with_items(p * ITEMS_PER_PEER)
}

/// Gossip rounds at size `p`: `2·log₂(P) + 10` is comfortably converged
/// (see [`GossipConfig`]).
fn gossip_rounds(p: usize) -> usize {
    2 * (usize::BITS - 1 - p.max(2).leading_zeros()) as usize + 10
}

/// Builds figure F12's series.
pub fn f12_scale(scale: Scale) -> Vec<Table> {
    let sizes = scale_sweep(scale);
    let mut t = Table::new(
        format!("F12: mega-scale sweep, items = {ITEMS_PER_PEER}·P (k = {PROBES})"),
        &["P", "items", "method", "ks(gen)", "±std", "msgs", "KB", "hops/lookup"],
    );
    // One plan per size: cells stay independent (so `jobs = N` replays
    // `jobs = 1` exactly), and each decade reports progress as it lands —
    // a 10⁶ cell runs for tens of seconds and deserves a heartbeat.
    for &p in &sizes {
        let scenario = scale_scenario(p);
        let mut estimators: Vec<Box<dyn DensityEstimator>> =
            vec![Box::new(DfDde::new(DfDdeConfig::with_probes(PROBES)))];
        if p <= gossip_cap(scale) {
            estimators.push(Box::new(GossipAggregation::new(GossipConfig {
                rounds: gossip_rounds(p),
                ..GossipConfig::default()
            })));
        }
        estimators.push(Box::new(RandomWalkSampling::new(RandomWalkConfig {
            peers: PROBES,
            ..RandomWalkConfig::default()
        })));
        let mut plan = ExecPlan::new();
        for est in estimators {
            let s = &scenario;
            plan.push(move || aggregate_cell(s, est.as_ref(), REPEATS));
        }
        let results = plan.run();
        let cell_time: f64 = results.iter().map(|r| r.elapsed.as_secs_f64()).sum();
        eprintln!("[f12] P = {p}: {} cells, {cell_time:.2}s cell time", results.len());
        let mut rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                let a = &r.value;
                vec![
                    p.to_string(),
                    (p * ITEMS_PER_PEER).to_string(),
                    a.method.into(),
                    f(a.ks_mean),
                    f(a.ks_std),
                    f(a.messages_mean),
                    f(a.bytes_mean / 1024.0),
                    f(a.hops_mean),
                ]
            })
            .collect();
        // Keep the method order fixed even where gossip is excluded.
        if p > gossip_cap(scale) {
            rows.push(gossip_excluded_row(p));
        }
        rows.sort_by_key(|r| method_rank(&r[2]));
        for row in rows {
            t.push_row(row);
        }
    }
    vec![t]
}

/// Canonical method order within a size block.
fn method_rank(method: &str) -> usize {
    match method {
        "df-dde" => 0,
        "gossip" => 1,
        _ => 2,
    }
}

/// The placeholder row for a size where gossip is out of budget.
fn gossip_excluded_row(p: usize) -> Vec<String> {
    let cost = gossip_rounds(p) as u64 * p as u64;
    vec![
        p.to_string(),
        (p * ITEMS_PER_PEER).to_string(),
        "gossip".into(),
        "-".into(),
        "-".into(),
        format!("(~{cost:.0e} skipped)"),
        "-".into(),
        "-".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::assert::KsBand;

    #[test]
    fn f12_dfdde_stays_in_band_while_cost_grows_sublinearly() {
        let t = &f12_scale(Scale::Quick)[0];
        // 2 sizes × 3 methods, df-dde first in each block.
        assert_eq!(t.rows.len(), 6);
        let col = |row: usize, c: usize| -> f64 { t.rows[row][c].parse().unwrap() };
        for (row, p) in [(0usize, 1_000), (3, 10_000)] {
            assert_eq!(t.rows[row][0], p.to_string());
            assert_eq!(t.rows[row][1], (p * ITEMS_PER_PEER).to_string());
            assert_eq!(t.rows[row][2], "df-dde");
            // DKW band of a k-probe estimate at α = 1e-3, plus the systematic
            // budget of 8-bucket summaries over the skewed default workload —
            // the *same* band at every P is the scale-invariance claim.
            KsBand::new(PROBES, 1e-3)
                .with_systematic(0.06)
                .assert(&format!("f12 df-dde @ P = {p}"), col(row, 3));
        }
        // 10× more peers: df-dde pays only the extra routing hops
        // (k·O(log P)), nowhere near 10×.
        let dfdde_ratio = col(3, 5) / col(0, 5);
        assert!(dfdde_ratio < 3.0, "df-dde msgs grew {dfdde_ratio:.2}× for 10× peers");
        assert!(col(3, 7) > col(0, 7), "hops/lookup must grow with log P");
        // Gossip's cost model is exact — rounds·P messages per estimate —
        // which is what prices it out of the upper decades.
        let gossip_msgs = col(1, 5);
        assert_eq!(t.rows[1][2], "gossip");
        assert_eq!(gossip_msgs, (gossip_rounds(1_000) * 1_000) as f64);
        assert!(gossip_msgs > col(0, 5) * 10.0, "gossip must dwarf df-dde");
        // Above the quick cap the row documents the modeled cost instead.
        assert_eq!(t.rows[4][2], "gossip");
        assert!(t.rows[4][5].contains("skipped"), "{:?}", t.rows[4][5]);
    }

    #[test]
    fn f12_full_sweep_caps_gossip_and_keeps_method_order() {
        let sizes = scale_sweep(Scale::Full);
        assert_eq!(sizes, vec![1_000, 10_000, 100_000, 1_000_000]);
        assert!(sizes.iter().filter(|&&p| p > gossip_cap(Scale::Full)).count() == 1);
        let row = gossip_excluded_row(1_000_000);
        assert_eq!(row[2], "gossip");
        assert!(row[5].contains("skipped"), "{:?}", row[5]);
        // Rounds grow with log P.
        assert!(gossip_rounds(1_000_000) > gossip_rounds(1_000));
        assert_eq!(gossip_rounds(1_024), 30);
    }
}
