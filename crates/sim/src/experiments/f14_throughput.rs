//! F14 — heavy-traffic serving: latency, throughput, and the cost of
//! keeping an estimate fresh under load.
//!
//! The paper's experiments measure estimation in a quiet network; a serving
//! deployment estimates *while* handling foreground traffic. F14 drives the
//! open-loop engine ([`crate::workload`]) through a rate sweep and a mix
//! sweep, each cell run twice: **plain** (per-op routing, dedicated probes
//! only — what the paper's accounting implies) and **serving** (same-origin
//! batched routing + probe piggybacking). The claims this figure records:
//!
//! * routing optimizations change *charges only* — throughput, failure
//!   counts, and the exact hop-latency percentiles are identical between
//!   modes (the equivalence suite pins this bit-exactly);
//! * piggybacking displaces the majority of dedicated probe messages once
//!   foreground traffic is dense enough to visit most strata between
//!   refreshes — ≥ 50 % at the mid rate point, asserted in-suite at both
//!   scales — while the estimate stays inside the same DKW accuracy band;
//! * estimate staleness seen by readers is bounded by the refresh interval
//!   and independent of load (open-loop arrivals never starve the
//!   refresher in this structural simulator).
//!
//! The nightly workflow diffs `ring-dde expts --full f14` against
//! `crates/sim/tests/golden/full/f14.txt`; ringbench's `serve` workload
//! times the same serving path.

use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::scenario::Scenario;
use crate::workload::{run_workload, OpMix, WorkloadReport, WorkloadSpec};

/// Phase-1 probes per refresh. Smaller than f12's 64: a serving refresh
/// happens every couple of virtual seconds, so the budget is per-cycle.
pub const PROBES: usize = 48;

/// Virtual seconds of traffic per run.
pub fn duration(scale: Scale) -> f64 {
    match scale {
        Scale::Quick => 6.0,
        Scale::Full => 12.0,
    }
}

/// The open-loop arrival rates swept (ops per virtual second).
fn rate_sweep(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![50.0, 200.0, 800.0],
        Scale::Full => vec![100.0, 400.0, 1600.0],
    }
}

/// The mid rate point — where the ≥ 50 % piggyback displacement claim is
/// asserted (low rates legitimately cover fewer strata per cycle).
fn mid_rate(scale: Scale) -> f64 {
    let rates = rate_sweep(scale);
    rates[rates.len() / 2]
}

/// Foreground mixes swept at the mid rate: insert-heavy ingest, the
/// lookup-heavy serving default, and a read-heavy mix where half the ops
/// consult the estimate.
fn mix_sweep() -> Vec<OpMix> {
    vec![OpMix::new(600, 300), OpMix::new(200, 700), OpMix::new(50, 450)]
}

/// The serving scenario: a mid-size ring with the default skewed workload.
fn f14_scenario(scale: Scale) -> Scenario {
    match scale {
        Scale::Quick => Scenario::default().with_peers(64).with_items(5_000).with_seed(1401),
        Scale::Full => Scenario::default().with_peers(256).with_items(20_000).with_seed(1401),
    }
}

/// The spec for one cell.
fn f14_spec(rate: f64, mix: OpMix, serving: bool, scale: Scale) -> WorkloadSpec {
    WorkloadSpec {
        rate,
        duration: duration(scale),
        mix,
        probes: PROBES,
        batch: serving,
        piggyback: serving,
        ..WorkloadSpec::default()
    }
}

/// A cell's repeat-averaged measurements (all means over the repeat block).
struct CellAvg {
    throughput: f64,
    hop_p50: f64,
    hop_p95: f64,
    hop_p99: f64,
    staleness: f64,
    est_ks: f64,
    dedicated_probes: f64,
    piggyback_msgs: f64,
    lookup_hop_msgs: f64,
}

/// Runs one cell: `repeats` independent serving runs, averaged.
fn run_cell(scenario: &Scenario, spec: &WorkloadSpec, repeats: usize) -> CellAvg {
    let built = build(scenario);
    let reports: Vec<WorkloadReport> =
        (0..repeats).map(|r| run_workload(&built, spec, r as u64)).collect();
    let n = reports.len() as f64;
    let mean = |get: &dyn Fn(&WorkloadReport) -> f64| reports.iter().map(get).sum::<f64>() / n;
    CellAvg {
        throughput: mean(&|r| r.throughput),
        hop_p50: mean(&|r| r.hop_p50),
        hop_p95: mean(&|r| r.hop_p95),
        hop_p99: mean(&|r| r.hop_p99),
        staleness: mean(&|r| r.mean_staleness),
        est_ks: mean(&|r| r.est_ks),
        dedicated_probes: mean(&|r| r.dedicated_probes as f64),
        piggyback_msgs: mean(&|r| r.piggyback_msgs as f64),
        lookup_hop_msgs: mean(&|r| r.lookup_hop_msgs as f64),
    }
}

/// One table row; `save` is the dedicated-probe displacement vs the plain
/// cell of the same sweep point (serving rows only).
fn row(label: &str, mode: &str, a: &CellAvg, save: Option<f64>) -> Vec<String> {
    vec![
        label.to_string(),
        mode.to_string(),
        f(a.throughput),
        f(a.hop_p50),
        f(a.hop_p95),
        f(a.hop_p99),
        f(a.staleness),
        f(a.est_ks),
        f(a.dedicated_probes),
        f(a.piggyback_msgs),
        f(a.lookup_hop_msgs),
        match save {
            Some(s) => format!("{:.0}%", s * 100.0),
            None => "-".into(),
        },
    ]
}

const COLUMNS: &[&str] = &[
    "point",
    "mode",
    "thpt",
    "p50",
    "p95",
    "p99",
    "stale",
    "est.ks",
    "ded.probes",
    "piggy",
    "hop.msgs",
    "pb.save",
];

/// Builds figure F14's tables: the rate sweep (serving mix) and the mix
/// sweep (mid rate).
pub fn f14_throughput(scale: Scale) -> Vec<Table> {
    let repeats = scale.repeats();
    let scenario = f14_scenario(scale);
    let serving_mix = OpMix::new(200, 700);

    let rates = rate_sweep(scale);
    let mut t1 = Table::new(
        format!("F14a: open-loop rate sweep, mix 200/700/100‰ i/l/e (k = {PROBES}, refresh 2s)"),
        COLUMNS,
    );
    let mut plan = ExecPlan::new();
    for &rate in &rates {
        for serving in [false, true] {
            let s = &scenario;
            plan.push(move || run_cell(s, &f14_spec(rate, serving_mix, serving, scale), repeats));
        }
    }
    let results = plan.run();
    for (i, &rate) in rates.iter().enumerate() {
        let plain = &results[2 * i].value;
        let serving = &results[2 * i + 1].value;
        let save = 1.0 - serving.dedicated_probes / plain.dedicated_probes.max(1.0);
        let label = format!("{rate:.0}/s");
        t1.push_row(row(&label, "plain", plain, None));
        t1.push_row(row(&label, "serving", serving, Some(save)));
    }

    let mixes = mix_sweep();
    let rate = mid_rate(scale);
    let mut t2 = Table::new(
        format!("F14b: mix sweep at {rate:.0} ops/s (k = {PROBES}, per-mille i/l/e)"),
        COLUMNS,
    );
    let mut plan = ExecPlan::new();
    for &mix in &mixes {
        for serving in [false, true] {
            let s = &scenario;
            plan.push(move || run_cell(s, &f14_spec(rate, mix, serving, scale), repeats));
        }
    }
    let results = plan.run();
    for (i, mix) in mixes.iter().enumerate() {
        let plain = &results[2 * i].value;
        let serving = &results[2 * i + 1].value;
        let save = 1.0 - serving.dedicated_probes / plain.dedicated_probes.max(1.0);
        let label = format!("{}/{}/{}", mix.insert_pm, mix.lookup_pm, mix.estimate_pm());
        t2.push_row(row(&label, "plain", plain, None));
        t2.push_row(row(&label, "serving", serving, Some(save)));
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::assert::KsBand;

    fn col(t: &Table, row: usize, c: usize) -> f64 {
        t.rows[row][c].parse().unwrap()
    }

    /// The acceptance bar at one mid-rate point, over `[est.ks, ded.probes,
    /// piggy, hop.msgs]` of its plain and serving cells: piggybacking
    /// displaces at least half of the dedicated probe messages, while both
    /// estimates stay inside the DKW band of a k-probe estimate (α = 1e-3)
    /// plus the systematic budget of 8-bucket summaries over the skewed
    /// default workload and the live inserts accrued since the last refresh.
    fn assert_acceptance_bar(point: &str, plain: [f64; 4], serving: [f64; 4]) {
        let [_, ded_plain, _, hops_plain] = plain;
        let [_, ded_serving, piggy, hops_serving] = serving;
        assert!(
            ded_serving <= 0.5 * ded_plain,
            "{point}: piggybacking must cut dedicated probes ≥ 50%: {ded_serving} vs {ded_plain}"
        );
        assert!(piggy > 0.0, "{point}: piggybacked replies must flow");
        for (mode, [ks, ..]) in [("plain", plain), ("serving", serving)] {
            KsBand::new(PROBES, 1e-3)
                .with_systematic(0.08)
                .assert(&format!("f14 {point} {mode} est"), ks);
        }
        // Batched routing also amortizes foreground hop charges.
        assert!(hops_serving < hops_plain, "{point}: batch dedup must drop hop msgs");
    }

    #[test]
    fn f14_piggyback_displaces_dedicated_probes_within_the_dkw_band() {
        let tables = f14_throughput(Scale::Quick);
        let t1 = &tables[0];
        assert_eq!(t1.rows.len(), 2 * rate_sweep(Scale::Quick).len());
        let mid =
            rate_sweep(Scale::Quick).iter().position(|&r| r == mid_rate(Scale::Quick)).unwrap();
        let (plain, serving) = (2 * mid, 2 * mid + 1);
        assert_eq!(t1.rows[plain][1], "plain");
        assert_eq!(t1.rows[serving][1], "serving");
        let bar = |r: usize| [7, 8, 9, 10].map(|c| col(t1, r, c));
        assert_acceptance_bar("quick", bar(plain), bar(serving));

        // The full-scale mid-rate point, run 0 of its serving mix.
        let scale = Scale::Full;
        let scenario = f14_scenario(scale);
        let cell = |serving| {
            let spec = f14_spec(mid_rate(scale), OpMix::new(200, 700), serving, scale);
            let a = run_cell(&scenario, &spec, 1);
            [a.est_ks, a.dedicated_probes, a.piggyback_msgs, a.lookup_hop_msgs]
        };
        assert_acceptance_bar("full", cell(false), cell(true));
    }

    #[test]
    fn f14_modes_serve_identical_traffic_and_load_scales_throughput() {
        let tables = f14_throughput(Scale::Quick);
        let t1 = &tables[0];
        let rates = rate_sweep(Scale::Quick);
        for (i, rate) in rates.iter().enumerate() {
            // Same completed work and identical latency profile per mode:
            // the optimizations change message charges, not behaviour.
            for c in [2, 3, 4, 5] {
                assert_eq!(
                    t1.rows[2 * i][c],
                    t1.rows[2 * i + 1][c],
                    "rate {rate} col {c} must match across modes"
                );
            }
            // Staleness stays bounded by the refresh interval at every load.
            assert!(col(t1, 2 * i, 6) <= 2.0);
        }
        // Open loop: offered load is served load in the structural simulator.
        assert!(col(t1, 2, 2) > col(t1, 0, 2));
        assert!(col(t1, 4, 2) > col(t1, 2, 2));
        // The mix sweep covers ingest-, serving-, and read-heavy traffic.
        let t2 = &tables[1];
        assert_eq!(t2.rows.len(), 2 * mix_sweep().len());
        assert_eq!(t2.rows[0][0], "600/300/100");
        assert_eq!(t2.rows[2][0], "200/700/100");
        assert_eq!(t2.rows[4][0], "50/450/500");
    }
}
