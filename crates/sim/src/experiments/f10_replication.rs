//! F10 (extension) — replication vs crash storms: data survival and
//! maintenance overhead as the replication factor grows.
//!
//! Without replication, every crash permanently deletes a contiguous value
//! range — what F5 measures the estimator against. With successor-list
//! replication (factor `r`), data dies only when `r+1` *adjacent* peers
//! crash within one repair window. Expected shape: survival climbs steeply
//! with `r` (≈ exponentially in the adjacent-crash probability), while
//! maintenance traffic grows ~linearly with `r`.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use dde_ring::{ChurnConfig, ChurnProcess, MessageKind};
use dde_stats::rng::{Component, SeedSequence};

/// Replication factors swept.
fn replication_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![0, 2],
        Scale::Full => vec![0, 1, 2, 3],
    }
}

/// Builds figure F10's series.
pub fn f10_replication(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let fail_rate = 0.04;
    let duration = 8.0;
    let repeats = scale.repeats().min(4);
    let mut t = Table::new(
        format!(
            "F10: data survival vs replication r (crash-only churn {fail_rate}/peer/unit for \
             {duration} units, {repeats} repeats)"
        ),
        &["r", "survival", "replicate msgs", "replicate KB"],
    );
    let sweep = replication_sweep(scale);
    // One cell per (r, repeat): each crash-storm realization is independent.
    let mut plan = ExecPlan::new();
    for &r in &sweep {
        for rep in 0..repeats {
            let scenario = &scenario;
            plan.push(move || {
                let mut built = build(scenario);
                built.net.set_replication(r);
                let before_items = built.net.total_items();
                let seq = SeedSequence::new(scenario.seed ^ 0xF10);
                let mut churn_rng = seq.stream(Component::Churn, rep as u64);
                let cfg = ChurnConfig {
                    join_rate: 0.0,
                    leave_rate: 0.0,
                    fail_rate,
                    stabilize_period: 0.5,
                };
                let stats_before = built.net.stats().clone();
                let mut churn = ChurnProcess::new(cfg);
                churn.run(&mut built.net, duration, &mut churn_rng);
                // Settle: let promotion finish.
                for _ in 0..6 {
                    built.net.stabilize_round();
                }
                let delta = built.net.stats().since(&stats_before);
                (
                    built.net.total_items() as f64 / before_items as f64,
                    delta.count(MessageKind::Replicate) as f64,
                    delta.total_bytes() as f64 / 1024.0,
                )
            });
        }
    }
    let results = plan.run();
    for (i, r) in sweep.iter().enumerate() {
        let runs = &results[i * repeats..(i + 1) * repeats];
        let mean = |g: &dyn Fn(&(f64, f64, f64)) -> f64| {
            runs.iter().map(|c| g(&c.value)).sum::<f64>() / repeats as f64
        };
        t.push_row(vec![r.to_string(), f(mean(&|v| v.0)), f(mean(&|v| v.1)), f(mean(&|v| v.2))]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f10_replication_rescues_data() {
        let t = &f10_replication(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        let surv_0: f64 = t.rows[0][1].parse().unwrap();
        let surv_2: f64 = t.rows[1][1].parse().unwrap();
        assert!(surv_0 < 0.9, "r=0 must lose data in a crash storm: {surv_0}");
        assert!(surv_2 > 0.99, "r=2 should survive nearly everything: {surv_2}");
        // Replication costs messages that r=0 does not pay.
        let msgs_0: f64 = t.rows[0][2].parse().unwrap();
        let msgs_2: f64 = t.rows[1][2].parse().unwrap();
        assert_eq!(msgs_0, 0.0);
        assert!(msgs_2 > 0.0);
    }
}
