//! F6 — probe-summary granularity: equi-depth buckets vs accuracy vs bytes.
//!
//! Summary granularity matters exactly when density varies *inside a single
//! peer's arc*: with `b = 1` the skeleton interpolates linearly across each
//! probed peer, smearing any feature narrower than an arc. The sweep
//! therefore runs on a narrow-spike workload (σ smaller than one arc) with
//! few peers and enough probes to reach all of them, isolating within-arc
//! resolution; on smooth workloads with many peers, `b` barely matters
//! (which T1's default `b = 8` already exploits).
//!
//! Expected shape: accuracy improves from `b = 1` until buckets resolve the
//! spike, then saturates, while reply bytes grow linearly with `b`.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate_cell;
use dde_core::{DfDde, DfDdeConfig};
use dde_stats::dist::DistributionKind;

/// Bucket counts swept.
fn bucket_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1, 8, 32],
        Scale::Full => vec![1, 2, 4, 8, 16, 32, 64],
    }
}

/// Builds figure F6's series.
pub fn f6_summary_granularity(scale: Scale) -> Vec<Table> {
    // Few wide peers + ALL the mass in a spike narrower than one arc
    // (σ = 0.4% of the domain vs mean arcs of ~3%): within-peer resolution
    // is the whole error budget, because k = 2P probes reach every peer.
    let peers = 32;
    let k = 64;
    let spike = DistributionKind::Normal { center_frac: 0.5, std_frac: 0.004 };
    let mut t = Table::new(
        format!("F6: accuracy vs summary granularity b (narrow-spike data, P = {peers}, k = {k})"),
        &["buckets b", "ks(gen)", "±std", "KB per estimate"],
    );
    let buckets = bucket_sweep(scale);
    let mut plan = ExecPlan::new();
    for &b in &buckets {
        let spike = spike.clone();
        plan.push(move || {
            let scenario = default_scenario(scale)
                .with_peers(peers)
                .with_distribution(spike)
                .with_summary_buckets(b);
            aggregate_cell(&scenario, &DfDde::new(DfDdeConfig::with_probes(k)), scale.repeats())
        });
    }
    let results = plan.run();
    for (b, r) in buckets.iter().zip(&results) {
        let a = &r.value;
        t.push_row(vec![b.to_string(), f(a.ks_mean), f(a.ks_std), f(a.bytes_mean / 1024.0)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f6_more_buckets_more_bytes_better_accuracy() {
        let t = &f6_summary_granularity(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 3);
        let ks_1: f64 = t.rows[0][1].parse().unwrap();
        let ks_32: f64 = t.rows[2][1].parse().unwrap();
        let kb_1: f64 = t.rows[0][3].parse().unwrap();
        let kb_32: f64 = t.rows[2][3].parse().unwrap();
        assert!(ks_32 < ks_1, "finer summaries must resolve the spike: b=1 {ks_1} vs b=32 {ks_32}");
        assert!(kb_32 > kb_1, "bytes must grow with granularity");
    }
}
