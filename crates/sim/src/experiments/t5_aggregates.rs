//! T5 (extension) — global aggregate queries from the same probe round:
//! relative error of COUNT / SUM / AVG / VAR and a range COUNT, vs `k`, all
//! read off one DF-DDE estimate.
//!
//! The abstract motivates the estimator with "load balancing analysis, query
//! processing, and data mining"; aggregates are the query-processing
//! workhorse. Expected shape: every aggregate's relative error decays with
//! `k` like the CDF error does (same Horvitz–Thompson machinery), with AVG
//! (a ratio, so peer-level noise partially cancels) the most accurate.

use super::t1_defaults::default_scenario;
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
use dde_stats::metrics::relative_error;
use dde_stats::rng::{Component, SeedSequence};

/// Probe budgets swept.
pub fn probe_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![32, 128],
        Scale::Full => vec![16, 32, 64, 128, 256, 512],
    }
}

/// Builds table T5.
pub fn t5_aggregates(scale: Scale) -> Vec<Table> {
    let scenario = default_scenario(scale);
    let (dlo, dhi) = scenario.domain;
    let (qlo, qhi) = (dlo + 0.1 * (dhi - dlo), dlo + 0.3 * (dhi - dlo));
    let sweep = probe_sweep(scale);
    let repeats = scale.repeats();

    // One cell per (k, run). Each cell builds its own network and derives
    // the exact references from it — the build is seed-deterministic, so
    // every cell sees the same references the shared build used to provide.
    let mut plan = ExecPlan::new();
    for &k in &sweep {
        for run in 0..repeats {
            let scenario = &scenario;
            plan.push(move || {
                let mut built = build(scenario);
                let vals = built.net.live_values();
                let n = vals.len() as f64;
                let sum: f64 = vals.iter().sum();
                let mean = sum / n;
                let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                let range_exact = vals.iter().filter(|&&x| (qlo..=qhi).contains(&x)).count() as f64;

                let seq = SeedSequence::new(scenario.seed ^ 0x75);
                let mut rng = seq.stream(Component::Estimator, (run * 1000 + k) as u64);
                let initiator = built.net.random_peer(&mut rng).expect("nonempty");
                let rep = DfDde::new(DfDdeConfig::with_probes(k))
                    .estimate(&mut built.net, initiator, &mut rng)
                    .expect("estimates");
                let (count, sum_hat, mean_hat, var_hat) =
                    rep.aggregates().expect("DF-DDE estimates N̂ and both sums");
                [
                    relative_error(count, n),
                    relative_error(sum_hat, sum),
                    relative_error(mean_hat, mean),
                    relative_error(var_hat, var),
                    relative_error(count * rep.estimate.selectivity(qlo, qhi), range_exact),
                ]
            });
        }
    }
    let results = plan.run();

    let mut t = Table::new(
        format!("T5: aggregate-query relative error vs k (range count over [{qlo:.0}, {qhi:.0}])"),
        &["k", "COUNT", "SUM", "AVG", "VAR", "range COUNT"],
    );
    for (i, k) in sweep.iter().enumerate() {
        let mut errs = [0.0f64; 5];
        for r in &results[i * repeats..(i + 1) * repeats] {
            for (e, v) in errs.iter_mut().zip(r.value) {
                *e += v / repeats as f64;
            }
        }
        t.push_row(vec![k.to_string(), f(errs[0]), f(errs[1]), f(errs[2]), f(errs[3]), f(errs[4])]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t5_errors_shrink_with_k() {
        let t = &t5_aggregates(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        // COUNT and SUM are direct HT estimates: more probes must not make
        // them clearly worse. (AVG/VAR are ratios of noisy quantities — at 3
        // repeats their per-point noise exceeds the trend, so they only get
        // the absolute bound below.)
        for col in 1..=2 {
            let small: f64 = t.rows[0][col].parse().unwrap();
            let large: f64 = t.rows[1][col].parse().unwrap();
            assert!(
                large <= small * 1.5 + 0.02,
                "column {col} regressed with k: {small} -> {large}"
            );
        }
        // At k = 128, every aggregate is within 15%.
        for col in 1..=5 {
            let e: f64 = t.rows[1][col].parse().unwrap();
            assert!(e < 0.15, "column {col} error {e} too large at k=128");
        }
    }
}
