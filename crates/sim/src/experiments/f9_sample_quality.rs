//! F9 — Phase-2 sample quality: the inversion-method claim.
//!
//! The abstract: the model "generates random samples for any arbitrary
//! distribution by sampling the global cumulative distribution function and
//! is free from sampling bias". This experiment scores the two Phase-2
//! flavours directly — the KS distance of the *generated samples'* empirical
//! CDF to the generating distribution:
//!
//! * **synthetic** — `F̂⁻¹(u)` evaluated locally on the skeleton (free);
//! * **remote** — real tuples fetched from the peers owning the sampled
//!   quantiles (`m·O(log P)` extra messages), which additionally cannot
//!   invent values that don't exist.
//!
//! Expected shape: both track the skeleton's own accuracy; error decreases
//! with `m` until the skeleton error floor (Phase-1's `k` limits Phase-2).

use super::t1_defaults::{default_probes, default_scenario};
use super::Scale;
use crate::build::build;
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use dde_core::{DensityEstimator, DfDde, DfDdeConfig, SampleMode};
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;

/// Sample counts swept.
fn sample_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![50, 400],
        Scale::Full => vec![50, 100, 200, 400, 800],
    }
}

/// Builds figure F9's series.
pub fn f9_sample_quality(scale: Scale) -> Vec<Table> {
    type RunScores = (f64, Option<f64>, f64, f64);
    let scenario = default_scenario(scale);
    let k = default_probes(scale);
    let mut t = Table::new(
        format!("F9: Phase-2 sample quality vs m (k = {k}; KS of sample ECDF vs generator)"),
        &["m", "synthetic ks", "remote ks", "remote msgs extra", "skeleton ks (floor)"],
    );
    let sweep = sample_sweep(scale);
    let repeats = scale.repeats();
    // One cell per (m, run); each returns this run's raw scores.
    let mut plan = ExecPlan::new();
    for &m in &sweep {
        for run in 0..repeats {
            let scenario = &scenario;
            plan.push(move || {
                let mut built = build(scenario);
                let seq = SeedSequence::new(scenario.seed ^ 0xF9);
                let mut rng = seq.stream(Component::Estimator, (run * 100 + m) as u64);
                let initiator = built.net.random_peer(&mut rng).expect("nonempty");

                // Skeleton-only estimate (shared Phase 1 cost baseline).
                let base = DfDde::new(DfDdeConfig::with_probes(k))
                    .estimate(&mut built.net, initiator, &mut rng)
                    .expect("estimates");
                let floor = base.estimate.ks_to(built.truth.as_ref());

                // Synthetic samples from that skeleton.
                let synthetic = base.estimate.synthesize_samples(m, &mut rng);
                let syn = Ecdf::new(synthetic).ks_distance_to(built.truth.as_ref());

                // Remote tuples (fresh run including Phase 2).
                let remote = DfDde::new(DfDdeConfig {
                    sample_mode: SampleMode::RemoteTuples { m },
                    ..DfDdeConfig::with_probes(k)
                })
                .estimate(&mut built.net, initiator, &mut rng)
                .expect("estimates");
                let tuples = remote.estimate.samples().to_vec();
                let rem = (!tuples.is_empty())
                    .then(|| Ecdf::new(tuples).ks_distance_to(built.truth.as_ref()));
                let extra = remote.messages().saturating_sub(base.messages()) as f64;
                (syn, rem, extra, floor)
            });
        }
    }
    let results = plan.run();
    for (i, m) in sweep.iter().enumerate() {
        let runs = &results[i * repeats..(i + 1) * repeats];
        let mean = |g: &dyn Fn(&RunScores) -> f64| {
            runs.iter().map(|r| g(&r.value)).sum::<f64>() / repeats as f64
        };
        let syn = mean(&|v| v.0);
        // Runs whose remote phase returned no tuples contribute 0, exactly
        // as the serial accumulation did.
        let rem = mean(&|v| v.1.unwrap_or(0.0));
        let extra = mean(&|v| v.2);
        let floor = mean(&|v| v.3);
        t.push_row(vec![m.to_string(), f(syn), f(rem), f(extra), f(floor)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f9_samples_track_the_generator() {
        let t = &f9_sample_quality(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let syn: f64 = row[1].parse().unwrap();
            let rem: f64 = row[2].parse().unwrap();
            assert!(syn < 0.25, "synthetic samples off at m={}: {syn}", row[0]);
            assert!(rem < 0.3, "remote tuples off at m={}: {rem}", row[0]);
        }
        // Remote sampling costs extra messages; synthetic is free.
        let extra: f64 = t.rows[1][3].parse().unwrap();
        assert!(extra > 0.0, "remote sampling must cost messages");
    }
}
