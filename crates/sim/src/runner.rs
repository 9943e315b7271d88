//! Running estimators against built scenarios and aggregating repeats.

use crate::build::BuiltScenario;
use dde_core::{DensityEstimator, EstimateError};
use dde_stats::metrics;
use dde_stats::rng::{Component, SeedSequence};

/// Metrics of one estimation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Estimator name.
    pub method: &'static str,
    /// KS distance to the generating distribution.
    pub ks_vs_generator: f64,
    /// KS distance to the data the ring holds when the run is scored
    /// ([`dde_ring::Network::live_values`]; excludes dataset noise).
    pub ks_vs_data: f64,
    /// Messages sent by this run.
    pub messages: u64,
    /// Bytes moved by this run.
    pub bytes: u64,
    /// Mean routing hops per lookup in this run.
    pub mean_hops: f64,
    /// Peers contacted.
    pub peers_contacted: usize,
    /// Probes the method set out to collect.
    pub probes_requested: usize,
    /// Probes that actually succeeded (short of requested under faults).
    pub probes_succeeded: usize,
    /// Estimated global item count, if the method produces one.
    pub n_hat: Option<f64>,
    /// True item count.
    pub n_true: u64,
}

impl RunResult {
    /// Relative error of the global-count estimate, if available.
    fn count_error(&self) -> Option<f64> {
        self.n_hat.map(|n| metrics::relative_error(n, self.n_true as f64))
    }
}

/// Runs one estimator against the scenario. `run_index` selects the
/// estimator's RNG stream, so repeats differ while staying reproducible.
// ddelint::allow(dead-pub, "the one-run scorer behind aggregate; the crate example and the end_to_end, fault_injection and cost_accounting tests read single runs' RunResults through it, which shipped code reads only averaged")
pub fn run_estimator(
    built: &mut BuiltScenario,
    estimator: &dyn DensityEstimator,
    run_index: u64,
) -> Result<RunResult, EstimateError> {
    let seq = SeedSequence::new(built.scenario.seed);
    let mut rng = seq.stream(Component::Estimator, run_index);
    let initiator = built
        .net
        .random_peer(&mut rng)
        .ok_or(EstimateError::Routing(dde_ring::LookupError::EmptyNetwork))?;
    let report = estimator.estimate(&mut built.net, initiator, &mut rng)?;
    Ok(RunResult {
        method: estimator.name(),
        ks_vs_generator: report.estimate.ks_to(built.truth.as_ref()),
        ks_vs_data: report.estimate.ks_to(&built.net.live_values()),
        messages: report.messages(),
        bytes: report.bytes(),
        mean_hops: report.cost.mean_hops(),
        peers_contacted: report.peers_contacted,
        probes_requested: report.probes_requested,
        probes_succeeded: report.probes_succeeded,
        n_hat: report.estimated_total,
        n_true: built.net.total_items(),
    })
}

/// Mean/std aggregation of repeated runs.
#[derive(Debug, Clone)]
pub struct AggregatedResult {
    /// Estimator name.
    pub method: &'static str,
    /// Mean KS vs generator.
    pub ks_mean: f64,
    /// Standard deviation of KS vs generator.
    pub ks_std: f64,
    /// Mean KS vs the realized dataset.
    pub ks_data_mean: f64,
    /// Mean messages per run.
    pub messages_mean: f64,
    /// Mean bytes per run.
    pub bytes_mean: f64,
    /// Mean hops per lookup.
    pub hops_mean: f64,
    /// Mean probes succeeded per run (vs. the method's request count).
    pub probes_ok_mean: f64,
    /// Mean relative error of N̂ (over runs that produced one).
    pub count_error_mean: Option<f64>,
    /// Runs that succeeded.
    pub runs: usize,
    /// Runs that failed.
    pub failures: usize,
}

/// One experiment cell: a **fresh** scenario build, then `repeats`
/// estimation runs.
///
/// This is the unit the parallel runner ([`crate::exec::ExecPlan`])
/// schedules. Everything inside derives from `(scenario.seed, Component,
/// run_index)` and the cell owns its `BuiltScenario` outright, so a cell
/// computes the same result on any worker in any order — the root of the
/// suite's `jobs = N` ≡ `jobs = 1` byte-identity guarantee.
pub fn aggregate_cell(
    scenario: &crate::scenario::Scenario,
    estimator: &dyn DensityEstimator,
    repeats: usize,
) -> AggregatedResult {
    aggregate(&mut crate::build::build(scenario), estimator, repeats)
}

/// Runs the estimator `repeats` times (fresh RNG stream per run, same
/// network) and aggregates.
///
/// The caller owns `built`; when order-independence across cells matters,
/// use [`aggregate_cell`], which rebuilds from the scenario instead of
/// sharing a mutated network.
pub fn aggregate(
    built: &mut BuiltScenario,
    estimator: &dyn DensityEstimator,
    repeats: usize,
) -> AggregatedResult {
    let mut ks = Vec::with_capacity(repeats);
    let mut ks_data = Vec::with_capacity(repeats);
    let mut msgs = Vec::with_capacity(repeats);
    let mut bytes = Vec::with_capacity(repeats);
    let mut hops = Vec::with_capacity(repeats);
    let mut ok_probes = Vec::with_capacity(repeats);
    let mut cerr = Vec::new();
    let mut failures = 0;
    for run in 0..repeats {
        match run_estimator(built, estimator, run as u64) {
            Ok(r) => {
                ks.push(r.ks_vs_generator);
                ks_data.push(r.ks_vs_data);
                msgs.push(r.messages as f64);
                bytes.push(r.bytes as f64);
                hops.push(r.mean_hops);
                ok_probes.push(r.probes_succeeded as f64);
                if let Some(e) = r.count_error() {
                    cerr.push(e);
                }
            }
            Err(_) => failures += 1,
        }
    }
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let std = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let m = mean(v);
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64).sqrt()
    };
    AggregatedResult {
        method: estimator.name(),
        ks_mean: mean(&ks),
        ks_std: std(&ks),
        ks_data_mean: mean(&ks_data),
        messages_mean: mean(&msgs),
        bytes_mean: mean(&bytes),
        hops_mean: mean(&hops),
        probes_ok_mean: mean(&ok_probes),
        count_error_mean: if cerr.is_empty() { None } else { Some(mean(&cerr)) },
        runs: ks.len(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build, build_fresh};
    use crate::scenario::Scenario;
    use dde_core::{DfDde, DfDdeConfig, ExactAggregation};
    use dde_stats::Ecdf;

    fn small() -> Scenario {
        Scenario::default().with_peers(64).with_items(5_000).with_seed(11)
    }

    #[test]
    fn run_produces_sane_metrics() {
        let mut built = build(&small());
        let r = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(32)), 0).unwrap();
        assert_eq!(r.method, "df-dde");
        assert!(r.ks_vs_generator > 0.0 && r.ks_vs_generator < 0.5);
        assert!(r.ks_vs_data <= r.ks_vs_generator + 0.05);
        assert!(r.messages > 32);
        assert!(r.bytes > r.messages); // headers alone exceed 1 B/message
        assert_eq!(r.n_true, 5_000);
        assert!(r.count_error().unwrap() < 0.5);
    }

    #[test]
    fn repeats_differ_but_are_reproducible() {
        let mut built = build(&small());
        let a = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(32)), 0).unwrap();
        let b = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(32)), 1).unwrap();
        assert_ne!(a.ks_vs_generator, b.ks_vs_generator);
        let mut built2 = build(&small());
        let a2 = run_estimator(&mut built2, &DfDde::new(DfDdeConfig::with_probes(32)), 0).unwrap();
        assert_eq!(a.ks_vs_generator, a2.ks_vs_generator);
    }

    #[test]
    fn aggregate_collects_stats() {
        let mut built = build(&small());
        let agg = aggregate(&mut built, &DfDde::new(DfDdeConfig::with_probes(32)), 5);
        assert_eq!(agg.runs, 5);
        assert_eq!(agg.failures, 0);
        assert!(agg.ks_mean > 0.0);
        assert!(agg.ks_std > 0.0); // runs differ
        assert!(agg.messages_mean > 32.0);
    }

    /// The realized-data score reads the stores as they are when the run
    /// is scored, not the data the build loaded.
    #[test]
    fn ks_vs_data_scores_the_data_the_ring_holds() {
        let mut built = build_fresh(&small());
        let mut rng = SeedSequence::new(11).stream(Component::Churn, 0);
        for _ in 0..2_000 {
            built.net.churn_remove_item(&mut rng).expect("items left");
        }
        let mut fork = built.net.fork();
        let est = DfDde::new(DfDdeConfig::with_probes(32));
        let got = run_estimator(&mut built, &est, 0).unwrap().ks_vs_data;

        let mut rng = SeedSequence::new(11).stream(Component::Estimator, 0);
        let initiator = fork.random_peer(&mut rng).unwrap();
        let report = est.estimate(&mut fork, initiator, &mut rng).unwrap();
        let live = Ecdf::new(fork.live_values().iter().copied().collect());
        assert_eq!(got.to_bits(), report.estimate.ks_to(&live).to_bits());
    }

    #[test]
    fn exact_walk_beats_sampling_on_accuracy() {
        let mut built = build(&small());
        let exact = aggregate(&mut built, &ExactAggregation::new(), 2);
        let sampled = aggregate(&mut built, &DfDde::new(DfDdeConfig::with_probes(16)), 2);
        assert!(exact.ks_data_mean < sampled.ks_data_mean);
        assert!(exact.messages_mean > 60.0); // O(P)
    }
}
