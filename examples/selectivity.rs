//! Range-query selectivity estimation — the query-processing application.
//!
//! A peer planning a range query `[lo, hi]` wants to know what fraction of
//! the global data it covers *before* executing it (to choose between a
//! targeted scan of the owning arcs and a broadcast, to size buffers, to
//! order joins). The density estimate answers that locally, with no extra
//! messages per query. This example checks estimated vs true selectivity
//! for a workload of random range queries over several data distributions.
//!
//! ```sh
//! cargo run -p dde-sim --example selectivity
//! ```

use dde_core::{DensityEstimator, DfDde, DfDdeConfig};
use dde_sim::{build, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use rand::Rng;

fn main() {
    let mut worst_abs_err = 0.0f64;
    for kind in [
        DistributionKind::Uniform,
        DistributionKind::Normal { center_frac: 0.5, std_frac: 0.12 },
        DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        DistributionKind::Bimodal,
    ] {
        let scenario = Scenario::default()
            .with_peers(384)
            .with_items(60_000)
            .with_distribution(kind.clone())
            .with_seed(99);
        let mut built = build(&scenario);

        // One estimate, then every query is answered locally.
        let mut rng = SeedSequence::new(scenario.seed).stream(Component::Estimator, 2);
        let initiator = built.net.random_peer(&mut rng).expect("nonempty");
        let report = DfDde::new(DfDdeConfig::with_probes(128))
            .estimate(&mut built.net, initiator, &mut rng)
            .expect("estimates");

        // A workload of 200 random range queries.
        let mut wl_rng = SeedSequence::new(scenario.seed).stream(Component::Workload, 0);
        let (dlo, dhi) = scenario.domain;
        let n = built.net.total_items() as f64;
        let mut sum_abs_err = 0.0;
        let mut max_abs_err = 0.0f64;
        let queries = 200;
        for _ in 0..queries {
            let a = dlo + wl_rng.gen::<f64>() * (dhi - dlo);
            let width = wl_rng.gen::<f64>() * (dhi - dlo) * 0.2;
            let (qlo, qhi) = (a, (a + width).min(dhi));
            let est_sel = report.estimate.selectivity(qlo, qhi);
            // Ground truth: exact count over all stores.
            let true_rows: usize = built
                .net
                .ids()
                .collect::<Vec<_>>()
                .into_iter()
                .map(|id| built.net.node(id).expect("alive").store.count_range(qlo, qhi))
                .sum();
            let true_sel = true_rows as f64 / n;
            let err = (est_sel - true_sel).abs();
            sum_abs_err += err;
            max_abs_err = max_abs_err.max(err);
        }
        println!(
            "{:12}: mean |sel err| = {:.4}, max = {:.4}  ({} queries, one {}-message estimate)",
            kind.label(),
            sum_abs_err / queries as f64,
            max_abs_err,
            queries,
            report.messages()
        );
        worst_abs_err = worst_abs_err.max(max_abs_err);
    }
    assert!(worst_abs_err < 0.15, "selectivity error too large: {worst_abs_err}");

    // Part 2: plan and EXECUTE queries with the overlay's range-query
    // engine, verifying predicted vs actual rows and showing what the
    // estimate saves — the planner skips execution entirely for queries
    // predicted (and confirmed) to exceed a result-size budget.
    println!("\nexecuting planned queries (zipf workload):");
    let scenario = Scenario::default()
        .with_peers(384)
        .with_items(60_000)
        .with_distribution(DistributionKind::Zipf { cells: 64, exponent: 1.1 })
        .with_seed(99);
    let mut built = build(&scenario);
    let mut rng = SeedSequence::new(scenario.seed).stream(Component::Estimator, 9);
    let initiator = built.net.random_peer(&mut rng).expect("nonempty");
    let report = DfDde::new(DfDdeConfig::with_probes(128))
        .estimate(&mut built.net, initiator, &mut rng)
        .expect("estimates");
    let n_hat = report.estimated_total.expect("DF-DDE estimates N̂");
    let n = built.net.total_items() as f64;
    let budget_rows = 10_000.0;

    for (qlo, qhi) in [(0.0, 40.0), (200.0, 400.0), (700.0, 1000.0)] {
        let predicted = n_hat * report.estimate.selectivity(qlo, qhi);
        if predicted > budget_rows {
            println!(
                "  [{qlo:5}, {qhi:5}]: predicted {predicted:7.0} rows > budget {budget_rows:.0} \
                 — rejected without touching the network"
            );
            continue;
        }
        let before = built.net.stats().clone();
        let result = built.net.range_query(initiator, qlo, qhi).expect("query runs");
        let cost = built.net.stats().since(&before);
        let actual = result.items.len() as f64;
        println!(
            "  [{qlo:5}, {qhi:5}]: predicted {predicted:7.0} rows, actual {actual:7.0} \
             ({} peers scanned, {} msgs)",
            result.peers_visited,
            cost.total_messages()
        );
        assert!(
            (predicted - actual).abs() / n < 0.05,
            "prediction off by >5% of N: {predicted} vs {actual}"
        );
    }
    println!("\nselectivity OK (worst absolute selectivity error {worst_abs_err:.4})");
}
