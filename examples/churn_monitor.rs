//! Continuous density monitoring on a churning network — the "dynamic
//! ring-based P2P networks" part of the paper's title.
//!
//! A monitoring peer keeps a sliding window of probe replies fresh with a
//! few probes per tick while peers join, leave, and crash around it. Each
//! tick we print the estimate's distance to the *current* surviving data,
//! the network size, and the cumulative message spend.
//!
//! ```sh
//! cargo run -p dde-sim --example churn_monitor
//! ```

use dde_core::{ContinuousConfig, ContinuousEstimator};
use dde_ring::{ChurnConfig, ChurnProcess};
use dde_sim::{build, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};

fn main() {
    let scenario = Scenario::default()
        .with_peers(384)
        .with_items(60_000)
        .with_distribution(DistributionKind::Exponential { rate_scale: 8.0 })
        .with_seed(5);
    let mut built = build(&scenario);

    let seq = SeedSequence::new(scenario.seed);
    let mut churn_rng = seq.stream(Component::Churn, 0);
    let mut est_rng = seq.stream(Component::Estimator, 3);

    // 10% of peers churn per time unit — an aggressive network.
    let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.10, 0.5));
    let mut monitor =
        ContinuousEstimator::new(ContinuousConfig { window: 96, refresh_per_tick: 12 });
    let mut initiator = built.net.random_peer(&mut est_rng).expect("nonempty");

    println!("tick  peers  items   ks(current)  probes-held  total-msgs");
    let mut final_ks = f64::NAN;
    for tick in 0..20 {
        churn.run(&mut built.net, 1.0, &mut churn_rng);
        if !built.net.is_alive(initiator) {
            // Our monitor crashed with its peer: a surviving peer takes over
            // the (lost) window and rebuilds.
            initiator = built.net.random_peer(&mut est_rng).expect("nonempty");
            monitor =
                ContinuousEstimator::new(ContinuousConfig { window: 96, refresh_per_tick: 12 });
            println!("tick {tick:>2}: monitor peer churned out; a new peer takes over");
        }
        if monitor.tick(&mut built.net, initiator, &mut est_rng).is_err() {
            continue;
        }
        let ks = match monitor.current_estimate(scenario.domain) {
            Ok(est) => est.ks_to(&built.net.live_values()),
            Err(_) => f64::NAN,
        };
        final_ks = ks;
        println!(
            "{tick:>4}  {:>5}  {:>5}  {:>11.4}  {:>11}  {:>10}",
            built.net.len(),
            built.net.total_items(),
            ks,
            monitor.probes_held(),
            built.net.stats().total_messages()
        );
    }
    assert!(final_ks < 0.35, "monitor lost track of the data: ks = {final_ks}");
    println!("\nchurn_monitor OK (final ks {final_ks:.4})");
}
