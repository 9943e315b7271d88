//! Load-balancing analysis — the application the paper's introduction leads
//! with.
//!
//! In a range-partitioned ring, skewed data piles onto a few peers. A
//! density estimate obtained for a few hundred messages tells us *where* the
//! mass sits, so peer ids can be re-placed at the estimated data quantiles —
//! without any global scan.
//!
//! The example also demonstrates *matching the estimator to the layout*:
//!
//! * Round 1 runs on a consistent-hashing layout (arcs uniform, volumes
//!   skewed) — ring-position probing with Horvitz–Thompson correction
//!   (DF-DDE) is the right tool.
//! * Round 2 runs on the now load-balanced layout (volumes uniform, arcs
//!   skewed) — ring-position probes rarely hit the dense regions' tiny arcs
//!   there, so the final tighten uses the exact walk (O(P) messages, still
//!   far cheaper than touching the data).
//!
//! ```sh
//! cargo run -p dde-sim --example load_balancing
//! ```

use dde_core::{DensityEstimator, DfDde, DfDdeConfig, ExactAggregation};
use dde_ring::{Network, Placement, RingId};
use dde_sim::{build, Scenario};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};

/// Max/mean ratio of per-peer item counts (1.0 = perfectly balanced).
fn imbalance(net: &Network) -> (f64, usize) {
    let counts: Vec<usize> = net.ids().map(|id| net.node(id).expect("alive").store.len()).collect();
    let max = *counts.iter().max().expect("nonempty");
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    (max as f64 / mean, max)
}

/// One estimate-driven rebalance round: returns the rebuilt network and the
/// message cost of the estimate that drove it.
fn rebalance_round(
    net: &mut Network,
    estimator: &dyn DensityEstimator,
    placement: Placement,
    rng: &mut rand::rngs::StdRng,
) -> (Network, u64) {
    let initiator = net.random_peer(rng).expect("nonempty");
    let report = estimator.estimate(net, initiator, rng).expect("estimates");
    let map = placement.domain_map().expect("range placement");
    let peers = net.len();
    let mut new_ids: Vec<RingId> = (1..=peers)
        .map(|i| map.to_ring(report.estimate.quantile(i as f64 / peers as f64)))
        .collect();
    new_ids.sort();
    new_ids.dedup();
    // In a real system this is a rolling sequence of leave/join moves; the
    // end state is what we measure.
    let mut rebalanced = Network::build_bulk(new_ids, placement);
    rebalanced.set_summary_buckets(net.summary_buckets());
    rebalanced.bulk_load(net.live_values().iter().copied().collect::<Vec<f64>>());
    (rebalanced, report.messages())
}

fn main() {
    // Heavily skewed workload on a plain consistent-hashing layout. Probe
    // summaries use 64 buckets: rebalancing needs resolution *within* the
    // hottest peers, which is exactly what experiment F6 trades off.
    let scenario = Scenario::default()
        .with_peers(256)
        .with_items(80_000)
        .with_distribution(DistributionKind::Zipf { cells: 64, exponent: 1.2 })
        .with_summary_buckets(64)
        .with_seed(7);
    let built = build(&scenario);
    let placement = built.net.placement();
    let mut rng = SeedSequence::new(scenario.seed).stream(Component::Estimator, 1);

    let (ratio_0, max_0) = imbalance(&built.net);
    println!(
        "round 0: max/mean load = {ratio_0:6.1}  (hottest peer holds {max_0} of {} items)",
        built.net.total_items()
    );

    // Round 1: skewed volumes, uniform arcs — DF-DDE's regime.
    let mut net = built.net.clone();
    let dfdde = DfDde::new(DfDdeConfig::with_probes(128));
    let (rebalanced, msgs1) = rebalance_round(&mut net, &dfdde, placement, &mut rng);
    net = rebalanced;
    let (ratio_1, max_1) = imbalance(&net);
    println!("round 1: max/mean load = {ratio_1:6.1}  (hottest peer holds {max_1} items; df-dde)");

    // Round 2: volumes are now ~uniform but arcs are skewed, so ring-position
    // probes rarely hit the dense regions — sampling is the wrong tool here.
    // The final tighten uses the exact walk: O(P) messages, still far below
    // touching the items themselves.
    let exact = ExactAggregation::new();
    let (rebalanced, msgs2) = rebalance_round(&mut net, &exact, placement, &mut rng);
    net = rebalanced;
    let (ratio_2, max_2) = imbalance(&net);
    println!(
        "round 2: max/mean load = {ratio_2:6.1}  (hottest peer holds {max_2} items; exact walk)"
    );

    println!(
        "\nimbalance reduced {:.0}x with {} estimate messages total \
         (a global scan would touch all {} items each round)",
        ratio_0 / ratio_2,
        msgs1 + msgs2,
        built.net.total_items()
    );
    assert!(
        ratio_1 < ratio_0 / 5.0,
        "round 1 should reduce imbalance ≥5x: {ratio_0:.1} -> {ratio_1:.1}"
    );
    assert!(
        ratio_2 < ratio_0 / 20.0,
        "two rounds should reduce imbalance ≥20x: {ratio_0:.1} -> {ratio_2:.1}"
    );
    println!("load_balancing OK");
}
