//! Turning a [`Scenario`] into a live network with data and ground truth.
//!
//! The realized dataset lives only in the ring: the bulk load takes it
//! over as its load buffer, and live-data scoring reads the stores in place
//! through [`Network::live_values`].

use crate::adversary;
use crate::scenario::{NodeLayout, PlacementMode, Scenario};
use dde_ring::{FaultPlan, Network, Placement, RingId};
use dde_stats::dist::Distribution;
use dde_stats::rng::{splitmix64, Component, SeedSequence};
use rand::Rng;
use std::sync::{Arc, Mutex};

/// A built scenario: the network, whose stores hold the realized dataset,
/// and the distribution it was drawn from.
pub struct BuiltScenario {
    /// The live overlay with data loaded; its stores are the realized
    /// dataset's ground truth ([`Network::live_values`]).
    pub net: Network,
    /// The generating distribution (analytic ground truth).
    pub truth: Box<dyn Distribution>,
    /// The scenario this was built from.
    pub scenario: Scenario,
}

/// One cached build: a fork of the network, whose stores view the build's
/// load buffer, so handing it out again copies no dataset. The analytic
/// `truth` is *not* stored — a `Box<dyn Distribution>` is rebuilt per
/// caller from the scenario (pure parameters, no sampling), which keeps the
/// snapshot `Send + Sync`.
struct Snapshot {
    net: Network,
    /// The scenario the build actually used (the load-balanced + hashed
    /// combination falls back to uniform ids, so this can differ from the
    /// requested one).
    scenario: Scenario,
}

/// Most distinct scenarios kept alive at once. The quick suite builds a few
/// dozen distinct cells; evicting FIFO beyond this just re-runs a build.
const SNAPSHOT_CAP: usize = 32;

/// Content-keyed snapshot cache: a linear scan comparing requested
/// scenarios with the derived `PartialEq` — at ≤ [`SNAPSHOT_CAP`] entries
/// this is cheaper than any map, and `Vec` keeps iteration order
/// deterministic.
static SNAPSHOTS: Mutex<Vec<(Scenario, Arc<Snapshot>)>> = Mutex::new(Vec::new());

fn snapshot_lookup(key: &Scenario) -> Option<Arc<Snapshot>> {
    let cache = SNAPSHOTS.lock().expect("snapshot cache poisoned");
    cache.iter().find(|(k, _)| k == key).map(|(_, s)| Arc::clone(s))
}

fn snapshot_store(key: Scenario, snap: Snapshot) {
    let mut cache = SNAPSHOTS.lock().expect("snapshot cache poisoned");
    if cache.iter().any(|(k, _)| *k == key) {
        return; // lost a benign build race; first writer wins
    }
    if cache.len() >= SNAPSHOT_CAP {
        cache.remove(0);
    }
    cache.push((key, Arc::new(snap)));
}

/// Builds the scenario, sharing work across repeated builds: the first
/// build of a given scenario runs [`build_fresh`] and caches an immutable
/// snapshot; later builds [`Network::fork`] the snapshot (cheap, copy-on-
/// write stores) instead of regenerating and re-sorting the dataset.
///
/// The cache is keyed on the scenario's entire content, so any parameter
/// change — including the seed — is a different entry. Forked and fresh
/// builds are byte-for-byte interchangeable (proven by the determinism
/// suite), so cache hits never change experiment output.
///
/// # Panics
/// Panics on degenerate scenarios (zero peers, zero items).
pub fn build(scenario: &Scenario) -> BuiltScenario {
    // ddelint::allow(wallclock, "timing-only: the duration feeds the build-time perf counter, never an experiment value")
    let start = std::time::Instant::now();
    let built = build_cached(scenario);
    crate::exec::note_build(start.elapsed());
    built
}

fn build_cached(scenario: &Scenario) -> BuiltScenario {
    if let Some(snap) = snapshot_lookup(scenario) {
        let (lo, hi) = snap.scenario.domain;
        return BuiltScenario {
            net: snap.net.fork(),
            truth: snap.scenario.distribution.build(lo, hi),
            scenario: snap.scenario.clone(),
        };
    }
    let built = build_fresh(scenario);
    snapshot_store(
        scenario.clone(),
        Snapshot { net: built.net.fork(), scenario: built.scenario.clone() },
    );
    built
}

/// Builds the scenario from scratch, bypassing the snapshot cache: derives
/// the dataset and node ids from the master seed, wires a perfect ring, and
/// bulk-loads the data.
///
/// # Panics
/// Panics on degenerate scenarios (zero peers, zero items).
pub fn build_fresh(scenario: &Scenario) -> BuiltScenario {
    assert!(scenario.peers > 0, "scenario needs peers");
    assert!(scenario.items > 0, "scenario needs items");
    let (lo, hi) = scenario.domain;
    let seq = SeedSequence::new(scenario.seed);
    let truth = scenario.distribution.build(lo, hi);

    // Dataset first, sorted once: the layouts read its quantiles, and the
    // flash crowd and the bulk load read the same ascending vector.
    let mut data_rng = seq.stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..scenario.items).map(|_| truth.sample(&mut data_rng)).collect();
    let data = dde_stats::sort_total(data);

    let placement = match scenario.placement {
        PlacementMode::Range => Placement::range(lo, hi),
        PlacementMode::Hashed => Placement::hashed(lo, hi),
    };

    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = match scenario.layout {
        NodeLayout::UniformIds => (0..scenario.peers).map(|_| RingId(id_rng.gen())).collect(),
        NodeLayout::LoadBalanced => {
            // Ids at the dataset's quantiles (plus id-space jitter to break
            // ties between duplicate values). Only meaningful under range
            // placement; under hashing it degenerates to uniform anyway.
            let map = match placement.domain_map() {
                Some(m) => *m,
                None => {
                    // Hashed placement: quantile layout is meaningless;
                    // fall back to uniform ids.
                    return build_fresh(&Scenario {
                        layout: NodeLayout::UniformIds,
                        ..scenario.clone()
                    });
                }
            };
            (1..=scenario.peers)
                .map(|i| {
                    let q = data[(i * scenario.items / scenario.peers).min(scenario.items - 1)];
                    let base = map.to_ring(q).0;
                    RingId(base.wrapping_add(id_rng.gen_range(0..1u64 << 20)))
                })
                .collect()
        }
        NodeLayout::Adversarial => {
            // Worst case for uncorrected arc-uniform sampling: most peers
            // packed into the sparsest data window (see `crate::adversary`).
            // Pure function of the dataset — consumes no id entropy.
            let map = match placement.domain_map() {
                Some(m) => *m,
                None => {
                    // Hashed placement decouples arcs from data; the layout
                    // is meaningless there, as for LoadBalanced.
                    return build_fresh(&Scenario {
                        layout: NodeLayout::UniformIds,
                        ..scenario.clone()
                    });
                }
            };
            adversary::adversarial_ids(scenario.peers, &data, lo, hi, &map)
        }
    };
    ids.sort();
    ids.dedup();

    // The flash crowd's landing window is read before the load, which
    // takes the dataset over as its buffer instead of copying it.
    let densest = placement
        .domain_map()
        .filter(|_| scenario.flash_crowd > 0)
        .map(|map| adversary::window_arc(adversary::densest_window(&data, lo, hi), lo, hi, map));
    let mut net = Network::build_bulk(ids, placement);
    net.set_summary_buckets(scenario.summary_buckets);
    net.bulk_load(data);

    if scenario.flash_crowd > 0 {
        // A crowd of peers joins back-to-back through the overlay — no
        // stabilization rounds in between — clustered on the densest data
        // region (that's where flash crowds land: the content being
        // mobbed). Joins go through the real membership path so item
        // conservation is the overlay's own guarantee, not the builder's.
        let mut fc_rng = seq.stream(Component::Churn, 0xF1A5);
        let bootstrap = net.ids().next().expect("built network has peers");
        for _ in 0..scenario.flash_crowd {
            let id = match densest {
                Some((start, span)) => {
                    let off = ((u128::from(fc_rng.gen::<u64>()) * u128::from(span)) >> 64) as u64;
                    RingId(start.wrapping_add(off))
                }
                None => RingId(fc_rng.gen()),
            };
            // An occupied id is skipped, not retried: the crowd size is
            // "up to N", and retry loops would couple the entropy stream
            // to the current membership.
            let _ = net.join(id, bootstrap);
        }
    }

    match (scenario.capacity, scenario.partition) {
        (None, None) => {}
        (cap, part) => {
            // Static environment axes live in a fault plan installed at
            // build time; its decision stream is seeded off the scenario so
            // forked snapshots replay it identically.
            let mut plan = FaultPlan::new(splitmix64(scenario.seed ^ 0xA7E5));
            if let Some(c) = cap {
                plan = plan.with_capacity(f64::from(c.slow_pm) / 1000.0, c.factor, c.deadline);
            }
            if let Some(p) = part {
                plan = plan.with_partition(pm_to_ring(p.start_pm), pm_to_ring(p.span_pm));
            }
            net.set_fault_plan(plan);
        }
    }

    // Construction traffic (flash-crowd joins, handoffs) is free: counters
    // measure the estimators, not the builder.
    net.stats_mut().reset();

    BuiltScenario { net, truth, scenario: scenario.clone() }
}

/// Converts a per-mille ring position/span to id space (1000 = full ring).
pub(crate) fn pm_to_ring(pm: u32) -> u64 {
    ((u128::from(pm) << 64) / 1000).min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::dist::DistributionKind;
    use dde_stats::Ecdf;

    /// The ring's values, ascending.
    fn values(net: &Network) -> Vec<f64> {
        net.live_values().iter().copied().collect()
    }

    #[test]
    fn build_is_deterministic() {
        let s = Scenario::default().with_peers(32).with_items(1_000);
        let a = build(&s);
        let b = build(&s);
        assert_eq!(a.net.len(), b.net.len());
        assert_eq!(values(&a.net), values(&b.net));
    }

    #[test]
    fn cached_build_matches_fresh() {
        let s = Scenario::default().with_peers(24).with_items(2_000).with_seed(7701);
        let fresh = build_fresh(&s);
        let first = build(&s); // populates the snapshot cache
        let forked = build(&s); // guaranteed cache hit → Network::fork path
        for b in [&first, &forked] {
            assert_eq!(b.net.len(), fresh.net.len());
            assert_eq!(values(&b.net), values(&fresh.net));
            assert_eq!(b.scenario, fresh.scenario);
            assert!(b.net.check_invariants().is_empty());
        }
    }

    #[test]
    fn fallback_scenario_is_cached_consistently() {
        // LoadBalanced + Hashed falls back to UniformIds inside build_fresh;
        // the cached snapshot must reproduce the *returned* scenario.
        let s = Scenario::default()
            .with_peers(16)
            .with_items(1_000)
            .with_seed(7702)
            .with_layout(NodeLayout::LoadBalanced)
            .with_placement(PlacementMode::Hashed);
        let miss = build(&s);
        let hit = build(&s);
        assert_eq!(miss.scenario.layout, NodeLayout::UniformIds);
        assert_eq!(hit.scenario, miss.scenario);
        assert_eq!(values(&hit.net), values(&miss.net));
    }

    #[test]
    fn different_seeds_differ() {
        let a = build(&Scenario::default().with_peers(32).with_items(1_000).with_seed(1));
        let b = build(&Scenario::default().with_peers(32).with_items(1_000).with_seed(2));
        assert_ne!(values(&a.net), values(&b.net));
    }

    #[test]
    fn data_matches_generator() {
        let s = Scenario::default().with_peers(16).with_items(20_000);
        let built = build(&s);
        assert_eq!(built.net.total_items(), 20_000);
        let ks = Ecdf::from_sorted(values(&built.net)).ks_distance_to(built.truth.as_ref());
        // Dataset noise only: KS ~ 1/√N.
        assert!(ks < 0.02, "dataset diverges from generator: {ks}");
        assert!(built.net.check_invariants().is_empty());
    }

    #[test]
    fn load_balanced_layout_equalizes_volume() {
        let s = Scenario::default()
            .with_peers(64)
            .with_items(50_000)
            .with_distribution(DistributionKind::Pareto { shape: 1.2 })
            .with_layout(NodeLayout::LoadBalanced);
        let built = build(&s);
        let counts: Vec<usize> =
            built.net.ids().map(|id| built.net.node(id).unwrap().store.len()).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        // Under uniform ids with Pareto data the max would be tens of times
        // the mean; load balancing keeps it within a small factor.
        assert!(max < 4.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn uniform_ids_with_skew_have_hotspots() {
        let s = Scenario::default()
            .with_peers(64)
            .with_items(50_000)
            .with_distribution(DistributionKind::Pareto { shape: 1.2 });
        let built = build(&s);
        let counts: Vec<usize> =
            built.net.ids().map(|id| built.net.node(id).unwrap().store.len()).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max > 5.0 * mean, "expected hotspots: max {max} vs mean {mean}");
    }

    #[test]
    fn hashed_placement_balances_any_data() {
        let s = Scenario::default()
            .with_peers(64)
            .with_items(50_000)
            .with_distribution(DistributionKind::Pareto { shape: 1.2 })
            .with_placement(PlacementMode::Hashed);
        let built = build(&s);
        let counts: Vec<usize> =
            built.net.ids().map(|id| built.net.node(id).unwrap().store.len()).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        // Hashing decouples volume from value skew; remaining imbalance is
        // the arc-length variance of consistent hashing (Θ(log P) factor).
        assert!(max < 8.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn adversarial_layout_maximizes_sampling_bias() {
        let base = Scenario::default()
            .with_peers(64)
            .with_items(20_000)
            .with_distribution(DistributionKind::Pareto { shape: 1.2 })
            .with_seed(7703);
        let uniform = build(&base.clone());
        let adv = build(&base.with_layout(NodeLayout::Adversarial));
        let bias_u = crate::adversary::arc_weighted_bias(&uniform.net).abs();
        let bias_a = crate::adversary::arc_weighted_bias(&adv.net).abs();
        assert!(
            bias_a > 3.0 * bias_u.max(0.05),
            "adversarial placement must dominate uniform bias: {bias_a} vs {bias_u}"
        );
        assert!(adv.net.check_invariants().is_empty());
    }

    #[test]
    fn adversarial_layout_falls_back_under_hashing() {
        let s = Scenario::default()
            .with_peers(16)
            .with_items(1_000)
            .with_seed(7704)
            .with_layout(NodeLayout::Adversarial)
            .with_placement(PlacementMode::Hashed);
        let built = build(&s);
        assert_eq!(built.scenario.layout, NodeLayout::UniformIds);
        assert!(built.net.check_invariants().is_empty());
    }

    #[test]
    fn flash_crowd_joins_conserve_items_and_grow_the_ring() {
        let base = Scenario::default().with_peers(32).with_items(4_000).with_seed(7705);
        let calm = build_fresh(&base.clone());
        let crowd = build_fresh(&base.with_flash_crowd(12));
        assert_eq!(crowd.net.total_items(), calm.net.total_items(), "joins must conserve items");
        assert!(crowd.net.len() > calm.net.len(), "crowd must actually join");
        assert!(crowd.net.len() <= calm.net.len() + 12);
        // Construction traffic is not billed to the experiment.
        assert_eq!(crowd.net.stats().total_messages(), 0);
        assert!(crowd.net.check_invariants().is_empty());
    }

    #[test]
    fn capacity_and_partition_axes_install_a_plan() {
        use crate::scenario::{CapacitySpec, PartitionSpec};
        let s = Scenario::default()
            .with_peers(16)
            .with_items(500)
            .with_seed(7706)
            .with_capacity(CapacitySpec { slow_pm: 250, factor: 4, deadline: 0 })
            .with_partition(PartitionSpec { start_pm: 100, span_pm: 200 });
        let built = build_fresh(&s);
        let plan = built.net.fault_plan().expect("axes install a plan");
        assert!(plan.capacity_slow > 0.0 && plan.capacity_factor > 1, "capacity axis on");
        assert!(plan.partition.is_some(), "partition axis on");
        assert!(build_fresh(&Scenario::default().with_peers(16).with_items(500))
            .net
            .fault_plan()
            .is_none());
    }

    #[test]
    fn forked_axis_builds_replay_build_fresh_exactly() {
        use crate::scenario::{CapacitySpec, PartitionSpec};
        let base = Scenario::default().with_peers(24).with_items(2_000);
        let variants = [
            base.clone().with_seed(7710).with_layout(NodeLayout::Adversarial),
            base.clone().with_seed(7711).with_flash_crowd(6),
            base.clone().with_seed(7712).with_capacity(CapacitySpec {
                slow_pm: 300,
                factor: 4,
                deadline: 8,
            }),
            base.clone()
                .with_seed(7713)
                .with_partition(PartitionSpec { start_pm: 250, span_pm: 300 }),
            base.clone().with_seed(7714).with_distribution(DistributionKind::HotspotZipf {
                cells: 32,
                exponent: 1.2,
                arcs: 2,
            }),
        ];
        for s in &variants {
            let fresh = build_fresh(s);
            let _warm = build(s); // populate the cache
            let forked = build(s); // guaranteed hit → Network::fork path
            assert_eq!(forked.net.len(), fresh.net.len(), "{s:?}");
            assert_eq!(values(&forked.net), values(&fresh.net), "{s:?}");
            assert_eq!(forked.scenario, fresh.scenario, "{s:?}");
            assert_eq!(
                format!("{:?}", forked.net.fault_plan()),
                format!("{:?}", fresh.net.fault_plan()),
                "forked plan must replay the fresh decision stream: {s:?}"
            );
            assert!(forked.net.check_invariants().is_empty(), "{s:?}");
        }
    }

    #[test]
    fn axis_parameters_never_collide_in_the_cache_key() {
        use crate::scenario::{CapacitySpec, PartitionSpec};
        // The snapshot cache is keyed on the whole scenario; every distinct
        // axis parameterization must compare unequal or cells would
        // silently share networks.
        let base = Scenario::default().with_peers(8).with_items(100).with_seed(9);
        let variants: Vec<Scenario> = vec![
            base.clone(),
            base.clone().with_layout(NodeLayout::Adversarial),
            base.clone().with_flash_crowd(1),
            base.clone().with_flash_crowd(2),
            base.clone().with_capacity(CapacitySpec { slow_pm: 250, factor: 4, deadline: 0 }),
            base.clone().with_capacity(CapacitySpec { slow_pm: 250, factor: 4, deadline: 8 }),
            base.clone().with_capacity(CapacitySpec { slow_pm: 250, factor: 8, deadline: 0 }),
            base.clone().with_capacity(CapacitySpec { slow_pm: 500, factor: 4, deadline: 0 }),
            base.clone().with_partition(PartitionSpec { start_pm: 0, span_pm: 100 }),
            base.clone().with_partition(PartitionSpec { start_pm: 100, span_pm: 100 }),
            base.clone().with_partition(PartitionSpec { start_pm: 0, span_pm: 200 }),
            base.clone().with_distribution(DistributionKind::HotspotZipf {
                cells: 32,
                exponent: 1.2,
                arcs: 2,
            }),
            base.clone().with_distribution(DistributionKind::HotspotZipf {
                cells: 32,
                exponent: 1.2,
                arcs: 3,
            }),
        ];
        for i in 0..variants.len() {
            for j in (i + 1)..variants.len() {
                assert_ne!(
                    variants[i], variants[j],
                    "cache-key collision between variants {i} and {j}"
                );
            }
        }
    }

    /// How many values `built`'s stores hold, when the non-empty ones view
    /// one block of a load buffer: ordered by address, they must tile it,
    /// each beginning where the one before ended. Position 0 is left out of
    /// the block when it merges a head run and a wrap tail into a copy of
    /// its own, and its values are added to the count.
    fn held_in_one_block(built: &BuiltScenario) -> usize {
        let placement = built.net.placement();
        let mut views = Vec::new();
        let mut merged = 0;
        for (pos, id) in built.net.ids().enumerate() {
            let values = built.net.node(id).unwrap().store.values();
            let head = values.iter().filter(|&&x| placement.place(x) <= id).count();
            if pos == 0 && head > 0 && head < values.len() {
                merged = values.len();
            } else if !values.is_empty() {
                views.push(values.as_ptr_range());
            }
        }
        views.sort_by_key(|r| r.start);
        for pair in views.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "two stores do not tile one block");
        }
        let (start, end) = (views[0].start as usize, views[views.len() - 1].end as usize);
        (end - start) / std::mem::size_of::<f64>() + merged
    }

    /// The single copy: the stores of a build view one load buffer, under
    /// both placements and whether the build is fresh or a snapshot-cache
    /// hit, so neither copies the dataset. Together with position 0's
    /// values when it merges a head and a wrap tail into a copy of its own,
    /// that block holds exactly the scenario's items. A one-peer ring's
    /// store views its whole buffer, which a fork shares, and its first
    /// write then detaches it and leaves the fork as it was.
    #[test]
    fn a_range_build_holds_its_dataset_once() {
        let range = Scenario::default().with_peers(64).with_items(20_000).with_seed(7720);
        for s in [range.clone(), range.with_placement(PlacementMode::Hashed)] {
            let fresh = build_fresh(&s);
            let _miss = build(&s);
            let hit = build(&s);
            for (built, case) in [(&fresh, "fresh"), (&hit, "cache hit")] {
                let held = held_in_one_block(built);
                assert_eq!(held, s.items, "{case}, {:?}: the stores hold a copy", s.placement);
            }
        }

        let mut one =
            build_fresh(&Scenario::default().with_peers(1).with_items(500).with_seed(7721));
        let id = one.net.ids().next().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let before = bits(one.net.node(id).unwrap().store.values());
        let fork = one.net.fork();
        let shared = |a: &Network, b: &Network| {
            a.node(id).unwrap().store.values().as_ptr()
                == b.node(id).unwrap().store.values().as_ptr()
        };
        assert!(shared(&one.net, &fork), "a fork copies the store");
        one.net.node_mut(id).unwrap().store.insert(50.0);
        assert_eq!(one.net.node(id).unwrap().store.len(), 501);
        assert!(!shared(&one.net, &fork), "a write to a shared buffer must detach");
        assert_eq!(
            bits(fork.node(id).unwrap().store.values()),
            before,
            "a write to a shared buffer reached the fork"
        );
    }

    #[test]
    fn domain_is_respected() {
        let mut s = Scenario::default().with_peers(8).with_items(500);
        s.domain = (-50.0, 75.0);
        let built = build(&s);
        let (lo, hi) = built.truth.domain();
        assert_eq!((lo, hi), (-50.0, 75.0));
        for &v in built.net.live_values().iter() {
            assert!((lo..=hi).contains(&v));
        }
    }
}
