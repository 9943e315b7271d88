//! Byte-identical replay: the worker count must never change experiment
//! output.
//!
//! This is the contract the parallel runner (`sim::exec`) is built around:
//! cells derive all randomness from `(scenario.seed, Component, run_index)`
//! and own their `BuiltScenario`, so scheduling order cannot leak into the
//! tables. The experiments here cover the main runner shapes — plain
//! estimator grids (f1, f3), per-run self-building cells (f5), cells that
//! install a fault plan on their build before they estimate (f11), the
//! bulk-built mega-scale sweep (f12), its churn-at-scale column whose cells
//! mutate the network through batched membership windows and item turnover
//! (f12b), the adversarial axis pack whose fault plans and crowds ride in
//! the scenario itself (f13), and the open-loop serving engine whose cells
//! each drive thousands of foreground ops (f14). Each experiment's serial
//! render is also checked against its golden fixture (`tests/golden/`,
//! shared with `golden_experiments.rs`), so these eight pin their bytes
//! without a third run.

mod support;

use dde_core::{DfDde, DfDdeConfig};
use dde_sim::exec;
use dde_sim::experiments::{run_by_id, Scale};
use dde_sim::report::Table;
use dde_sim::{aggregate, build, build_fresh, Scenario};

/// The ring's values, ascending.
fn values(net: &dde_ring::Network) -> Vec<f64> {
    net.live_values().iter().copied().collect()
}

fn render(tables: &[Table]) -> (String, String) {
    let text: String = tables.iter().map(dde_sim::Table::to_text).collect::<Vec<_>>().join("\n");
    let csv: String = tables.iter().map(dde_sim::Table::to_csv).collect::<Vec<_>>().join("\n");
    (text, csv)
}

/// One test (not one per experiment) because the jobs setting is process
/// global and libtest runs `#[test]`s concurrently.
#[test]
fn quick_suite_is_byte_identical_across_jobs() {
    for id in ["f1", "f3", "f5", "f11", "f12", "f12b", "f13", "f14"] {
        exec::set_jobs(1);
        let tables = run_by_id(id, Scale::Quick).expect("known id");
        support::check_tables(id, &tables);
        let serial = render(&tables);

        exec::set_jobs(4);
        let parallel = render(&run_by_id(id, Scale::Quick).expect("known id"));

        exec::set_jobs(0); // restore the default for other tests in this binary

        assert_eq!(
            serial.0, parallel.0,
            "{id}: rendered text differs between --jobs 1 and --jobs 4"
        );
        assert_eq!(serial.1, parallel.1, "{id}: CSV differs between --jobs 1 and --jobs 4");
    }
}

/// A forked (snapshot-cache-hit) build must be indistinguishable from a
/// fresh one: the same stored values, and — the stronger claim —
/// the same estimator results when both copies are actually *run* (probes
/// mutate message stats, evaluation draws RNG streams, etc.).
#[test]
fn forked_builds_replay_fresh_builds_exactly() {
    let s = Scenario::default().with_peers(48).with_items(4_000).with_seed(4242);
    let mut fresh = build_fresh(&s);
    let mut first = build(&s); // populates (or hits) the snapshot cache
    let mut forked = build(&s); // guaranteed cache hit → Network::fork

    assert_eq!(values(&fresh.net), values(&forked.net));

    let est = DfDde::new(DfDdeConfig::with_probes(8));
    let a = aggregate(&mut fresh, &est, 3);
    let b = aggregate(&mut first, &est, 3);
    let c = aggregate(&mut forked, &est, 3);
    // Debug formatting prints f64s exactly, so equal strings = equal bits.
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "fresh vs first build diverged");
    assert_eq!(format!("{a:?}"), format!("{c:?}"), "fresh vs forked build diverged");
}

/// The snapshot cache is keyed on the scenario itself; the f12 sweep
/// stresses it with scenarios that differ only in `peers`/`items`.
/// Every sweep point must map to a distinct key, and a cache hit must hand
/// back the network that was stored under that exact scenario — never a
/// neighboring size's.
#[test]
fn snapshot_cache_keys_do_not_collide_for_bulk_built_scenarios() {
    use dde_sim::experiments::f12_scale::{scale_scenario, ITEMS_PER_PEER};

    let keys = [1_000, 10_000, 100_000, 1_000_000].map(scale_scenario);
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b, "two f12 sweep points share a cache key");
        }
    }

    // Tiny f12-shaped scenarios: prime the cache with two adjacent sizes,
    // then re-build both and check each hit returns its own snapshot.
    for &p in &[48usize, 49] {
        let built = build(&scale_scenario(p));
        assert_eq!(built.net.ids().count(), p);
        assert_eq!(built.net.total_items(), (p * ITEMS_PER_PEER) as u64);
    }
    for &p in &[48usize, 49] {
        let forked = build(&scale_scenario(p)); // guaranteed cache hit
        assert_eq!(forked.net.ids().count(), p, "cache hit returned the wrong snapshot");
        assert_eq!(forked.net.total_items(), (p * ITEMS_PER_PEER) as u64);
        let fresh = build_fresh(&scale_scenario(p));
        assert_eq!(values(&fresh.net), values(&forked.net));
    }
}

/// The churn column mutates its forked snapshots *in place* — joins splice
/// the arena columns, crashes drop stores, turnover rewrites data. None of
/// that may leak back into the cache: a churned scenario's key must never
/// collide with its static twin's, and a post-churn rebuild of the same
/// scenario must hand back the pristine snapshot.
#[test]
fn churned_forks_do_not_corrupt_the_snapshot_cache() {
    use dde_sim::experiments::f12_scale::scale_scenario;
    use dde_sim::experiments::f12b_churn::{churn_phase, churn_scenario};

    for &p in &[50usize, 500] {
        assert_ne!(
            churn_scenario(p),
            scale_scenario(p),
            "churned and static sweep points share a cache key at P = {p}"
        );
    }

    let s = churn_scenario(64);
    let pristine = build_fresh(&s);
    let mut churned = build(&s); // primes (or hits) the snapshot cache
    churn_phase(&mut churned);
    assert_ne!(values(&pristine.net), values(&churned.net), "churn must actually change the data");

    let hit = build(&s); // guaranteed cache hit → fork of the snapshot
    assert_eq!(hit.net.ids().count(), 64, "cache hit returned the wrong snapshot");
    assert_eq!(
        values(&pristine.net),
        values(&hit.net),
        "a churned fork leaked its mutations back into the snapshot cache"
    );
}
