//! Golden-output fixtures for the quick-scale experiment tables.
//!
//! Tier 2 of the test pyramid (see TESTING.md): the determinism suite proves
//! the experiment output is byte-identical across worker counts, and these
//! fixtures pin *which* bytes — any change to an estimator, the cost model,
//! the RNG derivation, or the renderer shows up as a fixture diff that has
//! to be blessed deliberately:
//!
//! `GOLDEN_UPDATE=1 cargo test -p dde-sim --test golden_experiments --test determinism`
//!
//! Every quick experiment is pinned. The eight `determinism.rs` runs across
//! worker counts (f1, f3, f5, f11, f12, f12b, f13, f14) check their serial
//! render against these fixtures there, so this binary runs only the rest
//! and each experiment runs once per `cargo test`.

mod support;

use dde_sim::experiments::{run_by_id, Scale};

fn check_experiment(id: &str) {
    let tables = run_by_id(id, Scale::Quick).expect("known experiment id");
    support::check_tables(id, &tables);
}

macro_rules! golden {
    ($name:ident, $id:literal) => {
        #[test]
        fn $name() {
            check_experiment($id);
        }
    };
}

golden!(f2_network_size, "f2");
golden!(f4_cost_accuracy, "f4");
golden!(f5b_continuous_refresh, "f5b");
golden!(f6_granularity, "f6");
golden!(f7_dataset_size, "f7");
golden!(f8_routing, "f8");
golden!(f9_sample_quality, "f9");
golden!(f10_replication, "f10");
golden!(t1_defaults, "t1");
golden!(t2_cost_to_target, "t2");
golden!(t3_bias_ablation, "t3");
golden!(t4_probe_strategy, "t4");
golden!(t5_aggregates, "t5");
