//! The reconstructed experiment suite (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md` for the paper-vs-measured record).
//!
//! Every experiment is a function from a [`Scale`] to one or more
//! [`Table`]s, regenerable via `cargo run -p dde-cli -- expts <id>`;
//! ringbench's `quick_suite` workload times all of them at quick scale.
//!
//! # Determinism and parallelism
//!
//! Each experiment decomposes into independent *cells* — (scenario build,
//! estimator, repeat block) triples — pushed onto an [`crate::exec::ExecPlan`]
//! in canonical (table) order and executed by a work-stealing worker pool
//! sized by [`crate::exec::jobs`]. Cells build their own `BuiltScenario` and
//! draw randomness only from `SeedSequence::new(scenario.seed)` streams keyed
//! by `(Component, run_index)`, so a table's bytes depend only on the
//! scenario seeds, never on the worker count or scheduling order.
//! `crates/sim/tests/determinism.rs` pins this guarantee.

pub mod f10_replication;
pub mod f11_faults;
pub mod f12_scale;
pub mod f12b_churn;
pub mod f13_adversarial;
pub mod f14_throughput;
pub mod f1_probes;
pub mod f2_network_size;
pub mod f3_distributions;
pub mod f4_cost_accuracy;
pub mod f5_churn;
pub mod f5b_continuous;
pub mod f6_granularity;
pub mod f7_dataset_size;
pub mod f8_routing;
pub mod f9_sample_quality;
pub mod t1_defaults;
pub mod t2_cost_to_target;
pub mod t3_bias_ablation;
pub mod t4_probe_strategy;
pub mod t5_aggregates;

pub use f10_replication::f10_replication;
pub use f11_faults::f11_faults;
pub use f12_scale::f12_scale;
pub use f12b_churn::f12b_churn;
pub use f13_adversarial::f13_adversarial;
pub use f14_throughput::f14_throughput;
pub use f1_probes::f1_accuracy_vs_probes;
pub use f2_network_size::f2_accuracy_vs_network_size;
pub use f3_distributions::f3_distribution_free;
pub use f4_cost_accuracy::f4_cost_accuracy_frontier;
pub use f5_churn::f5_accuracy_under_churn;
pub use f5b_continuous::f5b_continuous_refresh;
pub use f6_granularity::f6_summary_granularity;
pub use f7_dataset_size::f7_dataset_size;
pub use f8_routing::f8_routing_hops;
pub use f9_sample_quality::f9_sample_quality;
pub use t1_defaults::t1_default_parameters;
pub use t2_cost_to_target::t2_messages_to_target_accuracy;
pub use t3_bias_ablation::t3_bias_ablation;
pub use t4_probe_strategy::t4_probe_strategy;
pub use t5_aggregates::t5_aggregates;

use crate::report::Table;

/// Experiment scale: `Quick` keeps everything test-suite friendly (seconds);
/// `Full` reproduces the paper-sized sweeps (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small networks, few repeats — used by tests and smoke runs.
    Quick,
    /// Paper-scale sweeps.
    Full,
}

impl Scale {
    /// Repeats per sweep point.
    pub fn repeats(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }
}

/// Runs one experiment by id (`"f1"`, `"t3"`, …); `None` for unknown ids.
pub fn run_by_id(id: &str, scale: Scale) -> Option<Vec<Table>> {
    Some(match id.to_ascii_lowercase().as_str() {
        "t1" => t1_default_parameters(scale),
        "f1" => f1_accuracy_vs_probes(scale),
        "f2" => f2_accuracy_vs_network_size(scale),
        "f3" => f3_distribution_free(scale),
        "f4" => f4_cost_accuracy_frontier(scale),
        "f5" => f5_accuracy_under_churn(scale),
        "f5b" => f5b_continuous_refresh(scale),
        "f6" => f6_summary_granularity(scale),
        "f7" => f7_dataset_size(scale),
        "f8" => f8_routing_hops(scale),
        "f9" => f9_sample_quality(scale),
        "f10" => f10_replication(scale),
        "f11" => f11_faults(scale),
        "f12" => f12_scale(scale),
        "f12b" => f12b_churn(scale),
        "f13" => f13_adversarial(scale),
        "f14" => f14_throughput(scale),
        "t2" => t2_messages_to_target_accuracy(scale),
        "t3" => t3_bias_ablation(scale),
        "t4" => t4_probe_strategy(scale),
        "t5" => t5_aggregates(scale),
        _ => return None,
    })
}

/// All experiment ids, in run order.
pub const ALL_IDS: &[&str] = &[
    "t1", "f1", "f2", "f3", "f4", "f5", "f5b", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f12b",
    "f13", "f14", "t2", "t3", "t4", "t5",
];
