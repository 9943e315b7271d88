//! # dde-sim
//!
//! Simulation driver for the ring-DDE reproduction: declarative scenario
//! configurations, a network/workload builder, an estimator runner with
//! repeat-and-aggregate statistics, and the full experiment suite
//! (figures F1–F8, tables T1–T3 — see `DESIGN.md` §4 for the index).
//!
//! The typical flow:
//!
//! ```
//! use dde_sim::{Scenario, build, run_estimator};
//! use dde_core::{DfDde, DfDdeConfig};
//!
//! let scenario = Scenario::default().with_peers(128).with_items(10_000).with_seed(7);
//! let mut built = build(&scenario);
//! let report = run_estimator(&mut built, &DfDde::new(DfDdeConfig::with_probes(64)), 0).unwrap();
//! assert!(report.ks_vs_data < 0.25);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]

pub mod adversary;
pub mod build;
pub mod dst;
pub mod exec;
pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod workload;

pub use build::{build, build_fresh, BuiltScenario};
pub use dst::{DstConfig, DstEvent, DstFailure, InjectedBug, Schedule};
pub use exec::{CellResult, ExecPlan};
pub use report::Table;
pub use runner::{aggregate, aggregate_cell, run_estimator, AggregatedResult, RunResult};
pub use scenario::{CapacitySpec, NodeLayout, PartitionSpec, PlacementMode, Scenario};
pub use workload::{run_workload, OpKind, OpMix, ScheduledOp, WorkloadReport, WorkloadSpec};
