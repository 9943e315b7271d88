//! `ringbench` — one benchmark for the ring: end-to-end metrics from plain
//! runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! ringbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ringbench --reps N [--seed N] [--seconds S]
//! ```
//!
//! The first form is one run of one workload. It prints each metric with its
//! unit, a provenance line, and as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value",
//! "unit"}}}`. With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones and the spans go to
//! `$CARGO_TARGET_DIR/ringbench/trace-<workload>-seed<N>.jsonl` (`target/`
//! when unset). It exits 1 if any output check failed, 2 on bad arguments.
//!
//! The second form runs every workload `N` times plus one traced run each,
//! every run in a fresh child process and one at a time, and prints every
//! metric with its unit, median, quartiles and sample count. Fresh
//! processes mean the snapshot cache and the allocator start cold and the
//! peak RSS is the workload's own. Every run is single-threaded.
//!
//! Run it from the repository root:
//! `cargo run --release --manifest-path ringbench/Cargo.toml -- --reps 5`.
//!
//! # Workloads
//!
//! The seed feeds every scenario and op stream; the program under test sees
//! only the generated inputs. All four run a closed loop with one caller:
//! each step starts when the previous one returns, for `--seconds` and at
//! least a fixed number of steps.
//!
//! | name | one step | why |
//! |---|---|---|
//! | `static` | 640 `Network::lookup`s between random peers, then ten DF-DDE k = 64 estimates, on F12's ring at P = 10⁵ with 2·10⁶ Zipf items | The read path on a ring larger than the caches: routing and probing are memory-bound here. Set-up is 10⁵-peer builds, so build work shows in `setup_s`. |
//! | `churn` | one `ChurnBatch` window (P/1000 joins, P/2000 leaves, P/2000 crashes), 0.25 % item turnover via `churn_remove_item`/`churn_insert_item` journaled into `StreamingTruth` with the crash losses, then four estimates, on the same ring shape; a run is whole epochs of 32 steps, each starting on a fork of the set-up ring | The write path on the same arena: a change that reads the columns faster but splices or hands off slower shows here and not in `static`. |
//! | `serve` | one `run_workload` run of F14's serving spec (mix 200/700/100 ‰, k = 48, a refresh every 2 virtual s, batching and piggybacking on): 2.5 virtual s at 10 000 ops/virtual s, so each run completes the all-dedicated refresh at 0 s and one fed by piggybacked traffic, on a 4096-peer ring with 2·10⁵ items | Open-loop serving in virtual time: arrivals are fixed from the seed, so hops are virtual and deterministic. The 2.6 MB arena fits in cache, so this is the CPU cost of `sim::workload`, `BatchRouter`, `ProbePlan` and inserts. |
//! | `quick_suite` | one of the 21 quick experiments through `run_by_id` on one worker, in suite order; a run is whole passes over the suite, after a first pass that is its set-up | The researcher's loop that regenerates every table: many small cells, the snapshot cache (the first pass fills it) and the runner's bookkeeping — the surface that moving the cache and the jobs count out of process statics rewrites. Its experiments fix their own seeds, so it ignores `--seed`. |
//!
//! # End-to-end metrics
//!
//! Every run reports all of them; "step" is the workload's step above. The
//! bound is the share of the parent commit's median by which the metric
//! may worsen before a change counts as a regression. The three counts,
//! `ks_mean` and `peak_rss_mb` are taken over the run's first `min_steps`
//! steps (100; five passes, 105 steps, for `quick_suite`), the same work on
//! every run of a seed, so the counts and `ks_mean` repeat exactly.
//! `quick_suite` reports no messages of its own: its counts and KS are
//! T1b's DF-DDE row, the suite's own measure of one default-scenario
//! estimate, and its tables must reproduce bit for bit.
//!
//! The timings are taken over every step, and scaled to the reference box's
//! quiet speed by the run's `clock::Clock`: the box is a shared VM whose
//! speed drifts with its neighbours' load by half again over minutes, so
//! each run also times a fixed reference kernel between steps and divides
//! every step, and every set-up build, by the kernel's time around it. Ten
//! runs of one seed spread 0.09–0.31 between quartiles raw and 0.03–0.13
//! scaled (`BASELINE.md`). The tail is the highest percentile with ten
//! steps beyond it in every run: p90.
//!
//! | name | unit | better | bound | meaning |
//! |---|---|---|---|---|
//! | `setup_s` | s | lower | 0.25 | median of five `build_fresh` times; `quick_suite`: its first pass |
//! | `peak_rss_mb` | MB | lower | 0.10 | the process's `VmHWM` after set-up and the prefix |
//! | `step_ms_p50` | ms | lower | 0.25 | median step latency |
//! | `step_ms_tail` | ms | lower | 0.25 | p90 step latency |
//! | `steps_per_s` | 1/s | higher | 0.25 | steps per second of step time |
//! | `msgs_per_step` | count | lower | 0.02 | messages the network charged per step |
//! | `bytes_per_step` | B | lower | 0.02 | bytes the network charged per step |
//! | `ks_mean` | KS | lower | 0.10 | mean KS distance of the step's estimates (to the generator; `serve`: to the live data) |
//!
//! A run is correct when every lookup finds the true owner, every estimate
//! and serving run completes, the mean KS lies in F12's band
//! (`KsBand::new(64, 1e-3).with_systematic(0.06)`; F14's for `serve`, with
//! 0.08), the ring passes `check_invariants` (`static`, `churn`), `churn`'s
//! truth counts the ring's items after every step and its journaled KS
//! equals a fresh one bit for bit, every `serve` run refreshes and some
//! probes are piggybacked, and every `quick_suite` pass renders the first
//! pass's tables exactly.
//!
//! # Per-layer metrics and the end-to-end metric each should move
//!
//! The traced run replays `build_fresh`'s parts during set-up, runs the same
//! loop with spans around every call into `dde_sim`, `dde_core`, `dde_ring`
//! and `dde_stats` in every other unit (step; epoch of `churn`; pass of
//! `quick_suite`), and ends with a layer sample: one step of every
//! workload's kind on this workload's ring (T1's default for
//! `quick_suite`), so each layer is measured on every workload. Per-layer
//! times are raw wall time.
//!
//! - **Build** (`sim::build`, `ring::arena`/`index`/`store`):
//!   `stats.dataset_s`, `ring.build_bulk_s`, `ring.bulk_load_s` (medians
//!   over four replays), `sim.build_glue_s` (the median `build_fresh` minus
//!   the three parts; below zero when the parts, timed apart, run slower
//!   than inside a build) and `ring.build_allocs` move `setup_s` and
//!   `peak_rss_mb` — on `static` and `churn` most, barely on `serve`.
//! - **Routing** (`ring::network`): `ring.lookup_us_mean`,
//!   `ring.lookup_hops_mean`, `ring.lookup_allocs_per_op` (should be 0)
//!   move `step_ms_*` on `static` and, through probes, everywhere.
//! - **Probing and the skeleton** (`core::dfdde`, `core::skeleton`):
//!   `core.run_probes_us_p50`, `core.build_skeleton_us_p50`,
//!   `core.probes_ok_ratio`, `ring.msgs_per_probe`,
//!   `ring.bytes_per_estimate`, `core.estimate_allocs_per_op`, and the
//!   truth layer's `stats.ks_us_p50` move `step_ms_*` on `static`/`churn`
//!   and `msgs_per_step`/`bytes_per_step`/`ks_mean` everywhere.
//! - **Churn** (`ring::churn`, `stats::streaming`):
//!   `ring.churn_window_ms`, `ring.churn_events_per_window`,
//!   `ring.churn_skipped_per_window`, `ring.finger_writes_per_event`,
//!   `ring.items_moved_per_window`, `ring.churn_allocs_per_window`,
//!   `ring.remove_item_ns`, `ring.insert_item_ns` and `stats.journal_ms`
//!   move `step_ms_*` and `steps_per_s` on `churn`.
//! - **Serving** (`sim::workload`): `ring.fork_ms`, `sim.schedule_ms`,
//!   `sim.serve_loop_ms` (`run_workload` minus fork and schedule) and
//!   `sim.serve_allocs_per_op` move `step_ms_*` on `serve`;
//!   `ring.dedicated_probe_msgs_per_run`, `core.piggybacked_points_per_run`,
//!   `ring.lookup_hop_msgs_per_run` and `sim.refreshes_per_run` move its
//!   `msgs_per_step`.
//! - **Runner and snapshot cache** (`sim::exec`, `sim::build::build`):
//!   `sim.exec_cell_ms`, `sim.exec_build_ms_per_cell` and
//!   `sim.exec_allocs_per_cell` move `step_ms_*` and `setup_s` on
//!   `quick_suite`.
//! - `bench.step_self_pct`: the share of step time spent outside every layer
//!   call — the benchmark's own drawing and checking, which no change to
//!   the program should move.
//! - `trace_overhead_pct`: the recorded units' mean step time over the
//!   unrecorded ones', less one, in the same run.
//!
//! # Reading a trace
//!
//! The first line is `{"provenance": {…}}`; every further line is one span:
//! `id`, `name` (`<crate>.<function>`, or `step`), `parent` (an `id` or
//! null), `op` (the step index; null for set-up and the layer sample),
//! `start_ns`/`end_ns` since the recorder started, and the `allocs`, `msgs`,
//! `bytes` and `ops` inside it. A span's self time is its duration minus its
//! children's; a `step` span's self time is the benchmark's own work
//! between layer calls. To find where a step's time goes, sum self time by
//! `name` over the spans with a non-null `op`.

mod clock;
mod json;
mod summary;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workloads::{Kind, Metric, Size};

/// Every run counts its allocations, traced or not, so both sides of a
/// comparison pay the same two relaxed writes per allocation.
#[global_allocator]
static ALLOC: dde_stats::alloc::CountingAlloc = dde_stats::alloc::CountingAlloc;

const USAGE: &str =
    "usage: ringbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     ringbench --reps N [--seed N] [--seconds S]\n\
                     workloads: static churn serve quick_suite";

/// Parsed command line.
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 20.0, trace: false, reps: None };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Kind::parse(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be finite and non-negative".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|_| "--reps needs a count")?;
                args.reps = Some(n.max(1));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_some() == args.reps.is_some() {
        return Err("give exactly one of --workload and --reps".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.reps) {
        (Some(kind), _) => single_run(kind, args.seed, args.seconds, args.trace),
        (None, Some(reps)) => reps_run(args.seed, reps, args.seconds),
        (None, None) => unreachable!("parse_args demands one of the two"),
    }
}

/// One run of one workload; the last stdout line is the result object.
fn single_run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let start = sys::now();
    let mut tracer = trace::Tracer::new(traced);
    let report = workloads::run(kind, seed, seconds, Size::Full, &mut tracer);
    let provenance = sys::provenance(seed, 1, sys::secs_since(start));
    let mut correct = report.correct();
    if traced {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let path = std::path::Path::new(&dir)
            .join("ringbench")
            .join(format!("trace-{}-seed{seed}.jsonl", kind.name()));
        match tracer.write_jsonl(&path, &provenance) {
            Ok(()) => eprintln!("trace: {} spans in {}", tracer.spans().len(), path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                correct = false;
            }
        }
    }
    let failures = report.checks.failures();
    for f in failures.iter().take(20) {
        eprintln!("CHECK FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!("... and {} more failed checks", failures.len() - 20);
    }
    let metrics = if traced { &report.per_layer } else { &report.end_to_end };
    for m in metrics {
        println!("{:<36} {:>16} {}", m.name, number(m.value), m.unit);
    }
    println!(
        "reference kernel: median {:.4} ms over {} samples, {} ms when the box is quiet",
        summary::median(&report.reference_ms),
        report.reference_ms.len(),
        clock::QUIET_MS
    );
    println!("provenance: {provenance}");
    println!("{}", result_line(correct, report.attempted, report.failed, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A metric value as JSON: every digit of the measurement, `null` if it is
/// not a finite number.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// `--reps N`: every workload `N` times untraced and once traced, each run a
/// fresh child process, one at a time; then the per-metric summary.
fn reps_run(seed: u64, reps: usize, seconds: f64) -> ExitCode {
    let start = sys::now();
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    // (workload, traced, metric) → (unit, one value per run).
    let mut table: BTreeMap<(usize, bool, String), (String, Vec<f64>)> = BTreeMap::new();
    let runs =
        (0..reps).flat_map(|_| Kind::ALL.map(|k| (k, false))).chain(Kind::ALL.map(|k| (k, true)));
    for (kind, traced) in runs {
        eprintln!("running {} (trace {})", kind.name(), u8::from(traced));
        let result = match child_run(&exe, kind, seed, seconds, traced) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{} (trace {}): {e}", kind.name(), u8::from(traced));
                ok = false;
                continue;
            }
        };
        let Some(json::Value::Obj(metrics)) = result.get("metrics") else { continue };
        for (name, m) in metrics {
            let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("").to_string();
            let value = m.get("value").and_then(json::Value::as_f64).unwrap_or(f64::NAN);
            let key = (kind as usize, traced, name.clone());
            table.entry(key).or_insert_with(|| (unit, Vec::new())).1.push(value);
        }
    }
    println!("provenance: {}", sys::provenance(seed, reps, sys::secs_since(start)));
    println!(
        "{:<8} {:<5} {:<36} {:<6} {:>3} {:>14} {:>14} {:>14}",
        "workload", "trace", "metric", "unit", "n", "median", "q1", "q3"
    );
    for ((kind, traced, name), (unit, values)) in &table {
        let (q1, q3) = summary::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{:<8} {:<5} {:<36} {:<6} {:>3} {:>14.6} {:>14.6} {:>14.6}",
            Kind::ALL[*kind].name(),
            u8::from(*traced),
            name,
            unit,
            values.len(),
            summary::median(values),
            q1,
            q3
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one workload in a child process and returns its result object.
fn child_run(
    exe: &std::path::Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<json::Value, String> {
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last)?;
    if !out.status.success() || result.get("correct") != Some(&json::Value::Bool(true)) {
        return Err(format!("run failed ({})", out.status));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use workloads::Report;

    /// Every workload at smoke size, untraced and traced, run once for all
    /// tests.
    fn smoke() -> &'static [(Kind, Report, Report)] {
        static RUNS: OnceLock<Vec<(Kind, Report, Report)>> = OnceLock::new();
        RUNS.get_or_init(|| {
            Kind::ALL
                .map(|kind| {
                    let plain =
                        workloads::run(kind, 3, 0.0, Size::Smoke, &mut trace::Tracer::new(false));
                    let traced =
                        workloads::run(kind, 3, 0.0, Size::Smoke, &mut trace::Tracer::new(true));
                    (kind, plain, traced)
                })
                .into()
        })
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).map(|m| m.value).expect(name)
    }

    #[test]
    fn every_workload_passes_its_checks_at_smoke_size() {
        for (kind, plain, traced) in smoke() {
            for (label, r) in [("plain", plain), ("traced", traced)] {
                assert!(
                    r.correct(),
                    "{} {label}: {:?}, {} failed",
                    kind.name(),
                    r.checks.failures(),
                    r.failed
                );
                assert!(r.attempted > 0, "{} {label} attempted nothing", kind.name());
            }
            for m in &plain.end_to_end {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}: {}",
                    kind.name(),
                    m.name,
                    m.value
                );
            }
            for m in &traced.per_layer {
                assert!(m.value.is_finite(), "{} {}: {}", kind.name(), m.name, m.value);
            }
        }
    }

    #[test]
    fn the_traced_run_reproduces_the_deterministic_metrics() {
        for (kind, plain, traced) in smoke() {
            for name in ["msgs_per_step", "bytes_per_step", "ks_mean"] {
                assert_eq!(
                    value(&plain.end_to_end, name).to_bits(),
                    value(&traced.end_to_end, name).to_bits(),
                    "{} {name}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn emitted_metric_names_are_the_declared_ones() {
        let declared =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |section: &str| -> Vec<String> {
            let Some(json::Value::Arr(items)) = declared.get(section) else {
                panic!("no {section}")
            };
            let mut v: Vec<String> = items
                .iter()
                .map(|m| m.get("name").and_then(json::Value::as_str).expect("name").to_string())
                .collect();
            v.sort();
            v
        };
        let emitted = |metrics: &[Metric]| -> Vec<String> {
            let mut v: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
            v.sort();
            v
        };
        for (kind, plain, traced) in smoke() {
            assert_eq!(emitted(&plain.end_to_end), names("end_to_end"), "{}", kind.name());
            assert_eq!(emitted(&traced.per_layer), names("per_layer"), "{}", kind.name());
        }
        let workloads: Vec<String> = names("workloads");
        let mut ours: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        ours.sort();
        assert_eq!(workloads, ours);
        for name in names("end_to_end").iter().chain(&names("per_layer")) {
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?} has characters outside [A-Za-z0-9_.-]"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload churn --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Some(Kind::Churn), 7, 2.5, true));
        assert!(parse("--reps 3").unwrap().reps == Some(3));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload static --trace 2").is_err());
        assert!(parse("--workload static --seconds -1").is_err());
        assert!(parse("--workload static --reps 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload static --bogus").is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let m = [Metric { name: "setup_s", unit: "s", value: 0.8127 }];
        let v = json::parse(&result_line(true, 10, 0, &m)).unwrap();
        let json::Value::Obj(top) = &v else { panic!("not an object") };
        assert_eq!(top.keys().collect::<Vec<_>>(), ["attempted", "correct", "failed", "metrics"]);
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
    }
}
