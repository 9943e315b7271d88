//! Subcommand implementations. Each reads and checks its whole command line
//! before it builds or runs anything and returns the checked work as a
//! [`Run`], so a refused command line costs nothing.

use crate::args::{Args, Spec};
use crate::json::Json;
use dde_core::{
    DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation, GossipConfig,
    UniformPeerConfig, UniformPeerSampling,
};
use dde_ring::{ChurnConfig, ChurnProcess, FaultPlan};
use dde_sim::dst::{self, DstConfig, InjectedBug, Schedule};
use dde_sim::experiments::{run_by_id, Scale, ALL_IDS};
use dde_sim::scenario::{check_events, check_replication, check_size, MAX_EVENTS};
use dde_sim::{
    build, exec, run_workload, BuiltScenario, OpMix, PlacementMode, Scenario, WorkloadSpec,
};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Usage text for `help`, with the exit rule every subcommand follows.
pub const USAGE: &str = "\
ring-dde — distribution-free data density estimation playground

usage: ring-dde COMMAND [OPTIONS]

commands:
  estimate   estimate the global density and print quantiles + accuracy
  aggregate  estimate COUNT / SUM / AVG / VAR from one probe round
  query      plan + execute a range query
  churn      stress the network with churn, report survival & healing
  workload   serve an open-loop insert/lookup/estimate mix, report latency
  topology   print ring statistics (arcs, load, hops)
  expts      regenerate the evaluation's tables and figures
  dst        fuzz event schedules against the invariant oracle, or replay one
  help       this text

network options (estimate, aggregate, query, churn, workload, topology):
  --peers P        number of peers            (default 256)
  --items N        number of items            (default 50000)
  --dist D         uniform|normal|exponential|pareto|zipf|bimodal|trimodal|lognormal
                                              (default zipf)
  --seed S         master seed                (default 42)
  --buckets B      summary buckets            (default 8)
  --placement M    range|hashed               (default range)
  --loss L         injected message-loss probability, reply loss L/2 (default 0)
  --fault-seed S   fault-plan seed            (default seed ^ 0xFA17)

command-specific:
  estimate: --probes K      probe budget (default 128; at least 2 for
                            df-dde, 1 for uniform-peer; at most 200000)
           --method M       df-dde|exact|uniform-peer|gossip (default df-dde)
           --json           machine-readable output
  aggregate: --probes K     probe budget (default 128, 2 to 200000)
           --json           machine-readable output
  query:   --probes K       probe budget (default 128, 2 to 200000)
           --lo X --hi Y    range bounds (default 100..300)
  churn:   --rate R         churn rate/peer/unit (default 0.1)
           --duration T     time units (default 10)
           --replication R  replication factor (default 0, at most 8)
  workload: --rate R        target arrival rate, ops/s (default 200)
           --duration T     virtual seconds of traffic (default 10)
           --insert-pm M    insert share, per mille (default 200)
           --lookup-pm M    lookup share, per mille (default 700;
                            the remainder is estimate reads)
           --probes K       probes per refresh (default 48, 2 to 200000)
           --refresh T      seconds between estimate refreshes (default 2)
           --no-batch       route each lookup separately
           --no-piggyback   dedicated probes only
           --json           machine-readable output
  expts [IDS...]            experiment ids, t1 f1..f14 f5b f12b t2..t5
                            (default: all of them)
           --full           paper-scale sweeps (minutes), not quick ones
           --csv DIR        also write each table as CSV into DIR
           --jobs N         cell worker threads, at most 256 (default 0,
                            one per core); output is the same for every N
  dst:     --schedules N    schedules to fuzz (default 16)
           --events N       events per schedule (default 48); schedules
                            x events may not exceed 200000
           --seed S         master seed (default 3415)
           --peers N --items N --replication N
                            the initial network (default 24, 1500, 1;
                            replication at most 8)
           --bug [NAME]     arm an injected bug: skip-successor-on-heal
                            (the default) or drop-capacity-fifo-guard
           --out FILE       where a failure's repro goes (default dst-repro.ron)
           --jobs N         as for expts
           --replay FILE    replay a repro file instead of fuzzing

exit status, for every command:
  0  success, or stdout closed by its reader
  1  the run failed: a DST violation found or reproduced, a routing or
     estimation error, any other stdout write error, or a CSV that
     cannot be written
  2  the command line was refused, before anything ran: an unknown
     command, option, id or drill, a bad or out-of-range value, or a
     repro file that cannot be read or parsed";

/// A checked command line's work.
pub type Run = Box<dyn FnOnce() -> Result<(), String>>;

/// Reads and checks a subcommand's options into its [`Run`].
type Check = fn(&Args) -> Result<Run, String>;

/// The options of every command that builds a network.
const NETWORK: &str = "peers items dist seed buckets placement loss fault-seed";

/// Every subcommand but `help`, with the options it reads.
const COMMANDS: [(Spec, Check); 8] = [
    (Spec { name: "estimate", options: &[NETWORK, "probes method json"], words: false }, estimate),
    (Spec { name: "aggregate", options: &[NETWORK, "probes json"], words: false }, aggregate),
    (Spec { name: "query", options: &[NETWORK, "probes lo hi"], words: false }, query),
    (Spec { name: "churn", options: &[NETWORK, "rate duration replication"], words: false }, churn),
    (
        Spec {
            name: "workload",
            options: &[
                NETWORK,
                "rate duration insert-pm lookup-pm probes refresh no-batch no-piggyback json",
            ],
            words: false,
        },
        workload,
    ),
    (Spec { name: "topology", options: &[NETWORK], words: false }, topology),
    (Spec { name: "expts", options: &["full csv jobs"], words: true }, expts),
    (
        Spec {
            name: "dst",
            options: &["schedules events seed peers items replication bug out jobs replay"],
            words: false,
        },
        dst,
    ),
];

/// The most worker threads `--jobs` may ask for. A plan starts one per
/// cell up to the count, and a `dst` run can hold 2·10^5 cells.
const MAX_JOBS: usize = 256;

/// Reads and checks a whole command line, the subcommand's name first.
pub fn check(argv: impl IntoIterator<Item = String>) -> Result<Run, String> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or("no command given")?;
    let Some((spec, read)) = COMMANDS.iter().find(|(spec, _)| spec.name == name) else {
        return Err(format!("unknown command '{name}'"));
    };
    read(&Args::parse(spec, argv)?)
}

fn dist_of(name: &str) -> Result<DistributionKind, String> {
    Ok(match name {
        "uniform" => DistributionKind::Uniform,
        "normal" => DistributionKind::Normal { center_frac: 0.5, std_frac: 0.12 },
        "exponential" => DistributionKind::Exponential { rate_scale: 8.0 },
        "pareto" => DistributionKind::Pareto { shape: 1.2 },
        "zipf" => DistributionKind::Zipf { cells: 64, exponent: 1.1 },
        "bimodal" => DistributionKind::Bimodal,
        "trimodal" => DistributionKind::Trimodal,
        "lognormal" => DistributionKind::LogNormal { sigma: 0.8 },
        other => return Err(format!("unknown distribution '{other}'")),
    })
}

fn scenario_of(args: &Args) -> Result<Scenario, String> {
    let placement = match args.get("placement").unwrap_or("range") {
        "range" => PlacementMode::Range,
        "hashed" => PlacementMode::Hashed,
        other => return Err(format!("unknown placement '{other}'")),
    };
    let peers = args.get_or("peers", 256usize)?;
    let items = args.get_or("items", 50_000usize)?;
    check_size(peers, items)?;
    let buckets = args.get_or("buckets", 8usize)?;
    if buckets == 0 {
        return Err("--buckets must be at least 1, got 0".into());
    }
    Ok(Scenario::default()
        .with_peers(peers)
        .with_items(items)
        .with_distribution(dist_of(args.get("dist").unwrap_or("zipf"))?)
        .with_summary_buckets(buckets)
        .with_placement(placement)
        .with_seed(args.get_or("seed", 42u64)?))
}

/// A rate, duration or interval: `--key`'s value, which must be a positive,
/// finite number.
fn positive(args: &Args, key: &str, default: f64) -> Result<f64, String> {
    let value = args.get_or(key, default)?;
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(format!("--{key} must be positive and finite, got {value}"))
    }
}

/// `--probes`, `default` when absent, which must be at least `least`, the
/// fewest replies the estimator can answer from, and at most
/// [`MAX_EVENTS`], since each probe is a scheduled exchange and the
/// estimators reserve room for every reply up front.
fn probes(args: &Args, default: usize, least: usize) -> Result<usize, String> {
    let probes = args.get_or("probes", default)?;
    if probes < least {
        return Err(format!("--probes must be at least {least}, got {probes}"));
    }
    if probes > MAX_EVENTS {
        return Err(format!("--probes must be at most {MAX_EVENTS}, got {probes}"));
    }
    Ok(probes)
}

/// `--jobs`: cell worker threads, 0 for one per core.
fn jobs(args: &Args) -> Result<usize, String> {
    let jobs = args.get_or("jobs", 0usize)?;
    if jobs > MAX_JOBS {
        return Err(format!("--jobs must be at most {MAX_JOBS}, got {jobs}"));
    }
    Ok(jobs)
}

/// A command's network, checked but not built: the scenario and, under
/// `--loss`, its fault plan.
struct Setup {
    scenario: Scenario,
    faults: Option<FaultPlan>,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let scenario = scenario_of(args)?;
    let loss = args.get_or("loss", 0.0f64)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--loss must be in [0, 1], got {loss}"));
    }
    let fault_seed = args.get_or("fault-seed", scenario.seed ^ 0xFA17)?;
    let faults = (loss > 0.0)
        .then(|| FaultPlan::new(fault_seed).with_loss(loss).with_reply_loss(loss / 2.0));
    Ok(Setup { scenario, faults })
}

impl Setup {
    /// Builds the network, and draws an initiator from the estimator stream.
    fn build(self) -> Result<(BuiltScenario, StdRng, dde_ring::RingId), String> {
        let mut built = build(&self.scenario);
        if let Some(plan) = self.faults {
            built.net.set_fault_plan(plan);
        }
        let mut rng = SeedSequence::new(self.scenario.seed).stream(Component::Estimator, 0);
        let initiator = built.net.random_peer(&mut rng).ok_or("empty network")?;
        Ok((built, rng, initiator))
    }
}

/// `ring-dde estimate`
fn estimate(args: &Args) -> Result<Run, String> {
    let method = args.get("method").unwrap_or("df-dde");
    // DF-DDE's skeleton needs two usable replies, uniform peer sampling one;
    // the other methods read no budget.
    let least = match method {
        "df-dde" => 2,
        "uniform-peer" => 1,
        _ => 0,
    };
    let probes = probes(args, 128, least)?;
    let setup = setup(args)?;
    let estimator: Box<dyn DensityEstimator> = match method {
        "df-dde" => Box::new(DfDde::new(DfDdeConfig::with_probes(probes))),
        "exact" => Box::new(ExactAggregation::new()),
        "uniform-peer" => Box::new(UniformPeerSampling::new(UniformPeerConfig {
            peers: probes,
            ..UniformPeerConfig::default()
        })),
        "gossip" => Box::new(GossipAggregation::new(GossipConfig::default())),
        other => return Err(format!("unknown method '{other}'")),
    };
    let json = args.has_flag("json");
    Ok(Box::new(move || {
        let (mut built, mut rng, initiator) = setup.build()?;
        let report =
            estimator.estimate(&mut built.net, initiator, &mut rng).map_err(|e| e.to_string())?;
        let ks_gen = report.estimate.ks_to(built.truth.as_ref());
        let ks_data = report.estimate.ks_to(&built.net.live_values());

        if json {
            let quantiles: Vec<Json> = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
                .iter()
                .map(|&q| Json::Arr(vec![q.into(), report.estimate.quantile(q).into()]))
                .collect();
            let out = Json::obj(vec![
                ("method", estimator.name().into()),
                ("peers", built.net.len().into()),
                ("items", built.net.total_items().into()),
                ("messages", report.messages().into()),
                ("bytes", report.bytes().into()),
                ("peers_contacted", report.peers_contacted.into()),
                ("probes_requested", report.probes_requested.into()),
                ("probes_succeeded", report.probes_succeeded.into()),
                ("faults_injected", report.cost.total_faults().into()),
                ("n_hat", report.estimated_total.into()),
                ("ks_vs_generator", ks_gen.into()),
                ("ks_vs_data", ks_data.into()),
                ("mean", report.estimate.mean().into()),
                ("std_dev", report.estimate.std_dev().into()),
                ("entropy", report.estimate.entropy().into()),
                ("mode", report.estimate.mode().into()),
                ("quantiles", Json::Arr(quantiles)),
            ]);
            outln!("{}", out.pretty());
            return Ok(());
        }

        outln!(
            "{} on {} peers / {} items: {} messages, {:.1} KB, {} peers contacted",
            estimator.name(),
            built.net.len(),
            built.net.total_items(),
            report.messages(),
            report.bytes() as f64 / 1024.0,
            report.peers_contacted
        );
        let faults = report.cost.total_faults();
        if faults > 0 || report.probes_succeeded < report.probes_requested {
            outln!(
                "faults: {faults} injected, {}/{} probes succeeded",
                report.probes_succeeded,
                report.probes_requested
            );
        }
        if let Some(n) = report.estimated_total {
            outln!("estimated item count: {n:.0}");
        }
        outln!(
            "moments: mean {:.2}, std {:.2}, mode {:.2}, entropy {:.3} nats",
            report.estimate.mean(),
            report.estimate.std_dev(),
            report.estimate.mode(),
            report.estimate.entropy()
        );
        outln!("quantiles:");
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            outln!("  q={q:<5} {:>12.3}", report.estimate.quantile(q));
        }
        outln!("accuracy: KS vs generator {ks_gen:.4}, vs realized data {ks_data:.4}");
        Ok(())
    }))
}

/// `ring-dde aggregate`
fn aggregate(args: &Args) -> Result<Run, String> {
    let probes = probes(args, 128, 2)?;
    let setup = setup(args)?;
    let json = args.has_flag("json");
    Ok(Box::new(move || {
        let (mut built, mut rng, initiator) = setup.build()?;
        let report = DfDde::new(DfDdeConfig::with_probes(probes))
            .estimate(&mut built.net, initiator, &mut rng)
            .map_err(|e| e.to_string())?;
        let (count, sum_hat, mean_hat, var_hat) =
            report.aggregates().ok_or("df-dde estimated no totals")?;

        // Exact references for context.
        let vals = built.net.live_values();
        let n = vals.len() as f64;
        let sum: f64 = vals.iter().sum();
        let mean = sum / n;
        let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;

        if json {
            let out = Json::obj(vec![
                (
                    "estimated",
                    Json::obj(vec![
                        ("count", count.into()),
                        ("sum", sum_hat.into()),
                        ("mean", mean_hat.into()),
                        ("variance", var_hat.into()),
                        ("std_dev", var_hat.sqrt().into()),
                    ]),
                ),
                (
                    "exact",
                    Json::obj(vec![
                        ("count", n.into()),
                        ("sum", sum.into()),
                        ("mean", mean.into()),
                        ("variance", var.into()),
                    ]),
                ),
                ("messages", report.messages().into()),
                ("probes_used", report.probes_succeeded.into()),
            ]);
            outln!("{}", out.pretty());
            return Ok(());
        }
        outln!(
            "aggregate estimates from {} probes ({} messages):",
            report.probes_succeeded,
            report.messages()
        );
        outln!("  COUNT {count:>14.0}   (exact {n:>14.0})");
        outln!("  SUM   {sum_hat:>14.0}   (exact {sum:>14.0})");
        outln!("  AVG   {mean_hat:>14.3}   (exact {mean:>14.3})");
        outln!("  VAR   {var_hat:>14.1}   (exact {var:>14.1})");
        Ok(())
    }))
}

/// `ring-dde query`
fn query(args: &Args) -> Result<Run, String> {
    let probes = probes(args, 128, 2)?;
    let lo = args.get_or("lo", 100.0f64)?;
    let hi = args.get_or("hi", 300.0f64)?;
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(format!("--lo and --hi must be finite, got {lo} and {hi}"));
    }
    let setup = setup(args)?;
    Ok(Box::new(move || {
        let (mut built, mut rng, initiator) = setup.build()?;
        let report = DfDde::new(DfDdeConfig::with_probes(probes))
            .estimate(&mut built.net, initiator, &mut rng)
            .map_err(|e| e.to_string())?;
        let n_hat = report.estimated_total.ok_or("df-dde estimated no total")?;
        let predicted = n_hat * report.estimate.selectivity(lo, hi);
        let before = built.net.stats().clone();
        let result = built.net.range_query(initiator, lo, hi).map_err(|e| e.to_string())?;
        let cost = built.net.stats().since(&before);
        outln!(
            "range [{lo}, {hi}]: predicted {predicted:.0} rows, actual {} \
             ({} peers scanned, {} routing hops, {} messages, {:.1} KB)",
            result.items.len(),
            result.peers_visited,
            result.routing_hops,
            cost.total_messages(),
            cost.total_bytes() as f64 / 1024.0,
        );
        Ok(())
    }))
}

/// `ring-dde churn`
fn churn(args: &Args) -> Result<Run, String> {
    const STABILIZE_PERIOD: f64 = 0.5;
    let rate = positive(args, "rate", 0.1)?;
    let duration = positive(args, "duration", 10.0)?;
    let replication = args.get_or("replication", 0usize)?;
    check_replication(replication)?;
    let setup = setup(args)?;
    // Per peer and time unit: `2 · rate` joins and departures, and one
    // stabilization step every period.
    let peers = setup.scenario.peers as f64;
    check_events(duration * peers * (2.0 * rate + 1.0 / STABILIZE_PERIOD))?;
    Ok(Box::new(move || {
        let (mut built, mut rng, _) = setup.build()?;
        built.net.set_replication(replication);

        let peers_before = built.net.len();
        let items_before = built.net.total_items();
        let seq = SeedSequence::new(built.scenario.seed ^ 0xC11);
        let mut churn_rng = seq.stream(Component::Churn, 0);
        let mut process = ChurnProcess::new(ChurnConfig::symmetric(rate, STABILIZE_PERIOD));
        let outcome = process.run(&mut built.net, duration, &mut churn_rng);
        for _ in 0..8 {
            built.net.stabilize_round();
        }
        let violations = built.net.check_invariants();

        outln!("churn {rate}/peer/unit for {duration} units (replication {replication}):");
        outln!(
            "  events: {} joins, {} leaves, {} crashes, {} stabilize rounds",
            outcome.joins,
            outcome.leaves,
            outcome.fails,
            outcome.stabilize_rounds
        );
        outln!("  peers: {peers_before} -> {}", built.net.len());
        outln!(
            "  items: {items_before} -> {} ({:.1}% survived)",
            built.net.total_items(),
            built.net.total_items() as f64 / items_before as f64 * 100.0
        );
        outln!("  ring consistency after settling: {} violations", violations.len());
        // Estimation still works on the survivor.
        let initiator = built.net.random_peer(&mut rng).ok_or("network emptied out")?;
        let report = DfDde::new(DfDdeConfig::with_probes(96))
            .estimate(&mut built.net, initiator, &mut rng)
            .map_err(|e| e.to_string())?;
        outln!(
            "  post-churn estimate: KS vs surviving data {:.4} ({} messages)",
            report.estimate.ks_to(&built.net.live_values()),
            report.messages()
        );
        Ok(())
    }))
}

/// `ring-dde workload`
fn workload(args: &Args) -> Result<Run, String> {
    let insert_pm = args.get_or("insert-pm", 200u16)?;
    let lookup_pm = args.get_or("lookup-pm", 700u16)?;
    if usize::from(insert_pm) + usize::from(lookup_pm) > 1000 {
        return Err(format!("--insert-pm {insert_pm} + --lookup-pm {lookup_pm} exceeds 1000‰"));
    }
    let spec = WorkloadSpec {
        rate: positive(args, "rate", 200.0)?,
        duration: positive(args, "duration", 10.0)?,
        mix: OpMix::new(insert_pm, lookup_pm),
        probes: probes(args, 48, 2)?,
        refresh_interval: positive(args, "refresh", 2.0)?,
        batch: !args.has_flag("no-batch"),
        piggyback: !args.has_flag("no-piggyback"),
    };
    // Each refresh schedules one probe per stratum.
    let refreshes = spec.duration / spec.refresh_interval;
    check_events(spec.rate * spec.duration + refreshes * spec.probes as f64)?;
    let setup = setup(args)?;
    let json = args.has_flag("json");
    Ok(Box::new(move || {
        let (built, _, _) = setup.build()?;
        let report = run_workload(&built, &spec, 0);

        if json {
            let out = Json::obj(vec![
                ("rate", spec.rate.into()),
                ("duration", spec.duration.into()),
                ("insert_pm", u64::from(insert_pm).into()),
                ("lookup_pm", u64::from(lookup_pm).into()),
                ("estimate_pm", u64::from(spec.mix.estimate_pm()).into()),
                ("batch", if spec.batch { 1u64 } else { 0 }.into()),
                ("piggyback", if spec.piggyback { 1u64 } else { 0 }.into()),
                ("ops_scheduled", report.ops_scheduled.into()),
                ("ops_completed", report.ops_completed.into()),
                ("ops_failed", report.ops_failed.into()),
                ("throughput", report.throughput.into()),
                ("hop_p50", report.hop_p50.into()),
                ("hop_p95", report.hop_p95.into()),
                ("hop_p99", report.hop_p99.into()),
                ("refreshes", report.refreshes.into()),
                ("refresh_failures", report.refresh_failures.into()),
                ("piggybacked", report.piggybacked.into()),
                ("dedicated_probes", report.dedicated_probes.into()),
                ("piggyback_msgs", report.piggyback_msgs.into()),
                ("lookup_hop_msgs", report.lookup_hop_msgs.into()),
                ("messages", report.messages.into()),
                ("bytes", report.bytes.into()),
                ("mean_staleness", report.mean_staleness.into()),
                ("est_ks", report.est_ks.into()),
            ]);
            outln!("{}", out.pretty());
            return Ok(());
        }

        outln!(
            "workload {} ops/s for {}s on {} peers ({}‰ insert / {}‰ lookup / {}‰ estimate, \
             batch {}, piggyback {}):",
            spec.rate,
            spec.duration,
            built.net.len(),
            insert_pm,
            lookup_pm,
            spec.mix.estimate_pm(),
            if spec.batch { "on" } else { "off" },
            if spec.piggyback { "on" } else { "off" },
        );
        outln!(
            "  ops: {} scheduled, {} completed, {} failed ({} inserts, {} lookups, {} reads)",
            report.ops_scheduled,
            report.ops_completed,
            report.ops_failed,
            report.inserts,
            report.lookups,
            report.estimate_reads
        );
        outln!(
            "  throughput: {:.1} ops/s; hop latency p50 {:.1}, p95 {:.1}, p99 {:.1}",
            report.throughput,
            report.hop_p50,
            report.hop_p95,
            report.hop_p99
        );
        outln!(
            "  probes: {} refreshes ({} failed), {} points piggybacked, \
             {} dedicated probe msgs, {} piggyback msgs",
            report.refreshes,
            report.refresh_failures,
            report.piggybacked,
            report.dedicated_probes,
            report.piggyback_msgs
        );
        outln!(
            "  cost: {} messages, {:.1} KB ({} lookup-hop msgs)",
            report.messages,
            report.bytes as f64 / 1024.0,
            report.lookup_hop_msgs
        );
        outln!(
            "  estimate: mean staleness {:.2}s, final KS vs live data {:.4}",
            report.mean_staleness,
            report.est_ks
        );
        Ok(())
    }))
}

/// `ring-dde topology`
fn topology(args: &Args) -> Result<Run, String> {
    let setup = setup(args)?;
    Ok(Box::new(move || {
        let (mut built, mut rng, _) = setup.build()?;
        let net = &built.net;
        let loads: Vec<usize> =
            net.ids().map(|id| net.node(id).expect("alive").store.len()).collect();
        let arcs: Vec<f64> =
            net.ids().filter_map(|id| net.node(id).expect("alive").arc_fraction()).collect();
        let mean_load = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
        let max_load = *loads.iter().max().expect("nonempty");
        let gini = gini(&loads.iter().map(|&l| l as f64).collect::<Vec<_>>());

        outln!("topology: {} peers, {} items", net.len(), net.total_items());
        outln!(
            "  load: mean {mean_load:.1}, max {max_load} ({:.1}x mean), gini {gini:.3}",
            max_load as f64 / mean_load
        );
        outln!(
            "  arcs: min {:.2e}, max {:.2e} (of the ring)",
            arcs.iter().cloned().fold(f64::INFINITY, f64::min),
            arcs.iter().cloned().fold(0.0, f64::max)
        );
        // Hop census.
        let from = built.net.random_peer(&mut rng).ok_or("empty")?;
        let mut hops = 0u64;
        let lookups = 200;
        for _ in 0..lookups {
            use rand::Rng;
            let t = dde_ring::RingId(rng.gen());
            hops += u64::from(built.net.lookup(from, t).map_err(|e| e.to_string())?.hops);
        }
        outln!(
            "  routing: {:.2} mean hops over {lookups} lookups (log2 P = {:.1})",
            hops as f64 / f64::from(lookups),
            (built.net.len() as f64).log2()
        );
        Ok(())
    }))
}

/// `ring-dde expts`: regenerates the evaluation's tables and figures.
/// Tables go to stdout and progress and timing lines to stderr, so stdout
/// is byte-identical for every `--jobs`, the property CI's determinism job
/// diffs.
fn expts(args: &Args) -> Result<Run, String> {
    if let Some(id) =
        args.words().iter().find(|id| !ALL_IDS.contains(&id.to_ascii_lowercase().as_str()))
    {
        return Err(format!("unknown experiment id '{id}' (known: {})", ALL_IDS.join(" ")));
    }
    let ids: Vec<String> = if args.words().is_empty() {
        ALL_IDS.iter().map(ToString::to_string).collect()
    } else {
        args.words().to_vec()
    };
    let (scale, label) =
        if args.has_flag("full") { (Scale::Full, "full") } else { (Scale::Quick, "quick") };
    let csv_dir = args.get("csv").map(PathBuf::from);
    let jobs = jobs(args)?;
    Ok(Box::new(move || {
        exec::set_jobs(jobs);
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        outln!("ring-dde experiment suite ({label} scale)\n");

        let jobs = exec::jobs();
        // ddelint::allow(wallclock, "timing-only: suite wall-clock goes to the stderr summary, never into a table")
        let suite_start = Instant::now();
        let mut total_cells = 0u64;
        let mut total_cpu = Duration::ZERO;
        let mut total_build = Duration::ZERO;
        let _ = exec::take_stats(); // start the counters from zero

        for id in &ids {
            // ddelint::allow(wallclock, "timing-only: per-experiment wall-clock goes to the stderr progress line, never into a table")
            let start = Instant::now();
            let tables = run_by_id(id, scale).expect("ids are checked before the run");
            let wall = start.elapsed();
            let stats = exec::take_stats();
            total_cells += stats.cells;
            total_cpu += stats.cpu;
            total_build += stats.build;
            eprintln!(
                "[{id}] {} cells in {:.2}s wall, {:.2}s cell time ({:.2}s build) (jobs={jobs})",
                stats.cells,
                wall.as_secs_f64(),
                stats.cpu.as_secs_f64(),
                stats.build.as_secs_f64(),
            );
            for (i, table) in tables.iter().enumerate() {
                outln!("{}", table.to_text());
                if let Some(dir) = &csv_dir {
                    let file = dir.join(format!("{id}_{i}.csv"));
                    std::fs::write(&file, table.to_csv())
                        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
                }
            }
        }
        eprintln!(
            "suite: {} experiments, {} cells, {:.2}s wall, {:.2}s cell time ({:.2}s build), jobs={jobs}",
            ids.len(),
            total_cells,
            suite_start.elapsed().as_secs_f64(),
            total_cpu.as_secs_f64(),
            total_build.as_secs_f64(),
        );
        Ok(())
    }))
}

/// `ring-dde dst`: fuzzes seeded event schedules against the invariant
/// oracle and shrinks the first failure to a repro file, or replays one. A
/// violation found or reproduced fails the run whatever becomes of its
/// report on stdout, since the exit status is the verdict.
fn dst(args: &Args) -> Result<Run, String> {
    let bug = match args.get("bug") {
        None => args.has_flag("bug").then_some(InjectedBug::SkipSuccessorOnHeal),
        Some(name) => {
            let Some(&(bug, ..)) = InjectedBug::NAMES.iter().find(|(.., n)| *n == name) else {
                let known: Vec<&str> = InjectedBug::NAMES.iter().map(|(.., n)| *n).collect();
                return Err(format!("unknown bug '{name}' (known: {})", known.join(", ")));
            };
            Some(bug)
        }
    };
    let default = DstConfig::default();
    let cfg = DstConfig {
        seed: args.get_or("seed", default.seed)?,
        peers: args.get_or("peers", default.peers)?,
        items: args.get_or("items", default.items)?,
        events: args.get_or("events", default.events)?,
        replication: args.get_or("replication", default.replication)?,
        bug,
    };
    let schedules = args.get_or("schedules", 16usize)?;
    check_size(cfg.peers, cfg.items)?;
    check_replication(cfg.replication)?;
    // Each schedule builds a network, so one without events still counts.
    check_events(schedules as f64 * cfg.events.max(1) as f64)?;
    let jobs = jobs(args)?;
    let out = PathBuf::from(args.get("out").unwrap_or("dst-repro.ron"));
    let replay = match args.get("replay") {
        None => None,
        Some(file) => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            let schedule =
                dst::parse_repro(&text).map_err(|e| format!("cannot parse {file}: {e}"))?;
            Some((file.to_string(), schedule))
        }
    };
    Ok(Box::new(move || {
        exec::set_jobs(jobs);
        match replay {
            Some((file, schedule)) => replay_repro(&file, &schedule),
            None => fuzz(&cfg, schedules, &out),
        }
    }))
}

/// Re-runs a repro; its failure, if it reproduces, prints byte for byte as
/// the fuzz run reported it.
fn replay_repro(file: &str, schedule: &Schedule) -> Result<(), String> {
    eprintln!("replaying {file} ({} events, seed {})", schedule.events.len(), schedule.seed);
    match dst::run_schedule(schedule) {
        Ok(report) => {
            outln!(
                "repro did NOT reproduce: {} events ran clean ({} peers, {} items at end)",
                report.events,
                report.final_peers,
                report.final_items
            );
            Ok(())
        }
        Err(failure) => {
            crate::emit(format_args!("{failure}"), 1);
            Err(format!("{file} reproduced its failure"))
        }
    }
}

/// Fuzzes `schedules` schedules; the first failure is shrunk and its repro
/// written to `out`.
fn fuzz(cfg: &DstConfig, schedules: usize, out: &Path) -> Result<(), String> {
    // ddelint::allow(wallclock, "timing-only: fuzz wall-clock goes to the stderr summary; schedules derive from the seed alone")
    let start = Instant::now();
    eprintln!(
        "dst fuzz: {schedules} schedules x {} events (seed {}, peers {}, items {}, \
         replication {}, bug {:?}, jobs {})",
        cfg.events,
        cfg.seed,
        cfg.peers,
        cfg.items,
        cfg.replication,
        cfg.bug,
        exec::jobs(),
    );
    let outcome = dst::fuzz(cfg, schedules);
    eprintln!("dst fuzz: {} schedules in {:.2}s", outcome.schedules, start.elapsed().as_secs_f64());
    let Some(found) = outcome.failure else {
        outln!("dst: {} schedules, no invariant violations", outcome.schedules);
        return Ok(());
    };
    // The repro goes to disk before the report goes to stdout, so a reader
    // that closes stdout early cannot lose it.
    let written = std::fs::write(out, dst::to_repro(&found.shrunk));
    let mut text = format!(
        "dst: schedule {} (seed {}) violated an invariant\n{}shrunk to {} events (from {}):\n{}",
        found.schedule_index,
        found.schedule.seed,
        found.failure,
        found.shrunk.events.len(),
        found.schedule.events.len(),
        found.shrunk_failure
    );
    match written {
        Err(e) => eprintln!("cannot write {}: {e}", out.display()),
        Ok(()) => {
            text += &format!(
                "repro written to {} (replay: ring-dde dst --replay {})\n",
                out.display(),
                out.display()
            );
        }
    }
    crate::emit(format_args!("{text}"), 1);
    Err(format!("schedule {} violated an invariant", found.schedule_index))
}

/// Gini coefficient of a non-negative sample (0 = equal, →1 = concentrated).
fn gini(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 =
        sorted.iter().enumerate().map(|(i, x)| (2.0 * (i as f64 + 1.0) - n - 1.0) * x).sum();
    weighted / (n * total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(String::from)
    }

    /// Checks and runs a command line, as `main` does.
    fn run(line: &str) -> Result<(), String> {
        check(words(line))?()
    }

    /// Why a command line is refused before anything is built.
    fn refusal(line: &str) -> String {
        match check(words(line)) {
            Ok(_) => panic!("{line}: accepted"),
            Err(e) => e,
        }
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).abs() < 1e-12);
        // One peer holds everything: gini → (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 100.0]);
        assert!((g - 0.75).abs() < 1e-12, "g = {g}");
    }

    #[test]
    fn dist_names_resolve() {
        for d in [
            "uniform",
            "normal",
            "exponential",
            "pareto",
            "zipf",
            "bimodal",
            "trimodal",
            "lognormal",
        ] {
            assert!(dist_of(d).is_ok(), "{d}");
        }
        assert!(dist_of("cauchy").is_err());
    }

    #[test]
    fn scenario_from_args() {
        let (spec, _) = &COMMANDS[0];
        let args = Args::parse(spec, words("--peers 32 --items 1000 --dist uniform --seed 7"));
        let s = scenario_of(&args.unwrap()).unwrap();
        assert_eq!(s.peers, 32);
        assert_eq!(s.items, 1000);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn estimate_command_runs() {
        run("estimate --peers 48 --items 2000 --probes 32 --json").unwrap();
        // The smallest budgets that can estimate; `exact` reads none.
        run("estimate --peers 48 --items 2000 --method uniform-peer --probes 1").unwrap();
        run("estimate --peers 48 --items 2000 --method exact --probes 0").unwrap();
    }

    #[test]
    fn estimate_command_runs_under_faults() {
        run("estimate --peers 48 --items 2000 --probes 32 --loss 0.2 --fault-seed 9 --json")
            .unwrap();
        assert!(refusal("estimate --loss 1.5").contains("must be in [0, 1]"));
    }

    #[test]
    fn aggregate_and_query_commands_run() {
        run("aggregate --peers 48 --items 2000 --probes 32").unwrap();
        run("query --peers 48 --items 2000 --probes 32 --lo 10 --hi 50").unwrap();
    }

    #[test]
    fn empty_scenarios_are_errors_in_every_command() {
        for name in ["estimate", "aggregate", "query", "churn", "workload", "topology"] {
            for bad in ["--peers 0", "--items 0", "--peers 0 --items 0"] {
                let err = refusal(&format!("{name} {bad}"));
                assert!(err.contains("is outside 1..="), "{name} {bad}: {err}");
            }
        }
    }

    #[test]
    fn query_rejects_non_finite_bounds() {
        for bounds in ["--lo NaN", "--hi inf", "--lo -inf --hi 10", "--lo nan --hi nan"] {
            let err = refusal(&format!("query --peers 16 --items 100 {bounds}"));
            assert!(err.contains("must be finite"), "{bounds}: {err}");
        }
    }

    #[test]
    fn churn_and_topology_commands_run() {
        run("churn --peers 48 --items 2000 --rate 0.2 --duration 3 --replication 1").unwrap();
        run("topology --peers 48 --items 2000").unwrap();
    }

    /// Seeded command lines end in an accepted run or a named refusal from
    /// `check`, never a panic. The proptest shim has no collection strategy,
    /// so the words come from a seeded `splitmix64` stream: every command and
    /// its options, mostly each followed by a boundary value, with foreign
    /// and unknown options, stray words and unknown commands mixed in. No
    /// path value names an existing file, since `--replay` reads its file.
    #[test]
    fn no_command_line_panics_the_check() {
        use dde_ring::node::SUCCESSOR_LIST_LEN;
        use dde_sim::scenario::{MAX_ITEMS, MAX_PEERS};
        use dde_stats::rng::splitmix64;

        let options_of = |spec: &Spec| -> Vec<String> {
            spec.options
                .iter()
                .flat_map(|group| group.split(' '))
                .map(|o| format!("--{o}"))
                .collect()
        };
        let mut foreign: Vec<String> =
            COMMANDS.iter().flat_map(|(spec, _)| options_of(spec)).collect();
        foreign.push("--bogus".into());
        let mut values: Vec<String> = "0 1 -1 NaN inf -inf 1e308 65536 18446744073709551616 \
                                       1000 1001 0.5 t1 f12 zipf hashed gossip uniform-peer \
                                       skip-successor-on-heal no-such-dir/absent.ron"
            .split_whitespace()
            .chain([""])
            .map(String::from)
            .collect();
        for cap in [MAX_PEERS, MAX_ITEMS, MAX_EVENTS, MAX_JOBS, SUCCESSOR_LIST_LEN] {
            values.extend([cap.to_string(), (cap + 1).to_string()]);
        }

        let mut word = 0u64;
        let mut draw = |n: usize| {
            word += 1;
            (splitmix64(0xA26F ^ word) % n as u64) as usize
        };
        let mut accepted = 0;
        for _ in 0..4096 {
            let (spec, _) = &COMMANDS[draw(COMMANDS.len())];
            let own = options_of(spec);
            let name = match draw(16) {
                0 => "frobnicate",
                1 => "",
                _ => spec.name,
            };
            let mut argv = vec![name.to_string()];
            for _ in 0..draw(7) {
                match draw(8) {
                    0 => argv.push(foreign[draw(foreign.len())].clone()),
                    1 => argv.push(values[draw(values.len())].clone()),
                    _ => {
                        argv.push(own[draw(own.len())].clone());
                        if draw(4) > 0 {
                            argv.push(values[draw(values.len())].clone());
                        }
                    }
                }
            }
            match check(argv.clone()) {
                Ok(_) => accepted += 1,
                Err(e) => assert!(!e.is_empty(), "{argv:?}: refused without a reason"),
            }
        }
        assert!(accepted > 0, "no command line was accepted");
    }
}
