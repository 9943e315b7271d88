//! Subcommand implementations.

use crate::args::Args;
use crate::json::Json;
use dde_core::{
    AggregateEstimator, DensityEstimator, DfDde, DfDdeConfig, ExactAggregation, GossipAggregation,
    GossipConfig, UniformPeerConfig, UniformPeerSampling,
};
use dde_ring::{ChurnConfig, ChurnProcess};
use dde_sim::scenario::{check_events, check_size};
use dde_sim::{build, run_workload, BuiltScenario, OpMix, PlacementMode, Scenario, WorkloadSpec};
use dde_stats::dist::DistributionKind;
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;
use rand::rngs::StdRng;

/// Usage text shared by `help` and error paths.
pub const USAGE: &str = "\
ring-dde — distribution-free data density estimation playground

commands:
  estimate   estimate the global density and print quantiles + accuracy
  aggregate  estimate COUNT / SUM / AVG / VAR from one probe round
  query      plan + execute a range query
  churn      stress the network with churn, report survival & healing
  workload   serve an open-loop insert/lookup/estimate mix, report latency
  topology   print ring statistics (arcs, load, hops)
  help       this text

common options:
  --peers P        number of peers            (default 256)
  --items N        number of items            (default 50000)
  --dist D         uniform|normal|exponential|pareto|zipf|bimodal|trimodal|lognormal
                                              (default zipf)
  --seed S         master seed                (default 42)
  --probes K       probe budget               (default 128)
  --buckets B      summary buckets            (default 8)
  --placement M    range|hashed               (default range)
  --loss L         injected message-loss probability, reply loss L/2 (default 0)
  --fault-seed S   fault-plan seed            (default seed ^ 0xFA17)
  --json           machine-readable output (estimate/aggregate)

command-specific:
  query:   --lo X --hi Y    range bounds (default 100..300)
  churn:   --rate R         churn rate/peer/unit (default 0.1)
           --duration T     time units (default 10)
           --replication R  replication factor (default 0)
  workload: --rate R        target arrival rate, ops/s (default 200)
           --duration T     virtual seconds of traffic (default 10)
           --insert-pm M    insert share, per mille (default 200)
           --lookup-pm M    lookup share, per mille (default 700;
                            the remainder is estimate reads)
           --refresh T      seconds between estimate refreshes (default 2)
           --no-batch       route each lookup separately
           --no-piggyback   dedicated probes only";

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

fn setup(args: &Args) -> Result<(BuiltScenario, StdRng, dde_ring::RingId), String> {
    let scenario = scenario_of(args)?;
    let mut built = build(&scenario);
    let loss = args.get_or("loss", 0.0f64)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--loss must be in [0, 1], got {loss}"));
    }
    if loss > 0.0 {
        let fault_seed = args.get_or("fault-seed", scenario.seed ^ 0xFA17)?;
        built.net.set_fault_plan(
            dde_ring::FaultPlan::new(fault_seed).with_loss(loss).with_reply_loss(loss / 2.0),
        );
    }
    let mut rng = SeedSequence::new(scenario.seed).stream(Component::Estimator, 0);
    let initiator = built.net.random_peer(&mut rng).ok_or("empty network")?;
    Ok((built, rng, initiator))
}

/// `ring-dde estimate`
pub fn estimate(args: &Args) -> Result<(), String> {
    let probes = args.get_or("probes", 128usize)?;
    let (mut built, mut rng, initiator) = setup(args)?;
    let method = args.get("method").unwrap_or("df-dde");
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
    let report =
        estimator.estimate(&mut built.net, initiator, &mut rng).map_err(|e| e.to_string())?;
    let ks_gen = report.estimate.ks_to(built.truth.as_ref());
    let ks_data = report.estimate.ks_to(&built.data_truth);

    if args.has_flag("json") {
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
}

/// `ring-dde aggregate`
pub fn aggregate(args: &Args) -> Result<(), String> {
    let probes = args.get_or("probes", 128usize)?;
    let (mut built, mut rng, initiator) = setup(args)?;
    let rep = AggregateEstimator::with_probes(probes)
        .query(&mut built.net, initiator, &mut rng)
        .map_err(|e| e.to_string())?;

    // Exact references for context.
    let vals = built.net.global_values();
    let n = vals.len() as f64;
    let sum: f64 = vals.iter().sum();
    let mean = sum / n;
    let var = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;

    if args.has_flag("json") {
        let out = Json::obj(vec![
            (
                "estimated",
                Json::obj(vec![
                    ("count", rep.count.into()),
                    ("sum", rep.sum.into()),
                    ("mean", rep.mean.into()),
                    ("variance", rep.variance.into()),
                    ("std_dev", rep.std_dev().into()),
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
            ("messages", rep.cost.total_messages().into()),
            ("probes_used", rep.probes_used.into()),
        ]);
        outln!("{}", out.pretty());
        return Ok(());
    }
    outln!(
        "aggregate estimates from {} probes ({} messages):",
        rep.probes_used,
        rep.cost.total_messages()
    );
    outln!("  COUNT {:>14.0}   (exact {:>14.0})", rep.count, n);
    outln!("  SUM   {:>14.0}   (exact {:>14.0})", rep.sum, sum);
    outln!("  AVG   {:>14.3}   (exact {:>14.3})", rep.mean, mean);
    outln!("  VAR   {:>14.1}   (exact {:>14.1})", rep.variance, var);
    Ok(())
}

/// `ring-dde query`
pub fn query(args: &Args) -> Result<(), String> {
    let probes = args.get_or("probes", 128usize)?;
    let lo = args.get_or("lo", 100.0f64)?;
    let hi = args.get_or("hi", 300.0f64)?;
    if !(lo.is_finite() && hi.is_finite()) {
        return Err(format!("--lo and --hi must be finite, got {lo} and {hi}"));
    }
    let (mut built, mut rng, initiator) = setup(args)?;
    let report = DfDde::new(DfDdeConfig::with_probes(probes))
        .estimate(&mut built.net, initiator, &mut rng)
        .map_err(|e| e.to_string())?;
    let predicted = report.estimate.selectivity(lo, hi) * built.net.total_items() as f64;
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
}

/// `ring-dde churn`
pub fn churn(args: &Args) -> Result<(), String> {
    const STABILIZE_PERIOD: f64 = 0.5;
    let rate = positive(args, "rate", 0.1)?;
    let duration = positive(args, "duration", 10.0)?;
    let replication = args.get_or("replication", 0usize)?;
    // Per peer and time unit: `2 · rate` joins and departures, and one
    // stabilization step every period.
    let peers = scenario_of(args)?.peers as f64;
    check_events(duration * peers * (2.0 * rate + 1.0 / STABILIZE_PERIOD))?;
    let (mut built, mut rng, _) = setup(args)?;
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
    let surviving = Ecdf::from_sorted(built.net.global_values());
    outln!(
        "  post-churn estimate: KS vs surviving data {:.4} ({} messages)",
        report.estimate.ks_to(&surviving),
        report.messages()
    );
    Ok(())
}

/// `ring-dde workload`
pub fn workload(args: &Args) -> Result<(), String> {
    let insert_pm = args.get_or("insert-pm", 200u16)?;
    let lookup_pm = args.get_or("lookup-pm", 700u16)?;
    if usize::from(insert_pm) + usize::from(lookup_pm) > 1000 {
        return Err(format!("--insert-pm {insert_pm} + --lookup-pm {lookup_pm} exceeds 1000‰"));
    }
    let spec = WorkloadSpec {
        rate: positive(args, "rate", 200.0)?,
        duration: positive(args, "duration", 10.0)?,
        mix: OpMix::new(insert_pm, lookup_pm),
        probes: args.get_or("probes", 48usize)?,
        refresh_interval: positive(args, "refresh", 2.0)?,
        batch: !args.has_flag("no-batch"),
        piggyback: !args.has_flag("no-piggyback"),
    };
    // Each refresh schedules one probe per stratum.
    let refreshes = spec.duration / spec.refresh_interval;
    check_events(spec.rate * spec.duration + refreshes * spec.probes as f64)?;
    let (built, _, _) = setup(args)?;
    let report = run_workload(&built, &spec, 0);

    if args.has_flag("json") {
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
}

/// `ring-dde topology`
pub fn topology(args: &Args) -> Result<(), String> {
    let (mut built, mut rng, _) = setup(args)?;
    let net = &built.net;
    let loads: Vec<usize> = net.ids().map(|id| net.node(id).expect("alive").store.len()).collect();
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
        let args = crate::args::Args::parse(
            "estimate --peers 32 --items 1000 --dist uniform --seed 7"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let s = scenario_of(&args).unwrap();
        assert_eq!(s.peers, 32);
        assert_eq!(s.items, 1000);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn estimate_command_runs() {
        let args = crate::args::Args::parse(
            "estimate --peers 48 --items 2000 --probes 32 --json"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        estimate(&args).unwrap();
    }

    #[test]
    fn estimate_command_runs_under_faults() {
        let args = crate::args::Args::parse(
            "estimate --peers 48 --items 2000 --probes 32 --loss 0.2 --fault-seed 9 --json"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        estimate(&args).unwrap();
        let args =
            crate::args::Args::parse("estimate --loss 1.5".split_whitespace().map(String::from))
                .unwrap();
        assert!(estimate(&args).is_err());
    }

    #[test]
    fn aggregate_and_query_commands_run() {
        let args = crate::args::Args::parse(
            "aggregate --peers 48 --items 2000 --probes 32".split_whitespace().map(String::from),
        )
        .unwrap();
        aggregate(&args).unwrap();
        let args = crate::args::Args::parse(
            "query --peers 48 --items 2000 --probes 32 --lo 10 --hi 50"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        query(&args).unwrap();
    }

    fn parse(line: &str) -> Args {
        crate::args::Args::parse(line.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn empty_scenarios_are_errors_in_every_command() {
        type Command = fn(&Args) -> Result<(), String>;
        let commands: [(&str, Command); 6] = [
            ("estimate", estimate),
            ("aggregate", aggregate),
            ("query", query),
            ("churn", churn),
            ("workload", workload),
            ("topology", topology),
        ];
        for (name, run) in commands {
            for bad in ["--peers 0", "--items 0", "--peers 0 --items 0"] {
                let err = run(&parse(&format!("{name} {bad}"))).unwrap_err();
                assert!(err.contains("is outside 1..="), "{name} {bad}: {err}");
            }
        }
    }

    #[test]
    fn query_rejects_non_finite_bounds() {
        for bounds in ["--lo NaN", "--hi inf", "--lo -inf --hi 10", "--lo nan --hi nan"] {
            let err = query(&parse(&format!("query --peers 16 --items 100 {bounds}"))).unwrap_err();
            assert!(err.contains("must be finite"), "{bounds}: {err}");
        }
    }

    #[test]
    fn churn_and_topology_commands_run() {
        let args = crate::args::Args::parse(
            "churn --peers 48 --items 2000 --rate 0.2 --duration 3 --replication 1"
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        churn(&args).unwrap();
        let args = crate::args::Args::parse(
            "topology --peers 48 --items 2000".split_whitespace().map(String::from),
        )
        .unwrap();
        topology(&args).unwrap();
    }
}
