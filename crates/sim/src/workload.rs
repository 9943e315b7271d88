//! Open-loop heavy-traffic serving workload engine.
//!
//! Everything before this module measures the estimators in isolation: build
//! a network, run probes, read the error. A *serving* deployment interleaves
//! estimation with foreground traffic — inserts and lookups arriving at a
//! target rate whether or not the system keeps up (open loop, the honest
//! load model: closed loops hide overload by slowing the clients). This
//! module drives that regime deterministically and measures what the paper's
//! method costs *under load*:
//!
//! 1. **Schedule** ([`schedule`]) — a pure function of
//!    `(seed, run_index, spec)` producing Poisson arrivals (exponential
//!    inter-arrival times at `rate` ops per virtual second) with an
//!    insert/lookup/estimate-read mix in per-mille. All entropy comes from
//!    one [`Component::Workload`] stream, so schedules are reproducible and
//!    independent across runs (pinned by `tests/workload_purity.rs`).
//! 2. **Batched routing** — ops are grouped into arrival windows of
//!    `WINDOW` = 0.05 virtual seconds; each window's ops share one origin
//!    peer (traffic is bursty per client, not uniformly shuffled),
//!    and with [`WorkloadSpec::batch`] set, lookups in a window route
//!    through a shared [`BatchRouter`]: identical owners and hop counts,
//!    but repeated route edges within the window are charged once
//!    (equivalence pinned by `tests/batch_equivalence.rs`).
//! 3. **Probe piggybacking** — with [`WorkloadSpec::piggyback`] set, the
//!    estimator's planned Phase-1 probe points ([`ProbePlan`]) are offered
//!    every resolved foreground owner; covered strata never pay for a
//!    dedicated probe. Scheduled refreshes every
//!    [`WorkloadSpec::refresh_interval`] complete the plan (dedicated
//!    probes for uncovered strata) and rebuild the skeleton.
//!
//! The output ([`WorkloadReport`]) carries throughput, exact hop-latency
//! percentiles (p50/p95/p99, counted per hop value — p99 at serving sample
//! counts is an interior rank, not the max), estimate staleness as seen by
//! estimate-read ops, final estimate accuracy against the *live* dataset
//! (inserts included), and the message ledger split into dedicated-probe,
//! piggybacked, and foreground routing cost. Experiment F14 sweeps rate ×
//! mix over this engine.

use crate::build::BuiltScenario;
use dde_core::{DensityEstimate, DfDde, DfDdeConfig, ProbePlan};
use dde_ring::{BatchRouter, MessageKind, MessageStats, Network, RingId};
use dde_stats::rng::{Component, SeedSequence};
use rand::rngs::StdRng;
use rand::Rng;

/// Foreground operation mix in per-mille; the remainder (to 1000) is the
/// share of estimate-*read* ops (a peer consulting the current density
/// estimate — free on the wire, but a staleness observation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Per-mille of ops that insert a fresh value.
    pub insert_pm: u16,
    /// Per-mille of ops that look up the owner of a value.
    pub lookup_pm: u16,
}

impl OpMix {
    /// A mix with the given insert/lookup shares (per-mille).
    ///
    /// Deterministic: a pure constructor of the given shares.
    ///
    /// # Panics
    /// Panics if the shares exceed 1000‰ combined.
    pub fn new(insert_pm: u16, lookup_pm: u16) -> Self {
        assert!(insert_pm as u32 + lookup_pm as u32 <= 1000, "mix exceeds 1000 per-mille");
        Self { insert_pm, lookup_pm }
    }

    /// The estimate-read share (the remainder to 1000‰). Deterministic:
    /// pure arithmetic on the mix.
    pub fn estimate_pm(&self) -> u16 {
        1000 - self.insert_pm - self.lookup_pm
    }
}

/// Arrival-window width (virtual seconds): ops within a window share one
/// origin peer, and batched routing dedups route edges per window.
const WINDOW: f64 = 0.05;

/// Parameters of one open-loop serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Target arrival rate, ops per virtual second (open loop: arrivals
    /// never slow down).
    pub rate: f64,
    /// Virtual seconds of traffic.
    pub duration: f64,
    /// Foreground operation mix.
    pub mix: OpMix,
    /// Phase-1 probes per estimate refresh.
    pub probes: usize,
    /// Virtual seconds between estimate refreshes (the first estimate is
    /// built at t = 0, before traffic starts).
    pub refresh_interval: f64,
    /// Route same-window lookups through a shared [`BatchRouter`].
    pub batch: bool,
    /// Let planned probe points ride on resolved foreground lookups.
    pub piggyback: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            rate: 200.0,
            duration: 10.0,
            mix: OpMix::new(200, 700),
            probes: 48,
            refresh_interval: 2.0,
            batch: true,
            piggyback: true,
        }
    }
}

/// One scheduled arrival, fully determined before the network sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Arrival time in virtual seconds.
    pub at: f64,
    /// What the op does.
    pub kind: OpKind,
    /// Entropy mapped to a domain value (inserts/lookups).
    pub value_entropy: u64,
    /// Entropy selecting the window's origin peer (consumed by the first
    /// op of each arrival window).
    pub origin_entropy: u64,
}

/// The kind of a scheduled foreground op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Insert a fresh value at its placement owner.
    Insert,
    /// Look up the owner of a value.
    Lookup,
    /// Read the current density estimate (no messages; staleness sample).
    Estimate,
}

/// Generates the full arrival schedule — a pure function of its arguments.
///
/// Inter-arrival gaps are exponential with mean `1/rate` (Poisson arrivals);
/// each op then draws its kind from the mix and its value/origin entropy.
/// All draws come from `SeedSequence::new(seed).stream(Component::Workload,
/// run_index)` in a fixed order, so the schedule is byte-identical across
/// processes and job counts, and disjoint `(seed, run_index)` pairs yield
/// independent streams.
///
/// Determinism: draws randomness only from the derived seed stream;
/// identical inputs produce identical output.
///
/// # Panics
/// Panics if `rate` or `duration` is not positive.
pub fn schedule(spec: &WorkloadSpec, seed: u64, run_index: u64) -> Vec<ScheduledOp> {
    assert!(spec.rate > 0.0, "rate must be positive");
    assert!(spec.duration > 0.0, "duration must be positive");
    let mut rng = SeedSequence::new(seed).stream(Component::Workload, run_index);
    let mut ops = Vec::with_capacity((spec.rate * spec.duration) as usize + 16);
    let mut t = 0.0_f64;
    loop {
        // Inverse-CDF exponential; 1-u keeps the argument strictly positive.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / spec.rate;
        if t >= spec.duration {
            break;
        }
        let roll = rng.gen_range(0..1000) as u16;
        let kind = if roll < spec.mix.insert_pm {
            OpKind::Insert
        } else if roll < spec.mix.insert_pm + spec.mix.lookup_pm {
            OpKind::Lookup
        } else {
            OpKind::Estimate
        };
        ops.push(ScheduledOp { at: t, kind, value_entropy: rng.gen(), origin_entropy: rng.gen() });
    }
    ops
}

/// What one serving run measured.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Ops the schedule generated.
    pub ops_scheduled: usize,
    /// Ops that completed successfully.
    pub ops_completed: usize,
    /// Ops that failed (routing failure, or an estimate read before any
    /// estimate existed).
    pub ops_failed: usize,
    /// Insert ops attempted.
    pub inserts: usize,
    /// Lookup ops attempted.
    pub lookups: usize,
    /// Estimate-read ops attempted.
    pub estimate_reads: usize,
    /// Completed ops per virtual second.
    pub throughput: f64,
    /// Median routing hops over completed inserts+lookups.
    pub hop_p50: f64,
    /// 95th-percentile routing hops.
    pub hop_p95: f64,
    /// 99th-percentile routing hops.
    pub hop_p99: f64,
    /// Estimate refreshes that produced a skeleton.
    pub refreshes: usize,
    /// Refreshes that failed (insufficient replies).
    pub refresh_failures: usize,
    /// Probe points covered by piggybacking across all refresh cycles.
    pub piggybacked: usize,
    /// Every message the run billed, by kind: the delta of the serving
    /// fork's counters over the run. The five fields below read it.
    pub stats: MessageStats,
    /// Dedicated Phase-1 probe messages sent.
    pub dedicated_probes: u64,
    /// Piggybacked probe-reply messages sent.
    pub piggyback_msgs: u64,
    /// Foreground lookup-hop messages charged (halved by batch dedup).
    pub lookup_hop_msgs: u64,
    /// Total messages across the run.
    pub messages: u64,
    /// Total bytes across the run.
    pub bytes: u64,
    /// Mean estimate age (virtual seconds) over the estimate-read ops that
    /// found an estimate, each aged from the last *successful* refresh (a
    /// failed one leaves the older estimate in service); 0 when no read
    /// found one.
    pub mean_staleness: f64,
    /// KS distance of the final estimate to the live dataset's ECDF
    /// (inserts included); NaN if no refresh ever succeeded.
    pub est_ks: f64,
}

/// Completes the current probe plan into a fresh skeleton and starts the
/// next plan; the flag says whether a fresh estimate replaced the old one.
/// On failure the previous estimate stays in service (stale beats absent).
#[allow(
    clippy::too_many_arguments,
    reason = "the serving loop lends each piece of its state separately"
)]
fn refresh_estimate(
    estimator: &DfDde,
    net: &mut Network,
    plan: ProbePlan,
    initiator: RingId,
    rng: &mut StdRng,
    domain: (f64, f64),
    estimate: &mut Option<DensityEstimate>,
    report: &mut WorkloadReport,
) -> (ProbePlan, bool) {
    report.piggybacked += plan.piggybacked();
    let skeleton = plan
        .complete(estimator, net, initiator, rng)
        .ok()
        .and_then(|replies| estimator.build_skeleton(&replies, domain).ok());
    let refreshed = skeleton.is_some();
    match skeleton {
        Some(skeleton) => {
            *estimate = Some(DensityEstimate::with_samples(skeleton.cdf, Vec::new()));
            report.refreshes += 1;
        }
        None => report.refresh_failures += 1,
    }
    (ProbePlan::plan(estimator, rng), refreshed)
}

/// Exact hop-count percentiles: one counter per hop value. A completed op
/// took at most `MAX_HOPS + 1` hops (routing gives up past the limit), so
/// the counters stay a few hundred words however long the run.
#[derive(Default)]
struct HopCounts {
    /// `counts[h]`: completed ops that took `h` hops.
    counts: Vec<u64>,
    /// Ops recorded (the sum of `counts`).
    n: u64,
}

impl HopCounts {
    fn record(&mut self, hops: u32) {
        let h = hops as usize;
        if h >= self.counts.len() {
            self.counts.resize(h + 1, 0);
        }
        self.counts[h] += 1;
        self.n += 1;
    }

    /// The `q`-quantile (`q ∈ [0, 1]`): the order statistic at rank
    /// `⌊q·(n−1)⌋ + 1`, not nearest-rank `⌈q·n⌉`. The ceiling convention
    /// collapses every tail quantile to rank `n` once `q ≥ 1 − 1/n`, so p99
    /// on a small sample would silently become the max; this one keeps
    /// q = 0 on the min and q = 1 on the max while tail queries land on an
    /// interior rank. 0.0 when nothing was recorded.
    fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * (self.n as f64 - 1.0)).floor() as u64 + 1).min(self.n);
        let mut seen = 0;
        let h = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank
            })
            .expect("invariant: rank ≤ n, the sum of the counts");
        h as f64
    }
}

/// Maps 64 entropy bits onto `[0, 1)` with 53-bit resolution.
fn unit(entropy: u64) -> f64 {
    (entropy >> 11) as f64 / (1u64 << 53) as f64
}

/// Drives one open-loop serving run against a fork of the built network
/// (the input is never mutated, so repeated runs are independent).
///
/// Determinism: all randomness derives from
/// `(built.scenario.seed, run_index)` via [`SeedSequence`]; identical
/// inputs produce an identical report.
///
/// # Panics
/// Panics on a degenerate spec (non-positive rate/duration/refresh interval).
pub fn run_workload(built: &BuiltScenario, spec: &WorkloadSpec, run_index: u64) -> WorkloadReport {
    assert!(spec.refresh_interval > 0.0, "refresh interval must be positive");
    let mut net = built.net.fork();
    let ops = schedule(spec, built.scenario.seed, run_index);
    let seq = SeedSequence::new(built.scenario.seed);
    let mut est_rng = seq.stream(Component::Estimator, run_index);

    let ids: Vec<RingId> = net.ids().collect();
    assert!(!ids.is_empty(), "workload needs peers");
    let domain = net.placement().domain();
    let (lo, hi) = domain;
    let estimator = DfDde::new(DfDdeConfig::with_probes(spec.probes));

    let mut report = WorkloadReport {
        ops_scheduled: ops.len(),
        ops_completed: 0,
        ops_failed: 0,
        inserts: 0,
        lookups: 0,
        estimate_reads: 0,
        throughput: 0.0,
        hop_p50: 0.0,
        hop_p95: 0.0,
        hop_p99: 0.0,
        refreshes: 0,
        refresh_failures: 0,
        piggybacked: 0,
        stats: MessageStats::default(),
        dedicated_probes: 0,
        piggyback_msgs: 0,
        lookup_hop_msgs: 0,
        messages: 0,
        bytes: 0,
        mean_staleness: 0.0,
        est_ks: f64::NAN,
    };

    let before = net.stats().clone();
    let mut batch = BatchRouter::new();
    let mut latency = HopCounts::default();
    let mut estimate: Option<DensityEstimate> = None;
    let mut staleness_sum = 0.0_f64;
    let mut served_reads = 0_usize;

    // Estimate at t = 0: all-dedicated (no traffic has flowed yet), so even
    // a zero-rate or lookup-free run serves *something*.
    let plan = ProbePlan::plan(&estimator, &mut est_rng);
    let initiator = ids[est_rng.gen_range(0..ids.len())];
    let (mut plan, _) = refresh_estimate(
        &estimator,
        &mut net,
        plan,
        initiator,
        &mut est_rng,
        domain,
        &mut estimate,
        &mut report,
    );
    // When the last successful refresh ran; read only while `estimate` is
    // set, which some successful refresh did.
    let mut last_refresh = 0.0_f64;
    let mut next_refresh = spec.refresh_interval;

    let mut cur_window = u64::MAX;
    let mut origin = ids[0];
    for op in &ops {
        while next_refresh <= op.at {
            let initiator = ids[est_rng.gen_range(0..ids.len())];
            let refreshed;
            (plan, refreshed) = refresh_estimate(
                &estimator,
                &mut net,
                plan,
                initiator,
                &mut est_rng,
                domain,
                &mut estimate,
                &mut report,
            );
            if refreshed {
                last_refresh = next_refresh;
            }
            next_refresh += spec.refresh_interval;
        }

        let w = (op.at / WINDOW) as u64;
        if w != cur_window {
            cur_window = w;
            batch.begin_window();
            origin = ids[(op.origin_entropy % ids.len() as u64) as usize];
        }

        match op.kind {
            OpKind::Insert => {
                report.inserts += 1;
                let x = lo + (hi - lo) * unit(op.value_entropy);
                match net.insert(origin, x) {
                    Ok(hops) => {
                        report.ops_completed += 1;
                        latency.record(hops);
                    }
                    Err(_) => report.ops_failed += 1,
                }
            }
            OpKind::Lookup => {
                report.lookups += 1;
                let x = lo + (hi - lo) * unit(op.value_entropy);
                let target = net.placement().place(x);
                let res = if spec.batch {
                    net.lookup_batched(origin, target, &mut batch)
                } else {
                    net.lookup(origin, target)
                };
                match res {
                    Ok(r) => {
                        report.ops_completed += 1;
                        latency.record(r.hops);
                        if spec.piggyback {
                            plan.offer_owner(&mut net, r.owner);
                        }
                    }
                    Err(_) => report.ops_failed += 1,
                }
            }
            OpKind::Estimate => {
                report.estimate_reads += 1;
                if estimate.is_some() {
                    report.ops_completed += 1;
                    staleness_sum += op.at - last_refresh;
                    served_reads += 1;
                } else {
                    report.ops_failed += 1;
                }
            }
        }
    }
    // The last plan's piggybacked coverage counts even though the cycle
    // never completed into a skeleton.
    report.piggybacked += plan.piggybacked();

    report.throughput = report.ops_completed as f64 / spec.duration;
    report.hop_p50 = latency.quantile(0.50);
    report.hop_p95 = latency.quantile(0.95);
    report.hop_p99 = latency.quantile(0.99);
    if served_reads > 0 {
        report.mean_staleness = staleness_sum / served_reads as f64;
    }
    if let Some(e) = &estimate {
        report.est_ks = e.ks_to(&net.live_values());
    }

    report.stats = net.stats().since(&before);
    let d = &report.stats;
    report.dedicated_probes = d.count(MessageKind::Probe);
    report.piggyback_msgs = d.count(MessageKind::ProbePiggyback);
    report.lookup_hop_msgs = d.count(MessageKind::LookupHop);
    report.messages = d.total_messages();
    report.bytes = d.total_bytes();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::scenario::Scenario;
    use dde_ring::network::MAX_HOPS;
    use proptest::prelude::*;

    fn counts_of(hops: &[u32]) -> HopCounts {
        let mut counts = HopCounts::default();
        for &h in hops {
            counts.record(h);
        }
        counts
    }

    #[test]
    fn min_and_max_are_exact() {
        let counts = counts_of(&[5, 3, 7, 0, 100, 50, 2]);
        assert_eq!(counts.quantile(0.0), 0.0);
        assert_eq!(counts.quantile(1.0), 100.0);
        assert_eq!(HopCounts::default().quantile(0.5), 0.0, "an empty run reads 0");
    }

    /// Under the `⌈q·n⌉` convention, p99 on these sample counts would
    /// return the max element.
    #[test]
    fn tail_quantiles_are_interior_ranks() {
        for n in [10u32, 50, 100] {
            let counts = counts_of(&(0..n).collect::<Vec<_>>());
            // p99 must be an interior element, not the max, for n ≤ 100.
            let p99 = counts.quantile(0.99);
            let expect = (0.99 * (f64::from(n) - 1.0)).floor();
            assert_eq!(p99, expect, "p99 of 0..{n}");
            assert!(p99 < f64::from(n - 1), "p99 of {n} samples collapsed to the max");
            // p999 likewise stays interior below n = 1000.
            let p999 = counts.quantile(0.999);
            assert!(p999 < f64::from(n - 1), "p999 of {n} samples collapsed to the max");
            // The endpoints stay exact.
            assert_eq!(counts.quantile(0.0), 0.0);
            assert_eq!(counts.quantile(1.0), f64::from(n - 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counted percentiles are the exact order statistics at rank
        /// `⌊q·(n−1)⌋ + 1` of any multiset of completed-op hop counts, from
        /// a single repeated value up to the whole `0..=MAX_HOPS + 1` range.
        #[test]
        fn hop_percentiles_are_exact_order_statistics(
            n in 1usize..=5_000,
            top in 0u32..=MAX_HOPS + 1,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).stream(Component::Test, 0);
            let hops: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=top)).collect();
            let counts = counts_of(&hops);
            let mut sorted = hops;
            sorted.sort_unstable();
            for q in [0.50, 0.95, 0.99] {
                let rank = (q * (n as f64 - 1.0)).floor() as usize + 1;
                prop_assert_eq!(counts.quantile(q), f64::from(sorted[rank - 1]), "q = {}", q);
            }
        }
    }

    fn scenario() -> Scenario {
        Scenario::default().with_peers(64).with_items(5_000).with_seed(1408)
    }

    #[test]
    fn schedule_is_pure_and_seed_sensitive() {
        let spec = WorkloadSpec::default();
        let a = schedule(&spec, 99, 3);
        let b = schedule(&spec, 99, 3);
        assert_eq!(a, b);
        assert_ne!(schedule(&spec, 99, 4), a, "run index must shift the stream");
        assert_ne!(schedule(&spec, 100, 3), a, "seed must shift the stream");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "arrivals must be ordered");
        assert!(a.iter().all(|op| op.at < spec.duration));
    }

    #[test]
    fn run_is_deterministic() {
        let built = build(&scenario());
        let spec = WorkloadSpec::default();
        let a = run_workload(&built, &spec, 0);
        let b = run_workload(&built, &spec, 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.ops_completed > 0);
        assert!(a.refreshes > 0);
        assert!(a.est_ks.is_finite());
    }

    #[test]
    fn batching_preserves_results_and_cuts_hop_charges() {
        let built = build(&scenario());
        let base = WorkloadSpec { piggyback: false, ..WorkloadSpec::default() };
        let solo = run_workload(&built, &WorkloadSpec { batch: false, ..base }, 1);
        let batched = run_workload(&built, &WorkloadSpec { batch: true, ..base }, 1);
        // Identical outcomes and latency profile: only charges are deduped.
        assert_eq!(solo.ops_completed, batched.ops_completed);
        assert_eq!(solo.ops_failed, batched.ops_failed);
        assert_eq!(solo.hop_p50, batched.hop_p50);
        assert_eq!(solo.hop_p99, batched.hop_p99);
        assert!(
            batched.lookup_hop_msgs < solo.lookup_hop_msgs,
            "window dedup must drop hop charges: {} vs {}",
            batched.lookup_hop_msgs,
            solo.lookup_hop_msgs
        );
    }

    #[test]
    fn piggybacking_cuts_dedicated_probes() {
        let built = build(&scenario());
        let base = WorkloadSpec::default();
        let dedicated = run_workload(&built, &WorkloadSpec { piggyback: false, ..base }, 2);
        let piggy = run_workload(&built, &WorkloadSpec { piggyback: true, ..base }, 2);
        assert_eq!(dedicated.piggybacked, 0);
        assert!(piggy.piggybacked > 0);
        assert!(
            piggy.dedicated_probes < dedicated.dedicated_probes,
            "piggybacking must displace dedicated probes: {} vs {}",
            piggy.dedicated_probes,
            dedicated.dedicated_probes
        );
        // Both transports still produce a live-accurate estimate.
        assert!(piggy.est_ks.is_finite() && dedicated.est_ks.is_finite());
    }

    #[test]
    fn estimate_reads_observe_staleness() {
        let built = build(&scenario());
        let spec = WorkloadSpec {
            mix: OpMix::new(100, 400),
            refresh_interval: 4.0,
            ..WorkloadSpec::default()
        };
        let r = run_workload(&built, &spec, 3);
        assert!(r.estimate_reads > 0);
        assert!(r.mean_staleness > 0.0);
        assert!(r.mean_staleness <= spec.refresh_interval);
    }

    #[test]
    fn staleness_counts_only_reads_an_estimate_served() {
        // Every message is lost and no lookup is offered to the probe plan,
        // so no refresh succeeds and no read finds an estimate: there is no
        // age to report.
        let mut built = build(&scenario());
        built.net.set_fault_plan(dde_ring::FaultPlan::new(7).with_loss(1.0));
        let spec =
            WorkloadSpec { mix: OpMix::new(100, 400), piggyback: false, ..WorkloadSpec::default() };
        let r = run_workload(&built, &spec, 5);
        assert_eq!(r.refreshes, 0);
        assert!(r.estimate_reads > 0);
        assert!(r.ops_failed >= r.estimate_reads, "every read failed");
        assert_eq!(r.mean_staleness, 0.0);
    }

    #[test]
    fn zero_lookup_mix_still_serves_estimates() {
        let built = build(&scenario());
        let spec =
            WorkloadSpec { mix: OpMix::new(0, 0), piggyback: true, ..WorkloadSpec::default() };
        let r = run_workload(&built, &spec, 4);
        assert_eq!(r.lookups, 0);
        assert_eq!(r.ops_failed, 0, "the t=0 estimate covers every read");
        assert!(r.est_ks.is_finite());
    }
}
