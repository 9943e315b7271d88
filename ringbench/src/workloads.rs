//! The four workloads: inputs drawn from the seed, a closed loop of timed
//! steps, the checks on every output, and the metrics of one run.
//!
//! Every step is a pure function of `(seed, step index)` and the state the
//! earlier steps left, so a run's first `min_steps` steps — the prefix the
//! deterministic metrics are taken over — are the same work on every commit
//! and every machine; only how many further steps fit in `--seconds` varies.

use crate::clock::Clock;
use crate::summary::{highest_tail, mean, median, quantile};
use crate::sys;
use crate::trace::{Cost, Tracer};
use dde_core::{DensityEstimate, DensityEstimator, DfDde, DfDdeConfig, EstimateError};
use dde_ring::{ChurnBatch, LookupError, Network, Placement, RingId};
use dde_sim::exec;
use dde_sim::experiments::{run_by_id, t1_defaults, Scale, ALL_IDS};
use dde_sim::workload::schedule;
use dde_sim::{
    build_fresh, run_workload, BuiltScenario, NodeLayout, PlacementMode, Scenario, Table,
    WorkloadSpec,
};
use dde_stats::assert::KsBand;
use dde_stats::dist::Distribution;
use dde_stats::rng::{splitmix64, Component, SeedSequence};
use dde_stats::streaming::StreamingTruth;
use dde_stats::CdfFn;
use rand::rngs::StdRng;
use rand::Rng;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Static,
    Churn,
    Serve,
    QuickSuite,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Static, Kind::Churn, Kind::Serve, Kind::QuickSuite];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Static => "static",
            Kind::Churn => "churn",
            Kind::Serve => "serve",
            Kind::QuickSuite => "quick_suite",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's own master seed, so two workloads never share inputs.
    fn seed(self, seed: u64) -> u64 {
        splitmix64(seed ^ (0x5EED_0000 + self as u64))
    }

    /// Steps every run completes, however short `--seconds` is: the prefix
    /// the deterministic metrics are taken over, and enough steps for the
    /// tail percentile to have ten samples beyond it.
    fn min_steps(self, size: Size) -> u64 {
        match (self, size) {
            (Kind::QuickSuite, _) => QUICK_PASSES * self.unit(size),
            (_, Size::Full) => 100,
            (_, Size::Smoke) => 2 * self.unit(size),
        }
    }

    /// The percentile `step_ms_tail` reports: the highest that leaves ten
    /// steps beyond it in every full run.
    pub fn tail_q(self) -> f64 {
        highest_tail(self.min_steps(Size::Full) as usize).expect("full runs take 20 steps or more")
    }

    /// Steps a run is made of whole units of: a pass over the experiments
    /// for `quick_suite`, an epoch for `churn` (whose first step, on a fresh
    /// fork, is the slowest), one step otherwise. A run ends, and a traced
    /// run switches recording on or off, only between units, so every run
    /// has the same mix of steps and both halves of a traced run do too.
    fn unit(self, size: Size) -> u64 {
        match self {
            Kind::QuickSuite => size.quick_ids().len() as u64,
            Kind::Churn => CHURN_EPOCH,
            _ => 1,
        }
    }

    /// The ring the workload runs on. `quick_suite` builds its own inside
    /// each experiment; its ring here, T1's quick-scale default scenario,
    /// serves only the traced run's layer sample.
    fn scenario(self, seed: u64, size: Size) -> Scenario {
        let seed = self.seed(seed);
        match self {
            Kind::Static | Kind::Churn => ring_scenario(size.big_peers(), seed),
            Kind::Serve => {
                let (peers, items) = size.serve_ring();
                Scenario::default().with_peers(peers).with_items(items).with_seed(seed)
            }
            Kind::QuickSuite => t1_defaults::default_scenario(Scale::Quick).with_seed(seed),
        }
    }
}

/// Full size is what the benchmark measures; smoke size runs the same code
/// on small inputs for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Size {
    /// Peers of the `static` and `churn` rings.
    fn big_peers(self) -> usize {
        match self {
            Size::Full => 100_000,
            Size::Smoke => 2_000,
        }
    }

    /// Peers and items of the `serve` ring.
    fn serve_ring(self) -> (usize, usize) {
        match self {
            Size::Full => (4_096, 200_000),
            Size::Smoke => (2_000, 40_000),
        }
    }

    /// One `serve` step: F14's serving spec (mix 200/700/100 ‰, batching and
    /// piggybacking on, a refresh every 2 virtual s) at k = 48.
    fn serve_spec(self) -> WorkloadSpec {
        WorkloadSpec {
            rate: match self {
                Size::Full => SERVE_RATE,
                Size::Smoke => 2_000.0,
            },
            duration: SERVE_DURATION,
            probes: SERVE_PROBES,
            ..WorkloadSpec::default()
        }
    }

    /// The experiments `quick_suite` cycles through: all of them, or T1
    /// alone at smoke size.
    fn quick_ids(self) -> &'static [&'static str] {
        match self {
            Size::Full => ALL_IDS,
            Size::Smoke => &["t1"],
        }
    }
}

/// Items per peer on the `static` and `churn` rings: F12's shape.
const ITEMS_PER_PEER: usize = 20;
/// DF-DDE probes per estimate on the `static` and `churn` rings (F12's k).
const PROBES: usize = 64;
/// Probes per serving refresh (F14's k).
const SERVE_PROBES: usize = 48;
/// Arrivals per virtual second of a `serve` step.
const SERVE_RATE: f64 = 10_000.0;
/// Virtual seconds one `serve` step serves: past the refresh at 2 s, so
/// each step completes the all-dedicated refresh at 0 s and one fed by 2 s
/// of piggybacked traffic. At [`SERVE_RATE`] that is 25 000 ops, about
/// 0.15 s of wall time, so a run holds the 100 steps a p90 needs.
const SERVE_DURATION: f64 = 2.5;
/// Lookups per `static` step.
const LOOKUPS_PER_STEP: usize = 640;
/// Estimates per `static` step. With the lookups, a step takes about 10 ms,
/// so bursts of outside load shorter than that fall inside one step instead
/// of filling the tail with slow steps.
const STATIC_ESTIMATES: usize = 10;
/// Estimates per `churn` step.
const CHURN_ESTIMATES: usize = 4;
/// A `churn` step's membership window: `p/1000` joins, `p/2000` leaves and
/// `p/2000` crashes.
const MEMBERSHIP_DEN: usize = 1_000;
/// Share of the items a `churn` step removes and replaces.
const TURNOVER: f64 = 0.0025;
/// `churn` steps per epoch; each epoch starts again from a fork of the
/// set-up ring. Turnover drains sparse stores (a removal picks a store, then
/// an item), and removals scan past empty stores, so an unbounded run would
/// slow step by step; 32 steps turn over 8 % of the items and stay level.
const CHURN_EPOCH: u64 = 32;
/// Passes over the experiments every `quick_suite` run times, after its
/// set-up pass: 105 steps, so its p90 has ten beyond it.
const QUICK_PASSES: u64 = 5;
/// `build_fresh` calls in a ring workload's set-up; `setup_s` is their
/// median.
const SETUP_BUILDS: usize = 5;
/// Step index of the traced run's layer sample, far from the loop's indices.
const SAMPLE_STEP: u64 = 1 << 40;

/// F12's ring: skewed Zipf items, 20 per peer, range placement.
fn ring_scenario(peers: usize, seed: u64) -> Scenario {
    Scenario::default().with_peers(peers).with_items(peers * ITEMS_PER_PEER).with_seed(seed)
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Failed output checks of a run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// What one step did.
#[derive(Debug, Default)]
struct StepOut {
    /// Messages and bytes of the step's protocol work, if it reports them.
    cost: Option<Cost>,
    ks: Vec<f64>,
    ops: u64,
    failed: u64,
}

/// The deterministic prefix's protocol totals.
#[derive(Debug, Default)]
struct Prefix {
    cost: Cost,
    /// Steps that reported a cost.
    costed: u64,
    ks: Vec<f64>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// The reference kernel's samples, in ms.
    pub reference_ms: Vec<f64>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.failed == 0
    }
}

/// Runs `kind` once: set up, then steps until `seconds` have passed, at
/// least the workload's minimum step count is done and the last unit is
/// whole, then the end checks. Every timing is scaled by the run's
/// [`Clock`]. Traced, set-up also replays the build part by part, every
/// other unit wraps each layer call in a span, and a layer sample follows
/// the loop.
pub fn run(kind: Kind, seed: u64, seconds: f64, size: Size, tr: &mut Tracer) -> Report {
    // The suite's plans run on `exec::jobs()` threads; every run uses one.
    exec::set_jobs(1);
    let mut checks = Checks::default();
    let mut clock = Clock::new();
    let mut live = Live::set_up(kind, seed, size, &mut clock, tr, &mut checks);
    let (min_steps, unit) = (kind.min_steps(size), kind.unit(size));
    // Each step's start and end on the clock.
    let mut steps = Vec::new();
    let mut prefix = Prefix::default();
    let mut all_ks = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss = None;
    let start = clock.now_s();
    let mut i = 0;
    while i < min_steps || clock.now_s() - start < seconds || i % unit != 0 {
        live.before_step(i);
        clock.tick();
        tr.record((i / unit).is_multiple_of(2));
        tr.set_op(Some(i));
        let span = tr.enter("step");
        let t0 = clock.now_s();
        let out = live.step(i, tr, &mut checks);
        steps.push((t0, clock.now_s()));
        tr.exit(span, out.ops, out.cost.unwrap_or_default());
        tr.set_op(None);
        live.after_step(i, &mut checks);
        attempted += out.ops;
        failed += out.failed;
        all_ks.extend_from_slice(&out.ks);
        if i < min_steps {
            if let Some(c) = out.cost {
                prefix.cost.msgs += c.msgs;
                prefix.cost.bytes += c.bytes;
                prefix.costed += 1;
            }
            prefix.ks.extend(out.ks);
        }
        i += 1;
        if i == min_steps {
            peak_rss = sys::peak_rss_mb();
            checks.expect(peak_rss.is_some(), || "no VmHWM in /proc/self/status".into());
        }
    }
    tr.record(true);
    live.finish(&all_ks, &mut checks);
    let step_ms: Vec<f64> = steps.iter().map(|&(s, e)| clock.scaled_s(s, e) * 1e3).collect();
    let setup_s: Vec<f64> = live.setup.iter().map(|&(s, e)| clock.scaled_s(s, e)).collect();

    let per_layer = if tr.traced() {
        layer_sample(&live, seed, size, &mut clock, tr, &mut checks);
        // The recorded units' mean step time against the others'.
        let mean_ms = |recorded: bool| {
            let v: Vec<f64> = (0..step_ms.len())
                .filter(|&i| (i as u64 / unit).is_multiple_of(2) == recorded)
                .map(|i| step_ms[i])
                .collect();
            mean(&v)
        };
        let overhead_pct = (mean_ms(true) / mean_ms(false) - 1.0) * 100.0;
        per_layer_metrics(tr, overhead_pct)
    } else {
        Vec::new()
    };

    let costed = prefix.costed as f64;
    let end_to_end = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("peak_rss_mb", "MB", peak_rss.unwrap_or(f64::NAN)),
        metric("step_ms_p50", "ms", median(&step_ms)),
        metric("step_ms_tail", "ms", quantile(&step_ms, kind.tail_q())),
        metric("steps_per_s", "1/s", 1e3 / mean(&step_ms)),
        metric("msgs_per_step", "count", prefix.cost.msgs as f64 / costed),
        metric("bytes_per_step", "B", prefix.cost.bytes as f64 / costed),
        metric("ks_mean", "KS", mean(&prefix.ks)),
    ];
    Report { checks, attempted, failed, reference_ms: clock.samples_ms(), end_to_end, per_layer }
}

/// A ring workload's set-up: [`SETUP_BUILDS`] calls of `build_fresh`, each
/// timed on `clock` into `times` and dropped before the next starts, so
/// memory holds one build. Traced, the build is also replayed part by part
/// before every build but the first, so the parts and the builds they are
/// compared with run under the same conditions. Returns the last build.
fn set_up_ring(
    scenario: &Scenario,
    clock: &mut Clock,
    tr: &mut Tracer,
    checks: &mut Checks,
    times: &mut Vec<(f64, f64)>,
) -> BuiltScenario {
    let mut built = None;
    for n in 0..SETUP_BUILDS {
        drop(built.take());
        if n > 0 && tr.on() {
            replay_build(scenario, tr, checks);
        }
        clock.tick();
        let span = tr.enter("sim.build_fresh");
        let t0 = clock.now_s();
        let b = build_fresh(scenario);
        times.push((t0, clock.now_s()));
        tr.exit(span, 1, Cost::default());
        built = Some(b);
    }
    let built = built.expect("set-up builds at least once");
    checks.expect(built.net.total_items() == scenario.items as u64, || {
        format!("build holds {} items, not {}", built.net.total_items(), scenario.items)
    });
    built
}

/// Replays `build_fresh`'s three big parts on the same seeded inputs —
/// dataset, ring wiring, bulk load — each in its own span, and drops them.
/// `build_fresh` minus these parts is the glue code of `sim::build`.
fn replay_build(scenario: &Scenario, tr: &mut Tracer, checks: &mut Checks) {
    checks.expect(
        scenario.placement == PlacementMode::Range
            && scenario.layout == NodeLayout::UniformIds
            && scenario.flash_crowd == 0
            && scenario.capacity.is_none()
            && scenario.partition.is_none(),
        || "the build replay covers plain range-placed scenarios only".into(),
    );
    let (lo, hi) = scenario.domain;
    let seq = SeedSequence::new(scenario.seed);
    let gen = scenario.distribution.build(lo, hi);

    let span = tr.enter("stats.dataset");
    let mut rng = seq.stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..scenario.items).map(|_| gen.sample(&mut rng)).collect();
    tr.exit(span, data.len() as u64, Cost::default());

    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..scenario.peers).map(|_| RingId(id_rng.gen())).collect();
    ids.sort();
    ids.dedup();

    let span = tr.enter("ring.build_bulk");
    let mut net = Network::build_bulk(ids, Placement::range(lo, hi));
    tr.exit(span, net.len() as u64, Cost::default());
    net.set_summary_buckets(scenario.summary_buckets);

    let span = tr.enter("ring.bulk_load");
    net.bulk_load(&data);
    tr.exit(span, data.len() as u64, Cost::default());
    checks
        .expect(net.total_items() == data.len() as u64, || "replayed bulk load lost items".into());
}

/// A workload's state between steps.
struct Live {
    kind: Kind,
    /// Start and end on the clock of each set-up build of a ring workload;
    /// for `quick_suite`, of its first pass, which fills the snapshot cache
    /// as every run of the suite does.
    setup: Vec<(f64, f64)>,
    state: State,
}

enum State {
    Static(BuiltScenario),
    Churn(Box<ChurnState>),
    Serve {
        built: BuiltScenario,
        spec: WorkloadSpec,
        /// Probe points covered by piggybacking, over all steps.
        piggybacked: u64,
    },
    QuickSuite(Suite),
}

struct ChurnState {
    built: BuiltScenario,
    /// The set-up ring, never mutated: every epoch starts from a fork of
    /// it, and its stores are the parts the truth journal is relative to.
    pristine: Network,
    truth: StreamingTruth,
    batch: ChurnBatch,
}

struct Suite {
    ids: &'static [&'static str],
    /// The first pass's rendered tables, one entry per experiment, which
    /// every later pass must reproduce bit for bit.
    first: Vec<String>,
}

impl Suite {
    /// Runs the first pass, the suite's set-up; returns its start and end
    /// on `clock`.
    fn set_up(&mut self, clock: &mut Clock, tr: &mut Tracer, checks: &mut Checks) -> (f64, f64) {
        clock.tick();
        let t0 = clock.now_s();
        for j in 0..self.ids.len() as u64 {
            suite_step(self, j, tr, checks);
        }
        (t0, clock.now_s())
    }
}

impl Live {
    fn set_up(
        kind: Kind,
        seed: u64,
        size: Size,
        clock: &mut Clock,
        tr: &mut Tracer,
        checks: &mut Checks,
    ) -> Self {
        let mut setup = Vec::new();
        let scenario = kind.scenario(seed, size);
        let mut ring = || set_up_ring(&scenario, clock, tr, checks, &mut setup);
        let state = match kind {
            Kind::Static => State::Static(ring()),
            Kind::Churn => {
                let built = ring();
                State::Churn(Box::new(ChurnState {
                    pristine: built.net.fork(),
                    truth: fresh_truth(&built),
                    batch: ChurnBatch::new(),
                    built,
                }))
            }
            Kind::Serve => State::Serve { built: ring(), spec: size.serve_spec(), piggybacked: 0 },
            Kind::QuickSuite => {
                let mut suite = Suite { ids: size.quick_ids(), first: Vec::new() };
                setup.push(suite.set_up(clock, tr, checks));
                State::QuickSuite(suite)
            }
        };
        Self { kind, setup, state }
    }

    /// The ring the steps run on; `None` for `quick_suite`.
    fn ring(&self) -> Option<&BuiltScenario> {
        match &self.state {
            State::Static(built) | State::Serve { built, .. } => Some(built),
            State::Churn(c) => Some(&c.built),
            State::QuickSuite(_) => None,
        }
    }

    /// Untimed preparation of step `i`: `churn` starts each epoch on a fork
    /// of the set-up ring.
    fn before_step(&mut self, i: u64) {
        let State::Churn(c) = &mut self.state else { return };
        if i > 0 && i.is_multiple_of(CHURN_EPOCH) {
            // Free the churned ring first, so memory holds two rings.
            c.built.net = Network::new(c.built.net.placement());
            c.built.net = c.pristine.fork();
            c.truth = fresh_truth(&c.built);
        }
    }

    fn step(&mut self, i: u64, tr: &mut Tracer, checks: &mut Checks) -> StepOut {
        match &mut self.state {
            State::Static(built) => {
                let seed = built.scenario.seed;
                static_step(&mut built.net, built.truth.as_ref(), seed, i, tr, checks)
            }
            State::Churn(c) => {
                let seed = c.built.scenario.seed;
                let gen = c.built.truth.as_ref();
                churn_step(&mut c.built.net, gen, &mut c.truth, &mut c.batch, seed, i, tr, checks)
            }
            State::Serve { built, spec, piggybacked } => {
                let (out, covered) = serve_step(built, spec, i, tr, checks);
                *piggybacked += covered;
                out
            }
            State::QuickSuite(suite) => {
                // Step 0 starts the second pass.
                let i = i + suite.ids.len() as u64;
                suite_step(suite, i, tr, checks)
            }
        }
    }

    /// Untimed bookkeeping between steps.
    fn after_step(&self, i: u64, checks: &mut Checks) {
        let State::Churn(c) = &self.state else { return };
        let net = &c.built.net;
        checks.expect(c.truth.items() == net.total_items(), || {
            format!("step {i}: truth holds {} items, ring {}", c.truth.items(), net.total_items())
        });
    }

    /// Untimed end-of-run checks. `ks` holds every step's KS values in step
    /// order. Accuracy is checked on run means, as F12 and F14 check theirs:
    /// a band at α = 1e-3 per estimate would fail now and then over the
    /// thousands of estimates a run makes.
    fn finish(&self, ks: &[f64], checks: &mut Checks) {
        // F12's band: DKW at its k plus the systematic error of 8-bucket
        // summaries over skewed data; F14's adds the inserts since the last
        // refresh.
        let mut in_band = |k: usize, systematic: f64| {
            let m = mean(ks);
            let band = KsBand::new(k, 1e-3).with_systematic(systematic);
            checks.expect(band.check(m).is_ok(), || format!("mean KS {m} outside its band"));
        };
        match &self.state {
            State::Static(_) | State::Churn(_) => in_band(PROBES, 0.06),
            State::Serve { piggybacked, .. } => {
                in_band(SERVE_PROBES, 0.08);
                checks.expect(*piggybacked > 0, || "no probe point was piggybacked".into());
            }
            State::QuickSuite(suite) => checks.expect(suite.first.len() == suite.ids.len(), || {
                format!(
                    "the first pass ran {} of {} experiments",
                    suite.first.len(),
                    suite.ids.len()
                )
            }),
        }
        if let State::Static(built) = &self.state {
            check_ring(&built.net, checks);
        }
        if let State::Churn(c) = &self.state {
            check_ring(&c.built.net, checks);
            // The journaled truth over the frozen parts must equal a fresh
            // truth over the live stores, bit for bit.
            let journaled = c.truth.ks_of_parts(stores(&c.pristine));
            let live = fresh_truth(&c.built).ks_of_parts(stores(&c.built.net));
            checks.expect(journaled == live, || {
                format!("journaled KS {journaled} differs from the live stores' {live}")
            });
        }
    }
}

fn check_ring(net: &Network, checks: &mut Checks) {
    let bad = net.check_invariants();
    checks.expect(bad.is_empty(), || format!("ring invariants: {:?}", &bad[..bad.len().min(3)]));
}

/// The generator's analytic truth over the ring's current items.
fn fresh_truth(built: &BuiltScenario) -> StreamingTruth {
    let (lo, hi) = built.scenario.domain;
    StreamingTruth::new(built.scenario.distribution.build(lo, hi), built.net.total_items())
}

/// Every peer's sorted store.
fn stores(net: &Network) -> impl Iterator<Item = &[f64]> + '_ {
    net.ids().map(|id| net.node(id).expect("listed peers are alive").store.values())
}

/// `static`: lookups between random peers, then DF-DDE estimates.
fn static_step(
    net: &mut Network,
    gen: &dyn Distribution,
    seed: u64,
    i: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> StepOut {
    let mut rng = SeedSequence::new(seed).stream(Component::Workload, i);
    let mut out = StepOut::default();
    let c0 = Cost::of(net);
    let mut found = [(RingId(0), Ok(RingId(0))); LOOKUPS_PER_STEP];
    let span = tr.enter("ring.lookup");
    for slot in &mut found {
        let from = net.random_peer(&mut rng).expect("the ring has peers");
        let target = RingId(rng.gen());
        *slot = (target, net.lookup(from, target).map(|r| r.owner));
    }
    tr.exit(span, LOOKUPS_PER_STEP as u64, Cost::of(net).since(c0));
    for (target, owner) in found {
        out.ops += 1;
        let ok = owner == Ok(net.true_owner(target));
        out.failed += u64::from(!ok);
        checks.expect(ok, || format!("step {i}: lookup of {target} gave {owner:?}"));
    }
    for _ in 0..STATIC_ESTIMATES {
        estimate_into(net, gen, &mut rng, tr, checks, &mut out);
    }
    out.cost = Some(Cost::of(net).since(c0));
    out
}

/// `churn`: one membership window through [`ChurnBatch`], item turnover
/// journaled into the streamed truth, then estimates on the churned ring.
#[allow(clippy::too_many_arguments)]
fn churn_step(
    net: &mut Network,
    gen: &dyn Distribution,
    truth: &mut StreamingTruth,
    batch: &mut ChurnBatch,
    seed: u64,
    i: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> StepOut {
    let seq = SeedSequence::new(seed);
    let mut out = StepOut::default();
    let c0 = Cost::of(net);

    let mut rng = seq.stream(Component::Churn, 2 * i);
    let p = net.len();
    let joins = (p / MEMBERSHIP_DEN).max(2);
    let deaths = (p / (2 * MEMBERSHIP_DEN)).max(1);
    for _ in 0..joins {
        batch.join(RingId(rng.gen()));
    }
    for _ in 0..deaths {
        batch.leave(net.random_peer(&mut rng).expect("the ring has peers"));
    }
    for _ in 0..deaths {
        batch.crash(net.random_peer(&mut rng).expect("the ring has peers"));
    }
    let events = (joins + 2 * deaths) as u64;
    let cw = Cost::of(net);
    let span = tr.enter("ring.churn_apply");
    let applied = batch.apply(net);
    tr.exit(span, events, Cost::of(net).since(cw));
    let done = applied.joins + applied.leaves + applied.crashes;
    tr.count("ring.churn_events", done);
    tr.count("ring.churn_skipped", applied.skipped);
    tr.count("ring.finger_writes", applied.repair.finger_writes);
    tr.count("ring.items_moved", applied.items_moved);
    checks.expect(done + applied.skipped == events, || {
        format!("step {i}: churn events went missing")
    });
    out.ops += events;

    // Turnover replaces the crash losses too, so the item count holds steady.
    let mut rng = seq.stream(Component::Churn, 2 * i + 1);
    let removes = (truth.items() as f64 * TURNOVER) as usize;
    let span = tr.enter("ring.remove_item");
    let removed: Vec<f64> = (0..removes).filter_map(|_| net.churn_remove_item(&mut rng)).collect();
    tr.exit(span, removes as u64, Cost::default());
    let inserted: Vec<f64> =
        (0..removes + applied.lost.len()).map(|_| gen.sample(&mut rng)).collect();
    let span = tr.enter("ring.insert_item");
    for &x in &inserted {
        net.churn_insert_item(x);
    }
    tr.exit(span, inserted.len() as u64, Cost::default());
    let item_ops = (removes + inserted.len()) as u64;
    out.ops += item_ops;
    out.failed += (removes - removed.len()) as u64;
    let span = tr.enter("stats.journal");
    truth.journal_adds(inserted);
    truth.journal_removes(removed.into_iter().chain(applied.lost));
    tr.exit(span, item_ops, Cost::default());

    let mut rng = seq.stream(Component::Estimator, i);
    for _ in 0..CHURN_ESTIMATES {
        estimate_into(net, truth.distribution(), &mut rng, tr, checks, &mut out);
    }
    out.cost = Some(Cost::of(net).since(c0));
    out
}

/// `serve`: one open-loop serving run of `spec` in virtual time. Returns the
/// step and the probe points piggybacking covered.
fn serve_step(
    built: &BuiltScenario,
    spec: &WorkloadSpec,
    i: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (StepOut, u64) {
    if tr.on() {
        // `run_workload` forks the ring and draws its schedule before it
        // serves; replaying both splits its time.
        let span = tr.enter("ring.fork");
        drop(built.net.fork());
        tr.exit(span, 1, Cost::default());
        let span = tr.enter("sim.schedule");
        let ops = schedule(spec, built.scenario.seed, i).len();
        tr.exit(span, ops as u64, Cost::default());
    }
    let span = tr.enter("sim.run_workload");
    let r = run_workload(built, spec, i);
    let cost = Cost { msgs: r.messages, bytes: r.bytes };
    tr.exit(span, r.ops_scheduled as u64, cost);
    tr.count("ring.dedicated_probe_msgs", r.dedicated_probes);
    tr.count("core.piggybacked_points", r.piggybacked as u64);
    tr.count("ring.lookup_hop_msgs", r.lookup_hop_msgs);
    tr.count("sim.refreshes", r.refreshes as u64);

    checks.expect(r.ops_completed + r.ops_failed == r.ops_scheduled, || {
        format!("serve run {i}: {} + {} != {} ops", r.ops_completed, r.ops_failed, r.ops_scheduled)
    });
    checks.expect(r.refreshes >= 1, || format!("serve run {i} never refreshed its estimate"));
    let out = StepOut {
        cost: Some(cost),
        ks: vec![r.est_ks],
        ops: r.ops_scheduled as u64,
        failed: (r.ops_failed + r.refresh_failures) as u64,
    };
    (out, r.piggybacked as u64)
}

/// `quick_suite`: experiment `i` of the cycle, at quick scale through
/// `run_by_id` on one worker. Every pass after the first must render the
/// same tables. The `t1` step reports T1b's DF-DDE row — the suite's own
/// measure of one default-scenario estimate — as its cost and KS; the other
/// steps report none.
fn suite_step(suite: &mut Suite, i: u64, tr: &mut Tracer, checks: &mut Checks) -> StepOut {
    let n = suite.ids.len() as u64;
    let (pass, j) = (i / n, (i % n) as usize);
    let id = suite.ids[j];
    let _ = exec::take_stats();
    let span = tr.enter("sim.run_by_id");
    let tables = run_by_id(id, Scale::Quick);
    let stats = exec::take_stats();
    tr.exit(span, stats.cells, Cost::default());
    tr.count("sim.exec_cells", stats.cells);
    tr.count("sim.exec_cell_ns", stats.cpu.as_nanos() as u64);
    tr.count("sim.exec_build_ns", stats.build.as_nanos() as u64);
    tr.count("sim.exec_allocs", stats.allocs);

    let mut out = StepOut { ops: stats.cells, ..StepOut::default() };
    let Some(tables) = tables else {
        out.failed += 1;
        checks.expect(false, || format!("unknown experiment {id}"));
        return out;
    };
    let text: String = tables.iter().map(Table::to_text).collect();
    if pass == 0 {
        suite.first.push(text);
    } else {
        checks.expect(suite.first[j] == text, || {
            format!("pass {pass}: {id} rendered other tables than in the first pass")
        });
    }
    if id == "t1" {
        match t1b_estimate(&tables) {
            Some((ks, cost)) => {
                out.ks.push(ks);
                out.cost = Some(cost);
            }
            None => checks.expect(false, || "T1b has no df-dde row with ks, msgs and KB".into()),
        }
    }
    out
}

/// T1b's DF-DDE row: KS to the generator, and messages and bytes per
/// estimate.
fn t1b_estimate(tables: &[Table]) -> Option<(f64, Cost)> {
    let t = tables.iter().find(|t| t.title.starts_with("T1b"))?;
    let row = t.rows.iter().find(|r| r.first().map(String::as_str) == Some("df-dde"))?;
    let cell = |header: &str| -> Option<f64> {
        let c = t.headers.iter().position(|h| h == header)?;
        row.get(c)?.trim().parse().ok()
    };
    let cost =
        Cost { msgs: cell("msgs")?.round() as u64, bytes: (cell("KB")? * 1024.0).round() as u64 };
    Some((cell("ks(gen)")?, cost))
}

/// One DF-DDE estimate from a random initiator, scored against `gen`.
fn estimate_into<G: CdfFn + ?Sized>(
    net: &mut Network,
    gen: &G,
    rng: &mut StdRng,
    tr: &mut Tracer,
    checks: &mut Checks,
    out: &mut StepOut,
) {
    out.ops += 1;
    match estimate(net, rng, tr) {
        Ok(est) => {
            let span = tr.enter("stats.ks");
            out.ks.push(est.ks_to(gen));
            tr.exit(span, 1, Cost::default());
        }
        Err(e) => {
            out.failed += 1;
            checks.expect(false, || format!("estimate failed: {e}"));
        }
    }
}

/// [`DfDde::estimate`] in skeleton-only mode. Recording, it runs the two
/// phases that call makes — `run_probes`, then `build_skeleton` — on the
/// same RNG stream, so both paths give the same estimate and the same
/// messages.
fn estimate(
    net: &mut Network,
    rng: &mut StdRng,
    tr: &mut Tracer,
) -> Result<DensityEstimate, EstimateError> {
    let est = DfDde::new(DfDdeConfig::with_probes(PROBES));
    let initiator =
        net.random_peer(rng).ok_or(EstimateError::Routing(LookupError::EmptyNetwork))?;
    if !tr.on() {
        return est.estimate(net, initiator, rng).map(|r| r.estimate);
    }
    let c0 = Cost::of(net);
    let span = tr.enter("core.run_probes");
    let replies = est.run_probes(net, initiator, rng);
    let got = replies.as_ref().map_or(0, Vec::len);
    tr.exit(span, got as u64, Cost::of(net).since(c0));
    tr.count("core.probes_requested", PROBES as u64);
    let replies = replies?;
    if got < PROBES.min(2) {
        return Err(EstimateError::InsufficientProbes { got, need: PROBES });
    }
    let span = tr.enter("core.build_skeleton");
    let skeleton = est.build_skeleton(&replies, net.placement().domain());
    tr.exit(span, 1, Cost::default());
    Ok(DensityEstimate::with_samples(skeleton?.cdf, Vec::new()))
}

/// The traced run's coda: one step of every workload's kind, so every
/// per-layer metric is measured on every workload — the route, probe, churn
/// and serving layers on this workload's ring (`quick_suite` sets up T1's
/// default one, which also gives it build spans), and the runner on one
/// quick experiment unless the loop ran the suite.
fn layer_sample(
    live: &Live,
    seed: u64,
    size: Size,
    clock: &mut Clock,
    tr: &mut Tracer,
    checks: &mut Checks,
) {
    let own;
    let built = match live.ring() {
        Some(b) => b,
        None => {
            let scenario = live.kind.scenario(seed, size);
            own = set_up_ring(&scenario, clock, tr, checks, &mut Vec::new());
            &own
        }
    };
    let seed = built.scenario.seed;
    let span = tr.enter("ring.fork");
    let mut net = built.net.fork();
    tr.exit(span, 1, Cost::default());
    static_step(&mut net, built.truth.as_ref(), seed, SAMPLE_STEP, tr, checks);
    let mut truth = fresh_truth(built);
    let gen = built.truth.as_ref();
    churn_step(&mut net, gen, &mut truth, &mut ChurnBatch::new(), seed, SAMPLE_STEP, tr, checks);
    checks.expect(truth.items() == net.total_items(), || {
        "layer sample: truth and ring disagree".into()
    });
    drop(net);
    serve_step(built, &size.serve_spec(), SAMPLE_STEP, tr, checks);
    if live.kind != Kind::QuickSuite {
        Suite { ids: &["t1"], first: Vec::new() }.set_up(clock, tr, checks);
    }
}

/// Per-layer metrics from the traced run's spans and counters, and the
/// measured tracing overhead.
fn per_layer_metrics(tr: &Tracer, overhead_pct: f64) -> Vec<Metric> {
    let by_name = tr.by_name();
    let agg = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let (dataset, bulk, load, fresh) = (
        agg("stats.dataset"),
        agg("ring.build_bulk"),
        agg("ring.bulk_load"),
        agg("sim.build_fresh"),
    );
    let (lookup, probes, skeleton, ks) =
        (agg("ring.lookup"), agg("core.run_probes"), agg("core.build_skeleton"), agg("stats.ks"));
    let (apply, remove, insert, journal) = (
        agg("ring.churn_apply"),
        agg("ring.remove_item"),
        agg("ring.insert_item"),
        agg("stats.journal"),
    );
    let (fork, sched, serve) = (agg("ring.fork"), agg("sim.schedule"), agg("sim.run_workload"));
    let step = agg("step");
    let cells = tr.counter("sim.exec_cells");
    vec![
        metric("stats.dataset_s", "s", dataset.p50_ns() / 1e9),
        metric("ring.build_bulk_s", "s", bulk.p50_ns() / 1e9),
        metric("ring.bulk_load_s", "s", load.p50_ns() / 1e9),
        metric(
            "sim.build_glue_s",
            "s",
            (fresh.p50_ns() - dataset.p50_ns() - bulk.p50_ns() - load.p50_ns()) / 1e9,
        ),
        metric("ring.build_allocs", "count", per((bulk.allocs + load.allocs) as f64, bulk.count)),
        metric("ring.lookup_us_mean", "us", lookup.ns_per_op() / 1e3),
        metric("ring.lookup_hops_mean", "hops", per(lookup.cost.msgs as f64 / 2.0, lookup.ops)),
        metric("ring.lookup_allocs_per_op", "count", per(lookup.allocs as f64, lookup.ops)),
        metric("core.run_probes_us_p50", "us", probes.p50_ns() / 1e3),
        metric("core.build_skeleton_us_p50", "us", skeleton.p50_ns() / 1e3),
        metric(
            "core.probes_ok_ratio",
            "ratio",
            per(probes.ops as f64, tr.counter("core.probes_requested")),
        ),
        metric("ring.msgs_per_probe", "count", per(probes.cost.msgs as f64, probes.ops)),
        metric("ring.bytes_per_estimate", "B", per(probes.cost.bytes as f64, probes.count)),
        metric(
            "core.estimate_allocs_per_op",
            "count",
            per((probes.allocs + skeleton.allocs) as f64, probes.count),
        ),
        metric("stats.ks_us_p50", "us", ks.p50_ns() / 1e3),
        metric("ring.churn_window_ms", "ms", apply.mean_ns() / 1e6),
        metric(
            "ring.churn_events_per_window",
            "count",
            per(tr.counter("ring.churn_events") as f64, apply.count),
        ),
        metric(
            "ring.churn_skipped_per_window",
            "count",
            per(tr.counter("ring.churn_skipped") as f64, apply.count),
        ),
        metric(
            "ring.finger_writes_per_event",
            "count",
            per(tr.counter("ring.finger_writes") as f64, tr.counter("ring.churn_events")),
        ),
        metric(
            "ring.items_moved_per_window",
            "count",
            per(tr.counter("ring.items_moved") as f64, apply.count),
        ),
        metric("ring.churn_allocs_per_window", "count", per(apply.allocs as f64, apply.count)),
        metric("ring.remove_item_ns", "ns", remove.ns_per_op()),
        metric("ring.insert_item_ns", "ns", insert.ns_per_op()),
        metric("stats.journal_ms", "ms", journal.mean_ns() / 1e6),
        metric("ring.fork_ms", "ms", fork.mean_ns() / 1e6),
        metric("sim.schedule_ms", "ms", sched.mean_ns() / 1e6),
        metric(
            "sim.serve_loop_ms",
            "ms",
            (serve.mean_ns() - fork.mean_ns() - sched.mean_ns()) / 1e6,
        ),
        metric("sim.serve_allocs_per_op", "count", per(serve.allocs as f64, serve.ops)),
        metric(
            "ring.dedicated_probe_msgs_per_run",
            "count",
            per(tr.counter("ring.dedicated_probe_msgs") as f64, serve.count),
        ),
        metric(
            "core.piggybacked_points_per_run",
            "count",
            per(tr.counter("core.piggybacked_points") as f64, serve.count),
        ),
        metric(
            "ring.lookup_hop_msgs_per_run",
            "count",
            per(tr.counter("ring.lookup_hop_msgs") as f64, serve.count),
        ),
        metric(
            "sim.refreshes_per_run",
            "count",
            per(tr.counter("sim.refreshes") as f64, serve.count),
        ),
        metric("sim.exec_cell_ms", "ms", per(tr.counter("sim.exec_cell_ns") as f64, cells) / 1e6),
        metric(
            "sim.exec_build_ms_per_cell",
            "ms",
            per(tr.counter("sim.exec_build_ns") as f64, cells) / 1e6,
        ),
        metric(
            "sim.exec_allocs_per_cell",
            "count",
            per(tr.counter("sim.exec_allocs") as f64, cells),
        ),
        metric(
            "bench.step_self_pct",
            "%",
            step.self_ns as f64 / step.total_ns().max(1) as f64 * 100.0,
        ),
        metric("trace_overhead_pct", "%", overhead_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::supports_tail;

    #[test]
    fn every_full_run_supports_its_tail() {
        for kind in Kind::ALL {
            let (n, q) = (kind.min_steps(Size::Full) as usize, kind.tail_q());
            assert!(
                q >= 0.9 && supports_tail(n, q),
                "{}: p{} of {n} steps",
                kind.name(),
                q * 100.0
            );
        }
    }

    #[test]
    fn t1b_row_parses_into_ks_and_cost() {
        let mut t =
            Table::new("T1b: default-scenario health", &["method", "ks(gen)", "msgs", "KB"]);
        t.push_row(vec!["df-dde".into(), "0.0884".into(), "1347".into(), "94.20".into()]);
        let (ks, cost) = t1b_estimate(&[t]).expect("parses");
        assert_eq!(ks, 0.0884);
        assert_eq!(cost, Cost { msgs: 1347, bytes: 96_461 });
        assert!(t1b_estimate(&[]).is_none());
    }
}
