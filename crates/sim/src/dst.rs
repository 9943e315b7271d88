//! Deterministic simulation testing (DST): a FoundationDB-style adversarial
//! test bed for the whole estimator stack.
//!
//! Four pieces, all seed-deterministic:
//!
//! * **Schedule fuzzer** — [`generate`] derives an arbitrary interleaving of
//!   `Join / Leave / Crash / Heal / Insert / Probe / EstimateRefresh /
//!   FaultWindow` events — plus the adversarial pack: `FlashCrowd /
//!   HotspotBurst / CapacitySkew / ArcPartition / AdversarialJoin /
//!   WorkloadBurst / ChurnWindow` (see `TESTING.md` §scenario axes) — from
//!   a master seed. Every event carries *concrete* parameters (entropy
//!   words, peer ranks resolved against the alive set at application time),
//!   never a shared RNG — so removing events during shrinking cannot
//!   perturb how the remaining ones apply. Membership changes through the
//!   two paths the ring has: the protocol's one-at-a-time joins, leaves and
//!   crashes, and `ChurnWindow`'s batched [`dde_ring::ChurnBatch`]. Each
//!   event is declared once, in the `dst_events!` table below, which
//!   derives the enum, its repro line, its generator draws and its parser.
//! * **Invariant oracle** — after *every* event the always-true local
//!   invariants ([`dde_ring::Network::check_local_invariants`]), message-stat
//!   monotonicity, item conservation, and probe/estimate monotonicity are
//!   checked; after every `Heal` (which stabilizes to quiescence), and
//!   after every `ChurnWindow` applied to a converged ring, the
//!   ground-truth ring+data invariants
//!   ([`dde_ring::Network::check_invariants`]) must be empty.
//! * **Shrinker** — `shrink` ddmin-reduces a failing schedule to a
//!   1-minimal reproducer by re-running candidate sub-schedules.
//! * **Replayable repro** — [`to_repro`] / [`parse_repro`] round-trip a
//!   schedule through a human-readable RON-like text file, replayed with
//!   `ring-dde dst --replay <file>`; the failure report is byte-identical
//!   across replays.
//!
//! [`fuzz`] runs many schedules through the parallel [`ExecPlan`] runner;
//! results are scanned in push order, so the reported first failure (and its
//! shrunk reproducer) is independent of `--jobs`.

use crate::build::build;
use crate::exec::ExecPlan;
use crate::scenario::{check_replication, check_size, Scenario};
use dde_core::{ContinuousConfig, ContinuousEstimator, DfDde, DfDdeConfig, ProbePlan};
use dde_ring::{BatchRouter, ChurnBatch, FaultPlan, Network, ProbeReply, RingId};
use dde_stats::rng::{splitmix64, Component, SeedSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Stabilization rounds a `Heal` event may spend reaching quiescence before
/// the oracle calls non-convergence itself a violation.
pub const MAX_HEAL_ROUNDS: usize = 64;

/// Churn events never shrink the network below this many peers.
const MIN_PEERS: usize = 5;

/// One generator draw: a whole word, or a value in the field's fuzz range.
macro_rules! draw {
    ($rng:ident) => {
        $rng.gen()
    };
    ($rng:ident, $range:expr) => {
        $rng.gen_range($range)
    };
}

/// Declares [`DstEvent`] from one row per variant — its docs, its share of
/// the generator's 128 slots, and its fields, each `u64` drawn whole and
/// each `u16` drawn from the range after its `=` — and derives from the same
/// rows the repro line (`Display`), the generator (`random_event`: one slot
/// draw, then each field in row order) and the repro-line parser
/// (`parse_event`).
macro_rules! dst_events {
    ($(#[$meta:meta])* pub enum DstEvent {$(
        $(#[$doc:meta])*
        $name:ident($slots:literal) $({$(
            $(#[$field_doc:meta])*
            $field:ident: $ty:ty $(= $range:expr)?
        ),* $(,)?})?
    ),* $(,)?}) => {
        $(#[$meta])*
        pub enum DstEvent {$(
            $(#[$doc])*
            $name $({$($(#[$field_doc])* $field: $ty),*})?,
        )*}

        impl fmt::Display for DstEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {$(
                    DstEvent::$name $({$($field),*})? => write_event(
                        f,
                        stringify!($name),
                        &[$($((stringify!($field), u64::from($field))),*)?],
                    ),
                )*}
            }
        }

        const _: () = assert!(0 $(+ $slots)* == 128, "generator slots must total 128");

        fn random_event(rng: &mut StdRng) -> DstEvent {
            let slot = rng.gen_range(0..128u32);
            let mut end = 0;
            $(
                end += $slots;
                if slot < end {
                    return DstEvent::$name $({$($field: draw!(rng $(, $range)?)),*})?;
                }
            )*
            unreachable!("slot {slot} lies past the table's 128")
        }

        fn parse_event(line: &str) -> Result<DstEvent, String> {
            let (name, mut fields) = event_fields(line)?;
            let event = match name {
                $(stringify!($name) => DstEvent::$name $({$(
                    $field: take_field(&mut fields, line, stringify!($field))?
                ),*})?,)*
                other => return Err(format!("unknown event: {other:?}")),
            };
            match fields.keys().next() {
                Some(key) => Err(format!("event {line:?} has unknown field {key:?}")),
                None => Ok(event),
            }
        }
    };
}

// The event table. A row reads `Name(slots) { field: type [= fuzz range] }`;
// rows draw in table order, so a row's slots follow the rows above it.
dst_events! {
    /// One fuzzed event. All parameters are concrete: peer choices are encoded
    /// as *ranks* reduced modulo the alive-peer count at application time, so an
    /// event stays applicable (and deterministic) no matter which other events a
    /// shrinking pass removed around it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DstEvent {
        /// A new peer joins through a bootstrap peer.
        Join(10) {
            /// Raw entropy for the joiner's ring id.
            id_entropy: u64,
            /// Rank (mod alive count) of the bootstrap peer.
            bootstrap_rank: u64,
        },
        /// A peer leaves gracefully, handing its data to its heir.
        Leave(8) {
            /// Rank (mod alive count) of the departing peer.
            victim_rank: u64,
        },
        /// A peer crash-fails: data lost, nobody told.
        Crash(8) {
            /// Rank (mod alive count) of the crashing peer.
            victim_rank: u64,
        },
        /// The network settles: faults clear and stabilization runs until a
        /// round makes zero corrections (bounded by [`MAX_HEAL_ROUNDS`]).
        Heal(12),
        /// A peer inserts one value through the overlay.
        Insert(18) {
            /// Rank (mod alive count) of the inserting peer.
            initiator_rank: u64,
            /// Raw entropy mapped to a value inside the data domain.
            value_entropy: u64,
        },
        /// A peer probes the owner of a ring point (the estimator's primitive).
        Probe(18) {
            /// Rank (mod alive count) of the probing peer.
            initiator_rank: u64,
            /// The probed ring point.
            point: u64,
        },
        /// The resident continuous estimator refreshes part of its probe window.
        EstimateRefresh(11) {
            /// Rank (mod alive count) of the estimating peer.
            initiator_rank: u64,
            /// Seed for the refresh's probe positions.
            entropy: u64,
        },
        /// A fault plan (loss/reply-loss/sick windows) switches on for the next
        /// `duration` events (or until a `Heal`).
        FaultWindow(9) {
            /// Seed for the plan's per-link streams.
            entropy: u64,
            /// Request loss probability in per-mille.
            loss_pm: u16 = 0..=300,
            /// Reply loss probability in per-mille.
            reply_loss_pm: u16 = 0..=150,
            /// Sick-peer probability in per-mille.
            sick_pm: u16 = 0..=100,
            /// Events the window stays installed for.
            duration: u16 = 1..=8,
        },
        /// A flash crowd: several peers join back-to-back — within one
        /// stabilization window, no repair rounds in between.
        FlashCrowd(5) {
            /// Raw entropy the joiners' ring ids (and bootstrap rank) derive
            /// from.
            id_entropy: u64,
            /// Peers joining back-to-back.
            count: u16 = 2..=6,
        },
        /// A burst of probes from one initiator, all aimed inside one narrow
        /// hot arc (Zipf-head traffic in miniature).
        HotspotBurst(5) {
            /// Rank (mod alive count) of the probing peer.
            initiator_rank: u64,
            /// Raw entropy for the hot arc's centre and per-probe jitter.
            entropy: u64,
            /// Probes in the burst.
            count: u16 = 4..=16,
        },
        /// A heterogeneous-capacity window: a static slow class whose outgoing
        /// messages are delay-scaled (and may miss reply deadlines) for the
        /// next `duration` events (or until a `Heal`).
        CapacitySkew(6) {
            /// Seed for the plan's decision streams.
            entropy: u64,
            /// Per-mille of peers in the slow class.
            slow_pm: u16 = 100..=600,
            /// Delay multiplier for messages sent by slow peers.
            factor: u16 = 2..=8,
            /// Reply deadline in delay units (0 = callers wait forever).
            deadline: u16 = 0..=12,
            /// Events the window stays installed for.
            duration: u16 = 1..=8,
        },
        /// A spatially-correlated partition: a contiguous ring arc is cut off
        /// from the rest for the next `duration` events (or until a `Heal`).
        ArcPartition(5) {
            /// Arc start in per-mille of the ring.
            start_pm: u16 = 0..1000,
            /// Arc span in per-mille of the ring.
            span_pm: u16 = 50..=400,
            /// Events the partition stays up for.
            duration: u16 = 1..=8,
        },
        /// An adversarially placed joiner: lands mid-arc of the peer holding
        /// the fewest items, maximizing arc-uniform sampling bias (the
        /// event-level cousin of `NodeLayout::Adversarial`).
        AdversarialJoin(3) {
            /// Jitter entropy positioning the joiner inside the target arc.
            jitter: u64,
        },
        /// A coalesced membership window: ~`count` joins, leaves, and crashes
        /// (split 2:1:1) queued together and applied as one
        /// [`dde_ring::ChurnBatch`] — a single column splice plus one monotone
        /// repair sweep, the amortized mega-scale mutation path under fuzz.
        /// On a converged ring the sweep must leave the *full* ground-truth
        /// invariants clean, with item losses exactly the crashed primaries'.
        ChurnWindow(7) {
            /// Raw entropy the joiner ids and victim ranks derive from.
            entropy: u64,
            /// Membership events queued in the window.
            count: u16 = 6..=24,
        },
        /// A same-origin burst of open-loop serving traffic: a 300/700‰
        /// insert/lookup mix routed through one shared batch window
        /// ([`dde_ring::BatchRouter`]), with the lookups' resolved owners
        /// piggybacking a small probe plan ([`dde_core::ProbePlan`]) completed
        /// by dedicated probes at burst end — the serving engine's hot path
        /// ([`crate::workload`]) in miniature, under fuzz.
        WorkloadBurst(3) {
            /// Rank (mod alive count) of the burst's origin peer.
            origin_rank: u64,
            /// Raw entropy for the burst's op kinds, values, and probe plan.
            entropy: u64,
            /// Foreground ops in the burst.
            count: u16 = 8..=32,
        },
    }
}

/// Writes one repro event line: `Name`, or `Name(key: value, ...)`.
fn write_event(f: &mut fmt::Formatter<'_>, name: &str, fields: &[(&str, u64)]) -> fmt::Result {
    f.write_str(name)?;
    for (i, (key, value)) in fields.iter().enumerate() {
        write!(f, "{}{key}: {value}", if i == 0 { "(" } else { ", " })?;
    }
    f.write_str(if fields.is_empty() { "" } else { ")" })
}

/// A deliberately injected protocol bug, for validating that the oracle and
/// shrinker actually work (and for demos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// During a `Heal` that follows at least one `Crash`, one survivor's
    /// immediate successor pointer is dropped after stabilization — the
    /// classic crash-heal race where a repair step skips a list entry. The
    /// post-heal ground-truth oracle must catch it; the minimal reproducer
    /// is `[Crash, Heal]`.
    SkipSuccessorOnHeal,
    /// The capacity axis's per-link FIFO delivery clamp is dropped, so a
    /// later message on a jittered slow link can overtake an earlier one.
    /// The always-on reordering oracle must catch it; the minimal
    /// reproducer is `[CapacitySkew, HotspotBurst]` (repeated deliveries on
    /// one slow initiator→owner link).
    DropCapacityFifoGuard,
}

impl InjectedBug {
    /// Every injected bug with its repro-file name and its `ring-dde dst --bug`
    /// name, in drill order.
    pub const NAMES: [(InjectedBug, &'static str, &'static str); 2] = [
        (Self::SkipSuccessorOnHeal, "SkipSuccessorOnHeal", "skip-successor-on-heal"),
        (Self::DropCapacityFifoGuard, "DropCapacityFifoGuard", "drop-capacity-fifo-guard"),
    ];
}

/// Configuration for schedule generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DstConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Initial network size.
    pub peers: usize,
    /// Initial bulk-loaded items.
    pub items: usize,
    /// Events per schedule.
    pub events: usize,
    /// Replication factor installed at build time.
    pub replication: usize,
    /// Injected bug, if any.
    pub bug: Option<InjectedBug>,
}

impl Default for DstConfig {
    fn default() -> Self {
        Self { seed: 0xD57, peers: 24, items: 1500, events: 48, replication: 1, bug: None }
    }
}

/// A fully concrete, self-contained event schedule: replaying it (via
/// [`run_schedule`]) is deterministic and needs nothing but this value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Seed the initial network/data build derives from.
    pub seed: u64,
    /// Initial network size.
    pub peers: usize,
    /// Initial bulk-loaded items.
    pub items: usize,
    /// Replication factor installed at build time.
    pub replication: usize,
    /// Injected bug, if any.
    pub bug: Option<InjectedBug>,
    /// The event sequence.
    pub events: Vec<DstEvent>,
}

/// Generates the schedule for `cfg`: `cfg.events` events drawn from a
/// dedicated RNG stream of the master seed.
// ddelint::allow(dead-pub, "the schedule generator behind fuzz; dst_smoke.rs pins its stream and repro lines against a golden, which fuzz alone cannot expose")
pub fn generate(cfg: &DstConfig) -> Schedule {
    let seq = SeedSequence::new(cfg.seed);
    let mut rng = seq.stream(Component::Test, 0);
    let events = (0..cfg.events).map(|_| random_event(&mut rng)).collect();
    Schedule {
        seed: cfg.seed,
        peers: cfg.peers,
        items: cfg.items,
        replication: cfg.replication,
        bug: cfg.bug,
        events,
    }
}

/// An invariant violation: where in the schedule it surfaced and what broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DstFailure {
    /// Index of the offending event in the schedule.
    pub event_index: usize,
    /// Rendered event (see [`DstEvent`]'s `Display`).
    pub event: String,
    /// The oracle's violation list.
    pub violations: Vec<String>,
}

impl std::fmt::Display for DstFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "invariant violation after event {}: {}", self.event_index, self.event)?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Summary of a clean schedule run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DstReport {
    /// Events applied.
    pub events: usize,
    /// Alive peers at the end.
    pub final_peers: usize,
    /// Items held at the end.
    pub final_items: u64,
    /// Successful continuous-estimator refreshes.
    pub estimates: usize,
}

/// Runs `schedule` from a fresh network, evaluating the oracle after every
/// event. Fully deterministic in the schedule value.
pub fn run_schedule(schedule: &Schedule) -> Result<DstReport, DstFailure> {
    let mut world = World::setup(schedule);
    for (index, &event) in schedule.events.iter().enumerate() {
        world.apply(index, event)?;
    }
    Ok(DstReport {
        events: schedule.events.len(),
        final_peers: world.net.len(),
        final_items: world.net.total_items(),
        estimates: world.estimates,
    })
}

/// The live state a schedule runs against.
struct World {
    net: Network,
    domain: (f64, f64),
    est: ContinuousEstimator,
    bug: Option<InjectedBug>,
    replication: usize,
    initial_items: u64,
    inserts_attempted: u64,
    crashes: usize,
    fault_countdown: usize,
    /// Message, byte and delay totals after the previous event.
    prev_counters: [u64; 3],
    estimates: usize,
    /// Whether the ring's wiring is fully converged (perfect successors,
    /// lists, and fingers everywhere). True after the bulk build or a
    /// quiesced `Heal`; false once any one-at-a-time overlay membership
    /// event leaves stale fingers behind. Gates the `ChurnWindow`
    /// full-oracle check: a batched repair sweep preserves convergence, but
    /// cannot be blamed for staleness it inherited.
    converged: bool,
}

impl World {
    fn setup(schedule: &Schedule) -> Self {
        let scenario = Scenario::default()
            .with_peers(schedule.peers)
            .with_items(schedule.items)
            .with_seed(schedule.seed);
        let mut net = build(&scenario).net;
        net.set_replication(schedule.replication);
        let initial_items = net.total_items();
        Self {
            net,
            domain: scenario.domain,
            est: ContinuousEstimator::new(ContinuousConfig { window: 32, refresh_per_tick: 4 }),
            bug: schedule.bug,
            replication: schedule.replication,
            initial_items,
            inserts_attempted: 0,
            crashes: 0,
            fault_countdown: 0,
            prev_counters: [0; 3],
            estimates: 0,
            converged: true,
        }
    }

    /// The alive peer at `rank % alive_count`, in ring order.
    fn peer_at(&self, rank: u64) -> RingId {
        let len = self.net.len() as u64;
        self.net.ids().nth((rank % len) as usize).expect("rank reduced mod len")
    }

    fn apply(&mut self, index: usize, event: DstEvent) -> Result<(), DstFailure> {
        let mut extra: Vec<String> = Vec::new();
        // One arm per event, no wildcard: a new table row does not compile
        // until it has a handler. Fault-window installers return early.
        match event {
            DstEvent::Join { id_entropy, bootstrap_rank } => {
                let bootstrap = self.peer_at(bootstrap_rank);
                self.join(RingId(id_entropy), bootstrap);
            }
            DstEvent::Leave { victim_rank } => {
                if self.net.len() > MIN_PEERS {
                    let victim = self.peer_at(victim_rank);
                    let _ = self.net.leave(victim);
                    self.converged = false;
                }
            }
            DstEvent::Crash { victim_rank } => {
                if self.net.len() > MIN_PEERS {
                    let victim = self.peer_at(victim_rank);
                    let _ = self.net.fail(victim);
                    self.crashes += 1;
                    self.converged = false;
                }
            }
            DstEvent::Heal => {
                self.fault_countdown = 0;
                extra.extend(self.net.clear_fault_plan().as_ref().and_then(fifo_breach));
                let quiesced = (0..MAX_HEAL_ROUNDS).any(|_| self.net.stabilize_round() == 0);
                if self.bug == Some(InjectedBug::SkipSuccessorOnHeal) && self.crashes > 0 {
                    // The injected crash-heal race: the repair pass "skips"
                    // the first survivor's immediate successor entry.
                    let victim = self.net.ids().next().expect("nonempty");
                    let node = self.net.node_mut(victim).expect("alive");
                    if !node.successors.is_empty() {
                        node.successors.remove(0);
                    }
                }
                if !quiesced {
                    extra.push(format!(
                        "stabilization failed to quiesce within {MAX_HEAL_ROUNDS} rounds"
                    ));
                }
                extra.extend(self.net.check_invariants().iter().map(|v| format!("post-heal: {v}")));
                self.converged = quiesced;
            }
            DstEvent::Insert { initiator_rank, value_entropy } => {
                let initiator = self.peer_at(initiator_rank);
                let (lo, hi) = self.domain;
                let frac = value_entropy as f64 / u64::MAX as f64;
                let value = lo + frac * (hi - lo);
                // A reply-lost insert stores the item but reports failure, so
                // conservation is bounded by *attempts*, not successes.
                self.inserts_attempted += 1;
                let _ = self.net.insert(initiator, value);
            }
            DstEvent::Probe { initiator_rank, point } => {
                let initiator = self.peer_at(initiator_rank);
                if let Ok(reply) = self.net.probe(initiator, RingId(point)) {
                    let b = reply.summary.boundaries();
                    if b.windows(2).any(|w| w[0] > w[1]) {
                        extra.push(format!("probe reply summary boundaries not sorted: {b:?}"));
                    }
                    extra.extend(total_breach("probe reply", &reply));
                    let count_le = |x| reply.summary.count_le(x);
                    extra.extend(self.grid_breach("probe reply count_le", false, count_le));
                }
            }
            DstEvent::EstimateRefresh { initiator_rank, entropy } => {
                let initiator = self.peer_at(initiator_rank);
                // Per-event RNG: refreshing stays deterministic even when the
                // shrinker removes earlier refreshes.
                let mut rng = StdRng::seed_from_u64(splitmix64(entropy));
                if self.est.tick(&mut self.net, initiator, &mut rng).is_ok() {
                    self.estimates += 1;
                }
                let held = self.est.probes_held();
                if held > 32 {
                    extra.push(format!("estimator window overflow: {held} probes held"));
                }
                if let Ok(estimate) = self.est.current_estimate(self.domain) {
                    extra.extend(self.grid_breach("estimate cdf", true, |x| estimate.cdf(x)));
                }
            }
            DstEvent::FaultWindow { entropy, loss_pm, reply_loss_pm, sick_pm, duration } => {
                let plan = FaultPlan::new(splitmix64(entropy))
                    .with_loss(f64::from(loss_pm) / 1000.0)
                    .with_reply_loss(f64::from(reply_loss_pm) / 1000.0)
                    .with_sick(f64::from(sick_pm) / 1000.0, 8);
                return self.install(index, event, plan, duration);
            }
            DstEvent::FlashCrowd { id_entropy, count } => {
                let (items_before, peers_before) = (self.net.total_items(), self.net.len());
                let bootstrap = self.peer_at(id_entropy);
                for i in 0..u64::from(count) {
                    self.join(RingId(splitmix64(id_entropy.wrapping_add(i))), bootstrap);
                }
                // Joins move items, never mint or destroy them (DST plans
                // never enable crash decisions, so no store can vanish
                // mid-join), even when individual joins fail under faults.
                extra.extend(self.conservation_breach("flash crowd", items_before, 0));
                let peers = self.net.len();
                if peers < peers_before {
                    extra.push(format!("flash crowd shrank the ring: {peers_before} -> {peers}"));
                }
            }
            DstEvent::HotspotBurst { initiator_rank, entropy, count } => {
                let initiator = self.peer_at(initiator_rank);
                let before = self.net.stats().total_messages();
                let centre = splitmix64(entropy);
                for i in 0..u64::from(count) {
                    // All probes land inside a 1/256th-ring hot arc.
                    let jitter = splitmix64(entropy ^ (i + 1)) >> 8;
                    let _ = self.net.probe(initiator, RingId(centre.wrapping_add(jitter)));
                }
                // Every probe attempt bills at least one message: a routed
                // probe, or the timeout marker of whatever fault ate it.
                let delta = self.net.stats().total_messages() - before;
                if delta < u64::from(count) {
                    extra.push(format!(
                        "hotspot burst of {count} probes billed only {delta} messages"
                    ));
                }
            }
            DstEvent::CapacitySkew { entropy, slow_pm, factor, deadline, duration } => {
                let mut plan = FaultPlan::new(splitmix64(entropy)).with_capacity(
                    f64::from(slow_pm) / 1000.0,
                    u64::from(factor),
                    u64::from(deadline),
                );
                if self.bug == Some(InjectedBug::DropCapacityFifoGuard) {
                    // The injected delivery bug: the per-link FIFO clamp is
                    // gone, so jittered slow links can reorder.
                    plan = plan.without_fifo_guard();
                }
                return self.install(index, event, plan, duration);
            }
            DstEvent::ArcPartition { start_pm, span_pm, duration } => {
                let entropy = (u64::from(start_pm) << 16) | u64::from(span_pm);
                let plan = FaultPlan::new(splitmix64(entropy)).with_partition(
                    crate::build::pm_to_ring(u32::from(start_pm)),
                    crate::build::pm_to_ring(u32::from(span_pm)),
                );
                return self.install(index, event, plan, duration);
            }
            DstEvent::AdversarialJoin { jitter } => {
                // Target the peer holding the fewest items: splitting its
                // arc adds another tiny, data-free arc — the worst case for
                // uncorrected arc-uniform sampling.
                let target = self
                    .net
                    .ids()
                    .min_by_key(|&id| (self.net.node(id).map_or(0, |n| n.store.len()), id))
                    .expect("nonempty network");
                let ids: Vec<RingId> = self.net.ids().collect();
                let pos = ids.iter().position(|&id| id == target).expect("alive");
                let pred = ids[(pos + ids.len() - 1) % ids.len()];
                let arc = target.0.wrapping_sub(pred.0);
                if arc >= 4 {
                    // Middle half of the arc: never collides with either end.
                    let off = arc / 4 + jitter % (arc / 2);
                    let items_before = self.net.total_items();
                    self.join(RingId(pred.0.wrapping_add(off)), target);
                    extra.extend(self.conservation_breach("adversarial join", items_before, 0));
                }
            }
            DstEvent::WorkloadBurst { origin_rank, entropy, count } => {
                let origin = self.peer_at(origin_rank);
                // Per-event RNG, like EstimateRefresh: the burst stays
                // deterministic no matter what the shrinker removes.
                let mut rng = StdRng::seed_from_u64(splitmix64(entropy));
                let est = DfDde::new(DfDdeConfig::with_probes(8));
                let mut plan = ProbePlan::plan(&est, &mut rng);
                let mut batch = BatchRouter::new();
                batch.begin_window();
                let (lo, hi) = self.domain;
                for i in 0..u64::from(count) {
                    let word = splitmix64(entropy ^ (i + 1));
                    let value = lo + (hi - lo) * ((word >> 11) as f64 / (1u64 << 53) as f64);
                    if word % 1000 < 300 {
                        // A reply-lost insert stores the item but reports
                        // failure; conservation is bounded by attempts.
                        self.inserts_attempted += 1;
                        let _ = self.net.insert(origin, value);
                    } else {
                        let target = self.net.placement().place(value);
                        if let Ok(r) = self.net.lookup_batched(origin, target, &mut batch) {
                            plan.offer_owner(&mut self.net, r.owner);
                        }
                    }
                }
                // Dedicated probes cover whatever the traffic missed; every
                // reply must be internally consistent whichever transport
                // carried it.
                if let Ok(replies) = plan.complete(&est, &mut self.net, origin, &mut rng) {
                    for reply in &replies {
                        extra.extend(total_breach("workload burst probe reply", reply));
                    }
                }
            }
            DstEvent::ChurnWindow { entropy, count } => {
                let was_converged = self.converged;
                let items_before = self.net.total_items();
                let mut batch = ChurnBatch::new();
                let joins = (usize::from(count) / 2).max(1);
                // Deaths are capped so the window alone can never sink the
                // ring below the floor, even if every queued join collides.
                let deaths =
                    (usize::from(count) / 4).min(self.net.len().saturating_sub(MIN_PEERS) / 2);
                for i in 0..joins as u64 {
                    batch.join(RingId(splitmix64(entropy.wrapping_add(i))));
                }
                for i in 0..deaths as u64 {
                    batch.leave(self.peer_at(splitmix64(entropy ^ (2 * i + 1))));
                }
                for i in 0..deaths as u64 {
                    batch.crash(self.peer_at(splitmix64(entropy ^ (2 * i + 2))));
                }
                let applied = batch.apply(&mut self.net);
                self.crashes += applied.crashes as usize;
                // Crashed primaries' data is gone until a Heal promotes
                // replicas, so the running conservation bound shrinks too;
                // the batch reports each lost item, and handoffs lose none.
                let lost = applied.lost.len() as u64;
                self.initial_items = self.initial_items.saturating_sub(lost);
                extra.extend(self.conservation_breach("churn window", items_before, lost));
                // The CoW fork path after a column splice: forking the
                // churned ring must conserve the item total.
                if self.net.fork().total_items() != self.net.total_items() {
                    extra.push("fork changed the item total after churn window".into());
                }
                // On a converged ring, one batched repair sweep must restore
                // *full* convergence — perfect successors, lists, and
                // fingers everywhere — with no Heal in between. (On a ring
                // already degraded by one-at-a-time churn, the sweep repairs
                // only what it touched; the full oracle waits for Heal.)
                if was_converged {
                    let invariants = self.net.check_invariants();
                    extra.extend(invariants.iter().map(|v| format!("post-churn-window: {v}")));
                }
            }
        }

        // Expire an installed fault window (its installer returned above).
        if self.fault_countdown > 0 {
            self.fault_countdown -= 1;
            if self.fault_countdown == 0 {
                extra.extend(self.net.clear_fault_plan().as_ref().and_then(fifo_breach));
            }
        }
        self.oracle(index, event, extra)
    }

    /// Joins `id` through `bootstrap` unless it is already alive. The join
    /// may legitimately fail under faults (lookup lost).
    fn join(&mut self, id: RingId, bootstrap: RingId) {
        if !self.net.is_alive(id) {
            let _ = self.net.join(id, bootstrap);
            self.converged = false;
        }
    }

    /// Installs a fault window's plan for the next `duration` events (the
    /// installing event does not count), then runs the oracle.
    fn install(
        &mut self,
        index: usize,
        event: DstEvent,
        plan: FaultPlan,
        duration: u16,
    ) -> Result<(), DstFailure> {
        self.net.set_fault_plan(plan);
        self.fault_countdown = usize::from(duration);
        self.oracle(index, event, Vec::new())
    }

    /// Reports an item total that moved since `before` by anything but the
    /// `lost` items an event reported: handoffs conserve.
    fn conservation_breach(&self, what: &str, before: u64, lost: u64) -> Option<String> {
        let after = self.net.total_items();
        (after + lost != before).then(|| {
            format!("{what} broke item conservation: {before} -> {after} with {lost} reported lost")
        })
    }

    /// Evaluates `f` on a 17-point grid over the data domain and reports its
    /// first breach: a decrease, or, for a CDF (`unit`), a value outside
    /// `[0, 1]`.
    fn grid_breach(&self, what: &str, unit: bool, f: impl Fn(f64) -> f64) -> Option<String> {
        let (lo, hi) = self.domain;
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=16 {
            let x = lo + (hi - lo) * f64::from(i) / 16.0;
            let c = f(x);
            if unit && !(-1e-9..=1.0 + 1e-9).contains(&c) {
                return Some(format!("{what}({x}) = {c} outside [0, 1]"));
            }
            if c < prev - 1e-9 {
                return Some(format!("{what} not monotone at x = {x}"));
            }
            prev = c;
        }
        None
    }

    /// The always-on oracle, evaluated after every event. `violations`
    /// carries event-specific violations found during application.
    fn oracle(
        &mut self,
        index: usize,
        event: DstEvent,
        mut violations: Vec<String>,
    ) -> Result<(), DstFailure> {
        violations.extend(self.net.check_local_invariants());

        if self.net.len() < 2 {
            violations.push(format!("network shrank to {} peers", self.net.len()));
        }

        // Message-stat conservation: counters only ever grow.
        let stats = self.net.stats();
        let counters = [stats.total_messages(), stats.total_bytes(), stats.total_delay()];
        let named = ["message", "byte", "delay"].into_iter().zip(counters);
        for ((name, now), prev) in named.zip(self.prev_counters) {
            if now < prev {
                violations.push(format!("{name} counter went backwards: {now} < {prev}"));
            }
        }
        self.prev_counters = counters;

        // Per-link FIFO delivery: the capacity axis may delay messages,
        // never reorder them on one directed link.
        violations.extend(self.net.fault_plan().and_then(fifo_breach));

        // Item conservation (replication off only: with replication on, a
        // promotion against adversarially stale arcs may legitimately race a
        // hand-off, so the primary-store total is not a tight invariant).
        let total = self.net.total_items();
        if self.replication == 0 && total > self.initial_items + self.inserts_attempted {
            violations.push(format!(
                "item conservation broken: {total} items > {} initial + {} inserted",
                self.initial_items, self.inserts_attempted
            ));
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(DstFailure { event_index: index, event: event.to_string(), violations })
        }
    }
}

/// The FIFO-delivery violation `plan` has tallied, if any. A plan's tally
/// dies with it, so it is read both after every event and when the plan is
/// uninstalled: FIFO delivery must hold over the plan's whole lifetime.
fn fifo_breach(plan: &FaultPlan) -> Option<String> {
    let n = plan.reorderings();
    (n > 0).then(|| format!("FIFO delivery violated: {n} same-link reordering(s)"))
}

/// Reports a probe reply whose summary disagrees with its item count.
fn total_breach(what: &str, reply: &ProbeReply) -> Option<String> {
    let total = reply.summary.total();
    (total != reply.count).then(|| format!("{what} summary total {total} != count {}", reply.count))
}

/// A shrunk failing schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Shrunk {
    /// The 1-minimal schedule.
    pub schedule: Schedule,
    /// Its failure (the reproducer's expected output).
    pub failure: DstFailure,
    /// Schedule executions the shrink spent.
    pub runs: usize,
}

/// ddmin-shrinks `schedule` to a 1-minimal failing reproducer: repeatedly
/// removes event chunks (halving granularity) while the remainder still
/// fails. Returns `None` if the schedule does not fail at all. Deterministic:
/// the candidate order is fixed, and candidate runs share nothing.
fn shrink(schedule: &Schedule) -> Option<Shrunk> {
    let mut failure = run_schedule(schedule).err()?;
    let mut best = schedule.clone();
    let mut runs = 1;

    let mut chunks = 2;
    while best.events.len() >= 2 {
        let len = best.events.len();
        chunks = chunks.min(len);
        let granularity = chunks;
        let mut reduced = false;
        for chunk in 0..granularity {
            let start = chunk * len / granularity;
            let end = (chunk + 1) * len / granularity;
            if start == end {
                continue;
            }
            let mut candidate = best.clone();
            candidate.events.drain(start..end);
            runs += 1;
            if let Err(f) = run_schedule(&candidate) {
                best = candidate;
                failure = f;
                chunks = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if chunks >= len {
                break; // 1-minimal: no single event can be removed
            }
            chunks = (chunks * 2).min(len);
        }
    }
    Some(Shrunk { schedule: best, failure, runs })
}

/// The seed of fuzz schedule `index` under master seed `master`.
fn schedule_seed(master: u64, index: usize) -> u64 {
    splitmix64(master.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// A failure found by [`fuzz`], already shrunk.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Index of the first failing schedule (in seed order).
    pub schedule_index: usize,
    /// The original failing schedule.
    pub schedule: Schedule,
    /// The original failure.
    pub failure: DstFailure,
    /// The shrunk reproducer.
    pub shrunk: Schedule,
    /// The shrunk reproducer's failure.
    pub shrunk_failure: DstFailure,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// Schedules executed.
    pub schedules: usize,
    /// The first failure (by schedule index), shrunk — or `None`.
    pub failure: Option<FuzzFailure>,
}

/// Runs `schedules` generated schedules (seeds derived from `base.seed` via
/// `schedule_seed`) through the parallel cell runner, then shrinks the
/// first failure. The outcome is byte-identical for every worker count:
/// results come back in push order and shrinking is serial.
pub fn fuzz(base: &DstConfig, schedules: usize) -> FuzzOutcome {
    let mut plan = ExecPlan::new();
    for index in 0..schedules {
        let cfg = DstConfig { seed: schedule_seed(base.seed, index), ..*base };
        plan.push(move || {
            let schedule = generate(&cfg);
            let result = run_schedule(&schedule).err();
            (schedule, result)
        });
    }
    for (index, cell) in plan.run().into_iter().enumerate() {
        let (schedule, result) = cell.value;
        if let Some(failure) = result {
            let shrunk = shrink(&schedule).expect("schedule failed once, so it fails again");
            return FuzzOutcome {
                schedules,
                failure: Some(FuzzFailure {
                    schedule_index: index,
                    schedule,
                    failure,
                    shrunk: shrunk.schedule,
                    shrunk_failure: shrunk.failure,
                }),
            };
        }
    }
    FuzzOutcome { schedules, failure: None }
}

// ---------------------------------------------------------------------------
// Repro files: a hand-rolled RON-like text format (no serde in-tree).
// ---------------------------------------------------------------------------

/// Serializes a schedule as a replayable repro file.
pub fn to_repro(schedule: &Schedule) -> String {
    let bug = InjectedBug::NAMES.iter().find(|(bug, ..)| Some(*bug) == schedule.bug);
    let mut out = String::from("DstRepro(\n");
    out.push_str(&format!("    seed: {},\n", schedule.seed));
    out.push_str(&format!("    peers: {},\n", schedule.peers));
    out.push_str(&format!("    items: {},\n", schedule.items));
    out.push_str(&format!("    replication: {},\n", schedule.replication));
    out.push_str(&format!("    bug: {},\n", bug.map_or("None", |(_, name, _)| name)));
    out.push_str("    events: [\n");
    for event in &schedule.events {
        out.push_str(&format!("        {event},\n"));
    }
    out.push_str("    ],\n)\n");
    out
}

/// Parses a repro file produced by [`to_repro`] (whitespace-tolerant),
/// refusing a size [`check_size`] refuses and a replication factor
/// [`check_replication`] refuses.
pub fn parse_repro(text: &str) -> Result<Schedule, String> {
    let mut header = BTreeMap::new();
    let mut bug = None;
    let mut events = Vec::new();
    let mut in_events = false;

    for raw in text.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "DstRepro(" || line == ")" {
            continue;
        }
        if line == "events: [" {
            in_events = true;
            continue;
        }
        if in_events {
            if line == "]" {
                in_events = false;
                continue;
            }
            events.push(parse_event(line)?);
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| format!("malformed line: {line:?}"))?;
        match key {
            "seed" | "peers" | "items" | "replication" => {
                header.insert(key, parse_num(value, key)?);
            }
            "bug" if value == "None" => bug = None,
            "bug" => {
                let known = InjectedBug::NAMES.iter().find(|(_, name, _)| *name == value);
                bug = Some(known.ok_or_else(|| format!("unknown bug: {value:?}"))?.0);
            }
            other => return Err(format!("unknown field: {other:?}")),
        }
    }

    let peers = take_field(&mut header, "DstRepro", "peers")?;
    let items = take_field(&mut header, "DstRepro", "items")?;
    check_size(peers, items)?;
    let replication = take_field(&mut header, "DstRepro", "replication")?;
    check_replication(replication)?;
    Ok(Schedule {
        seed: take_field(&mut header, "DstRepro", "seed")?,
        peers,
        items,
        replication,
        bug,
        events,
    })
}

fn parse_num(value: &str, field: &str) -> Result<u64, String> {
    value.parse::<u64>().map_err(|e| format!("bad {field} {value:?}: {e}"))
}

/// Splits a repro event line, `Name` or `Name(key: value, ...)`, into its
/// name and fields, refusing a malformed or repeated field.
fn event_fields(line: &str) -> Result<(&str, BTreeMap<&str, u64>), String> {
    let mut fields = BTreeMap::new();
    let Some((name, rest)) = line.split_once('(') else {
        return Ok((line, fields));
    };
    let args = rest.strip_suffix(')').ok_or_else(|| format!("unclosed event: {line:?}"))?;
    for pair in args.split(',') {
        let (key, value) = pair
            .split_once(':')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| format!("malformed event field {pair:?} in {line:?}"))?;
        if fields.insert(key, parse_num(value, key)?).is_some() {
            return Err(format!("event {line:?} repeats field {key:?}"));
        }
    }
    Ok((name, fields))
}

/// Takes field `key` of `item` (an event line, or the repro header) out of
/// its parsed fields, refusing a missing field or a value its type cannot
/// hold (`count: 65537` is refused, not wrapped).
fn take_field<T: TryFrom<u64>>(
    fields: &mut BTreeMap<&str, u64>,
    item: &str,
    key: &str,
) -> Result<T, String> {
    let value = fields.remove(key).ok_or_else(|| format!("{item:?} is missing field {key:?}"))?;
    T::try_from(value).map_err(|_| {
        format!("{item:?} field {key:?} = {value} overflows {}", std::any::type_name::<T>())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MAX_ITEMS, MAX_PEERS};

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = DstConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = DstConfig { seed: cfg.seed + 1, ..cfg };
        assert_ne!(generate(&cfg).events, generate(&other).events);
    }

    #[test]
    fn repro_round_trips() {
        let cfg = DstConfig { bug: Some(InjectedBug::SkipSuccessorOnHeal), ..DstConfig::default() };
        let schedule = generate(&cfg);
        let text = to_repro(&schedule);
        let parsed = parse_repro(&text).expect("parses");
        assert_eq!(parsed, schedule);
        assert_eq!(to_repro(&parsed), text);
    }

    #[test]
    fn workload_burst_round_trips_and_runs_clean() {
        let schedule = Schedule {
            seed: 0xB0057,
            peers: 16,
            items: 800,
            replication: 0,
            bug: None,
            events: vec![
                DstEvent::WorkloadBurst { origin_rank: 3, entropy: 0x5EED, count: 24 },
                DstEvent::Heal,
                DstEvent::WorkloadBurst { origin_rank: 9, entropy: 0xFACE, count: 16 },
            ],
        };
        let text = to_repro(&schedule);
        assert_eq!(parse_repro(&text).expect("parses"), schedule);
        // The burst's inserts are counted as attempts, so the conservation
        // oracle holds; batched routing and piggybacked probes keep every
        // always-on invariant green on a healthy ring.
        run_schedule(&schedule).expect("healthy serving bursts violate nothing");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_repro("DstRepro(\n  seed: x,\n)").is_err());
        assert!(parse_repro("DstRepro(\n  seed: 1,\n)").is_err()); // missing fields
        let cfg = DstConfig::default();
        let text = to_repro(&generate(&cfg)).replace("Heal", "Hea1");
        assert!(parse_repro(&text).is_err() || !text.contains("Hea1"));

        // Out-of-range fields are refused, never wrapped (`count: 65537`
        // would replay as 1), and so is a schedule without peers or items
        // (its replay would panic in the scenario build) or past the size
        // caps (its replay would try to allocate them). Fields an event does
        // not declare are refused too, even on a field-less event.
        let base = Schedule {
            seed: 1,
            peers: 8,
            items: 100,
            replication: 0,
            bug: None,
            events: vec![DstEvent::Heal],
        };
        let text = to_repro(&base);
        assert_eq!(parse_repro(&text), Ok(base));
        for bad in [
            text.replace("Heal", "ChurnWindow(entropy: 5, count: 65537)"),
            text.replace(
                "Heal",
                "FaultWindow(entropy: 1, loss_pm: 66000, reply_loss_pm: 0, sick_pm: 0, \
                 duration: 65536)",
            ),
            text.replace("peers: 8", "peers: 0"),
            text.replace("items: 100", "items: 0"),
            text.replace("peers: 8", "peers: 4000000000"),
            text.replace("peers: 8", &format!("peers: {}", MAX_PEERS + 1)),
            text.replace("items: 100", &format!("items: {}", MAX_ITEMS + 1)),
            text.replace("Heal", "Heal(x: 1)"),
            text.replace("Heal", "Heal()"),
            text.replace("Heal", "Leave(victim_rank: 1, x: 2)"),
            text.replace("Heal", "Leave(victim_rank: 1, victim_rank: 2)"),
        ] {
            assert!(parse_repro(&bad).is_err(), "accepted:\n{bad}");
        }
        let largest = text
            .replace("peers: 8", &format!("peers: {MAX_PEERS}"))
            .replace("items: 100", &format!("items: {MAX_ITEMS}"));
        assert!(parse_repro(&largest).is_ok(), "F12's largest point must stay replayable");
    }

    /// A replication factor past the successor list is refused by name: the
    /// replay's seeding would place `min(r, P − 1)` copies on every peer.
    #[test]
    fn parse_refuses_replication_past_the_successor_list() {
        let base = Schedule {
            seed: 1,
            peers: 8,
            items: 100,
            replication: 8,
            bug: None,
            events: vec![DstEvent::Heal],
        };
        let text = to_repro(&base);
        assert_eq!(parse_repro(&text), Ok(base));
        let err = parse_repro(&text.replace("replication: 8", "replication: 9")).unwrap_err();
        assert!(err.contains("replication: 9 is outside 0..=8"), "{err}");
    }

    /// Seeded mutations of a generated repro file — byte replacements,
    /// inserted digit runs, truncations and deletions, 64 of each — end in a
    /// schedule or a named error, never a panic, and every accepted schedule
    /// of a replayable size replays to a report or a violation, never a
    /// panic. The proptest shim has no collection strategy, so the bytes
    /// come from a seeded `splitmix64` stream.
    #[test]
    fn mutated_repro_files_parse_or_fail_by_name_and_replay() {
        let text = to_repro(&generate(&DstConfig::default()));
        let mut word = 0u64;
        let mut draw = |n: usize| {
            word += 1;
            (splitmix64(0x05EE_DD57 ^ word) % n as u64) as usize
        };
        let (mut accepted, mut replayed) = (0, 0);
        for i in 0..256 {
            let mut bytes = text.clone().into_bytes();
            let at = draw(bytes.len());
            match i % 4 {
                // Printable ASCII or a newline, so the text stays UTF-8.
                0 => {
                    bytes[at] = match draw(96) {
                        95 => b'\n',
                        b => b' ' + b as u8,
                    }
                }
                1 => {
                    let digits: Vec<u8> =
                        (0..1 + draw(24)).map(|_| b'0' + draw(10) as u8).collect();
                    bytes.splice(at..at, digits);
                }
                2 => bytes.truncate(at),
                _ => {
                    bytes.drain(at..(at + 1 + draw(16)).min(bytes.len()));
                }
            }
            let mutated = String::from_utf8(bytes).expect("ASCII edits keep the text UTF-8");
            let schedule = match parse_repro(&mutated) {
                Ok(schedule) => schedule,
                Err(e) => {
                    assert!(!e.is_empty(), "unnamed error for:\n{mutated}");
                    continue;
                }
            };
            accepted += 1;
            if schedule.peers <= 5_000 && schedule.items <= 200_000 {
                let _ = run_schedule(&schedule);
                replayed += 1;
            }
        }
        assert!(replayed > 0 && accepted < 256, "{accepted} accepted, {replayed} replayed");
    }

    #[test]
    fn minimal_injected_bug_schedule_fails_and_clean_one_passes() {
        let base = Schedule {
            seed: 7,
            peers: 24,
            items: 500,
            replication: 0,
            bug: None,
            events: vec![DstEvent::Crash { victim_rank: 3 }, DstEvent::Heal],
        };
        assert!(run_schedule(&base).is_ok(), "{:?}", run_schedule(&base).err());
        let buggy = Schedule { bug: Some(InjectedBug::SkipSuccessorOnHeal), ..base };
        let failure = run_schedule(&buggy).expect_err("bug must trip the post-heal oracle");
        assert_eq!(failure.event_index, 1);
        assert!(failure.violations.iter().any(|v| v.contains("successor")), "{failure}");
    }

    #[test]
    fn new_adversarial_events_round_trip_through_repro() {
        let schedule = Schedule {
            seed: 3,
            peers: 10,
            items: 100,
            replication: 0,
            bug: Some(InjectedBug::DropCapacityFifoGuard),
            events: vec![
                DstEvent::FlashCrowd { id_entropy: 5, count: 3 },
                DstEvent::HotspotBurst { initiator_rank: 1, entropy: 8, count: 6 },
                DstEvent::CapacitySkew {
                    entropy: 2,
                    slow_pm: 400,
                    factor: 4,
                    deadline: 9,
                    duration: 3,
                },
                DstEvent::ArcPartition { start_pm: 120, span_pm: 250, duration: 2 },
                DstEvent::AdversarialJoin { jitter: 77 },
            ],
        };
        let text = to_repro(&schedule);
        let parsed = parse_repro(&text).expect("parses");
        assert_eq!(parsed, schedule);
        assert_eq!(to_repro(&parsed), text);
    }

    #[test]
    fn adversarial_event_mix_runs_clean_without_bugs() {
        let schedule = Schedule {
            seed: 11,
            peers: 24,
            items: 800,
            replication: 0,
            bug: None,
            events: vec![
                DstEvent::FlashCrowd { id_entropy: 0xAB, count: 4 },
                DstEvent::CapacitySkew {
                    entropy: 7,
                    slow_pm: 500,
                    factor: 4,
                    deadline: 6,
                    duration: 2,
                },
                DstEvent::HotspotBurst { initiator_rank: 3, entropy: 0xC0FFEE, count: 8 },
                DstEvent::ArcPartition { start_pm: 100, span_pm: 300, duration: 2 },
                DstEvent::Probe { initiator_rank: 5, point: 1 << 60 },
                DstEvent::AdversarialJoin { jitter: 13 },
                DstEvent::Heal,
            ],
        };
        let report = run_schedule(&schedule).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(report.events, 7);
    }

    #[test]
    fn minimal_fifo_guard_drill_fails_and_clean_one_passes() {
        let base = Schedule {
            seed: 7,
            peers: 24,
            items: 500,
            replication: 0,
            bug: None,
            events: vec![
                DstEvent::CapacitySkew {
                    entropy: 11,
                    slow_pm: 1000,
                    factor: 6,
                    deadline: 0,
                    duration: 4,
                },
                DstEvent::HotspotBurst { initiator_rank: 2, entropy: 99, count: 12 },
            ],
        };
        assert!(run_schedule(&base).is_ok(), "{:?}", run_schedule(&base).err());
        let buggy = Schedule { bug: Some(InjectedBug::DropCapacityFifoGuard), ..base };
        let failure = run_schedule(&buggy).expect_err("dropped guard must trip the FIFO oracle");
        assert_eq!(failure.event_index, 1);
        assert!(failure.violations.iter().any(|v| v.contains("reordering")), "{failure}");
    }

    #[test]
    fn fifo_drill_shrinks_to_the_two_event_reproducer() {
        let buggy = Schedule {
            seed: 7,
            peers: 24,
            items: 500,
            replication: 0,
            bug: Some(InjectedBug::DropCapacityFifoGuard),
            events: vec![
                DstEvent::CapacitySkew {
                    entropy: 11,
                    slow_pm: 1000,
                    factor: 6,
                    deadline: 0,
                    duration: 4,
                },
                DstEvent::HotspotBurst { initiator_rank: 2, entropy: 99, count: 12 },
            ],
        };
        let shrunk = shrink(&buggy).expect("fails");
        assert_eq!(shrunk.schedule.events, buggy.events, "already minimal");
    }

    #[test]
    fn shrink_is_a_fixpoint_on_minimal_schedules() {
        let buggy = Schedule {
            seed: 7,
            peers: 24,
            items: 500,
            replication: 0,
            bug: Some(InjectedBug::SkipSuccessorOnHeal),
            events: vec![DstEvent::Crash { victim_rank: 3 }, DstEvent::Heal],
        };
        let shrunk = shrink(&buggy).expect("fails");
        assert_eq!(shrunk.schedule.events, buggy.events, "already minimal");
    }
}
