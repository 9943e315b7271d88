//! Deterministic fault injection: seeded plans for message loss, reply
//! drops, delivery delays, crashes mid-request, and transient "sick peer"
//! windows.
//!
//! A [`FaultPlan`] is installed on a [`crate::Network`] with
//! [`crate::Network::set_fault_plan`] and is consulted on every simulated
//! request/reply exchange of the lookup, probe, and insert paths (baseline
//! estimators consult it through [`crate::Network::message_lost`] /
//! [`crate::Network::reply_lost`]). Every decision is drawn from a
//! splitmix64 stream over the plan's seed, so **two runs with the same seed
//! and the same operation sequence inject byte-identical faults** — the
//! `MessageStats` of a faulted run replay exactly.
//!
//! Cost model (shared with the retry machinery in `dde-core`):
//!
//! * the *network* charges messages — delivered exchanges, plus one
//!   timeout-marker message per observed silence (dead peer, lost request,
//!   dropped reply, sick window, crash);
//! * delivered messages additionally accrue simulated-time *delay units*
//!   drawn from the plan's [`DelayDist`];
//! * waiting time (per-attempt timeouts, retry backoff) is charged by the
//!   caller's retry policy, never here — so a retry that follows a purge is
//!   never double-counted.

use crate::id::RingId;
use dde_stats::rng::splitmix64;
use std::collections::BTreeMap;

/// Maps a mixed 64-bit word onto `[0, 1)` with 53-bit precision.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic per-message delay distribution, in simulated-time cost
/// units (the same units retry backoff is budgeted in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayDist {
    /// Minimum delay per delivered message.
    pub base: u64,
    /// Maximum uniform jitter added on top (`0..=jitter`).
    pub jitter: u64,
}

impl Default for DelayDist {
    fn default() -> Self {
        Self { base: 1, jitter: 3 }
    }
}

/// What the plan decided for one request/reply exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The exchange goes through unharmed.
    Clean,
    /// The request transmission is lost on the link; the receiver never
    /// sees it.
    RequestLost,
    /// The request arrives and is processed, but the reply is dropped —
    /// the sender observes a timeout even though work happened remotely.
    ReplyLost,
    /// The contacted peer is inside a transient sick window: unresponsive
    /// for a while but **not** dead (do not purge routing state).
    Sick,
    /// The contacted peer crashes mid-request — a permanent failure.
    Crash,
    /// The contacted peer is in the low-capacity class and its reply missed
    /// the caller's deadline: the request **was** processed, but the sender
    /// observes a timeout (do not purge routing state — the peer is alive,
    /// just overloaded).
    Slow,
    /// The link crosses an arc-partition cut: nothing gets through in either
    /// direction until the partition heals (do not purge — both sides live).
    Partitioned,
}

impl FaultDecision {
    /// Whether the contacted peer processed the request although the caller
    /// saw silence: its reply was dropped or missed the deadline.
    pub(crate) fn processed_remotely(self) -> bool {
        matches!(self, FaultDecision::ReplyLost | FaultDecision::Slow)
    }
}

/// A seeded, fully deterministic fault plan (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-link request-loss probability (each transmission rolls
    /// independently, salted by the link's endpoint ids).
    pub loss: f64,
    /// Probability a reply is dropped after the request arrived.
    pub reply_loss: f64,
    /// Probability the contacted peer crashes mid-request.
    pub crash: f64,
    /// Fraction of peers transiently sick in any given window.
    pub sick: f64,
    /// Sick-window length in plan clock ticks (one tick per top-level
    /// overlay operation); which peers are sick is re-drawn every window.
    pub sick_window: u64,
    /// Delay distribution for delivered messages.
    pub delay: DelayDist,
    /// Fraction of peers in the static low-capacity (slow) class.
    pub capacity_slow: f64,
    /// Delay multiplier for messages *sent by* slow-class peers.
    pub capacity_factor: u64,
    /// Patience deadline in delay units: a slow peer's reply whose scaled
    /// delay draw exceeds this surfaces as a [`FaultDecision::Slow`]
    /// timeout (0 = callers wait forever; pure delay scaling).
    pub capacity_deadline: u64,
    /// Active arc partition as `(start, span)` in ring-id space: the
    /// contiguous arc `[start, start + span)` (wrap-around) is cut off from
    /// the rest of the ring.
    pub partition: Option<(u64, u64)>,
    /// Whether the per-link FIFO clamp is active (see [`FaultPlan::deliver`]).
    /// Disabled only by the DST bug-injection drill.
    fifo_guard: bool,
    /// Per-directed-link delivery front: the largest delay handed out on
    /// that link so far, in delay units (capacity axis only).
    link_fronts: BTreeMap<(u64, u64), u64>,
    /// Same-link delivery reorderings observed (always 0 with the FIFO
    /// guard on — the invariant the DST oracle checks).
    reorderings: u64,
    /// Decision-stream position; advances once per roll.
    counter: u64,
    /// Operation clock; advances once per lookup/probe/insert.
    clock: u64,
}

impl FaultPlan {
    /// A plan injecting nothing (all probabilities zero) — the builder
    /// methods below switch individual faults on.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            loss: 0.0,
            reply_loss: 0.0,
            crash: 0.0,
            sick: 0.0,
            sick_window: 64,
            delay: DelayDist::default(),
            capacity_slow: 0.0,
            capacity_factor: 1,
            capacity_deadline: 0,
            partition: None,
            fifo_guard: true,
            link_fronts: BTreeMap::new(),
            reorderings: 0,
            counter: 0,
            clock: 0,
        }
    }

    /// Sets the per-link request-loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the reply-drop probability.
    pub fn with_reply_loss(mut self, p: f64) -> Self {
        self.reply_loss = p;
        self
    }

    /// Sets the crash-mid-request probability.
    // ddelint::allow(dead-pub, "no shipped path installs a crash fault, but the crash property tests in fault_properties.rs and probe_round.rs do, and it keeps the fault setters whole beside with_loss and with_reply_loss")
    pub fn with_crash(mut self, p: f64) -> Self {
        self.crash = p;
        self
    }

    /// Makes a `p` fraction of peers sick per window of `window` operations.
    pub fn with_sick(mut self, p: f64, window: u64) -> Self {
        self.sick = p;
        self.sick_window = window.max(1);
        self
    }

    /// Puts a `slow` fraction of peers in a static low-capacity class:
    /// every message they send takes `factor`× the drawn delay, and a reply
    /// whose scaled delay draw exceeds `deadline` misses the caller's
    /// patience (surfacing as a [`FaultDecision::Slow`] timeout; `deadline
    /// = 0` means callers wait forever and the axis is pure delay scaling).
    pub fn with_capacity(mut self, slow: f64, factor: u64, deadline: u64) -> Self {
        self.capacity_slow = slow;
        self.capacity_factor = factor.max(1);
        self.capacity_deadline = deadline;
        self
    }

    /// Cuts the contiguous id arc `[start, start + span)` (wrap-around) off
    /// from the rest of the ring: no message crosses the cut, in either
    /// direction.
    pub fn with_partition(mut self, start: u64, span: u64) -> Self {
        self.partition = if span == 0 { None } else { Some((start, span)) };
        self
    }

    /// Disables the per-link FIFO clamp in [`FaultPlan::deliver`]. This is
    /// the DST bug-injection hook (`DropCapacityFifoGuard`): with the guard
    /// off, same-link reorderings are *tallied* instead of prevented, and
    /// the oracle's `reorderings() == 0` invariant catches them.
    pub fn without_fifo_guard(mut self) -> Self {
        self.fifo_guard = false;
        self
    }

    /// Same-link delivery reorderings observed so far (always 0 while the
    /// FIFO guard is on).
    pub fn reorderings(&self) -> u64 {
        self.reorderings
    }

    /// Whether the heterogeneous-capacity axis is active.
    fn capacity_active(&self) -> bool {
        self.capacity_slow > 0.0 && self.capacity_factor > 1
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The operation clock (ticks once per top-level overlay operation).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Advances the operation clock. Called by the network at the start of
    /// each top-level operation (lookup/probe/insert).
    pub(crate) fn tick(&mut self) {
        self.clock += 1;
    }

    /// One draw from the decision stream, salted by `salt`.
    fn roll(&mut self, salt: u64) -> f64 {
        self.counter += 1;
        unit(splitmix64(self.seed ^ splitmix64(self.counter) ^ salt))
    }

    /// Salt identifying a directed link (order matters: `a → b ≠ b → a`).
    fn link_salt(from: RingId, to: RingId) -> u64 {
        splitmix64(from.0).rotate_left(17) ^ splitmix64(to.0)
    }

    /// Rolls request loss for one `from → to` transmission.
    pub fn request_lost(&mut self, from: RingId, to: RingId) -> bool {
        let salt = Self::link_salt(from, to);
        self.roll(salt) < self.loss
    }

    /// Rolls reply loss for one `from → to` reply transmission.
    pub fn reply_lost(&mut self, from: RingId, to: RingId) -> bool {
        let salt = Self::link_salt(from, to).rotate_left(31);
        self.roll(salt) < self.reply_loss
    }

    /// Rolls whether the contacted `peer` crashes mid-request.
    pub fn crashes(&mut self, peer: RingId) -> bool {
        self.roll(splitmix64(peer.0)) < self.crash
    }

    /// The one per-peer fault-class draw, shared by every axis that places
    /// peers in classes (sick windows, capacity classes). Pure — consumes
    /// no decision-stream state — so membership is stable within an epoch,
    /// and all class-based axes ride the same operation clock instead of
    /// each keeping private timeout bookkeeping that could drift. `salt`
    /// identifies the axis; `epoch` selects the membership generation
    /// (`clock / window` for rotating axes, a nonzero constant for static
    /// ones — zero would erase the salt, colliding every axis).
    fn class_draw(&self, peer: RingId, epoch: u64, salt: u64) -> f64 {
        unit(splitmix64(self.seed ^ splitmix64(peer.0) ^ splitmix64(epoch.wrapping_mul(salt))))
    }

    /// Whether `peer` is inside a sick window *right now*. Pure in the
    /// clock: the same peer stays sick for the whole window and the sick
    /// set is re-drawn when the window rolls over.
    fn is_sick(&self, peer: RingId) -> bool {
        if self.sick <= 0.0 {
            return false;
        }
        self.class_draw(peer, self.clock / self.sick_window, 0xA076_1D64_78BD_642F) < self.sick
    }

    /// Whether `peer` is in the static low-capacity class. Pure; the class
    /// never rotates (capacity is a property of the peer, not a window).
    fn is_slow(&self, peer: RingId) -> bool {
        if self.capacity_slow <= 0.0 {
            return false;
        }
        // Epoch 1, not 0: the epoch multiplies the axis salt, and 0 would
        // collapse every static axis onto one membership draw.
        self.class_draw(peer, 1, 0x8CB9_2BA7_2F3D_8DD7) < self.capacity_slow
    }

    /// Whether the `from → to` link crosses the active arc-partition cut.
    /// Pure; consumes nothing when no partition is installed.
    pub fn partitioned(&self, from: RingId, to: RingId) -> bool {
        let Some((start, span)) = self.partition else {
            return false;
        };
        let in_arc = |id: RingId| id.0.wrapping_sub(start) < span;
        in_arc(from) != in_arc(to)
    }

    /// Draws one delivered-message delay in cost units.
    fn message_delay(&mut self) -> u64 {
        let d = self.delay;
        if d.jitter == 0 {
            return d.base;
        }
        self.counter += 1;
        d.base
            + splitmix64(self.seed ^ splitmix64(self.counter) ^ 0x6A09_E667_F3BC_C909)
                % (d.jitter + 1)
    }

    /// Draws the delivery delay for one `from → to` message. Without the
    /// capacity axis this is exactly `FaultPlan::message_delay` — same
    /// draw, same stream position. With it, a message sent by a slow-class
    /// peer takes `capacity_factor`× the drawn delay, and the per-link FIFO
    /// clamp raises the result to the link's front so a later send never
    /// arrives before an earlier one on the same directed link. With the
    /// guard disabled (bug drill), the raw delay is used as-is and every
    /// would-be reordering is tallied in [`FaultPlan::reorderings`].
    pub fn deliver(&mut self, from: RingId, to: RingId) -> u64 {
        let raw = self.message_delay();
        if !self.capacity_active() {
            return raw;
        }
        let scaled = if self.is_slow(from) { raw * self.capacity_factor } else { raw };
        let front = self.link_fronts.entry((from.0, to.0)).or_insert(0);
        if scaled < *front {
            if self.fifo_guard {
                return *front;
            }
            self.reorderings += 1;
            return scaled;
        }
        *front = scaled;
        scaled
    }

    /// Whether the contacted slow peer's reply misses the caller's
    /// deadline. Consumes a decision-stream draw only when the capacity
    /// axis has a deadline *and* `to` is slow, so inactive axes never
    /// perturb the stream.
    fn reply_overdue(&mut self, to: RingId) -> bool {
        if self.capacity_deadline == 0 || !self.capacity_active() || !self.is_slow(to) {
            return false;
        }
        self.message_delay() * self.capacity_factor > self.capacity_deadline
    }

    /// One combined decision for an application-level request/reply RPC on
    /// the `from → to` link, rolling the faults in causal order: a
    /// partitioned link carries nothing, a sick or crashed peer never
    /// replies, a lost request is never processed, and only a processed
    /// request can have its reply arrive late or get lost.
    pub fn decide_rpc(&mut self, from: RingId, to: RingId) -> FaultDecision {
        if self.partitioned(from, to) {
            return FaultDecision::Partitioned;
        }
        if self.is_sick(to) {
            return FaultDecision::Sick;
        }
        if self.request_lost(from, to) {
            return FaultDecision::RequestLost;
        }
        if self.crashes(to) {
            return FaultDecision::Crash;
        }
        if self.reply_overdue(to) {
            return FaultDecision::Slow;
        }
        if self.reply_lost(to, from) {
            return FaultDecision::ReplyLost;
        }
        FaultDecision::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_identically() {
        let mut a = FaultPlan::new(42).with_loss(0.2).with_reply_loss(0.1).with_crash(0.05);
        let mut b = a.clone();
        for i in 0..1_000u64 {
            let x = RingId(splitmix64(i));
            let y = RingId(splitmix64(i ^ 0xFFFF));
            assert_eq!(a.decide_rpc(x, y), b.decide_rpc(x, y));
            assert_eq!(a.message_delay(), b.message_delay());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(1).with_loss(0.5);
        let mut b = FaultPlan::new(2).with_loss(0.5);
        let diverged = (0..64u64).any(|i| {
            a.request_lost(RingId(i), RingId(!i)) != b.request_lost(RingId(i), RingId(!i))
        });
        assert!(diverged, "independent seeds should produce different streams");
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut plan = FaultPlan::new(7).with_loss(0.3);
        let n = 20_000;
        let lost = (0..n).filter(|&i| plan.request_lost(RingId(i), RingId(i ^ 0xABCD))).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
        // Zero-probability faults never fire.
        assert!(!plan.reply_lost(RingId(1), RingId(2)));
        assert!(!plan.crashes(RingId(3)));
        assert!(!plan.is_sick(RingId(4)));
    }

    #[test]
    fn sick_windows_are_stable_then_rotate() {
        let mut plan = FaultPlan::new(11).with_sick(0.3, 8);
        let peers: Vec<RingId> = (0..64).map(|i| RingId(splitmix64(i))).collect();
        let snapshot: Vec<bool> = peers.iter().map(|&p| plan.is_sick(p)).collect();
        let sick_now = snapshot.iter().filter(|&&s| s).count();
        assert!(sick_now > 5 && sick_now < 40, "sick fraction off: {sick_now}/64");
        // Stable within the window…
        for _ in 0..7 {
            plan.tick();
        }
        let same: Vec<bool> = peers.iter().map(|&p| plan.is_sick(p)).collect();
        assert_eq!(snapshot, same);
        // …and re-drawn in a later window.
        for _ in 0..64 {
            plan.tick();
        }
        let later: Vec<bool> = peers.iter().map(|&p| plan.is_sick(p)).collect();
        assert_ne!(snapshot, later, "sick set should rotate across windows");
    }

    #[test]
    fn deliver_matches_message_delay_when_capacity_inactive() {
        // The default path must be byte-identical whether a call site uses
        // `deliver` or the legacy `message_delay` — same draws, same stream.
        let mut a = FaultPlan::new(9);
        a.delay = DelayDist { base: 1, jitter: 7 };
        let mut b = a.clone();
        for i in 0..200u64 {
            let d = a.deliver(RingId(splitmix64(i)), RingId(splitmix64(!i)));
            assert_eq!(d, b.message_delay());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn slow_class_is_static_and_roughly_honours_fraction() {
        let mut plan = FaultPlan::new(5).with_capacity(0.25, 4, 0);
        let peers: Vec<RingId> = (0..400).map(|i| RingId(splitmix64(i))).collect();
        let before: Vec<bool> = peers.iter().map(|&p| plan.is_slow(p)).collect();
        let slow = before.iter().filter(|&&s| s).count();
        assert!((60..=140).contains(&slow), "slow fraction off: {slow}/400");
        // Static: the class never rotates with the operation clock.
        for _ in 0..200 {
            plan.tick();
        }
        let after: Vec<bool> = peers.iter().map(|&p| plan.is_slow(p)).collect();
        assert_eq!(before, after);
        // And independent of the sick class under the same seed.
        let sick_plan = FaultPlan::new(5).with_sick(0.25, 8);
        let sick: Vec<bool> = peers.iter().map(|&p| sick_plan.is_sick(p)).collect();
        assert_ne!(before, sick, "slow and sick classes must not alias");
    }

    #[test]
    fn fifo_guard_prevents_reordering_and_drill_hook_counts_it() {
        let slow_sender = |plan: &FaultPlan| {
            (0..u64::MAX)
                .map(|i| RingId(splitmix64(i)))
                .find(|&p| plan.is_slow(p))
                .expect("slow peer")
        };
        let mut guarded = FaultPlan::new(77).with_capacity(0.5, 6, 0);
        guarded.delay = DelayDist { base: 1, jitter: 9 };
        let from = slow_sender(&guarded);
        let to = RingId(0xDEAD_BEEF);
        let mut prev = 0;
        for _ in 0..100 {
            let d = guarded.deliver(from, to);
            assert!(d >= prev, "guarded delivery reordered: {d} < {prev}");
            prev = d;
        }
        assert_eq!(guarded.reorderings(), 0);
        // Same draws with the guard dropped: reorderings happen and are
        // tallied — this is what the DST drill relies on.
        let mut buggy = FaultPlan::new(77).with_capacity(0.5, 6, 0).without_fifo_guard();
        buggy.delay = DelayDist { base: 1, jitter: 9 };
        for _ in 0..100 {
            buggy.deliver(from, to);
        }
        assert!(buggy.reorderings() > 0, "unguarded jittered link never reordered");
    }

    #[test]
    fn partition_cuts_crossing_links_both_ways_and_heals() {
        let mut plan = FaultPlan::new(3).with_partition(100, 50);
        let inside = RingId(120);
        let outside = RingId(10);
        let inside2 = RingId(149);
        assert!(plan.partitioned(inside, outside));
        assert!(plan.partitioned(outside, inside));
        assert!(!plan.partitioned(inside, inside2));
        assert!(!plan.partitioned(outside, RingId(99)));
        assert_eq!(plan.decide_rpc(inside, outside), FaultDecision::Partitioned);
        assert_eq!(plan.decide_rpc(inside, inside2), FaultDecision::Clean);
        // Wrap-around arc: [u64::MAX - 10, u64::MAX - 10 + 20) spans zero.
        let wrapped = FaultPlan::new(3).with_partition(u64::MAX - 10, 20);
        assert!(wrapped.partitioned(RingId(u64::MAX - 5), RingId(1000)));
        assert!(!wrapped.partitioned(RingId(u64::MAX - 5), RingId(5)));
    }

    #[test]
    fn overloaded_replies_miss_tight_deadlines() {
        // Deadline below the scaled minimum: every RPC to a slow peer is
        // Slow; fast peers are untouched.
        let mut plan = FaultPlan::new(21).with_capacity(0.5, 8, 4);
        plan.delay = DelayDist { base: 1, jitter: 0 };
        let peers: Vec<RingId> = (0..64).map(|i| RingId(splitmix64(i))).collect();
        let from = RingId(1);
        for &p in &peers {
            let want = if plan.is_slow(p) { FaultDecision::Slow } else { FaultDecision::Clean };
            assert_eq!(plan.decide_rpc(from, p), want);
        }
        // A generous deadline lets every reply through.
        let mut lax = FaultPlan::new(21).with_capacity(0.5, 8, 1000);
        lax.delay = DelayDist { base: 1, jitter: 0 };
        for &p in &peers {
            assert_eq!(lax.decide_rpc(from, p), FaultDecision::Clean);
        }
    }

    #[test]
    fn delays_stay_in_range() {
        let mut plan = FaultPlan::new(3);
        plan.delay = DelayDist { base: 2, jitter: 5 };
        for _ in 0..500 {
            let d = plan.message_delay();
            assert!((2..=7).contains(&d), "delay {d} outside [2, 7]");
        }
        let mut flat = FaultPlan::new(3);
        flat.delay = DelayDist { base: 4, jitter: 0 };
        assert_eq!(flat.message_delay(), 4);
    }
}
