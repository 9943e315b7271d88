//! Churn: joins, graceful leaves, and crash failures.
//!
//! Two regimes live here:
//!
//! * **Poisson churn** ([`ChurnProcess`]) — the protocol-faithful driver:
//!   rates are *per peer per time unit*, the convention P2P measurement
//!   papers use (e.g. "0.1 churn" = each peer has a 10% chance of departing
//!   per unit time). Event times are exponential interarrivals; joins run
//!   the full bootstrap-lookup protocol and stabilization repairs routing
//!   state at a fixed period, so staleness tracks the churn/stabilization
//!   ratio.
//! * **Amortized arena churn** ([`ChurnBatch`]) — the mega-scale mutation
//!   path: membership events splice the columnar state directly and
//!   restore *perfect* routing via `O(log P)` locality repair
//!   (`NodeIndex::repair_positions`), skipping the
//!   stabilization storm a 10⁶-peer network cannot afford. Data handoff and
//!   the stabilization traffic a real join/leave would cost are still
//!   charged to the message counters. A batch coalesces a window of events
//!   into one column splice plus one repair sweep (a single event is a
//!   1-event batch); it is property-tested against a one-event-at-a-time
//!   reference model (`crates/sim/tests/churn_equivalence.rs`).

use crate::id::RingId;
use crate::index::{IdColumn, RepairStats};
use crate::messages::MessageKind;
use crate::network::Network;
use crate::node::{Node, SUCCESSOR_LIST_LEN};
use rand::Rng;

/// Churn rates, per alive peer per time unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Join rate (new peers per alive peer per time unit).
    pub join_rate: f64,
    /// Graceful-leave rate.
    pub leave_rate: f64,
    /// Crash-failure rate.
    pub fail_rate: f64,
    /// Stabilization period (time units between rounds).
    pub stabilize_period: f64,
}

impl ChurnConfig {
    /// A symmetric churn level: joins balance departures (half leaves, half
    /// crashes), keeping the expected network size constant.
    pub fn symmetric(rate: f64, stabilize_period: f64) -> Self {
        Self { join_rate: rate, leave_rate: rate / 2.0, fail_rate: rate / 2.0, stabilize_period }
    }

    /// No churn at all.
    pub fn none() -> Self {
        Self { join_rate: 0.0, leave_rate: 0.0, fail_rate: 0.0, stabilize_period: 1.0 }
    }

    fn total_rate(&self) -> f64 {
        self.join_rate + self.leave_rate + self.fail_rate
    }
}

/// Counts of what a churn run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Successful joins.
    pub joins: u64,
    /// Graceful leaves.
    pub leaves: u64,
    /// Crash failures.
    pub fails: u64,
    /// Stabilization rounds run.
    pub stabilize_rounds: u64,
    /// Events skipped because the network was about to empty out.
    pub skipped: u64,
}

/// A resumable churn process.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
    /// Simulation clock.
    now: f64,
    /// Next stabilization time.
    next_stabilize: f64,
}

impl ChurnProcess {
    /// Creates a process with the given rates, starting at time 0.
    pub fn new(config: ChurnConfig) -> Self {
        Self { config, now: 0.0, next_stabilize: config.stabilize_period }
    }

    /// The current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the simulation by `duration` time units, applying churn
    /// events and periodic stabilization to `net`.
    ///
    /// The network is never allowed to drop below 2 peers (departure events
    /// that would do so are skipped and counted).
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        duration: f64,
        rng: &mut R,
    ) -> ChurnOutcome {
        let mut outcome = ChurnOutcome::default();
        let end = self.now + duration;
        loop {
            let rate = self.config.total_rate() * net.len() as f64;
            let next_event =
                if rate > 0.0 { self.now + exponential(rng, rate) } else { f64::INFINITY };
            // Interleave stabilization ticks in timestamp order.
            while self.next_stabilize <= next_event.min(end) {
                net.stabilize_round();
                outcome.stabilize_rounds += 1;
                self.next_stabilize += self.config.stabilize_period;
            }
            if next_event > end {
                self.now = end;
                return outcome;
            }
            self.now = next_event;
            self.apply_one(net, rng, &mut outcome);
        }
    }

    fn apply_one<R: Rng + ?Sized>(
        &mut self,
        net: &mut Network,
        rng: &mut R,
        outcome: &mut ChurnOutcome,
    ) {
        let total = self.config.total_rate();
        if total <= 0.0 || net.is_empty() {
            outcome.skipped += 1;
            return;
        }
        let u: f64 = rng.gen::<f64>() * total;
        if u < self.config.join_rate {
            let new_id = RingId(rng.gen());
            let Some(bootstrap) = net.random_peer(rng) else {
                outcome.skipped += 1;
                return;
            };
            if net.join(new_id, bootstrap).is_ok() {
                outcome.joins += 1;
            } else {
                outcome.skipped += 1;
            }
        } else {
            if net.len() <= 2 {
                outcome.skipped += 1;
                return;
            }
            let Some(victim) = net.random_peer(rng) else {
                outcome.skipped += 1;
                return;
            };
            if u < self.config.join_rate + self.config.leave_rate {
                if net.leave(victim).is_ok() {
                    outcome.leaves += 1;
                }
            } else if net.fail(victim).is_ok() {
                outcome.fails += 1;
            }
        }
    }
}

/// One membership event for the amortized arena-churn path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new peer joins under this id.
    Join(RingId),
    /// This peer departs gracefully, handing its data to its successor.
    Leave(RingId),
    /// This peer crashes; its primary data is lost.
    Crash(RingId),
}

impl ChurnEvent {
    /// The peer id the event concerns.
    pub fn id(&self) -> RingId {
        match *self {
            ChurnEvent::Join(id) | ChurnEvent::Leave(id) | ChurnEvent::Crash(id) => id,
        }
    }
}

/// What a [`ChurnBatch::apply`] did — counts, handoff volume, the values
/// crashes destroyed (so an incremental truth can journal the removals),
/// and the repair work performed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnApplied {
    /// Joins applied.
    pub joins: u64,
    /// Graceful leaves applied.
    pub leaves: u64,
    /// Crashes applied.
    pub crashes: u64,
    /// Events skipped (duplicate-id conflicts, joins of alive ids,
    /// departures of absent ids, or departures blocked by the ≥ 2-peer
    /// floor).
    pub skipped: u64,
    /// Items handed off (join arc transfers + leave handoffs).
    pub items_moved: u64,
    /// Values lost to crashes, in event order (each crashed peer's store
    /// sorted ascending). Feed these to a streamed-truth delta journal.
    pub lost: Vec<f64>,
    /// Locality-repair work counters.
    pub repair: RepairStats,
}

impl Network {
    /// Direct-placement item insert for churn/turnover phases: the value
    /// lands on its true owner without routing (the mega-scale simulator
    /// path — routing 5% of 2·10⁷ items per round would dwarf the phase
    /// under measurement), charged one [`MessageKind::Handoff`] transfer.
    pub fn churn_insert_item(&mut self, x: f64) {
        if self.nodes.is_empty() {
            return;
        }
        let pos = self.nodes.owner_position(self.placement.place(x));
        self.nodes.node_at_mut(pos).store.insert(x);
        self.stats.record(MessageKind::Handoff, 8);
    }

    /// Direct item delete for churn/turnover phases: removes one uniform
    /// value from the first non-empty store at or after a random position,
    /// charged one [`MessageKind::Handoff`] transfer. Returns the removed
    /// value (`None` only when the network holds no items).
    pub fn churn_remove_item<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        let p = self.nodes.len();
        if p == 0 {
            return None;
        }
        let start = rng.gen_range(0..p);
        for k in 0..p {
            let node = self.nodes.node_at_mut((start + k) % p);
            if let Some(x) = node.store.sample_uniform(rng) {
                node.store.remove(x);
                self.stats.record(MessageKind::Handoff, 8);
                return Some(x);
            }
        }
        None
    }
}

/// A coalesced window of membership events, applied to arena state in one
/// column splice plus one monotone repair sweep.
///
/// Semantics are **identical** to applying the recorded events one at a
/// time in recorded order: a join drains the arc `(pred, id]` from its
/// successor, a leave hands its whole store to its successor, a crash
/// drops its store, and departures are refused at 2 peers. Each event
/// charges its handoff bytes plus the stabilization exchange a protocol
/// join/leave would cost (crashes charge nothing); routing ends perfect.
/// The reference model in `crates/sim/tests/churn_equivalence.rs` pins
/// this for whole windows and for 1-event batches alike. Data movement
/// replays in event order against a merged view of the evolving
/// membership, so order-dependent outcomes (an heir crashing after
/// inheriting, a joiner taking items a prior joiner just received) come
/// out the same. The one policy difference is **conflict handling**: a
/// batch admits at most one event per id — later events on the same id are
/// skipped and counted, where one-at-a-time application would apply them.
/// Callers wanting repeat events on one id split them across batches.
///
/// Scratch buffers (including the replacement columns, which ping-pong with
/// the network's) are retained across `apply` calls, so steady-state
/// batched churn performs zero allocations (fenced in
/// `ring/tests/alloc_free.rs`).
#[derive(Debug, Clone, Default)]
pub struct ChurnBatch {
    events: Vec<ChurnEvent>,
    skip: Vec<bool>,
    by_id: Vec<(RingId, u32)>,
    /// Staged joins: `(id, event seq, detached slot)`, sorted by id.
    joins: Vec<(RingId, u32, u32)>,
    /// Departures: `(id, event seq, graceful)`, sorted by id.
    dead: Vec<(RingId, u32, bool)>,
    /// Base-column positions of `dead`, ascending.
    dead_pos: Vec<u32>,
    /// Final-column positions whose ownership arc changed.
    affected: Vec<usize>,
    /// Replacement columns, swapped with the network's on every apply.
    spare_keys: Vec<RingId>,
    spare_order: Vec<u32>,
}

impl ChurnBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a join of `id`.
    pub fn join(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Join(id));
    }

    /// Queues a graceful leave of `id`.
    pub fn leave(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Leave(id));
    }

    /// Queues a crash of `id`.
    pub fn crash(&mut self, id: RingId) {
        self.events.push(ChurnEvent::Crash(id));
    }

    /// Queues `event`.
    pub fn push(&mut self, event: ChurnEvent) {
        self.events.push(event);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Applies the queued events to `net` in one coalesced pass and clears
    /// the queue. Phases: validate (conflict + feasibility guards), stage
    /// join records in detached slots, replay data movement in event order
    /// against the merged membership view, splice the merged columns in,
    /// retire departed slots, and run one locality-repair sweep over every
    /// changed arc.
    pub fn apply(&mut self, net: &mut Network) -> ChurnApplied {
        let mut out = ChurnApplied::default();
        if self.events.is_empty() {
            return out;
        }
        if net.is_empty() {
            out.skipped = self.events.len() as u64;
            self.events.clear();
            return out;
        }
        net.nodes.reserve(self.events.len());
        let p0 = net.nodes.len();

        // Validate. Conflict policy first: at most one event per id per
        // batch, first recorded wins. Then feasibility in event order, as
        // one-at-a-time application would judge it: joins of alive ids are
        // skipped, departures of absent ids or past the ≥ 2-peer floor are
        // skipped.
        self.skip.clear();
        self.skip.resize(self.events.len(), false);
        self.by_id.clear();
        for (i, ev) in self.events.iter().enumerate() {
            self.by_id.push((ev.id(), i as u32));
        }
        self.by_id.sort_unstable();
        for w in self.by_id.windows(2) {
            if w[0].0 == w[1].0 {
                self.skip[w[1].1 as usize] = true;
            }
        }
        let mut alive = p0;
        for (i, ev) in self.events.iter().enumerate() {
            if self.skip[i] {
                continue;
            }
            match *ev {
                ChurnEvent::Join(id) => {
                    if net.nodes.contains_key(&id) {
                        self.skip[i] = true;
                    } else {
                        alive += 1;
                    }
                }
                ChurnEvent::Leave(id) | ChurnEvent::Crash(id) => {
                    if !net.nodes.contains_key(&id) || alive <= 2 {
                        self.skip[i] = true;
                    } else {
                        alive -= 1;
                    }
                }
            }
        }

        // Stage join records in detached slots; collect departures.
        self.joins.clear();
        self.dead.clear();
        for (i, ev) in self.events.iter().enumerate() {
            if self.skip[i] {
                out.skipped += 1;
                continue;
            }
            match *ev {
                ChurnEvent::Join(id) => {
                    let slot = net.nodes.alloc_detached(Node::new(id));
                    self.joins.push((id, i as u32, slot));
                    out.joins += 1;
                }
                ChurnEvent::Leave(id) => {
                    self.dead.push((id, i as u32, true));
                    out.leaves += 1;
                }
                ChurnEvent::Crash(id) => {
                    self.dead.push((id, i as u32, false));
                    out.crashes += 1;
                }
            }
        }
        if self.joins.is_empty() && self.dead.is_empty() {
            self.events.clear();
            return out;
        }
        self.joins.sort_unstable_by_key(|&(id, _, _)| id);
        self.dead.sort_unstable_by_key(|&(id, _, _)| id);

        // Replay data movement in recorded order against the merged view.
        // Every resolution (owner, predecessor, heir) sees exactly the
        // membership one-at-a-time application would: base peers minus
        // already-departed, plus already-joined overlays.
        let placement = net.placement;
        let mut alive = p0;
        {
            let (keys, order, arena) = net.nodes.split_view();
            let view = MergedView { keys, order, joins: &self.joins, dead: &self.dead };
            for (i, ev) in self.events.iter().enumerate() {
                if self.skip[i] {
                    continue;
                }
                let seq = i as u32;
                match *ev {
                    ChurnEvent::Join(id) => {
                        alive += 1;
                        let (pred, _) = view.last_active_before(id, seq, id);
                        let (_, owner) = view.first_active_from(id, seq, id);
                        let moved = arena
                            .slot_mut(view.slot(owner))
                            .store
                            .drain_by(|x| placement.place(x).in_arc(pred, id));
                        net.stats.record(MessageKind::Handoff, 8 * moved.len());
                        let slen = SUCCESSOR_LIST_LEN.min(alive - 1).max(1);
                        net.stats.record(MessageKind::Stabilize, 8 * (1 + slen));
                        out.items_moved += moved.len() as u64;
                        let jslot = view.join_slot(id);
                        arena.slot_mut(jslot as usize).store.extend_values(moved);
                    }
                    ChurnEvent::Leave(id) => {
                        alive -= 1;
                        let vslot = order[view.base_position(id)] as usize;
                        let data = arena.slot_mut(vslot).store.drain_all();
                        net.stats.record(MessageKind::Handoff, 8 * data.len());
                        out.items_moved += data.len() as u64;
                        let (_, heir) = view.first_active_from(id, seq, id);
                        let heir_node = arena.slot_mut(view.slot(heir));
                        heir_node.store.extend_values(data);
                        heir_node.replicas.remove(&id);
                        let slen = SUCCESSOR_LIST_LEN.min(alive - 1).max(1);
                        net.stats.record(MessageKind::Stabilize, 8 * (1 + slen));
                    }
                    ChurnEvent::Crash(id) => {
                        alive -= 1;
                        let vslot = order[view.base_position(id)] as usize;
                        let data = arena.slot_mut(vslot).store.drain_all();
                        out.lost.extend(data);
                    }
                }
            }
        }

        // Merge the surviving base column with the sorted joins into the
        // spare columns (two-pointer walk), then swap them in. The old
        // columns become next apply's spares — steady-state churn
        // ping-pongs two column pairs and never reallocates.
        self.dead_pos.clear();
        {
            let (keys, _) = net.nodes.columns();
            for &(id, _, _) in &self.dead {
                self.dead_pos.push(keys.lower_bound(id) as u32);
            }
        }
        self.spare_keys.clear();
        self.spare_order.clear();
        let new_len = p0 + self.joins.len() - self.dead.len();
        self.spare_keys.reserve(new_len);
        self.spare_order.reserve(new_len);
        {
            let (keys, order) = net.nodes.columns();
            let mut ji = 0usize;
            let mut di = 0usize;
            for bi in 0..p0 {
                while ji < self.joins.len() && self.joins[ji].0 < keys[bi] {
                    self.spare_keys.push(self.joins[ji].0);
                    self.spare_order.push(self.joins[ji].2);
                    ji += 1;
                }
                if di < self.dead_pos.len() && self.dead_pos[di] as usize == bi {
                    di += 1;
                    continue;
                }
                self.spare_keys.push(keys[bi]);
                self.spare_order.push(order[bi]);
            }
            for &(id, _, slot) in &self.joins[ji..] {
                self.spare_keys.push(id);
                self.spare_order.push(slot);
            }
        }
        net.nodes.splice_columns(&mut self.spare_keys, &mut self.spare_order);

        // Retire departed slots (their positions index the OLD order column,
        // which the splice handed back as our spare) and drop stale cursors.
        for (i, &(id, _, _)) in self.dead.iter().enumerate() {
            let slot = self.spare_order[self.dead_pos[i] as usize];
            let _ = net.nodes.free_slot(slot);
            net.finger_cursor.remove(&id);
        }

        // One repair sweep over every changed arc: each join's position and
        // each departure's heir position in the final column.
        self.affected.clear();
        for &(id, _, _) in &self.joins {
            self.affected.push(net.nodes.owner_position(id));
        }
        for &(id, _, _) in &self.dead {
            self.affected.push(net.nodes.owner_position(id));
        }
        self.affected.sort_unstable();
        self.affected.dedup();
        out.repair = net.nodes.repair_positions(&self.affected);
        self.events.clear();
        out
    }
}

/// Which record backs a merged-view entry: a base-column position or a
/// staged (detached-slot) joiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeRef {
    Base(usize),
    Overlay(u32),
}

/// The membership as of one event inside a batch: the base columns, minus
/// departures already replayed, plus joiners already replayed. Entries
/// activate strictly by sequence number, so resolving against the view at
/// seq `s` sees exactly what the one-at-a-time path would see before its
/// `s`-th event.
struct MergedView<'a> {
    keys: &'a IdColumn,
    order: &'a [u32],
    joins: &'a [(RingId, u32, u32)],
    dead: &'a [(RingId, u32, bool)],
}

impl MergedView<'_> {
    /// The arena slot backing `r`.
    fn slot(&self, r: NodeRef) -> usize {
        match r {
            NodeRef::Base(pos) => self.order[pos] as usize,
            NodeRef::Overlay(slot) => slot as usize,
        }
    }

    /// The staged slot of the joiner `id`.
    fn join_slot(&self, id: RingId) -> u32 {
        let ji = self.joins.binary_search_by_key(&id, |&(jid, _, _)| jid).expect("staged join");
        self.joins[ji].2
    }

    /// Exact base-column position of `id` (departure victims are validated
    /// to be base peers).
    fn base_position(&self, id: RingId) -> usize {
        let pos = self.keys.lower_bound(id);
        debug_assert!(pos < self.keys.len() && self.keys[pos] == id, "victim not in base column");
        pos
    }

    /// Whether base position `pos` is still alive as of `seq` (its departure,
    /// if any, has not been replayed yet).
    fn base_active(&self, pos: usize, seq: u32) -> bool {
        match self.dead.binary_search_by_key(&self.keys[pos], |&(id, _, _)| id) {
            Ok(di) => self.dead[di].1 >= seq,
            Err(_) => true,
        }
    }

    /// First active entry with id `>= from` (wrapping), skipping `exclude` —
    /// the owner/successor resolution. Panics only if the view is empty,
    /// which the feasibility guards rule out.
    fn first_active_from(&self, from: RingId, seq: u32, exclude: RingId) -> (RingId, NodeRef) {
        let sb = self.keys.lower_bound(from);
        let sj = self.joins.partition_point(|&(id, _, _)| id < from);
        self.scan_fwd(sb, self.keys.len(), sj, self.joins.len(), seq, exclude)
            .or_else(|| self.scan_fwd(0, sb, 0, sj, seq, exclude))
            .expect("merged view exhausted: alive floor violated")
    }

    /// Last active entry with id `< id` (wrapping) — the predecessor
    /// resolution for a join arc.
    fn last_active_before(&self, id: RingId, seq: u32, exclude: RingId) -> (RingId, NodeRef) {
        let eb = self.keys.lower_bound(id);
        let ej = self.joins.partition_point(|&(jid, _, _)| jid < id);
        self.scan_back(0, eb, 0, ej, seq, exclude)
            .or_else(|| self.scan_back(eb, self.keys.len(), ej, self.joins.len(), seq, exclude))
            .expect("merged view exhausted: alive floor violated")
    }

    /// Ascending merged scan over base positions `[lo_b, hi_b)` and join
    /// entries `[lo_j, hi_j)`; first active non-excluded entry wins. Join
    /// ids never collide with base ids (feasibility skips joins of alive
    /// peers), so the merge order is strict.
    fn scan_fwd(
        &self,
        lo_b: usize,
        hi_b: usize,
        lo_j: usize,
        hi_j: usize,
        seq: u32,
        exclude: RingId,
    ) -> Option<(RingId, NodeRef)> {
        let (mut bi, mut ji) = (lo_b, lo_j);
        loop {
            let b = (bi < hi_b).then(|| self.keys[bi]);
            let j = (ji < hi_j).then(|| self.joins[ji].0);
            let take_base = match (b, j) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(bk), Some(jk)) => bk < jk,
            };
            if take_base {
                let key = self.keys[bi];
                if key != exclude && self.base_active(bi, seq) {
                    return Some((key, NodeRef::Base(bi)));
                }
                bi += 1;
            } else {
                let (key, jseq, slot) = self.joins[ji];
                if key != exclude && jseq < seq {
                    return Some((key, NodeRef::Overlay(slot)));
                }
                ji += 1;
            }
        }
    }

    /// Descending merged scan (mirror of [`MergedView::scan_fwd`]).
    fn scan_back(
        &self,
        lo_b: usize,
        hi_b: usize,
        lo_j: usize,
        hi_j: usize,
        seq: u32,
        exclude: RingId,
    ) -> Option<(RingId, NodeRef)> {
        let (mut bi, mut ji) = (hi_b, hi_j);
        loop {
            let b = (bi > lo_b).then(|| self.keys[bi - 1]);
            let j = (ji > lo_j).then(|| self.joins[ji - 1].0);
            let take_base = match (b, j) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(bk), Some(jk)) => bk > jk,
            };
            if take_base {
                bi -= 1;
                let key = self.keys[bi];
                if key != exclude && self.base_active(bi, seq) {
                    return Some((key, NodeRef::Base(bi)));
                }
            } else {
                ji -= 1;
                let (key, jseq, slot) = self.joins[ji];
                if key != exclude && jseq < seq {
                    return Some((key, NodeRef::Overlay(slot)));
                }
            }
        }
    }
}

/// An exponential interarrival with the given rate.
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_of_n(n: u64) -> Network {
        let ids = (1..=n).map(|i| RingId(i * (u64::MAX / (n + 1)))).collect();
        Network::build_bulk(ids, Placement::range(0.0, 100.0))
    }

    /// Networks agree on everything the batched/sequential equivalence
    /// cares about: membership, routing state, data placement, and the
    /// Handoff/Stabilize charges. Epochs differ by construction (N bumps vs
    /// one) and are deliberately NOT compared.
    fn assert_same_network(a: &Network, b: &Network) {
        let ids_a: Vec<RingId> = a.ids().collect();
        let ids_b: Vec<RingId> = b.ids().collect();
        assert_eq!(ids_a, ids_b, "memberships diverge");
        for id in ids_a {
            let (na, nb) = (a.node(id).unwrap(), b.node(id).unwrap());
            assert_eq!(na.predecessor, nb.predecessor, "pred of {id:?}");
            assert_eq!(na.successors, nb.successors, "succs of {id:?}");
            assert_eq!(na.fingers, nb.fingers, "fingers of {id:?}");
            assert_eq!(na.store.values(), nb.store.values(), "store of {id:?}");
        }
        assert_eq!(
            a.stats().count(MessageKind::Handoff),
            b.stats().count(MessageKind::Handoff),
            "handoff counts"
        );
        assert_eq!(
            a.stats().count(MessageKind::Stabilize),
            b.stats().count(MessageKind::Stabilize),
            "stabilize counts"
        );
        assert_eq!(a.stats().total_bytes(), b.stats().total_bytes(), "bytes");
    }

    /// Applies `ev` as its own 1-event batch.
    fn apply_one(net: &mut Network, ev: ChurnEvent) -> ChurnApplied {
        let mut batch = ChurnBatch::new();
        batch.push(ev);
        batch.apply(net)
    }

    #[test]
    fn churn_join_splices_and_stays_perfect() {
        let mut net = net_of_n(16);
        net.bulk_load((0..320).map(|i| i as f64 * 100.0 / 320.0).collect::<Vec<_>>());
        let before = net.total_items();
        assert_eq!(apply_one(&mut net, ChurnEvent::Join(RingId(5_000))).joins, 1);
        assert_eq!(apply_one(&mut net, ChurnEvent::Join(RingId(u64::MAX - 3))).joins, 1);
        assert_eq!(net.len(), 18);
        assert_eq!(net.total_items(), before, "joins move, never lose, items");
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
        // Guard: a duplicate id refuses.
        assert_eq!(apply_one(&mut net, ChurnEvent::Join(RingId(5_000))).skipped, 1);
        assert_eq!(net.len(), 18);
    }

    #[test]
    fn churn_leave_hands_data_to_heir() {
        let mut net = net_of_n(16);
        net.bulk_load((0..320).map(|i| i as f64 * 100.0 / 320.0).collect::<Vec<_>>());
        let before = net.total_items();
        let victim = net.ids().nth(5).unwrap();
        assert_eq!(apply_one(&mut net, ChurnEvent::Leave(victim)).leaves, 1);
        assert_eq!(net.len(), 15);
        assert_eq!(net.total_items(), before, "graceful leave conserves items");
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
        assert_eq!(apply_one(&mut net, ChurnEvent::Leave(victim)).skipped, 1, "absent id refuses");
    }

    #[test]
    fn churn_crash_loses_primary_data() {
        let mut net = net_of_n(16);
        net.bulk_load((0..320).map(|i| i as f64 * 100.0 / 320.0).collect::<Vec<_>>());
        let victim = net.ids().nth(3).unwrap();
        let victim_items = net.node(victim).unwrap().store.len();
        assert!(victim_items > 0);
        let bytes_before = net.stats().total_bytes();
        assert_eq!(apply_one(&mut net, ChurnEvent::Crash(victim)).crashes, 1);
        assert_eq!(net.total_items(), 320 - victim_items as u64);
        assert_eq!(net.stats().total_bytes(), bytes_before, "crashes charge nothing");
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn churn_floor_blocks_departures() {
        let mut net = net_of_n(2);
        let id = net.ids().next().unwrap();
        assert_eq!(apply_one(&mut net, ChurnEvent::Leave(id)).skipped, 1);
        assert_eq!(apply_one(&mut net, ChurnEvent::Crash(id)).skipped, 1);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn item_turnover_ops_place_and_charge_correctly() {
        let mut net = net_of_n(16);
        net.bulk_load((0..160).map(|i| i as f64 * 100.0 / 160.0).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(9);
        let bytes0 = net.stats().total_bytes();
        net.churn_insert_item(12.34);
        assert_eq!(net.total_items(), 161);
        let removed = net.churn_remove_item(&mut rng).expect("items exist");
        assert!((0.0..=100.0).contains(&removed));
        assert_eq!(net.total_items(), 160);
        // Two ops, each one Handoff message: 8 B payload + fixed header.
        assert_eq!(
            net.stats().total_bytes() - bytes0,
            2 * (8 + crate::messages::HEADER_BYTES as u64)
        );
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_apply_matches_sequential_single_events() {
        let mut seq = net_of_n(32);
        seq.bulk_load((0..640).map(|i| i as f64 * 100.0 / 640.0).collect::<Vec<_>>());
        let mut bat = seq.clone();
        let ids: Vec<RingId> = seq.ids().collect();
        let step = u64::MAX / 33;
        // A mixed window: joins landing between existing peers, leaves,
        // and crashes — all on distinct ids.
        let events = [
            ChurnEvent::Join(RingId(ids[4].0 + step / 3)),
            ChurnEvent::Leave(ids[10]),
            ChurnEvent::Crash(ids[11]),
            ChurnEvent::Join(RingId(ids[11].0 + 7)), // lands where the crash just vacated
            ChurnEvent::Leave(ids[12]),
            ChurnEvent::Join(RingId(ids[30].0 + step / 2)),
            ChurnEvent::Crash(ids[0]),
        ];
        for ev in events {
            assert_eq!(apply_one(&mut seq, ev).skipped, 0, "{ev:?} must be feasible");
        }
        let mut batch = ChurnBatch::new();
        for ev in events {
            batch.push(ev);
        }
        let out = batch.apply(&mut bat);
        assert_eq!(out.joins, 3);
        assert_eq!(out.leaves, 2);
        assert_eq!(out.crashes, 2);
        assert_eq!(out.skipped, 0);
        assert_same_network(&seq, &bat);
        assert!(bat.check_invariants().is_empty(), "{:?}", bat.check_invariants());
        // The batch is drained and reusable.
        assert!(batch.is_empty());
    }

    #[test]
    fn batch_skip_policy_is_pinned() {
        let mut net = net_of_n(8);
        let ids: Vec<RingId> = net.ids().collect();
        let mut batch = ChurnBatch::new();
        batch.join(ids[0]); // join of an alive id: skipped
        batch.leave(RingId(123)); // absent id: skipped
        batch.leave(ids[1]); // fine
        batch.crash(ids[1]); // second event on same id: skipped
        batch.join(RingId(777)); // fine
        batch.join(RingId(777)); // duplicate join id: skipped
        let out = batch.apply(&mut net);
        assert_eq!(out.skipped, 4);
        assert_eq!(out.joins, 1);
        assert_eq!(out.leaves, 1);
        assert_eq!(out.crashes, 0);
        assert_eq!(net.len(), 8);
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_respects_alive_floor_mid_window() {
        let mut net = net_of_n(4);
        let ids: Vec<RingId> = net.ids().collect();
        let mut batch = ChurnBatch::new();
        for &id in &ids {
            batch.crash(id);
        }
        let out = batch.apply(&mut net);
        // Only two crashes fit above the 2-peer floor.
        assert_eq!(out.crashes, 2);
        assert_eq!(out.skipped, 2);
        assert_eq!(net.len(), 2);
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn batch_reports_crash_losses_for_truth_deltas() {
        let mut net = net_of_n(16);
        net.bulk_load((0..320).map(|i| i as f64 * 100.0 / 320.0).collect::<Vec<_>>());
        let victim = net.ids().nth(6).unwrap();
        let expected: Vec<f64> = net.node(victim).unwrap().store.values().to_vec();
        assert!(!expected.is_empty());
        let mut batch = ChurnBatch::new();
        batch.crash(victim);
        let out = batch.apply(&mut net);
        assert_eq!(out.lost, expected);
        assert_eq!(net.total_items(), 320 - expected.len() as u64);
    }

    #[test]
    fn batch_empty_window_is_a_no_op_and_single_peer_bootstraps() {
        let mut batch = ChurnBatch::new();
        let mut net = net_of_n(8);
        assert_eq!(batch.apply(&mut net), ChurnApplied::default());
        // A single-peer network can grow through the batch path: the lone
        // base peer is both predecessor and arc donor for every joiner.
        let mut tiny = net_of_n(1);
        tiny.bulk_load((0..64).map(|i| i as f64 * 100.0 / 64.0).collect::<Vec<_>>());
        batch.join(RingId(1_000));
        batch.join(RingId(u64::MAX / 2 + 12_345));
        let out = batch.apply(&mut tiny);
        assert_eq!(out.joins, 2);
        assert_eq!(tiny.len(), 3);
        assert_eq!(tiny.total_items(), 64);
        assert!(tiny.check_invariants().is_empty(), "{:?}", tiny.check_invariants());
    }

    #[test]
    fn symmetric_churn_keeps_size_roughly_constant() {
        let mut net = net_of_n(64);
        let mut rng = StdRng::seed_from_u64(17);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.1, 1.0));
        let outcome = churn.run(&mut net, 20.0, &mut rng);
        assert!(outcome.joins + outcome.leaves + outcome.fails > 50, "{outcome:?}");
        assert!(outcome.stabilize_rounds >= 19, "{outcome:?}");
        assert!((32..=110).contains(&net.len()), "size drifted to {}", net.len());
    }

    #[test]
    fn churn_then_stabilize_restores_ring() {
        let mut net = net_of_n(48);
        net.bulk_load((0..500).map(|i| i as f64 / 5.0).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(3);
        let mut churn = ChurnProcess::new(ChurnConfig::symmetric(0.2, 0.5));
        churn.run(&mut net, 10.0, &mut rng);
        for _ in 0..8 {
            net.stabilize_round();
        }
        let violations = net.check_invariants();
        let ring_only: Vec<&String> = violations.iter().filter(|v| !v.contains("item")).collect();
        assert!(ring_only.is_empty(), "{ring_only:?}");
        // Lookups must work after churn + repair.
        let from = net.random_peer(&mut rng).unwrap();
        assert!(net.lookup(from, RingId(12345)).is_ok());
    }

    #[test]
    fn zero_rates_do_nothing() {
        let mut net = net_of_n(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut churn = ChurnProcess::new(ChurnConfig::none());
        let outcome = churn.run(&mut net, 5.0, &mut rng);
        assert_eq!(outcome.joins + outcome.leaves + outcome.fails, 0);
        assert_eq!(net.len(), 8);
        // Clock still advances and stabilization still ticks.
        assert_eq!(churn.now(), 5.0);
        assert!(outcome.stabilize_rounds >= 4);
    }

    #[test]
    fn never_shrinks_below_two() {
        let mut net = net_of_n(4);
        let mut rng = StdRng::seed_from_u64(9);
        let cfg =
            ChurnConfig { join_rate: 0.0, leave_rate: 1.0, fail_rate: 1.0, stabilize_period: 0.5 };
        let mut churn = ChurnProcess::new(cfg);
        churn.run(&mut net, 50.0, &mut rng);
        assert_eq!(net.len(), 2);
    }
}
