//! The simulated overlay network: construction, routing, probing.
//!
//! The network holds the ground-truth set of alive peers in a sorted-vec
//! [`NodeIndex`] (used for *construction*, *liveness checks*, and *test
//! assertions* only); **routing decisions use exclusively the per-node
//! routing state**, which churn can make stale — that is the point of the
//! simulation.

use crate::batch::BatchRouter;
use crate::faults::{FaultDecision, FaultPlan};
use crate::id::RingId;
use crate::index::NodeIndex;
use crate::live::LiveValues;
use crate::messages::{MessageKind, MessageStats};
use crate::node::{Node, Step, SUCCESSOR_LIST_LEN};
use crate::placement::Placement;
use crate::store::LocalStore;
use dde_stats::equidepth::EquiDepthSummary;
use dde_stats::rng::splitmix64;
use rand::Rng;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Hard hop limit per lookup; exceeding it indicates a broken ring.
pub const MAX_HOPS: u32 = 512;

/// Result of a successful lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The peer that owns the target ring point (per its believed arc).
    pub owner: RingId,
    /// Routing hops taken (0 when the initiator owned the target).
    pub hops: u32,
}

/// Why a lookup failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// The initiating peer is not alive.
    InitiatorDead,
    /// Routing state was too broken to make progress.
    NoRoute,
    /// The hop limit was exceeded (routing loop / broken ring).
    HopLimitExceeded,
    /// The network has no peers at all.
    EmptyNetwork,
    /// An injected fault (lost request/reply, sick peer, crash) broke the
    /// operation; the caller may retry.
    MessageLost,
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::InitiatorDead => write!(f, "initiating peer is not alive"),
            LookupError::NoRoute => write!(f, "no route to target (routing state exhausted)"),
            LookupError::HopLimitExceeded => write!(f, "hop limit exceeded"),
            LookupError::EmptyNetwork => write!(f, "network has no peers"),
            LookupError::MessageLost => write!(f, "message lost to an injected fault"),
        }
    }
}

impl std::error::Error for LookupError {}

/// A probe reply: the statistic a probed peer ships back.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReply {
    /// The probed peer.
    pub peer: RingId,
    /// The peer's believed predecessor (defines its arc); `None` for a peer
    /// that has not completed joining.
    pub predecessor: Option<RingId>,
    /// Exact local item count.
    pub count: u64,
    /// Sum of the local values (for aggregate queries).
    pub sum: f64,
    /// Sum of squares of the local values (for variance estimation).
    pub sum_sq: f64,
    /// Equi-depth summary of the local data.
    pub summary: EquiDepthSummary,
    /// Routing hops spent reaching the peer.
    pub hops: u32,
}

/// The simulated ring overlay.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) nodes: NodeIndex,
    pub(crate) placement: Placement,
    pub(crate) stats: MessageStats,
    /// Equi-depth buckets peers use in probe replies.
    pub(crate) summary_buckets: usize,
    /// Round-robin cursor for finger fixing, per node.
    pub(crate) finger_cursor: BTreeMap<RingId, u32>,
    /// Replication factor: copies kept beyond the primary (0 = off).
    pub(crate) replication: usize,
    /// Deterministic counter driving maintenance-time random peer picks
    /// (models each node's long-term peer cache; see `stabilize_node`).
    pub(crate) maint_counter: u64,
    /// Installed fault plan; `None` injects nothing.
    pub(crate) faults: Option<FaultPlan>,
}

/// The end of the run of `items[from..]` placed at or before `id`.
fn run_end(items: &[f64], from: usize, id: RingId, placement: Placement) -> usize {
    from + items[from..].iter().take_while(|&&x| placement.place(x) <= id).count()
}

/// One route of a [`Network::probe_wave`] between rounds: the point it
/// routes to, the index position of the peer it stands on, and the hops
/// taken so far.
#[derive(Debug, Clone, Copy)]
struct WaveRoute {
    target: RingId,
    pos: usize,
    hops: u32,
}

/// Outcome of one hop-level request/reply exchange (see `Network::contact`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contact {
    /// Exchange succeeded (two messages plus delivery delay charged, unless
    /// a batch window already paid for the edge). Carries the callee's
    /// ring-order position, valid until the next membership change.
    Ok(usize),
    /// The peer is permanently gone — dead or crashed mid-request. The
    /// timeout was charged and the stale entry purged from the caller.
    Gone,
    /// A transient failure — lost request/reply or a sick window. The
    /// timeout was charged; routing state is left alone (the peer lives).
    Faulted,
}

impl Network {
    /// Creates an empty network.
    pub fn new(placement: Placement) -> Self {
        Self {
            nodes: NodeIndex::new(),
            placement,
            stats: MessageStats::new(),
            summary_buckets: 8,
            finger_cursor: BTreeMap::new(),
            replication: 0,
            maint_counter: 0,
            faults: None,
        }
    }

    /// A cheap copy-on-write fork of this network: per-peer stores share
    /// their backing vectors until first mutation, so forking a loaded
    /// network is O(P), not O(items). A fork is observationally identical to
    /// the original — the scenario snapshot cache (`dde-sim`) relies on
    /// forked cells being byte-identical to freshly built ones.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Installs a fault plan; all subsequent lookup/probe/insert traffic is
    /// subject to it (see [`crate::faults`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes the installed fault plan.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Rolls the installed plan for one application-level request `from →
    /// to`; `true` means the message was lost (tallied as a fault). Always
    /// `false` without a plan. Estimators that simulate their own message
    /// exchanges (gossip pushes, walk steps) subject them to the plan here.
    pub fn message_lost(&mut self, from: RingId, to: RingId) -> bool {
        if self.faults.as_ref().is_some_and(|p| p.partitioned(from, to)) {
            self.stats.record(MessageKind::FaultPartition, 8);
            return true;
        }
        let lost = self.faults.as_mut().is_some_and(|p| p.request_lost(from, to));
        if lost {
            self.stats.record(MessageKind::FaultDrop, 8);
        }
        lost
    }

    /// Rolls the installed plan for one application-level reply `from →
    /// to`; `true` means the reply was dropped (tallied as a fault).
    pub fn reply_lost(&mut self, from: RingId, to: RingId) -> bool {
        if self.faults.as_ref().is_some_and(|p| p.partitioned(from, to)) {
            self.stats.record(MessageKind::FaultPartition, 8);
            return true;
        }
        let lost = self.faults.as_mut().is_some_and(|p| p.reply_lost(from, to));
        if lost {
            self.stats.record(MessageKind::FaultReplyDrop, 8);
        }
        lost
    }

    /// A deterministic pseudo-random alive peer other than `exclude`, drawn
    /// from the network's maintenance counter (splitmix64). This models the
    /// long-term peer cache every deployed DHT node keeps (bootstrap lists,
    /// gossiped membership) — out-of-band knowledge, like the join bootstrap.
    pub(crate) fn random_maintenance_peer(&mut self, exclude: RingId) -> Option<RingId> {
        if self.len() < 2 {
            return None;
        }
        let z = splitmix64(self.maint_counter);
        self.maint_counter = self.maint_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let idx = (z % self.len() as u64) as usize;
        let pick = self.nodes.key_at(idx).expect("len checked");
        if pick == exclude {
            // Deterministically take the next peer (wrapping) instead.
            self.nodes.first_after(pick).or_else(|| self.nodes.first()).filter(|&id| id != exclude)
        } else {
            Some(pick)
        }
    }

    /// Builds a network of the given peers with **perfect** routing state
    /// (the steady state Chord stabilization converges to), free of message
    /// charges, in O(P): sorts the id column once, appends node records in
    /// order (no per-insert binary search or memmove), and wires
    /// successors/fingers directly with the monotone per-level sweep
    /// ([`crate::arena::RingArena::wire_perfect`]) instead of per-join
    /// stabilization. Equivalence with the incremental join path is
    /// property-tested in `crates/sim/tests/bulk_equivalence.rs`.
    ///
    /// # Panics
    /// Panics if `ids` is empty (duplicates are dropped).
    pub fn build_bulk(mut ids: Vec<RingId>, placement: Placement) -> Self {
        assert!(!ids.is_empty(), "cannot build an empty network");
        ids.sort();
        ids.dedup();
        let mut net = Self::new(placement);
        net.nodes = NodeIndex::from_sorted_ids(&ids);
        net.nodes.rewire_perfect();
        net
    }

    /// Number of alive peers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The data placement mode.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Alive peer ids, in ring order.
    pub fn ids(&self) -> impl Iterator<Item = RingId> + '_ {
        self.nodes.keys().copied()
    }

    /// Whether `id` is an alive peer.
    pub fn is_alive(&self, id: RingId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Immutable access to a peer.
    pub fn node(&self, id: RingId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Mutable access to a peer (tests and protocol internals).
    pub fn node_mut(&mut self, id: RingId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// The message counters.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Mutable message counters (estimators charge their own traffic here).
    pub fn stats_mut(&mut self) -> &mut MessageStats {
        &mut self.stats
    }

    /// Sets the equi-depth bucket count peers use in probe replies.
    pub fn set_summary_buckets(&mut self, buckets: usize) {
        self.summary_buckets = buckets.max(1);
    }

    /// The probe summary granularity.
    pub fn summary_buckets(&self) -> usize {
        self.summary_buckets
    }

    /// Sets the replication factor (copies beyond the primary; 0 = off) and
    /// seeds replicas immediately from current primaries (construction-time,
    /// free of message charges — ongoing maintenance is charged via
    /// stabilization).
    pub fn set_replication(&mut self, factor: usize) {
        self.replication = factor;
        self.reseed_replicas();
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// **Ground truth**: the alive peer owning ring point `t` (the first
    /// peer clockwise at or after `t`). For construction and assertions only.
    ///
    /// # Panics
    /// Panics if the network is empty.
    pub fn true_owner(&self, t: RingId) -> RingId {
        assert!(!self.nodes.is_empty(), "true_owner on empty network");
        self.nodes.key_at(self.nodes.owner_position(t)).expect("nonempty")
    }

    /// A uniformly random alive peer (simulator-level helper for choosing
    /// estimation initiators; free of message charges).
    pub fn random_peer<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<RingId> {
        if self.nodes.is_empty() {
            return None;
        }
        let idx = rng.gen_range(0..self.nodes.len());
        self.nodes.key_at(idx)
    }

    /// Distributes `items` to their owners per the placement map
    /// (construction-time; free of message charges).
    ///
    /// Any input order is accepted. The items are put in ring order —
    /// ascending by `total_cmp` under range placement (the map preserves
    /// order), by placed id under hashed — in one load buffer: an owned
    /// input (a `Vec`) becomes the buffer and is reordered in place, and a
    /// borrowed one is copied into it once. Under range placement, input
    /// already in that order is not moved. One linear sweep against the id
    /// column then gives each
    /// empty store a *view* of its run in the buffer ([`LocalStore`] says
    /// when a view detaches), without a copy or an allocation of its own;
    /// under hashed placement each run is first sorted by value in place.
    /// Ring positions past the last id wrap to position 0, which views its
    /// items too when they are one sorted run of the buffer (its head or its
    /// wrap tail is empty, or under range placement no other position got an
    /// item), and otherwise merges its head run and that tail through
    /// [`LocalStore::extend_values`], as does any store that already holds
    /// items.
    ///
    /// # Panics
    /// Panics if the network is empty, an item is NaN (a NaN has no place
    /// in a sorted store), or there are more than `u32::MAX` items.
    pub fn bulk_load<'a>(&mut self, items: impl Into<Cow<'a, [f64]>>) {
        let mut items = items.into().into_owned();
        assert!(!self.nodes.is_empty(), "bulk_load on empty network");
        assert!(items.iter().all(|x| !x.is_nan()), "bulk_load items contain NaN");
        assert!(u32::try_from(items.len()).is_ok(), "bulk_load takes at most u32::MAX items");
        let placement = self.placement;
        let hashed = matches!(placement, Placement::Hashed { .. });
        let (keys, order, arena) = self.nodes.split_view();
        if hashed {
            let by_id = |a: &f64, b: &f64| placement.place(*a).cmp(&placement.place(*b));
            if !items.windows(2).all(|w| by_id(&w[0], &w[1]).is_le()) {
                items.sort_unstable_by(by_id);
            }
            // Runs hold contiguous arcs, so sorting inside each run by
            // value (the wrap tail past the last id included) keeps every
            // run's bounds.
            let mut at = 0;
            for &id in keys.iter() {
                let end = run_end(&items, at, id, placement);
                items[at..end].sort_unstable_by(f64::total_cmp);
                at = end;
            }
            items[at..].sort_unstable_by(f64::total_cmp);
        } else if !items.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()) {
            items = dde_stats::sort_total(items);
        }
        let buf = Arc::new(items);
        let head = run_end(&buf, 0, keys[0], placement);
        let mut at = head;
        for (&id, &slot) in keys.iter().zip(order).skip(1) {
            let end = run_end(&buf, at, id, placement);
            if end > at {
                let store = &mut arena.slot_mut(slot as usize).store;
                if store.is_empty() {
                    *store = LocalStore::view(&buf, at, end - at);
                } else {
                    store.extend_values(buf[at..end].iter().copied());
                }
            }
            at = end;
        }
        // Past the last id the ring wraps: position 0 owns the tail too.
        let n = buf.len();
        let run = if head == 0 {
            Some(at..n)
        } else if at == n {
            Some(0..head)
        } else {
            (at == head && !hashed).then_some(0..n)
        };
        let zero = &mut arena.slot_mut(order[0] as usize).store;
        match run {
            Some(run) if zero.is_empty() && !run.is_empty() => {
                *zero = LocalStore::view(&buf, run.start, run.len());
            }
            _ => zero.extend_values(buf[..head].iter().chain(&buf[at..]).copied()),
        }
    }

    /// Total items across all alive peers.
    pub fn total_items(&self) -> u64 {
        self.nodes.values().map(|n| n.store.len() as u64).sum()
    }

    /// Every stored value across all peers, ascending by `total_cmp` (the
    /// ground truth live-data scoring reads), as a view of the stores: no
    /// copy under range placement with every item on its owner, one sorted
    /// copy otherwise ([`LiveValues`] says which and why).
    pub fn live_values(&self) -> LiveValues<'_> {
        let mut nodes = self.nodes.iter();
        let Some((&first, head)) = nodes.next() else {
            return LiveValues::from_runs(std::iter::empty());
        };
        let head = head.store.values();
        let split = head.partition_point(|&x| self.placement.place(x) <= first);
        LiveValues::from_runs(
            std::iter::once(&head[..split])
                .chain(nodes.map(|(_, node)| node.store.values()))
                .chain(std::iter::once(&head[split..])),
        )
    }

    /// The single timeout cost path: one timeout-marker message (header +
    /// 8-byte payload) for the waiting sender, whatever caused the silence.
    /// Dead-peer purges and every injected fault route through here, so a
    /// retry that follows a purge pays only its own traffic — the silence
    /// itself is never charged twice. (Waiting *time* is the caller's retry
    /// policy's to charge, not the network's.)
    pub(crate) fn observe_timeout(&mut self, kind: MessageKind) {
        self.stats.record(kind, 8);
    }

    /// Charges the one timeout the caller observes when the fault plan's
    /// `decision` broke its exchange — the one map from fault decisions to
    /// timeout kinds. A clean exchange charges nothing.
    fn observe_fault(&mut self, decision: FaultDecision) {
        match decision {
            FaultDecision::Clean => {}
            FaultDecision::RequestLost => self.observe_timeout(MessageKind::FaultDrop),
            FaultDecision::ReplyLost => self.observe_timeout(MessageKind::FaultReplyDrop),
            FaultDecision::Sick => self.observe_timeout(MessageKind::FaultSick),
            FaultDecision::Crash => self.observe_timeout(MessageKind::FaultCrash),
            FaultDecision::Slow => self.observe_timeout(MessageKind::FaultSlow),
            FaultDecision::Partitioned => self.observe_timeout(MessageKind::FaultPartition),
        }
    }

    /// Purges the permanently-gone `to` from `from`'s routing state, as a
    /// real timeout handler would.
    fn purge(&mut self, from: RingId, to: RingId) {
        if let Some(n) = self.nodes.get_mut(&from) {
            n.forget(to);
        }
    }

    /// One hop-level request/reply exchange `from → to`, subject to the
    /// fault plan. On success charges 2 hop messages plus delivery delay;
    /// on failure charges exactly one timeout through the unified path.
    ///
    /// Inside a batch window (`batch`), a fault-free exchange over an edge
    /// the window already paid for is free. With a fault plan installed the
    /// dedup is off: fault decisions are stateful per-link draws, and
    /// skipping one would diverge from per-op behaviour.
    ///
    /// The callee's liveness and its index position come from one directory
    /// search; [`Contact::Ok`] hands the position back so the lookup never
    /// searches for the same peer twice.
    fn contact(&mut self, from: RingId, to: RingId, batch: Option<&mut BatchRouter>) -> Contact {
        let Some(pos) = self.nodes.position_of(to) else {
            self.observe_timeout(MessageKind::LookupTimeout);
            self.purge(from, to);
            return Contact::Gone;
        };
        let decision = match self.faults.as_mut() {
            None if batch.is_some_and(|b| b.seen_or_insert(from, to)) => return Contact::Ok(pos),
            None => FaultDecision::Clean,
            Some(p) => p.decide_rpc(from, to),
        };
        match decision {
            FaultDecision::Clean => {
                self.stats.record(MessageKind::LookupHop, 8);
                self.stats.record(MessageKind::LookupHop, 8);
                self.charge_rpc_delay(from, to);
                Contact::Ok(pos)
            }
            FaultDecision::Crash => {
                let _ = self.fail(to);
                self.observe_fault(decision);
                self.purge(from, to);
                Contact::Gone
            }
            _ => {
                if decision.processed_remotely() {
                    // The hop's request was processed; its reply was lost or late.
                    self.stats.record(MessageKind::LookupHop, 8);
                }
                self.observe_fault(decision);
                Contact::Faulted
            }
        }
    }

    /// Iterative Chord lookup of ring point `target` starting at peer
    /// `from`, using only per-node routing state. Charges 2 messages per
    /// hop and 1 per timeout on a dead peer (dead entries are purged from
    /// the discovering node, as a real timeout handler would). With a fault
    /// plan installed, each exchange may additionally be lost, delayed, or
    /// hit a sick/crashing peer — transient faults on the final ownership
    /// step surface as [`LookupError::MessageLost`] rather than ever
    /// returning a wrong owner.
    pub fn lookup(&mut self, from: RingId, target: RingId) -> Result<LookupResult, LookupError> {
        self.lookup_impl(from, target, None).map(|(res, _)| res)
    }

    /// [`Network::lookup`] inside a same-origin arrival window: routing
    /// decisions, owners, and hop counts are **identical** to the per-op
    /// path (both run `Network::lookup_impl` with the same state
    /// mutations), but hop exchanges already paid in `batch`'s current
    /// window are not charged again — the batch shares route prefixes.
    ///
    /// With a fault plan installed the dedup is disabled (fault decisions
    /// are stateful per-link draws; skipping one would diverge from per-op
    /// behaviour), so the call degrades to plain [`Network::lookup`].
    pub fn lookup_batched(
        &mut self,
        from: RingId,
        target: RingId,
        batch: &mut BatchRouter,
    ) -> Result<LookupResult, LookupError> {
        self.lookup_impl(from, target, Some(batch)).map(|(res, _)| res)
    }

    /// The routing loop behind every lookup. Returns the result plus the
    /// owner's index position, which stays valid until the next membership
    /// change — callers that go on to read or write the owner (probe,
    /// insert, delete, tuple sample) address it there instead of searching
    /// for it again.
    ///
    /// Per hop the loop does one pass over the current node's inline routing
    /// state ([`Node::best_candidate`]) and one directory search of the
    /// index (inside [`Network::contact`], for the callee). The next node is
    /// then read by position. Only a failed exchange — which may have crashed
    /// a peer and so shifted the columns — re-validates the current position,
    /// in O(1) unless it really moved. The heap is never touched (guarded
    /// by `crates/ring/tests/alloc_free.rs`).
    fn lookup_impl(
        &mut self,
        from: RingId,
        target: RingId,
        mut batch: Option<&mut BatchRouter>,
    ) -> Result<(LookupResult, usize), LookupError> {
        if self.nodes.is_empty() {
            return Err(LookupError::EmptyNetwork);
        }
        let Some(mut cur_pos) = self.nodes.position_of(from) else {
            return Err(LookupError::InitiatorDead);
        };
        if let Some(p) = self.faults.as_mut() {
            p.tick();
        }
        let mut cur = from;
        let mut hops: u32 = 0;
        loop {
            if hops > MAX_HOPS {
                return Err(LookupError::HopLimitExceeded);
            }
            let node = self.nodes.node_at(cur_pos);
            let mut cand = match node.first_step(target) {
                // A node knows its own arc.
                Step::Owned => {
                    self.stats.record_lookup(hops);
                    return Ok((LookupResult { owner: cur, hops }, cur_pos));
                }
                // A node with no successors at all cannot resolve anything
                // it does not own itself (a storm-isolated node must *not*
                // claim foreign arcs — the initiator should retry elsewhere).
                Step::Isolated => return Err(LookupError::NoRoute),
                // The target is in (cur, successor]: the successor owns it.
                // (Iterate a copy: contacting a dead successor purges it
                // from the live list.)
                Step::Successor(_) => {
                    let succs = node.successors;
                    for s in succs {
                        match self.contact(cur, s, batch.as_deref_mut()) {
                            Contact::Ok(pos) => {
                                hops += 1;
                                self.stats.record_lookup(hops);
                                return Ok((LookupResult { owner: s, hops }, pos));
                            }
                            // Dead successor: ownership passed on; try the next.
                            Contact::Gone => {}
                            // Transient fault on the *owner* exchange: the
                            // true owner is alive but unreachable right now.
                            // Falling through to the next successor would
                            // return a wrong owner — fail the lookup instead.
                            Contact::Faulted => return Err(LookupError::MessageLost),
                        }
                    }
                    return Err(LookupError::NoRoute);
                }
                Step::Forward(cand) => cand,
            };
            // Advance via the best candidate that answers (any candidate
            // preserves correctness; faulted ones just cost a timeout).
            // Candidates come lazily, best first: the next one is only
            // looked for when the previous one did not answer. A failed
            // exchange purges nothing but the candidate it tried, so
            // rescanning the live state below that candidate's progress
            // continues the same best-first order.
            let mut next = None;
            while let Some(c) = cand {
                if let Contact::Ok(pos) = self.contact(cur, c, batch.as_deref_mut()) {
                    next = Some((c, pos));
                    break;
                }
                cur_pos = self.nodes.position_hinted(cur, cur_pos).expect("cur is alive");
                cand = self.nodes.node_at(cur_pos).best_candidate(cur.distance_to(c) - 1);
            }
            if next.is_none() {
                // All preceding candidates unresponsive: step through the
                // successor list (the target then lies beyond the first
                // responsive one, so the next iteration resolves or
                // advances from there).
                let succs = self.nodes.node_at(cur_pos).successors;
                for s in succs {
                    if let Contact::Ok(pos) = self.contact(cur, s, batch.as_deref_mut()) {
                        next = Some((s, pos));
                        break;
                    }
                }
            }
            let Some((c, pos)) = next else {
                return Err(LookupError::NoRoute);
            };
            hops += 1;
            cur = c;
            cur_pos = pos;
        }
    }

    /// Routes to the owner of `ring_point` and probes it: the peer replies
    /// with `(arc, count, equi-depth summary)`. This is the paper's Phase-1
    /// RPC.
    pub fn probe(
        &mut self,
        initiator: RingId,
        ring_point: RingId,
    ) -> Result<ProbeReply, LookupError> {
        let (res, owner_pos) = self.lookup_impl(initiator, ring_point, None)?;
        // The probe RPC itself (initiator → owner) is subject to the fault
        // plan, except when the initiator owns the point (local read).
        if res.owner != initiator {
            self.settle_app_rpc(initiator, res.owner, |net| {
                // The peer processed the probe; the reply never arrived.
                net.stats.record(MessageKind::Probe, 8);
            })?;
        }
        let reply = self.probe_reply_at(owner_pos, res.hops);
        self.stats.record(MessageKind::Probe, 8);
        self.stats.record(MessageKind::ProbeReply, 40 + reply.summary.wire_size());
        self.charge_rpc_delay(initiator, res.owner);
        Ok(reply)
    }

    /// Probes every point of `points` from `initiator` as one *wave*: the
    /// k probes of a Phase-1 round are independent RPCs, so their routes
    /// advance together, one hop per round. Each round first reads the
    /// routing lines of every unfinished route's current record
    /// (`Node::read_ahead`), so the round's record misses are in flight
    /// together instead of each waiting alone, and then moves every route
    /// one hop by the first choice a lookup makes (`Node::first_step`).
    /// A last pass reads each owner's store bounds before the replies are
    /// built.
    ///
    /// When every route meets only live peers, the wave bills exactly what
    /// [`Network::probe`] bills for each point (two [`MessageKind::LookupHop`]
    /// per hop, the completed lookup, a [`MessageKind::Probe`] and its
    /// [`MessageKind::ProbeReply`]) and returns the replies in point order,
    /// each equal to the one `probe` returns. Otherwise it returns `None`
    /// and has changed nothing — no charge, no purge: when a fault plan is
    /// installed (even one that injects nothing), when `initiator` is not
    /// alive, and when a route contacts a dead peer, stands on a peer with
    /// no successor or no candidate, or passes [`MAX_HOPS`]. The caller
    /// then probes point by point, which purges and retries as `probe`
    /// does. `crates/core/tests/probe_round.rs` is the contract.
    pub fn probe_wave(&mut self, initiator: RingId, points: &[RingId]) -> Option<Vec<ProbeReply>> {
        if self.faults.is_some() {
            return None;
        }
        let start = self.nodes.position_of(initiator)?;
        let mut routes: Vec<WaveRoute> =
            points.iter().map(|&target| WaveRoute { target, pos: start, hops: 0 }).collect();
        // The routes still short of their owner, in point order.
        let mut open: Vec<usize> = (0..routes.len()).collect();
        while !open.is_empty() {
            for &i in &open {
                self.nodes.node_at(routes[i].pos).read_ahead();
            }
            let mut kept = 0;
            for o in 0..open.len() {
                let route = &mut routes[open[o]];
                if route.hops > MAX_HOPS {
                    return None;
                }
                let (next, arrived) = match self.nodes.node_at(route.pos).first_step(route.target) {
                    Step::Owned => continue,
                    Step::Successor(s) => (s, true),
                    Step::Forward(Some(c)) => (c, false),
                    Step::Isolated | Step::Forward(None) => return None,
                };
                // A dead peer would cost a timeout and a purge: decline.
                route.pos = self.nodes.position_of(next)?;
                route.hops += 1;
                if !arrived {
                    open[kept] = open[o];
                    kept += 1;
                }
            }
            open.truncate(kept);
        }
        // Read each owner's store bounds ahead of the summaries, likewise.
        for route in &routes {
            let values = self.nodes.node_at(route.pos).store.values();
            std::hint::black_box((values.first().copied(), values.last().copied()));
        }
        // Every route met only live peers: bill each point as `probe` does.
        let mut replies = Vec::with_capacity(routes.len());
        for route in &routes {
            for _ in 0..2 * route.hops {
                self.stats.record(MessageKind::LookupHop, 8);
            }
            self.stats.record_lookup(route.hops);
            let reply = self.probe_reply_at(route.pos, route.hops);
            self.stats.record(MessageKind::Probe, 8);
            self.stats.record(MessageKind::ProbeReply, 40 + reply.summary.wire_size());
            replies.push(reply);
        }
        Some(replies)
    }

    /// Assembles the probe statistic from the local state of the peer at
    /// index position `pos` (no message charges — callers charge the
    /// transport they actually used).
    fn probe_reply_at(&self, pos: usize, hops: u32) -> ProbeReply {
        let node = self.nodes.node_at(pos);
        ProbeReply {
            peer: node.id,
            predecessor: node.predecessor,
            count: node.store.len() as u64,
            sum: node.store.sum(),
            sum_sq: node.store.sum_sq(),
            summary: node.store.summary(self.summary_buckets),
            hops,
        }
    }

    /// Harvests a probe reply for `point` by piggybacking on a foreground
    /// exchange that already reached `owner`: if `owner` is alive and
    /// believes it owns `point`, the probe statistic rides back on the
    /// in-flight reply, charged as one [`MessageKind::ProbePiggyback`]
    /// message carrying only the incremental payload — no dedicated request
    /// and no routing, which the foreground lookup already paid for.
    ///
    /// Returns `None` when `owner` is gone or does not own `point` (the
    /// caller falls back to a dedicated [`Network::probe`]). The reply is
    /// field-for-field what a dedicated probe of `point` would have
    /// returned, with `hops = 0` marginal routing cost.
    pub fn piggyback_probe(&mut self, owner: RingId, point: RingId) -> Option<ProbeReply> {
        let pos = self.nodes.position_of(owner).filter(|&p| self.nodes.node_at(p).owns(point))?;
        let reply = self.probe_reply_at(pos, 0);
        self.stats.record(MessageKind::ProbePiggyback, 40 + reply.summary.wire_size());
        Some(reply)
    }

    /// Rolls the fault plan for one application-level RPC (no-op `Clean`
    /// without a plan).
    fn decide_rpc(&mut self, from: RingId, to: RingId) -> FaultDecision {
        match self.faults.as_mut() {
            None => FaultDecision::Clean,
            Some(p) => p.decide_rpc(from, to),
        }
    }

    /// Settles the application-level RPC `from → to` that follows a
    /// successful lookup (probe, insert handoff): rolls the plan once and
    /// routes **every** failure through [`Network::observe_fault`], the map
    /// the hop exchange uses too, so all axes — transient faults, crashes,
    /// capacity deadlines, partitions — share one timeout accounting that
    /// cannot drift apart.
    /// `on_processed` runs exactly when the remote peer processed the
    /// request but the caller still saw silence (lost or late reply) — the
    /// at-most-once side effects live there.
    fn settle_app_rpc(
        &mut self,
        from: RingId,
        to: RingId,
        on_processed: impl FnOnce(&mut Self),
    ) -> Result<(), LookupError> {
        let decision = self.decide_rpc(from, to);
        if decision == FaultDecision::Clean {
            return Ok(());
        }
        if decision.processed_remotely() {
            on_processed(self);
        }
        if decision == FaultDecision::Crash {
            let _ = self.fail(to);
        }
        self.observe_fault(decision);
        Err(LookupError::MessageLost)
    }

    /// Charges delivery delay for one request + reply pair, if a plan with
    /// a delay distribution is installed. Delays route through
    /// [`FaultPlan::deliver`] so the capacity axis can scale and
    /// FIFO-clamp them per link.
    fn charge_rpc_delay(&mut self, from: RingId, to: RingId) {
        if let Some(p) = self.faults.as_mut() {
            let d = p.deliver(from, to) + p.deliver(to, from);
            self.stats.record_delay(d);
        }
    }

    /// Inserts one item through the overlay: routes to the owner of its
    /// placement position and stores it there (one request + ack on top of
    /// the routing hops). This is the write path dynamic workloads use.
    pub fn insert(&mut self, initiator: RingId, x: f64) -> Result<u32, LookupError> {
        let (res, owner_pos) = self.lookup_impl(initiator, self.placement.place(x), None)?;
        // The handoff RPC (initiator → owner) is subject to the fault plan
        // unless the write is local.
        if res.owner != initiator {
            self.settle_app_rpc(initiator, res.owner, |net| {
                // At-most-once confusion, faithfully modelled: the item
                // *was* stored but the ack vanished (or came too late), so
                // the writer sees a failure (a retry would duplicate — its
                // problem).
                net.nodes.node_at_mut(owner_pos).store.insert(x);
                net.stats.record(MessageKind::Handoff, 8);
            })?;
        }
        self.nodes.node_at_mut(owner_pos).store.insert(x);
        self.stats.record(MessageKind::Handoff, 8);
        self.stats.record(MessageKind::Handoff, 0);
        self.charge_rpc_delay(initiator, res.owner);
        Ok(res.hops)
    }

    /// Deletes one occurrence of `x` through the overlay; returns whether an
    /// item was found (plus the routing hops spent).
    pub fn delete(&mut self, initiator: RingId, x: f64) -> Result<(bool, u32), LookupError> {
        let (res, owner_pos) = self.lookup_impl(initiator, self.placement.place(x), None)?;
        let removed = self.nodes.node_at_mut(owner_pos).store.remove(x);
        self.stats.record(MessageKind::Handoff, 8);
        self.stats.record(MessageKind::Handoff, 0);
        Ok((removed, res.hops))
    }

    /// Routes to the owner of `ring_point` and asks it for one uniform local
    /// tuple (Phase-2 remote sampling). `None` tuple if the peer is empty.
    pub fn sample_tuple<R: Rng + ?Sized>(
        &mut self,
        initiator: RingId,
        ring_point: RingId,
        rng: &mut R,
    ) -> Result<(Option<f64>, u32), LookupError> {
        let (res, owner_pos) = self.lookup_impl(initiator, ring_point, None)?;
        let node = self.nodes.node_at(owner_pos);
        let tuple = node.store.sample_uniform(rng);
        self.stats.record(MessageKind::TupleSample, 8);
        self.stats.record(MessageKind::TupleSample, 16);
        Ok((tuple, res.hops))
    }

    /// Checks **local** structural invariants — properties of per-node state
    /// that must hold at *every* instant, even mid-churn with arbitrarily
    /// stale routing state (unlike [`Network::check_invariants`], which
    /// compares against ground truth and is only meaningful after
    /// stabilization quiesces). The DST oracle (`dde-sim`'s `dst` module)
    /// evaluates this after every fuzzed event:
    ///
    /// * successor lists never contain the node itself (for `P > 1`), never
    ///   contain duplicates, and never exceed [`SUCCESSOR_LIST_LEN`];
    /// * the believed predecessor is never the node itself (for `P > 1`);
    /// * stored values are finite;
    /// * replica lease ages never exceed
    ///   [`crate::replication::REPLICA_LEASE_ROUNDS`], no node replicates
    ///   itself, no replicas exist with replication off, and no primary has
    ///   more than `r · (lease + 2)` holders (at most `r` fresh pushes per
    ///   round, each entry living at most `lease + 1` rounds).
    pub fn check_local_invariants(&self) -> Vec<String> {
        use crate::replication::REPLICA_LEASE_ROUNDS;
        // Arena/column consistency first: the id column, the record slab,
        // and every inline list must be structurally sound before any
        // protocol-level property is worth checking.
        let mut violations = self.nodes.check_columns();
        let p = self.nodes.len();
        let mut holders: BTreeMap<RingId, usize> = BTreeMap::new();
        for (&id, node) in &self.nodes {
            if node.successors.len() > SUCCESSOR_LIST_LEN {
                violations.push(format!(
                    "{id}: successor list over capacity ({} > {SUCCESSOR_LIST_LEN})",
                    node.successors.len()
                ));
            }
            if p > 1 && node.successors.contains(&id) {
                violations.push(format!("{id}: successor list contains self"));
            }
            if p > 1 && node.predecessor == Some(id) {
                violations.push(format!("{id}: predecessor is self"));
            }
            let has_dup =
                node.successors.iter().enumerate().any(|(i, s)| node.successors[..i].contains(s));
            if has_dup {
                violations.push(format!("{id}: successor list has duplicates"));
            }
            for &x in node.store.values() {
                if !x.is_finite() {
                    violations.push(format!("{id}: non-finite stored value {x}"));
                }
            }
            for (&primary, entry) in node.replicas.iter() {
                if primary == id {
                    violations.push(format!("{id}: holds a replica of itself"));
                }
                if entry.1 > REPLICA_LEASE_ROUNDS {
                    violations.push(format!(
                        "{id}: replica lease for {primary} aged {} > {REPLICA_LEASE_ROUNDS}",
                        entry.1
                    ));
                }
                if self.replication == 0 {
                    violations
                        .push(format!("{id}: replica of {primary} present with replication off"));
                }
                *holders.entry(primary).or_insert(0) += 1;
            }
        }
        if self.replication > 0 {
            let bound = self.replication * (REPLICA_LEASE_ROUNDS as usize + 2);
            for (primary, n) in holders {
                if n > bound {
                    violations.push(format!(
                        "{primary}: {n} replica holders exceed bound {bound} (r = {})",
                        self.replication
                    ));
                }
            }
        }
        violations
    }

    /// Checks structural ring invariants against ground truth: every node's
    /// predecessor/successor match the ring order and every item sits on the
    /// peer owning its ring position. Returns a list of violations (empty =
    /// consistent). Test/diagnostic helper.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let ids: Vec<RingId> = self.nodes.keys().copied().collect();
        let p = ids.len();
        for (i, &id) in ids.iter().enumerate() {
            let node = &self.nodes[&id];
            let true_succ = ids[(i + 1) % p];
            let true_pred = ids[(i + p - 1) % p];
            if p > 1 {
                if node.successor() != Some(true_succ) {
                    violations.push(format!(
                        "{id}: successor {:?} != true {true_succ}",
                        node.successor()
                    ));
                }
                if node.predecessor != Some(true_pred) {
                    violations.push(format!(
                        "{id}: predecessor {:?} != true {true_pred}",
                        node.predecessor
                    ));
                }
            }
            for &x in node.store.values() {
                let pos = self.placement.place(x);
                if self.true_owner(pos) != id {
                    violations.push(format!("{id}: item {x} belongs to {}", self.true_owner(pos)));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The reference routing loop: re-find the current node by id every
    /// hop, materialize the candidates in the open arc sorted by decreasing
    /// progress, and try them in that order. The lazy, position-carrying
    /// loop must match it exactly.
    fn reference_lookup(
        net: &mut Network,
        from: RingId,
        target: RingId,
    ) -> Result<LookupResult, LookupError> {
        if net.nodes.is_empty() {
            return Err(LookupError::EmptyNetwork);
        }
        if !net.is_alive(from) {
            return Err(LookupError::InitiatorDead);
        }
        if let Some(p) = net.faults.as_mut() {
            p.tick();
        }
        let mut cur = from;
        let mut hops = 0u32;
        let answers =
            |net: &mut Network, cur, c| matches!(net.contact(cur, c, None), Contact::Ok(_));
        loop {
            if hops > MAX_HOPS {
                return Err(LookupError::HopLimitExceeded);
            }
            let node = net.nodes.get(&cur).expect("cur is alive");
            if node.owns(target) {
                net.stats.record_lookup(hops);
                return Ok(LookupResult { owner: cur, hops });
            }
            if node.successors.is_empty() {
                return Err(LookupError::NoRoute);
            }
            let succs = node.successors.to_vec();
            if target.in_arc(cur, succs[0]) {
                for s in succs {
                    match net.contact(cur, s, None) {
                        Contact::Ok(_) => {
                            net.stats.record_lookup(hops + 1);
                            return Ok(LookupResult { owner: s, hops: hops + 1 });
                        }
                        Contact::Gone => {}
                        Contact::Faulted => return Err(LookupError::MessageLost),
                    }
                }
                return Err(LookupError::NoRoute);
            }
            let mut cands: Vec<RingId> = node
                .fingers
                .present()
                .chain(node.successors.iter().copied())
                .filter(|&c| c != cur && c.in_open_arc(cur, target))
                .collect();
            cands.sort_by_key(|&c| std::cmp::Reverse(cur.distance_to(c)));
            cands.dedup();
            let mut next = cands.into_iter().find(|&c| answers(net, cur, c));
            if next.is_none() {
                let succs = net.nodes.get(&cur).expect("alive").successors.to_vec();
                next = succs.into_iter().find(|&s| answers(net, cur, s));
            }
            let Some(c) = next else { return Err(LookupError::NoRoute) };
            hops += 1;
            cur = c;
        }
    }

    /// Every piece of state a lookup can touch: membership, routing state,
    /// message counters, and the fault plan's draw position.
    fn assert_same_state(a: &Network, b: &Network) {
        assert_eq!(a.ids().collect::<Vec<_>>(), b.ids().collect::<Vec<_>>(), "membership");
        for ((id, x), (_, y)) in a.nodes.iter().zip(b.nodes.iter()) {
            assert_eq!(x.predecessor, y.predecessor, "predecessor of {id}");
            assert_eq!(x.successors, y.successors, "successors of {id}");
            assert_eq!(x.fingers, y.fingers, "fingers of {id}");
        }
        assert_eq!(a.stats, b.stats, "message counters");
        assert_eq!(a.faults, b.faults, "fault plan state");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one-pass hop ≡ the sorted-candidate reference: identical
        /// results, purges, crashes, charges and fault draws, on rings made
        /// stale by silent crashes (so candidates time out and are purged
        /// mid-hop) under a fault plan that itself crashes callees (so the
        /// index shifts under the current node's position). Every returned
        /// owner position must address the owner.
        #[test]
        fn one_pass_hop_matches_sorted_reference(
            seed: u64,
            peers in 8usize..200,
            dead_pct in 0u32..45,
            crash in 0.0f64..0.08,
            loss in 0.0f64..0.2,
            stabilize in 0usize..3,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let ids: Vec<RingId> = (0..peers).map(|_| RingId(rng.gen())).collect();
            let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
            let victims: Vec<RingId> =
                net.ids().filter(|_| rng.gen_range(0..100u32) < dead_pct).collect();
            for v in victims.into_iter().take(net.len() - 1) {
                net.fail(v).expect("alive");
            }
            for _ in 0..stabilize {
                net.stabilize_round();
            }
            net.set_fault_plan(
                FaultPlan::new(seed ^ 0x5EED).with_crash(crash).with_loss(loss).with_sick(0.05, 8),
            );
            let mut reference = net.fork();
            for _ in 0..40 {
                let Some(from) = net.random_peer(&mut rng) else { break };
                let target = RingId(rng.gen());
                let expected = reference_lookup(&mut reference, from, target);
                let got = net.lookup_impl(from, target, None);
                prop_assert_eq!(got.map(|(res, _)| res), expected);
                if let Ok((res, pos)) = got {
                    prop_assert_eq!(net.nodes.key_at(pos), Some(res.owner));
                }
            }
            assert_same_state(&net, &reference);
        }
    }

    /// A positive NaN sorts last by `total_cmp` but places at ring 0, so it
    /// would break the sweep's ring order; and a stored NaN breaks
    /// `count_le`. The load refuses it by name instead.
    #[test]
    #[should_panic(expected = "bulk_load items contain NaN")]
    fn bulk_load_refuses_nan() {
        let mut net =
            Network::build_bulk(vec![RingId(1 << 62), RingId(1 << 63)], Placement::range(0.0, 1.0));
        net.bulk_load(vec![0.9, f64::NAN, 0.1]);
    }
}
