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
use crate::messages::{MessageKind, MessageStats};
use crate::node::{Node, SUCCESSOR_LIST_LEN};
use crate::placement::Placement;
use dde_stats::equidepth::EquiDepthSummary;
use rand::Rng;
use std::collections::BTreeMap;

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
    /// Fingers refreshed per node per stabilization round.
    pub(crate) fingers_per_round: usize,
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
            fingers_per_round: 4,
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
        self.maint_counter = self.maint_counter.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.maint_counter;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
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
    /// (the steady state Chord stabilization converges to). Construction is
    /// free of message charges. Delegates to [`Network::build_bulk`].
    ///
    /// # Panics
    /// Panics if `ids` is empty.
    pub fn build(ids: Vec<RingId>, placement: Placement) -> Self {
        Self::build_bulk(ids, placement)
    }

    /// O(P) bulk construction for pre-built networks: sorts the id column
    /// once, appends node records in order (no per-insert binary search or
    /// memmove), and wires successors/fingers directly with the monotone
    /// per-level sweep ([`crate::arena::RingArena::wire_perfect`]) instead
    /// of per-join stabilization. Equivalence with the incremental join
    /// path is property-tested in `crates/sim/tests/bulk_equivalence.rs`.
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
    pub fn bulk_load(&mut self, items: &[f64]) {
        assert!(!self.nodes.is_empty(), "bulk_load on empty network");
        // Two passes: count each owner's share, then fill exactly-sized
        // buckets — no reallocation during the distribution.
        let mut owners: Vec<usize> = Vec::with_capacity(items.len());
        let mut counts: Vec<usize> = vec![0; self.nodes.len()];
        for &x in items {
            let pos = self.nodes.owner_position(self.placement.place(x));
            owners.push(pos);
            counts[pos] += 1;
        }
        let mut per_owner: Vec<Vec<f64>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (&x, &pos) in items.iter().zip(&owners) {
            per_owner[pos].push(x);
        }
        for (pos, vals) in per_owner.into_iter().enumerate() {
            if !vals.is_empty() {
                self.nodes.node_at_mut(pos).store.extend_values(vals);
            }
        }
    }

    /// Total items across all alive peers.
    pub fn total_items(&self) -> u64 {
        self.nodes.values().map(|n| n.store.len() as u64).sum()
    }

    /// Every stored value across all peers, sorted by `total_cmp` (ground
    /// truth for metrics), collected afresh on every call.
    pub fn global_values(&self) -> Vec<f64> {
        let mut all: Vec<f64> =
            self.nodes.values().flat_map(|n| n.store.values().iter().copied()).collect();
        all.sort_by(f64::total_cmp);
        all
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

    /// Timeout on a permanently-gone peer: charge it once and purge the
    /// stale routing entry from `from`, as a real timeout handler would.
    fn timeout_and_purge(&mut self, from: RingId, to: RingId, kind: MessageKind) {
        self.observe_timeout(kind);
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
    /// The callee's liveness and its index position come from one binary
    /// search; [`Contact::Ok`] hands the position back so the lookup never
    /// searches for the same peer twice.
    fn contact(&mut self, from: RingId, to: RingId, batch: Option<&mut BatchRouter>) -> Contact {
        let Some(pos) = self.nodes.position_of(to) else {
            self.timeout_and_purge(from, to, MessageKind::LookupTimeout);
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
                if let Some(p) = self.faults.as_mut() {
                    let d = p.deliver(from, to) + p.deliver(to, from);
                    self.stats.record_delay(d);
                }
                Contact::Ok(pos)
            }
            FaultDecision::Sick => {
                self.observe_timeout(MessageKind::FaultSick);
                Contact::Faulted
            }
            FaultDecision::RequestLost => {
                self.observe_timeout(MessageKind::FaultDrop);
                Contact::Faulted
            }
            FaultDecision::ReplyLost => {
                // The request arrived and was processed; its reply vanished.
                self.stats.record(MessageKind::LookupHop, 8);
                self.observe_timeout(MessageKind::FaultReplyDrop);
                Contact::Faulted
            }
            FaultDecision::Slow => {
                // Processed, but the overloaded peer's reply came too late.
                self.stats.record(MessageKind::LookupHop, 8);
                self.observe_timeout(MessageKind::FaultSlow);
                Contact::Faulted
            }
            FaultDecision::Partitioned => {
                self.observe_timeout(MessageKind::FaultPartition);
                Contact::Faulted
            }
            FaultDecision::Crash => {
                let _ = self.fail(to);
                self.timeout_and_purge(from, to, MessageKind::FaultCrash);
                Contact::Gone
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
    /// state ([`Node::best_candidate`]) and one binary search of the index
    /// (inside [`Network::contact`], for the callee). The next node is then
    /// read by position. Only a failed exchange — which may have crashed a
    /// peer and so shifted the columns — re-validates the current position,
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
            // A node knows its own arc.
            if node.owns(target) {
                self.stats.record_lookup(hops);
                return Ok((LookupResult { owner: cur, hops }, cur_pos));
            }
            // A node with no successors at all cannot resolve anything it
            // does not own itself (a storm-isolated node must *not* claim
            // foreign arcs — the initiator should retry elsewhere).
            if node.successors.is_empty() {
                return Err(LookupError::NoRoute);
            }
            // Is the target in (cur, successor]? Then the successor owns it.
            // (Iterate a stack snapshot: contacting a dead successor purges
            // it from the live list.)
            let (succs, succ_len) = node.successors_snapshot();
            if target.in_arc(cur, succs[0]) {
                for &s in &succs[..succ_len] {
                    match self.contact(cur, s, batch.as_deref_mut()) {
                        Contact::Ok(pos) => {
                            hops += 1;
                            self.stats.record_lookup(hops);
                            return Ok((LookupResult { owner: s, hops }, pos));
                        }
                        // Dead successor: ownership passed on; try the next.
                        Contact::Gone => {}
                        // Transient fault on the *owner* exchange: the true
                        // owner is alive but unreachable right now. Falling
                        // through to the next successor would return a
                        // wrong owner — fail the lookup instead.
                        Contact::Faulted => return Err(LookupError::MessageLost),
                    }
                }
                return Err(LookupError::NoRoute);
            }
            // Advance via the best candidate that answers (any candidate
            // preserves correctness; faulted ones just cost a timeout).
            // Candidates come lazily, best first: the next one is only
            // looked for when the previous one did not answer. A failed
            // exchange purges nothing but the candidate it tried, so
            // rescanning the live state below that candidate's progress
            // continues the same best-first order.
            let mut ceiling = node.route_ceiling(target);
            let mut next = None;
            while let Some(c) = self.nodes.node_at(cur_pos).best_candidate(ceiling) {
                if let Contact::Ok(pos) = self.contact(cur, c, batch.as_deref_mut()) {
                    next = Some((c, pos));
                    break;
                }
                ceiling = cur.distance_to(c) - 1;
                cur_pos = self.nodes.position_hinted(cur, cur_pos).expect("cur is alive");
            }
            if next.is_none() {
                // All preceding candidates unresponsive: step through the
                // successor list (the target then lies beyond the first
                // responsive one, so the next iteration resolves or
                // advances from there).
                let (succs, succ_len) = self.nodes.node_at(cur_pos).successors_snapshot();
                for &s in &succs[..succ_len] {
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
    /// routes **every** failure through the unified [`Network::observe_timeout`]
    /// path, so all axes — transient faults, crashes, capacity deadlines,
    /// partitions — share one timeout accounting that cannot drift apart.
    /// `on_processed` runs exactly when the remote peer processed the
    /// request but the caller still saw silence (lost or late reply) — the
    /// at-most-once side effects live there.
    fn settle_app_rpc(
        &mut self,
        from: RingId,
        to: RingId,
        on_processed: impl FnOnce(&mut Self),
    ) -> Result<(), LookupError> {
        match self.decide_rpc(from, to) {
            FaultDecision::Clean => Ok(()),
            FaultDecision::Partitioned => {
                self.observe_timeout(MessageKind::FaultPartition);
                Err(LookupError::MessageLost)
            }
            FaultDecision::Sick => {
                self.observe_timeout(MessageKind::FaultSick);
                Err(LookupError::MessageLost)
            }
            FaultDecision::RequestLost => {
                self.observe_timeout(MessageKind::FaultDrop);
                Err(LookupError::MessageLost)
            }
            FaultDecision::Crash => {
                let _ = self.fail(to);
                self.observe_timeout(MessageKind::FaultCrash);
                Err(LookupError::MessageLost)
            }
            FaultDecision::ReplyLost => {
                on_processed(self);
                self.observe_timeout(MessageKind::FaultReplyDrop);
                Err(LookupError::MessageLost)
            }
            FaultDecision::Slow => {
                on_processed(self);
                self.observe_timeout(MessageKind::FaultSlow);
                Err(LookupError::MessageLost)
            }
        }
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
            for (&primary, entry) in &node.replicas {
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
            let mut net = Network::build(ids, Placement::range(0.0, 1000.0));
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
}
