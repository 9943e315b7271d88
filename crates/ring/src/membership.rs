//! Membership changes and ring maintenance: join, graceful leave, crash
//! failure, and Chord-style stabilization.
//!
//! All routines operate through per-node state and charge messages; none
//! consult ground truth except where a real system would have out-of-band
//! knowledge (a joining node knowing one bootstrap peer).

use crate::arena::SuccessorList;
use crate::id::{RingId, RING_BITS};
use crate::messages::MessageKind;
use crate::network::{LookupError, Network};
use crate::node::{Node, SUCCESSOR_LIST_LEN};
use std::collections::VecDeque;

/// Fingers refreshed per node per stabilization round.
const FINGERS_PER_ROUND: u32 = 4;

/// Errors from membership operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipError {
    /// The id is already taken by an alive peer.
    IdTaken,
    /// The referenced peer does not exist (or already left).
    UnknownPeer,
    /// The underlying lookup failed.
    Lookup(LookupError),
}

impl std::fmt::Display for MembershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MembershipError::IdTaken => write!(f, "ring id already taken"),
            MembershipError::UnknownPeer => write!(f, "peer unknown or departed"),
            MembershipError::Lookup(e) => write!(f, "lookup failed: {e}"),
        }
    }
}

impl std::error::Error for MembershipError {}

impl From<LookupError> for MembershipError {
    fn from(e: LookupError) -> Self {
        MembershipError::Lookup(e)
    }
}

impl Network {
    /// Joins a new peer with id `new_id`, bootstrapping through `bootstrap`.
    ///
    /// The new peer looks up its successor, adopts routing state from it,
    /// takes over the data in its arc (charged as handoff bytes), and
    /// notifies its neighbors. Fingers are seeded from the successor's table
    /// (Chord's cheap initialization) and corrected later by stabilization.
    pub fn join(&mut self, new_id: RingId, bootstrap: RingId) -> Result<(), MembershipError> {
        if self.is_alive(new_id) {
            return Err(MembershipError::IdTaken);
        }
        if !self.is_alive(bootstrap) {
            return Err(MembershipError::UnknownPeer);
        }
        // Find the successor of the new id.
        let succ_id = self.lookup(bootstrap, new_id)?.owner;
        let succ = self
            .nodes
            .get(&succ_id)
            .expect("invariant: lookup returned this owner, so it is in the alive map");
        let old_pred = succ.predecessor;
        // Seed routing state from the successor (1 state-transfer message).
        let seeded_fingers = succ.fingers.clone();
        let mut succ_list = SuccessorList::new();
        succ_list.push(succ_id);
        for s in succ.successors.iter().copied() {
            if succ_list.len() == SUCCESSOR_LIST_LEN {
                break;
            }
            // A bootstrap-singleton successor lists *itself* (the only legal
            // self-entry, from the 1-peer wiring); copying it — or copying
            // `succ_id` twice — would seed a corrupt list.
            if s == new_id || s == succ_id || succ_list.contains(&s) {
                continue;
            }
            succ_list.push(s);
        }
        self.stats.record(MessageKind::Stabilize, 8 * (1 + succ_list.len()));

        let mut node = Node::new(new_id);
        node.successors = succ_list;
        node.fingers = seeded_fingers;
        node.predecessor = old_pred;

        // Take over data: items whose ring position falls in (old_pred, new_id].
        let pred_for_arc = old_pred.unwrap_or(succ_id);
        let placement = self.placement;
        let succ_node = self
            .nodes
            .get_mut(&succ_id)
            .expect("invariant: lookup returned this owner, so it is in the alive map");
        let moved = succ_node.store.drain_by(|x| placement.place(x).in_arc(pred_for_arc, new_id));
        // A bootstrap singleton's self-successor sits at arc distance 0, so
        // offers can never displace it and stabilization would freeze on a
        // corrupt head; purge it now that the ring has a second peer.
        succ_node.successors.retain(|&s| s != succ_id);
        succ_node.predecessor = Some(new_id);
        self.stats.record(MessageKind::Handoff, 8 * moved.len());
        node.store.extend_values(moved);

        // Tell the old predecessor about its new successor (notify).
        if let Some(p) = old_pred {
            if let Some(pn) = self.nodes.get_mut(&p) {
                pn.offer_successor(new_id);
                self.stats.record(MessageKind::Stabilize, 8);
            }
        }
        self.nodes.insert(new_id, node);
        self.finger_cursor.insert(new_id, 0);
        Ok(())
    }

    /// Gracefully removes peer `id`: its data is handed to its successor and
    /// its neighbors are relinked.
    pub fn leave(&mut self, id: RingId) -> Result<(), MembershipError> {
        let node = self.nodes.get(&id).ok_or(MembershipError::UnknownPeer)?;
        let pred = node.predecessor;
        let succs = node.successors;
        // First alive successor (the leaving node pings down its list).
        let mut heir = None;
        for s in succs {
            if s != id && self.is_alive(s) {
                heir = Some(s);
                break;
            }
            self.observe_timeout(MessageKind::LookupTimeout);
        }
        let node =
            self.nodes.get_mut(&id).expect("invariant: presence was checked at the top of this fn");
        let data = node.store.drain_all();
        self.nodes.remove(&id);
        self.finger_cursor.remove(&id);

        if let Some(h) = heir {
            self.stats.record(MessageKind::Handoff, 8 * data.len());
            let hn = self
                .nodes
                .get_mut(&h)
                .expect("invariant: heir was selected from the alive set above");
            hn.store.extend_values(data);
            // The heir now holds the data as primary; a replica of the
            // leaver would later be promoted on top of it (duplicates).
            hn.replicas.remove(&id);
            if hn.predecessor == Some(id) {
                hn.predecessor = pred.filter(|&p| p != id);
            }
            self.stats.record(MessageKind::Stabilize, 8);
            if let Some(p) = pred.filter(|&p| p != id) {
                if let Some(pn) = self.nodes.get_mut(&p) {
                    pn.forget(id);
                    pn.offer_successor(h);
                    self.stats.record(MessageKind::Stabilize, 8);
                }
            }
        }
        // No heir: the data is lost (equivalent to a crash), which the
        // density estimate will see as missing mass — realistic.
        Ok(())
    }

    /// Crash-fails peer `id`: it vanishes, its data is lost, and nobody is
    /// told (neighbors discover via timeouts and stabilization).
    pub fn fail(&mut self, id: RingId) -> Result<(), MembershipError> {
        self.nodes.remove(&id).ok_or(MembershipError::UnknownPeer)?;
        self.finger_cursor.remove(&id);
        Ok(())
    }

    /// Runs one stabilization round on every alive peer (in ring order):
    /// Chord's `stabilize` + `notify` + successor-list refresh +
    /// `fix_fingers` for a few fingers per round (round-robin).
    ///
    /// A peer's round works from its index position, resolved once (each
    /// peer is handed the position after the previous one as a hint) and
    /// re-checked only after a routed lookup, the one step whose crash
    /// faults can shift the index. In order, the peer checks its successor
    /// list's liveness once (a timeout per dead entry ahead of the first
    /// alive one), adopts its successor's predecessor when it sits between
    /// them, refreshes its list in one merge with the successor's, asks a
    /// random helper to resolve `successor(id + 1)`, notifies its
    /// successor, drops a dead predecessor, re-homes misplaced items,
    /// maintains replicas, and refreshes four fingers. Only the helper
    /// lookup, item re-homing and finger refresh route, so a converged peer
    /// pays five lookups and otherwise reads its own and its neighbours'
    /// records. A peer that a crash fault kills during its own round stops
    /// there; every other peer's round goes on.
    ///
    /// Returns the number of routing-state corrections made.
    pub fn stabilize_round(&mut self) -> usize {
        let ids: Vec<RingId> = self.nodes.keys().copied().collect();
        let mut corrections = 0;
        let mut hint = 0;
        for id in ids {
            // Peers that crashed earlier in the round are skipped.
            let Some(pos) = self.nodes.position_hinted(id, hint) else { continue };
            corrections += self.stabilize_node(id, pos);
            hint = pos + 1;
        }
        corrections
    }

    /// Stabilizes peer `id` at index position `pos`; returns corrections
    /// made.
    fn stabilize_node(&mut self, id: RingId, mut pos: usize) -> usize {
        let mut corrections = 0;
        let snap = self.nodes.node_at(pos).successors;

        // 1. One liveness pass: keep the alive successors, and charge a
        // timeout for each dead one ahead of the first alive. A converged
        // ring holds entry k at position pos + 1 + k.
        let mut succs = SuccessorList::new();
        let mut first_alive = None;
        for (k, s) in snap.into_iter().enumerate() {
            match self.nodes.position_ahead(s, pos, 1 + k) {
                Some(p) => {
                    first_alive.get_or_insert((s, p));
                    succs.push(s);
                }
                None if first_alive.is_none() => {
                    self.observe_timeout(MessageKind::LookupTimeout);
                    corrections += 1;
                }
                None => {}
            }
        }
        let (mut succ, mut succ_pos) = match first_alive {
            Some(found) => found,
            None => {
                // Whole list dead: fall back to any alive finger, else the
                // alive predecessor (forming a temporary back-edge the normal
                // stabilize/notify machinery then unwinds into ring order).
                // Either way continue the full round below — an isolated node
                // must still drop its dead predecessor and run notify, or it
                // freezes the whole neighborhood in a broken fixed point.
                let node = self.nodes.node_at(pos);
                let pointer = node
                    .fingers
                    .present()
                    .chain(node.predecessor)
                    .filter(|&f| f != id)
                    .find_map(|f| Some((f, self.nodes.position_of(f)?)));
                // Fully isolated: nothing outgoing is alive, and no other
                // peer's routing state names us, so waiting to be found
                // never ends. Take a temporary successor from the long-term
                // peer cache, as step 3b and the join bootstrap do; the
                // round below unwinds it into ring order.
                let fallback = pointer.or_else(|| {
                    let f = self.random_maintenance_peer(id)?;
                    Some((f, self.nodes.position_of(f)?))
                });
                let Some((f, f_pos)) = fallback else {
                    // Alone on the ring: drop a dead predecessor and wait.
                    self.nodes.node_at_mut(pos).successors = succs;
                    return corrections + self.drop_dead_predecessor(pos);
                };
                self.nodes.node_at_mut(pos).successors = [f].into();
                self.stats.record(MessageKind::Stabilize, 8);
                corrections += 1;
                (f, f_pos)
            }
        };

        // 2. stabilize: adopt successor's predecessor if it sits between us.
        self.stats.record(MessageKind::Stabilize, 8);
        self.stats.record(MessageKind::Stabilize, 8);
        if let Some(x) = self.nodes.node_at(succ_pos).predecessor {
            if x != id && x.in_open_arc(id, succ) {
                if let Some(x_pos) = self.nodes.position_ahead(x, pos, 1) {
                    (succ, succ_pos) = (x, x_pos);
                    corrections += 1;
                }
            }
        }

        // 3. Refresh the successor list from the (possibly new) successor:
        // the alive entries, the successor and its list, merged once.
        let succ_list = self.nodes.node_at(succ_pos).successors;
        self.stats.record(MessageKind::Stabilize, 8 * (1 + succ_list.len()));
        let mut list = succs;
        list.merge_by_distance(id, std::iter::once(succ).chain(succ_list));
        // Re-drop anything dead that the transferred list brought in; only
        // entries not already known alive need a check.
        let mut dead = SuccessorList::new();
        for (k, &s) in list.iter().enumerate() {
            let known = s == succ || succs.contains(&s);
            if !known && self.nodes.position_ahead(s, pos, 1 + k).is_none() {
                dead.push(s);
            }
        }
        let node = self.nodes.node_at_mut(pos);
        if node.successors != list {
            corrections += 1;
        }
        node.successors = list;
        for d in dead {
            node.forget(d);
            corrections += 1;
        }

        // 3b. Successor re-resolution: ask a remote peer to look up
        // successor(id + 1) and offer the result. This is `fix_fingers`
        // applied to finger 0 every round, initiated *remotely* — from `id`
        // itself the query would trivially terminate at its own (possibly
        // wrong) successor pointer. Without this, a node whose whole
        // successor list died during a storm walks back toward its true
        // successor one peer per round (O(P) rounds); with it, healing takes
        // O(log P).
        //
        // The helper is a random peer from the node's long-term peer cache
        // (see `random_maintenance_peer`), NOT one of its live pointers: a
        // storm can split the overlay into disjoint cycles that are each
        // internally self-consistent (the "loopy ring" state), where every
        // finger and successor of every member points inside its own cycle.
        // Pointer-local repair can never detect that; a helper outside the
        // querier's cycle resolves successor(id+1) against the *other* cycle
        // and the offer below merges them — the Chord TR's loopy-ring cure.
        //
        // The route toward id + 1 may pass through `id` itself, and a crash
        // fault on that hop kills it: its round then ends.
        if let Some(helper) = self.random_maintenance_peer(id) {
            self.stats.record(MessageKind::Stabilize, 8);
            let res = self.lookup(helper, id.finger_start(0));
            let Some(p) = self.nodes.position_hinted(id, pos) else { return corrections };
            pos = p;
            if let Some(owner) = res.ok().map(|res| res.owner).filter(|&o| o != id) {
                let node = self.nodes.node_at_mut(pos);
                let before = node.successor();
                node.offer_successor(owner);
                if node.successor() != before {
                    corrections += 1;
                }
            }
        }

        // 4. notify: tell the successor about us.
        if let Some(s) = self.nodes.node_at(pos).successor() {
            if let Some(s_pos) = self.nodes.position_ahead(s, pos, 1) {
                let sn = self.nodes.node_at_mut(s_pos);
                let before = sn.predecessor;
                sn.offer_predecessor(id);
                self.stats.record(MessageKind::Stabilize, 8);
                if sn.predecessor != before {
                    corrections += 1;
                }
            }
        }

        // 5. Drop a dead believed-predecessor so ownership can re-form.
        corrections += self.drop_dead_predecessor(pos);

        // 6. Data repair: hand off items that fall outside the believed arc
        // to their owners (joins during broken routing state can leave items
        // misplaced; this is the DHT-standard re-homing pass).
        corrections += self.repair_data(id, pos);
        let Some(p) = self.nodes.position_hinted(id, pos) else { return corrections };
        pos = p;

        // 6b. Replication maintenance: promote dead primaries' replicas,
        // renew replica leases on our successors.
        corrections += self.replicate_node(id, pos);

        // 7. fix_fingers: refresh the next few fingers by real lookups,
        // advancing the round-robin cursor once for all of them.
        let cursor = self.finger_cursor.entry(id).or_insert(0);
        let first = *cursor;
        *cursor = (first + FINGERS_PER_ROUND) % RING_BITS;
        for level in (first..first + FINGERS_PER_ROUND).map(|f| f % RING_BITS) {
            let res = self.lookup(id, id.finger_start(level));
            let Some(p) = self.nodes.position_hinted(id, pos) else { return corrections };
            pos = p;
            let fingers = &mut self.nodes.node_at_mut(pos).fingers;
            match res {
                Ok(res) if fingers.get(level as usize) != Some(res.owner) => {
                    fingers.set(level as usize, Some(res.owner));
                    corrections += 1;
                }
                Ok(_) => {}
                Err(_) => fingers.set(level as usize, None),
            }
        }
        corrections
    }

    /// Clears the predecessor of the peer at position `pos` if it is dead
    /// (one timeout charge); returns the number of corrections (0 or 1).
    fn drop_dead_predecessor(&mut self, pos: usize) -> usize {
        let Some(p) = self.nodes.node_at(pos).predecessor else { return 0 };
        if self.nodes.position_ahead(p, pos, self.nodes.len() - 1).is_some() {
            return 0;
        }
        self.observe_timeout(MessageKind::LookupTimeout);
        self.nodes.node_at_mut(pos).predecessor = None;
        1
    }

    /// Re-homes the items of peer `id` (at position `pos`) that fall outside
    /// its believed arc: batches them by destination (one lookup per
    /// destination arc) and hands them over. Items whose owner cannot be
    /// resolved stay local and retry next round. The store is only read
    /// until an item actually moves. Returns the number of items moved; a
    /// peer that a crash fault kills mid-repair stops, and its store dies
    /// with it.
    fn repair_data(&mut self, id: RingId, mut pos: usize) -> usize {
        let node = self.nodes.node_at(pos);
        let Some(pred) = node.predecessor else { return 0 };
        let placement = self.placement;
        if !node.store.any_outside(placement, pred, id) {
            return 0;
        }
        let misplaced = move |x: f64| !placement.place(x).in_arc(pred, id);
        let mut remaining: VecDeque<f64> =
            node.store.values().iter().copied().filter(|&x| misplaced(x)).collect();
        let mut keep = Vec::new();
        let mut moved = 0;
        // Batch by destination: resolve the first item's owner, deliver every
        // item that falls into that owner's believed arc, repeat.
        while let Some(&first) = remaining.front() {
            let res = self.lookup(id, placement.place(first));
            let Some(p) = self.nodes.position_hinted(id, pos) else { return moved };
            pos = p;
            match res {
                Ok(res) if res.owner != id => {
                    let owner_pos = self
                        .nodes
                        .position_of(res.owner)
                        .expect("invariant: lookup returned this owner, so it is in the alive map");
                    let owner = self.nodes.node_at(owner_pos);
                    let (olo, ohi) = (owner.predecessor.unwrap_or(res.owner), res.owner);
                    let mut batch = Vec::new();
                    remaining.retain(|&x| {
                        if placement.place(x).in_arc(olo, ohi) {
                            batch.push(x);
                            false
                        } else {
                            true
                        }
                    });
                    if batch.is_empty() {
                        // Owner's believed arc excludes even the probe item
                        // (inconsistent state): keep it for the next round.
                        keep.extend(remaining.pop_front());
                        continue;
                    }
                    self.stats.record(MessageKind::Handoff, 8 * batch.len());
                    moved += batch.len();
                    self.nodes.node_at_mut(owner_pos).store.extend_values(batch);
                }
                // Either we still own it per routing, or routing failed:
                // keep it and retry next round.
                _ => keep.extend(remaining.pop_front()),
            }
        }
        if moved > 0 {
            let store = &mut self.nodes.node_at_mut(pos).store;
            store.drain_by(misplaced);
            store.extend_values(keep);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::placement::Placement;
    use crate::replication::REPLICA_LEASE_ROUNDS;
    use crate::store::LocalStore;

    fn net_of(ids: &[u64]) -> Network {
        Network::build_bulk(ids.iter().map(|&i| RingId(i)).collect(), Placement::range(0.0, 100.0))
    }

    #[test]
    fn join_takes_over_arc_data() {
        let mut net = net_of(&[u64::MAX / 4, u64::MAX / 2, u64::MAX]);
        // Range placement on [0, 100]: values 0..25 → first node, etc.
        net.bulk_load(vec![10.0, 30.0, 40.0, 60.0, 90.0]);
        assert_eq!(net.total_items(), 5);
        // Join a node at 3/8 of the ring: it owns (1/4, 3/8] ≈ values (25, 37.5].
        let new_id = RingId(u64::MAX / 8 * 3);
        net.join(new_id, RingId(u64::MAX)).unwrap();
        assert!(net.is_alive(new_id));
        let moved = net.node(new_id).unwrap().store.values().to_vec();
        assert_eq!(moved, vec![30.0]);
        assert_eq!(net.total_items(), 5); // nothing lost
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn ring_grown_from_a_singleton_bootstrap_converges() {
        // The canonical Chord bootstrap: one seed peer (whose successor is
        // itself — the only legal self-entry), then every other peer joins
        // through it. The seed's self-successor sits at arc distance 0, so
        // unless `join` purges it, offers can never displace it and
        // stabilization freezes on a corrupt head forever.
        let mut net = net_of(&[500]);
        for id in [100u64, 200, 300, 400, 600, 700, 800, 900] {
            net.join(RingId(id), RingId(500)).unwrap();
        }
        for _ in 0..48 {
            net.stabilize_round();
        }
        let mut clean = 0;
        for round in 0.. {
            assert!(round < 96, "never quiesced: stuck on a corrupt successor head");
            clean = if net.stabilize_round() == 0 { clean + 1 } else { 0 };
            if clean == 16 {
                break;
            }
        }
        for id in net.ids().collect::<Vec<_>>() {
            let n = net.node(id).unwrap();
            assert!(!n.successors.contains(&id), "{id} lists itself as successor");
        }
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn join_rejects_taken_id() {
        let mut net = net_of(&[100, 200]);
        assert_eq!(net.join(RingId(100), RingId(200)), Err(MembershipError::IdTaken));
        assert_eq!(net.join(RingId(5), RingId(7)), Err(MembershipError::UnknownPeer));
    }

    #[test]
    fn graceful_leave_hands_data_over() {
        let mut net = net_of(&[u64::MAX / 4, u64::MAX / 2, u64::MAX]);
        net.bulk_load(vec![10.0, 30.0, 60.0]);
        net.leave(RingId(u64::MAX / 2)).unwrap();
        assert_eq!(net.len(), 2);
        assert_eq!(net.total_items(), 3); // handed over, not lost
                                          // After stabilization the ring is consistent again.
        for _ in 0..3 {
            net.stabilize_round();
        }
        assert!(net
            .check_invariants()
            .iter()
            .filter(|v| !v.contains("item"))
            .collect::<Vec<_>>()
            .is_empty());
    }

    #[test]
    fn crash_loses_data() {
        let mut net = net_of(&[u64::MAX / 4, u64::MAX / 2, u64::MAX]);
        net.bulk_load(vec![10.0, 30.0, 60.0]);
        net.fail(RingId(u64::MAX / 2)).unwrap();
        assert_eq!(net.total_items(), 2);
        assert!(net.fail(RingId(123)).is_err());
    }

    #[test]
    fn stabilization_repairs_after_crashes() {
        let ids: Vec<u64> = (1..=32).map(|i| i * (u64::MAX / 33)).collect();
        let mut net = net_of(&ids);
        // Crash 8 spread-out nodes.
        for i in [2usize, 6, 10, 14, 18, 22, 26, 30] {
            net.fail(RingId(ids[i])).unwrap();
        }
        // A few rounds of stabilization must restore pred/succ consistency.
        for _ in 0..5 {
            net.stabilize_round();
        }
        let violations = net.check_invariants();
        let ring_only: Vec<&String> = violations.iter().filter(|v| !v.contains("item")).collect();
        assert!(ring_only.is_empty(), "{ring_only:?}");
    }

    #[test]
    fn joins_then_stabilize_converges() {
        let mut net = net_of(&[u64::MAX / 2, u64::MAX]);
        net.bulk_load((0..100).map(|i| i as f64).collect::<Vec<_>>());
        for k in 1..=10u64 {
            let id = RingId(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            net.join(id, RingId(u64::MAX)).unwrap();
        }
        assert_eq!(net.len(), 12);
        assert_eq!(net.total_items(), 100);
        for _ in 0..20 {
            net.stabilize_round();
        }
        let violations = net.check_invariants();
        let ring_only: Vec<&String> = violations.iter().filter(|v| !v.contains("item")).collect();
        assert!(ring_only.is_empty(), "{ring_only:?}");
    }

    #[test]
    fn stabilize_charges_messages() {
        let mut net = net_of(&[100, 200, 300]);
        let before = net.stats().total_messages();
        net.stabilize_round();
        assert!(net.stats().total_messages() > before);
    }

    // The stabilization code that resolved every record by id, sorted the
    // successor list once per offer and drained every store each round,
    // verbatim but for the `reference_` names (`missing_from` is a free
    // function here). `stabilize_round_matches_reference` holds the
    // one-position rounds to it.
    impl Network {
        /// Runs one stabilization round on every alive peer (in ring order):
        /// Chord's `stabilize` + `notify` + successor-list refresh +
        /// `fix_fingers` for a few fingers per round (round-robin).
        ///
        /// Returns the number of routing-state corrections made.
        fn reference_stabilize_round(&mut self) -> usize {
            let ids: Vec<RingId> = self.nodes.keys().copied().collect();
            let mut corrections = 0;
            for id in ids {
                if !self.is_alive(id) {
                    continue;
                }
                corrections += self.reference_stabilize_node(id);
            }
            corrections
        }

        /// Stabilizes one node; returns corrections made.
        fn reference_stabilize_node(&mut self, id: RingId) -> usize {
            let mut corrections = 0;
            let Some(node) = self.nodes.get(&id) else { return 0 };
            let snap = node.successors;

            // 1. Drop dead successors from the front (timeout per dead one).
            let mut alive_succ = None;
            for s in snap {
                if self.is_alive(s) {
                    alive_succ = Some(s);
                    break;
                }
                self.observe_timeout(MessageKind::LookupTimeout);
                corrections += 1;
            }
            let succs: SuccessorList = snap.into_iter().filter(|&s| self.is_alive(s)).collect();
            let mut succ = match alive_succ {
                Some(s) => s,
                None => {
                    // Whole list dead: fall back to any alive finger, else the
                    // alive predecessor (forming a temporary back-edge the normal
                    // stabilize/notify machinery then unwinds into ring order).
                    // Either way continue the full round below — an isolated node
                    // must still drop its dead predecessor and run notify, or it
                    // freezes the whole neighborhood in a broken fixed point.
                    self.nodes
                        .get_mut(&id)
                        .expect("invariant: id was taken from the alive map in this same pass")
                        .successors = succs;
                    let node = self
                        .nodes
                        .get(&id)
                        .expect("invariant: id was taken from the alive map in this same pass");
                    let fallback = node
                        .fingers
                        .present()
                        .chain(node.predecessor)
                        .find(|&f| f != id && self.is_alive(f));
                    let fallback = fallback.or_else(|| self.random_maintenance_peer(id));
                    match fallback {
                        Some(f) => {
                            self.nodes
                                .get_mut(&id)
                                .expect(
                                    "invariant: id was taken from the alive map in this same pass",
                                )
                                .offer_successor(f);
                            self.stats.record(MessageKind::Stabilize, 8);
                            corrections += 1;
                            f
                        }
                        None => {
                            // Alone on the ring: drop a dead predecessor and
                            // wait.
                            corrections += self.reference_drop_dead_predecessor(id);
                            return corrections;
                        }
                    }
                }
            };

            // 2. stabilize: adopt successor's predecessor if it sits between us.
            self.stats.record(MessageKind::Stabilize, 8);
            self.stats.record(MessageKind::Stabilize, 8);
            let sp = self
                .nodes
                .get(&succ)
                .expect("invariant: id was taken from the alive map in this same pass")
                .predecessor;
            if let Some(x) = sp {
                if x != id && x.in_open_arc(id, succ) && self.is_alive(x) {
                    succ = x;
                    corrections += 1;
                }
            }

            // 3. Refresh the successor list from the (possibly new) successor.
            let succ_list = self
                .nodes
                .get(&succ)
                .expect("invariant: id was taken from the alive map in this same pass")
                .successors;
            self.stats.record(MessageKind::Stabilize, 8 * (1 + succ_list.len()));
            {
                let node = self
                    .nodes
                    .get_mut(&id)
                    .expect("invariant: id was taken from the alive map in this same pass");
                let before = node.successors;
                node.successors = succs;
                node.offer_successor(succ);
                for s in succ_list {
                    if s != id {
                        node.offer_successor(s);
                    }
                }
                if node.successors != before {
                    corrections += 1;
                }
            }
            // Re-drop anything dead that the transferred list brought in.
            {
                let node = self
                    .nodes
                    .get(&id)
                    .expect("invariant: id was taken from the alive map in this same pass");
                let dead: Vec<RingId> =
                    node.successors.iter().copied().filter(|&s| !self.is_alive(s)).collect();
                if !dead.is_empty() {
                    let node = self
                        .nodes
                        .get_mut(&id)
                        .expect("invariant: id was taken from the alive map in this same pass");
                    for d in dead {
                        node.forget(d);
                        corrections += 1;
                    }
                }
            }

            // 3b. Successor re-resolution: ask a remote peer to look up
            // successor(id + 1) and offer the result. This is `fix_fingers`
            // applied to finger 0 every round, initiated *remotely* — from `id`
            // itself the query would trivially terminate at its own (possibly
            // wrong) successor pointer. Without this, a node whose whole
            // successor list died during a storm walks back toward its true
            // successor one peer per round (O(P) rounds); with it, healing takes
            // O(log P).
            //
            // The helper is a random peer from the node's long-term peer cache
            // (see `random_maintenance_peer`), NOT one of its live pointers: a
            // storm can split the overlay into disjoint cycles that are each
            // internally self-consistent (the "loopy ring" state), where every
            // finger and successor of every member points inside its own cycle.
            // Pointer-local repair can never detect that; a helper outside the
            // querier's cycle resolves successor(id+1) against the *other* cycle
            // and the offer below merges them — the Chord TR's loopy-ring cure.
            let helper = self.random_maintenance_peer(id);
            if let Some(helper) = helper {
                self.stats.record(MessageKind::Stabilize, 8);
                if let Ok(res) = self.lookup(helper, id.finger_start(0)) {
                    if res.owner != id {
                        let node = self
                            .nodes
                            .get_mut(&id)
                            .expect("invariant: id was taken from the alive map in this same pass");
                        let before = node.successor();
                        node.offer_successor(res.owner);
                        if node.successor() != before {
                            corrections += 1;
                        }
                    }
                }
            }

            // 4. notify: tell the successor about us.
            let succ_now = self
                .nodes
                .get(&id)
                .expect("invariant: id was taken from the alive map in this same pass")
                .successor();
            if let Some(s) = succ_now {
                if let Some(sn) = self.nodes.get_mut(&s) {
                    let before = sn.predecessor;
                    sn.offer_predecessor(id);
                    self.stats.record(MessageKind::Stabilize, 8);
                    if sn.predecessor != before {
                        corrections += 1;
                    }
                }
            }

            // 5. Drop a dead believed-predecessor so ownership can re-form.
            corrections += self.reference_drop_dead_predecessor(id);

            // 6. Data repair: hand off items that fall outside the believed arc
            // to their owners (joins during broken routing state can leave items
            // misplaced; this is the DHT-standard re-homing pass).
            corrections += self.reference_repair_data(id);

            // 6b. Replication maintenance: promote dead primaries' replicas,
            // renew replica leases on our successors.
            corrections += self.reference_replicate_node(id);

            // 7. fix_fingers: refresh the next few fingers by real lookups.
            for _ in 0..FINGERS_PER_ROUND {
                let cursor = {
                    let c = self.finger_cursor.entry(id).or_insert(0);
                    let cur = *c;
                    *c = (*c + 1) % RING_BITS;
                    cur
                };
                let start = id.finger_start(cursor);
                match self.lookup(id, start) {
                    Ok(res) => {
                        let node = self
                            .nodes
                            .get_mut(&id)
                            .expect("invariant: id was taken from the alive map in this same pass");
                        if node.fingers.get(cursor as usize) != Some(res.owner) {
                            node.fingers.set(cursor as usize, Some(res.owner));
                            corrections += 1;
                        }
                    }
                    Err(_) => {
                        let node = self
                            .nodes
                            .get_mut(&id)
                            .expect("invariant: id was taken from the alive map in this same pass");
                        node.fingers.set(cursor as usize, None);
                    }
                }
            }
            corrections
        }

        /// Clears `id`'s predecessor if it is dead (one timeout charge); returns
        /// the number of corrections (0 or 1).
        fn reference_drop_dead_predecessor(&mut self, id: RingId) -> usize {
            let Some(node) = self.nodes.get(&id) else { return 0 };
            if let Some(p) = node.predecessor {
                if !self.is_alive(p) {
                    self.observe_timeout(MessageKind::LookupTimeout);
                    self.nodes
                        .get_mut(&id)
                        .expect("invariant: id was taken from the alive map in this same pass")
                        .predecessor = None;
                    return 1;
                }
            }
            0
        }

        /// Re-homes locally stored items that fall outside this node's believed
        /// arc: batches them by destination (one lookup per destination arc) and
        /// hands them over. Items whose owner cannot be resolved stay local and
        /// retry next round. Returns the number of items moved.
        fn reference_repair_data(&mut self, id: RingId) -> usize {
            let Some(node) = self.nodes.get(&id) else { return 0 };
            let Some(pred) = node.predecessor else { return 0 };
            if node.store.is_empty() {
                return 0;
            }
            let placement = self.placement;
            let misplaced = {
                let node = self
                    .nodes
                    .get_mut(&id)
                    .expect("invariant: id was taken from the alive map in this same pass");
                node.store.drain_by(|x| !placement.place(x).in_arc(pred, id))
            };
            if misplaced.is_empty() {
                return 0;
            }
            let mut moved = 0;
            let mut keep = Vec::new();
            let mut remaining: Vec<f64> = misplaced;
            // Batch by destination: resolve the first item's owner, deliver every
            // item that falls into that owner's believed arc, repeat.
            while let Some(&first) = remaining.first() {
                let pos = placement.place(first);
                match self.lookup(id, pos) {
                    Ok(res) if res.owner != id => {
                        let owner = self
                            .nodes
                            .get(&res.owner)
                            .expect("invariant: id was taken from the alive map in this same pass");
                        let (olo, ohi) = (owner.predecessor.unwrap_or(res.owner), res.owner);
                        let mut batch = Vec::new();
                        remaining.retain(|&x| {
                            if placement.place(x).in_arc(olo, ohi) {
                                batch.push(x);
                                false
                            } else {
                                true
                            }
                        });
                        if batch.is_empty() {
                            // Owner's believed arc excludes even the probe item
                            // (inconsistent state): keep it for the next round.
                            keep.push(remaining.remove(0));
                            continue;
                        }
                        self.stats.record(MessageKind::Handoff, 8 * batch.len());
                        moved += batch.len();
                        self.nodes
                            .get_mut(&res.owner)
                            .expect("invariant: id was taken from the alive map in this same pass")
                            .store
                            .extend_values(batch);
                    }
                    _ => {
                        // Either we still own it per routing, or routing failed:
                        // keep it and retry next round.
                        keep.push(remaining.remove(0));
                    }
                }
            }
            if !keep.is_empty() {
                self.nodes
                    .get_mut(&id)
                    .expect("invariant: id was taken from the alive map in this same pass")
                    .store
                    .extend_values(keep);
            }
            moved
        }

        /// One peer's replication maintenance (called from stabilization):
        /// promotion of dead primaries' data, lease aging/expiry, and pushing
        /// fresh replicas to the first `r` alive successors. Returns the number
        /// of items promoted.
        fn reference_replicate_node(&mut self, id: RingId) -> usize {
            if self.replication == 0 {
                return 0;
            }
            let mut promoted = 0;

            // 1. Promotion + lease bookkeeping.
            {
                let Some(node) = self.nodes.get(&id) else { return 0 };
                let (pred, my_id) = (node.predecessor, node.id);
                let primaries: Vec<RingId> = node.replicas.keys().copied().collect();
                let placement = self.placement;
                for primary in primaries {
                    let primary_alive = self.is_alive(primary);
                    let node = self.nodes.get_mut(&id).expect("alive");
                    if !primary_alive {
                        // Promote the part of the replica that now falls in OUR
                        // arc (ownership-gated: only the heir promotes).
                        if let Some(p) = pred {
                            let (store, _) = node.replicas.get_mut(&primary).expect("listed");
                            let mine = store.drain_by(|x| placement.place(x).in_arc(p, my_id));
                            if !mine.is_empty() {
                                promoted += mine.len();
                                node.store.extend_values(mine);
                            }
                            // Whatever remains belongs to other heirs; keep it
                            // until the lease expires (they may still promote
                            // from their own copies — ours is then garbage).
                        }
                    }
                    // Age the lease; drop expired entries.
                    let (_, age) = node.replicas.get_mut(&primary).expect("listed");
                    *age += 1;
                    if *age > REPLICA_LEASE_ROUNDS {
                        node.replicas.remove(&primary);
                    }
                }
            }

            // 2. Refresh our own replicas on the first r alive successors.
            let (store, succs) = {
                let Some(node) = self.nodes.get(&id) else { return promoted };
                (node.store.clone(), node.successors)
            };
            if store.is_empty() {
                return promoted;
            }
            let mut placed = 0;
            for s in succs {
                if placed >= self.replication {
                    break;
                }
                if s == id || !self.is_alive(s) {
                    continue;
                }
                let target = self.nodes.get_mut(&s).expect("alive");
                let delta = match target.replicas.get(&id) {
                    Some((existing, _)) => reference_missing_from(&store, existing),
                    None => store.len(),
                };
                target.replicas.insert(id, (store.clone(), 0));
                self.stats.record(MessageKind::Replicate, 8 * delta);
                placed += 1;
            }
            promoted
        }
    }

    /// `LocalStore::missing_from` before its shared-vector shortcut: the
    /// linear merge alone.
    fn reference_missing_from(store: &LocalStore, other: &LocalStore) -> usize {
        let (a, b) = (store.values(), other.values());
        let (mut i, mut j, mut missing) = (0usize, 0usize, 0usize);
        while i < a.len() {
            if j >= b.len() || a[i] < b[j] {
                missing += 1;
                i += 1;
            } else if a[i] > b[j] {
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
        missing
    }

    /// Every piece of state a stabilization round reads or writes:
    /// membership, each record's routing state, store bits and replicas with
    /// their ages, the message counters, the maintenance counter, the finger
    /// cursors, the fault plan's draw position, and column consistency.
    fn assert_same_state(a: &Network, b: &Network, step: &str) {
        assert_eq!(a.ids().collect::<Vec<_>>(), b.ids().collect::<Vec<_>>(), "{step}: membership");
        let bits = |s: &LocalStore| s.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let replicas = |n: &Node| {
            n.replicas.iter().map(|(p, (s, age))| (*p, bits(s), *age)).collect::<Vec<_>>()
        };
        for ((id, x), (_, y)) in a.nodes.iter().zip(b.nodes.iter()) {
            assert_eq!(x.predecessor, y.predecessor, "{step}: predecessor of {id}");
            assert_eq!(x.successors, y.successors, "{step}: successors of {id}");
            assert_eq!(x.fingers, y.fingers, "{step}: fingers of {id}");
            assert_eq!(bits(&x.store), bits(&y.store), "{step}: store of {id}");
            assert_eq!(replicas(x), replicas(y), "{step}: replicas of {id}");
        }
        assert_eq!(a.stats, b.stats, "{step}: message counters");
        assert_eq!(a.maint_counter, b.maint_counter, "{step}: maintenance counter");
        assert_eq!(a.finger_cursor, b.finger_cursor, "{step}: finger cursors");
        assert_eq!(a.faults, b.faults, "{step}: fault plan state");
        assert_eq!(a.nodes.check_columns(), Vec::<String>::new(), "{step}: columns");
        assert_eq!(b.nodes.check_columns(), Vec::<String>::new(), "{step}: reference columns");
    }

    /// A ring in a state stabilization has to repair, drawn from `rng`:
    /// `peers` peers built whole or grown by joins through one singleton
    /// bootstrap, loaded with items (duplicates, both zeros and values past
    /// the domain among them) and replicated `replication` times; then
    /// `kill` percent fail silently, taking the replicas' primaries with
    /// them; with `run_dead` one peer also loses its whole successor list
    /// (the fallback branch) and, with `isolate`, its fingers and
    /// predecessor too; `joins` peers join without stabilization and
    /// `misplaced` items land on random peers.
    #[allow(clippy::too_many_arguments, reason = "one argument per axis of the stale ring")]
    fn stale_ring(
        rng: &mut rand::rngs::StdRng,
        peers: usize,
        grown: bool,
        hashed: bool,
        replication: usize,
        kill: u32,
        run_dead: bool,
        isolate: bool,
        joins: usize,
        misplaced: usize,
    ) -> Network {
        use rand::Rng;
        let placement =
            if hashed { Placement::hashed(0.0, 1000.0) } else { Placement::range(0.0, 1000.0) };
        let ids: Vec<RingId> = (0..peers).map(|_| RingId(rng.gen())).collect();
        let mut net = if grown {
            let mut net = Network::build_bulk(ids[..1].to_vec(), placement);
            for &id in &ids[1..] {
                let _ = net.join(id, ids[0]);
            }
            net
        } else {
            Network::build_bulk(ids, placement)
        };
        let value = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..8) {
            0 => [-0.0, 0.0, 1000.0, -3.0, 1004.5][rng.gen_range(0..5usize)],
            1 => f64::from(rng.gen_range(0..8u32)) * 125.0,
            _ => rng.gen::<f64>() * 1000.0,
        };
        let items: Vec<f64> = (0..peers * 12).map(|_| value(rng)).collect();
        net.bulk_load(&items);
        net.set_replication(replication);
        let alive: Vec<RingId> = net.ids().collect();
        let victims: Vec<RingId> =
            alive.iter().copied().filter(|_| rng.gen_range(0..100u32) < kill).collect();
        for v in victims.into_iter().take(alive.len() - 1) {
            net.fail(v).expect("alive");
        }
        if run_dead && net.len() > SUCCESSOR_LIST_LEN + 1 {
            let pos = rng.gen_range(0..net.len());
            let victim = net.nodes.key_at(pos).expect("in range");
            let node = net.node(victim).expect("alive");
            let (succs, pred) = (node.successors, node.predecessor);
            for s in succs.iter().filter(|&&s| s != victim) {
                let _ = net.fail(*s);
            }
            if isolate {
                net.node_mut(victim).expect("alive").fingers = Default::default();
                if let Some(p) = pred.filter(|&p| p != victim) {
                    let _ = net.fail(p);
                }
            }
        }
        for _ in 0..joins {
            let bootstrap = net.random_peer(rng).expect("nonempty");
            let _ = net.join(RingId(rng.gen()), bootstrap);
        }
        for _ in 0..misplaced {
            let at = net.random_peer(rng).expect("nonempty");
            let x = value(rng);
            net.node_mut(at).expect("alive").store.insert(x);
        }
        net
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One-position rounds ≡ the reference: the same corrections and,
        /// after every round, the same state (see `assert_same_state`), on
        /// rings made stale by silent failures (a whole successor list dead,
        /// a peer fully isolated), joins without stabilization, misplaced
        /// items, replication 0–2 with dead primaries, range and hashed
        /// placement, 1- to 3-peer rings and rings grown from a singleton
        /// bootstrap, under fault plans with request and reply loss, sick
        /// windows and an arc partition. Crash faults stay out: the
        /// reference panics when one kills the peer whose round it is
        /// (`fault_properties.rs` covers them).
        #[test]
        fn stabilize_round_matches_reference(
            seed: u64,
            tiny: bool,
            peers in 4usize..48,
            grown: bool,
            hashed: bool,
            replication in 0usize..3,
            kill in 0u32..60,
            run_dead: bool,
            isolate: bool,
            joins in 0usize..6,
            misplaced in 0usize..24,
            faults in 0u32..6,
            rounds in 1usize..=6,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let peers = if tiny { 1 + peers % 3 } else { peers };
            let mut net = stale_ring(
                &mut rng, peers, grown, hashed, replication, kill, run_dead, isolate, joins,
                misplaced,
            );
            let plan = FaultPlan::new(seed ^ 0x5EED);
            let plan = match faults {
                0 => None,
                1 => Some(plan.with_loss(0.15)),
                2 => Some(plan.with_reply_loss(0.15)),
                3 => Some(plan.with_sick(0.1, 8)),
                4 => Some(plan.with_partition(rng.gen(), 1 << 62)),
                _ => Some(
                    plan.with_loss(0.1)
                        .with_reply_loss(0.1)
                        .with_sick(0.05, 16)
                        .with_partition(rng.gen(), 1 << 61),
                ),
            };
            if let Some(plan) = plan {
                net.set_fault_plan(plan);
            }
            let mut reference = net.fork();
            for round in 0..rounds {
                let step = format!("round {round}");
                proptest::prop_assert_eq!(
                    net.stabilize_round(),
                    reference.reference_stabilize_round(),
                    "{}: corrections",
                    step
                );
                assert_same_state(&net, &reference, &step);
            }
        }
    }
}
