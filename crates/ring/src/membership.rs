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
        let seeded_fingers = succ.fingers;
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
        let (succs, succ_len) = node.successors_snapshot();
        // First alive successor (the leaving node pings down its list).
        let mut heir = None;
        for &s in &succs[..succ_len] {
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
    /// Returns the number of routing-state corrections made.
    pub fn stabilize_round(&mut self) -> usize {
        let ids: Vec<RingId> = self.nodes.keys().copied().collect();
        let mut corrections = 0;
        for id in ids {
            if !self.is_alive(id) {
                continue;
            }
            corrections += self.stabilize_node(id);
        }
        corrections
    }

    /// Stabilizes one node; returns corrections made.
    fn stabilize_node(&mut self, id: RingId) -> usize {
        let mut corrections = 0;
        let Some(node) = self.nodes.get(&id) else { return 0 };
        let (snap, snap_len) = node.successors_snapshot();

        // 1. Drop dead successors from the front (timeout per dead one).
        let mut alive_succ = None;
        for &s in &snap[..snap_len] {
            if self.is_alive(s) {
                alive_succ = Some(s);
                break;
            }
            self.observe_timeout(MessageKind::LookupTimeout);
            corrections += 1;
        }
        let succs: SuccessorList =
            snap[..snap_len].iter().copied().filter(|&s| self.is_alive(s)).collect();
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
                match fallback {
                    Some(f) => {
                        self.nodes
                            .get_mut(&id)
                            .expect("invariant: id was taken from the alive map in this same pass")
                            .offer_successor(f);
                        self.stats.record(MessageKind::Stabilize, 8);
                        corrections += 1;
                        f
                    }
                    None => {
                        // Fully isolated: nothing outgoing is alive. Drop a
                        // dead predecessor so inbound notifies can re-adopt
                        // us, then wait to be found.
                        corrections += self.drop_dead_predecessor(id);
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
        let (succ_list, succ_list_len) = self
            .nodes
            .get(&succ)
            .expect("invariant: id was taken from the alive map in this same pass")
            .successors_snapshot();
        self.stats.record(MessageKind::Stabilize, 8 * (1 + succ_list_len));
        {
            let node = self
                .nodes
                .get_mut(&id)
                .expect("invariant: id was taken from the alive map in this same pass");
            let before = node.successors_snapshot();
            node.successors = succs;
            node.offer_successor(succ);
            for &s in &succ_list[..succ_list_len] {
                if s != id {
                    node.offer_successor(s);
                }
            }
            if node.successors_snapshot() != before {
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
        corrections += self.drop_dead_predecessor(id);

        // 6. Data repair: hand off items that fall outside the believed arc
        // to their owners (joins during broken routing state can leave items
        // misplaced; this is the DHT-standard re-homing pass).
        corrections += self.repair_data(id);

        // 6b. Replication maintenance: promote dead primaries' replicas,
        // renew replica leases on our successors.
        corrections += self.replicate_node(id);

        // 7. fix_fingers: refresh the next few fingers by real lookups.
        let per_round = self.fingers_per_round;
        for _ in 0..per_round {
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
    fn drop_dead_predecessor(&mut self, id: RingId) -> usize {
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
    fn repair_data(&mut self, id: RingId) -> usize {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    fn net_of(ids: &[u64]) -> Network {
        Network::build(ids.iter().map(|&i| RingId(i)).collect(), Placement::range(0.0, 100.0))
    }

    #[test]
    fn join_takes_over_arc_data() {
        let mut net = net_of(&[u64::MAX / 4, u64::MAX / 2, u64::MAX]);
        // Range placement on [0, 100]: values 0..25 → first node, etc.
        net.bulk_load(&[10.0, 30.0, 40.0, 60.0, 90.0]);
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
        net.bulk_load(&[10.0, 30.0, 60.0]);
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
        net.bulk_load(&[10.0, 30.0, 60.0]);
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
        net.bulk_load(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
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
}
