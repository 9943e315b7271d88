//! Successor-list replication — the availability mechanism dynamic DHTs pair
//! with churn.
//!
//! With replication factor `r`, every peer keeps a copy of its primary data
//! on its first `r` alive successors. The protocol pieces:
//!
//! * **Refresh** (lease renewal): during stabilization, each primary pushes
//!   its current store to its first `r` alive successors. Only the *delta*
//!   (items the replica is missing) is charged on the wire; the entry's
//!   lease age resets.
//! * **Promotion**: when a peer holds a replica whose primary is dead and
//!   the replica's items fall inside the peer's (repaired) arc, it promotes
//!   them into its primary store — this is how crashed peers' data survives.
//!   Ownership-gating guarantees exactly one surviving replica holder
//!   promotes each item, so no duplicates arise even with `r > 1`.
//! * **Lease expiry**: replica entries not refreshed for
//!   [`REPLICA_LEASE_ROUNDS`] stabilization rounds are dropped (the primary
//!   moved on, or we are no longer among its successors).
//!
//! Replication is off (`r = 0`) by default; experiment F10 sweeps it against
//! crash storms.

use crate::id::RingId;
use crate::messages::MessageKind;
use crate::network::Network;

/// Stabilization rounds a replica entry survives without a refresh.
pub const REPLICA_LEASE_ROUNDS: u32 = 4;

impl Network {
    /// (Re)seeds replicas from current primaries, construction-time (free of
    /// message charges). Called by [`Network::set_replication`].
    pub(crate) fn reseed_replicas(&mut self) {
        let ids: Vec<RingId> = self.nodes.keys().copied().collect();
        // Clear all existing replica state first (positional walk: the
        // index hands out one mutable record at a time).
        for i in 0..self.nodes.len() {
            self.nodes.node_at_mut(i).replicas.clear();
        }
        if self.replication == 0 {
            return;
        }
        let p = ids.len();
        for (i, &id) in ids.iter().enumerate() {
            let store = self.nodes[&id].store.clone();
            if store.is_empty() {
                continue;
            }
            for k in 1..=self.replication.min(p - 1) {
                let target = ids[(i + k) % p];
                self.nodes
                    .get_mut(&target)
                    .expect("listed id")
                    .replicas
                    .insert(id, (store.clone(), 0));
            }
        }
    }

    /// One peer's replication maintenance (called from stabilization for
    /// peer `id` at index position `pos`): promotion of dead primaries'
    /// data, lease aging/expiry, and pushing fresh replicas to the first `r`
    /// alive successors. Returns the number of items promoted.
    pub(crate) fn replicate_node(&mut self, id: RingId, pos: usize) -> usize {
        if self.replication == 0 {
            return 0;
        }
        let mut promoted = 0;

        // 1. Promotion + lease bookkeeping, on the replica map taken out of
        // the record so the index stays free for liveness checks.
        let node = self.nodes.node_at_mut(pos);
        let pred = node.predecessor;
        let mut replicas = std::mem::take(&mut node.replicas);
        let (nodes, placement) = (&mut self.nodes, self.placement);
        replicas.retain(|primary, (store, age)| {
            if !nodes.contains_key(primary) {
                // Promote the part of the replica that now falls in OUR
                // arc (ownership-gated: only the heir promotes).
                if let Some(p) = pred {
                    let mine = store.drain_by(|x| placement.place(x).in_arc(p, id));
                    if !mine.is_empty() {
                        promoted += mine.len();
                        nodes.node_at_mut(pos).store.extend_values(mine);
                    }
                }
                // Whatever remains belongs to other heirs; keep it until
                // the lease expires (they may still promote from their own
                // copies — ours is then garbage).
            }
            // Age the lease; drop expired entries.
            *age += 1;
            *age <= REPLICA_LEASE_ROUNDS
        });
        let node = self.nodes.node_at_mut(pos);
        node.replicas = replicas;

        // 2. Refresh our own replicas on the first r alive successors.
        let store = node.store.clone();
        let succs = node.successors;
        if store.is_empty() {
            return promoted;
        }
        let mut placed = 0;
        for (k, s) in succs.into_iter().enumerate() {
            if placed >= self.replication {
                break;
            }
            if s == id {
                continue;
            }
            let Some(target_pos) = self.nodes.position_ahead(s, pos, 1 + k) else { continue };
            let target = self.nodes.node_at_mut(target_pos);
            let delta = match target.replicas.get(&id) {
                Some((existing, _)) => store.missing_from(existing),
                None => store.len(),
            };
            target.replicas.insert(id, (store.clone(), 0));
            self.stats.record(MessageKind::Replicate, 8 * delta);
            placed += 1;
        }
        promoted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::Rng;

    /// Total items held as replicas across the network.
    fn total_replica_items(net: &Network) -> u64 {
        net.nodes.values().flat_map(|n| n.replicas.values()).map(|(s, _)| s.len() as u64).sum()
    }

    fn net_with_data(peers: usize, items: usize, seed: u64) -> Network {
        let seq = SeedSequence::new(seed);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..items).map(|_| data_rng.gen::<f64>() * 1000.0).collect();
        net.bulk_load(&data);
        net
    }

    #[test]
    fn seeding_places_r_copies() {
        let mut net = net_with_data(32, 3_200, 1);
        net.set_replication(2);
        // Every non-empty primary has 2 replicas ⇒ replica items ≈ 2 × total.
        let total = net.total_items();
        assert_eq!(total_replica_items(&net), 2 * total);
        // Replication off clears them.
        net.set_replication(0);
        assert_eq!(total_replica_items(&net), 0);
    }

    #[test]
    fn crash_then_stabilize_recovers_data() {
        let mut net = net_with_data(64, 6_400, 2);
        net.set_replication(2);
        let before = net.total_items();
        // Crash 10 spread-out, non-adjacent peers.
        let ids: Vec<RingId> = net.ids().collect();
        for i in (0..60).step_by(6) {
            net.fail(ids[i]).unwrap();
        }
        assert!(net.total_items() < before, "crashes lose primaries initially");
        for _ in 0..6 {
            net.stabilize_round();
        }
        let after = net.total_items();
        assert_eq!(after, before, "replication must restore all crashed data");
        assert!(net.check_invariants().is_empty(), "{:?}", net.check_invariants());
    }

    #[test]
    fn adjacent_crashes_beyond_r_lose_data() {
        let mut net = net_with_data(64, 6_400, 3);
        net.set_replication(1);
        let before = net.total_items();
        // Crash 3 ADJACENT peers: with r = 1, the middle one's replica lived
        // on its (also crashed) successor ⇒ its data is unrecoverable.
        let ids: Vec<RingId> = net.ids().collect();
        for &id in &ids[20..23] {
            net.fail(id).unwrap();
        }
        for _ in 0..6 {
            net.stabilize_round();
        }
        let after = net.total_items();
        assert!(after < before, "r=1 cannot survive 3 adjacent crashes");
        assert!(after > before - before / 10, "only the unlucky arcs may vanish");
    }

    #[test]
    fn no_duplicates_with_multiple_replicas() {
        let mut net = net_with_data(48, 4_800, 4);
        net.set_replication(3);
        let before = net.total_items();
        let ids: Vec<RingId> = net.ids().collect();
        net.fail(ids[10]).unwrap();
        net.fail(ids[30]).unwrap();
        for _ in 0..6 {
            net.stabilize_round();
        }
        // Exactly restored — promotion is ownership-gated, so three replica
        // holders never triple-promote.
        assert_eq!(net.total_items(), before);
    }

    #[test]
    fn leases_garbage_collect_stale_entries() {
        let mut net = net_with_data(16, 800, 5);
        net.set_replication(1);
        let replica_items_seeded = total_replica_items(&net);
        assert!(replica_items_seeded > 0);
        // A graceful leave removes the primary; its data moves to the heir,
        // whose own replication re-replicates it. The departed peer's stale
        // entries must disappear within the lease window.
        let victim = net.ids().nth(3).unwrap();
        net.leave(victim).unwrap();
        for _ in 0..(REPLICA_LEASE_ROUNDS + 2) {
            net.stabilize_round();
        }
        let stale: u64 = net
            .ids()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|id| {
                let n = net.node(id).unwrap();
                n.replicas.keys().filter(|p| !net.is_alive(**p)).count() as u64
            })
            .sum();
        assert_eq!(stale, 0, "stale replica entries must be GC'd");
        // Data is intact throughout.
        assert_eq!(net.total_items(), 800);
    }

    #[test]
    fn replication_traffic_is_charged_as_deltas() {
        let mut net = net_with_data(16, 1_600, 6);
        net.set_replication(1);
        let before = net.stats().clone();
        net.stabilize_round();
        let d1 = net.stats().since(&before);
        // First maintained round: replicas already seeded, deltas are zero ⇒
        // messages exist but bytes are header-only.
        let msgs = d1.count(MessageKind::Replicate);
        assert_eq!(msgs, 16, "one refresh per peer (r = 1)");
        let snapshot = net.stats().clone();
        net.stabilize_round();
        let d2 = net.stats().since(&snapshot);
        assert_eq!(d2.count(MessageKind::Replicate), 16);
    }
}
