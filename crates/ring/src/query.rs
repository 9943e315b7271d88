//! Range-query execution over the overlay — the consumer of selectivity
//! estimates.
//!
//! Under **range placement** a value interval `[lo, hi]` maps to a
//! contiguous ring segment, so a query routes to the owner of `φ(lo)`
//! (`O(log P)` hops) and then walks successors through the segment,
//! collecting matches — total cost `O(log P + peers(segment))` messages.
//! Under **hashed placement** matching items are scattered uniformly, so the
//! query must visit every peer (a ring-wide scatter walk) — which is exactly
//! why range-partitioned systems exist, and why their load skew makes the
//! paper's density estimate necessary.

use crate::id::RingId;
use crate::messages::MessageKind;
use crate::network::{LookupError, Network};

/// Result of executing a range query.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeQueryResult {
    /// Matching items, sorted ascending.
    pub items: Vec<f64>,
    /// Peers that were asked to scan.
    pub peers_visited: usize,
    /// Routing hops spent reaching the segment (0 under hashed placement's
    /// full scan, which starts at the initiator).
    pub routing_hops: u32,
}

impl Network {
    /// Executes the range query `[lo, hi]` from `initiator`, charging all
    /// traffic. Chooses the strategy by placement: segment walk under range
    /// placement, full scatter walk under hashed placement.
    pub fn range_query(
        &mut self,
        initiator: RingId,
        lo: f64,
        hi: f64,
    ) -> Result<RangeQueryResult, LookupError> {
        if !self.is_alive(initiator) {
            return Err(LookupError::InitiatorDead);
        }
        if hi < lo {
            return Ok(RangeQueryResult { items: Vec::new(), peers_visited: 0, routing_hops: 0 });
        }
        match self.placement.domain_map().copied() {
            Some(map) => {
                let start = map.to_ring(lo);
                let end = map.to_ring(hi);
                let first = self.lookup(initiator, start)?;
                let mut items = Vec::new();
                let mut cur = first.owner;
                let mut visited = 0usize;
                let limit = self.len() * 2 + 8;
                // The affine map never wraps, so the segment's peers are in
                // plain numeric id order; a peer with id ≥ end covers the
                // segment tail. If the start owner's id is *below* `start`,
                // the lookup wrapped: no peer has an id ≥ start, so the
                // smallest-id peer's wrap arc holds the entire tail of the
                // domain — one visit suffices.
                let single_wrap_owner = first.owner.0 < start.0;
                let mut last_visit = single_wrap_owner;
                loop {
                    let node = self.nodes.get(&cur).expect("walk on alive peers");
                    let succs = node.successors;
                    let matched: Vec<f64> = node
                        .store
                        .values()
                        .iter()
                        .copied()
                        .filter(|&x| (lo..=hi).contains(&x))
                        .collect();
                    self.stats.record(MessageKind::Probe, 16);
                    self.stats.record(MessageKind::ProbeReply, 8 * matched.len());
                    items.extend(matched);
                    visited += 1;
                    if last_visit || cur.0 >= end.0 || visited >= limit {
                        break;
                    }
                    let next = succs.into_iter().find(|&s| self.is_alive(s));
                    let Some(next) = next else { break };
                    if next == first.owner {
                        break; // full circle
                    }
                    if next.0 < cur.0 {
                        // Wrapped past the ring top: no peer has id ≥ end,
                        // so the wrap owner holds the segment's tail — visit
                        // it once and stop.
                        last_visit = true;
                    }
                    cur = next;
                }
                items.sort_by(f64::total_cmp);
                Ok(RangeQueryResult { items, peers_visited: visited, routing_hops: first.hops })
            }
            None => {
                // Hashed placement: visit everyone via the successor ring.
                let mut items = Vec::new();
                let mut cur = initiator;
                let mut visited = 0usize;
                let limit = self.len() * 2 + 8;
                loop {
                    let node = self.nodes.get(&cur).expect("walk on alive peers");
                    let succs = node.successors;
                    let matched: Vec<f64> = node
                        .store
                        .values()
                        .iter()
                        .copied()
                        .filter(|&x| (lo..=hi).contains(&x))
                        .collect();
                    if cur != initiator {
                        self.stats.record(MessageKind::Probe, 16);
                        self.stats.record(MessageKind::ProbeReply, 8 * matched.len());
                    }
                    items.extend(matched);
                    visited += 1;
                    let next = succs.into_iter().find(|&s| self.is_alive(s));
                    let Some(next) = next else { break };
                    if next == initiator || visited >= limit {
                        break;
                    }
                    cur = next;
                }
                items.sort_by(f64::total_cmp);
                Ok(RangeQueryResult { items, peers_visited: visited, routing_hops: 0 })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::Rng;

    fn net(placement: Placement, peers: usize, seed: u64) -> Network {
        let seq = SeedSequence::new(seed);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut n = Network::build_bulk(ids, placement);
        // 10 copies of every integer 0..1000.
        let data: Vec<f64> = (0..10_000).map(|i| (i % 1000) as f64).collect();
        n.bulk_load(&data);
        n
    }

    #[test]
    fn range_walk_returns_exact_matches() {
        let mut n = net(Placement::range(0.0, 1000.0), 128, 1);
        let seq = SeedSequence::new(2);
        let mut rng = seq.stream(Component::Workload, 0);
        let from = n.random_peer(&mut rng).unwrap();
        for (lo, hi, expect) in [(100.0, 199.0, 1000), (0.0, 0.0, 10), (950.0, 999.0, 500)] {
            let r = n.range_query(from, lo, hi).unwrap();
            assert_eq!(r.items.len(), expect, "[{lo}, {hi}]");
            assert!(r.items.iter().all(|&x| (lo..=hi).contains(&x)));
            // Targeted: visits only the segment's share of peers (+slack).
            let frac = (hi - lo + 1.0) / 1000.0;
            let budget = (128.0 * frac * 3.0 + 8.0) as usize;
            assert!(r.peers_visited <= budget, "visited {} of 128", r.peers_visited);
        }
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let mut n = net(Placement::range(0.0, 1000.0), 32, 3);
        let from = n.ids().next().unwrap();
        let r = n.range_query(from, 500.0, 100.0).unwrap();
        assert!(r.items.is_empty());
        assert_eq!(r.peers_visited, 0);
        // A range between stored integers matches nothing but still walks.
        let r = n.range_query(from, 100.2, 100.8).unwrap();
        assert!(r.items.is_empty());
        assert!(r.peers_visited >= 1);
    }

    #[test]
    fn hashed_placement_floods_everyone() {
        let mut n = net(Placement::hashed(0.0, 1000.0), 64, 4);
        let from = n.ids().next().unwrap();
        let r = n.range_query(from, 100.0, 199.0).unwrap();
        assert_eq!(r.items.len(), 1000);
        assert_eq!(r.peers_visited, 64, "hashed placement must scan all peers");
    }

    #[test]
    fn charges_messages() {
        let mut n = net(Placement::range(0.0, 1000.0), 64, 5);
        let from = n.ids().next().unwrap();
        let before = n.stats().clone();
        let r = n.range_query(from, 300.0, 400.0).unwrap();
        let d = n.stats().since(&before);
        assert_eq!(d.count(MessageKind::Probe) as usize, r.peers_visited);
        assert!(d.total_bytes() >= 8 * r.items.len() as u64);
    }

    #[test]
    fn dead_initiator_errors() {
        let mut n = net(Placement::range(0.0, 1000.0), 8, 6);
        assert_eq!(n.range_query(RingId(1), 0.0, 1.0).unwrap_err(), LookupError::InitiatorDead);
    }

    #[test]
    fn survives_mid_segment_failures() {
        let mut n = net(Placement::range(0.0, 1000.0), 128, 7);
        // Kill a few peers, no stabilization: successor lists carry the walk.
        let ids: Vec<RingId> = n.ids().collect();
        for i in [30usize, 31, 60, 90] {
            n.fail(ids[i]).unwrap();
        }
        let seq = SeedSequence::new(8);
        let mut rng = seq.stream(Component::Workload, 1);
        let from = n.random_peer(&mut rng).unwrap();
        let r = n.range_query(from, 0.0, 999.0).unwrap();
        // Everything still owned by alive peers is found (the dead peers'
        // primaries are gone — that loss is the crash's, not the query's).
        assert_eq!(r.items.len() as u64, n.total_items());
    }
}
