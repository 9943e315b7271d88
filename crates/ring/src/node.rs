//! Per-peer routing state (the Chord node).

use crate::arena::{FingerTable, SuccessorList};
use crate::id::RingId;
use crate::store::LocalStore;
use std::collections::BTreeMap;

/// Default successor-list length (Chord recommends `Θ(log P)`; 8 covers
/// networks up to ~2⁸·ln-ish failure patterns and is what we use everywhere).
pub const SUCCESSOR_LIST_LEN: usize = 8;

/// The first move a lookup for a target makes at a node
/// ([`Node::first_step`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// The node owns the target: its believed arc holds it.
    Owned,
    /// The node knows no successor, so it cannot resolve a target it does
    /// not own.
    Isolated,
    /// The target lies in `(id, successor]`: the successor owns it.
    Successor(RingId),
    /// Forward to this candidate, the known peer with the most progress
    /// short of the target ([`Node::best_candidate`]); `None` when no known
    /// peer qualifies.
    Forward(Option<RingId>),
}

/// One peer: identifier, routing state, and local data.
///
/// Routing state may be **stale** (pointing at departed peers or skipping
/// newly joined ones); only [`crate::Network::stabilize_round`] repairs it,
/// exactly like Chord. The data store is always internally consistent.
#[derive(Debug, Clone)]
pub struct Node {
    /// The peer's ring identifier.
    pub id: RingId,
    /// Believed predecessor (defines the owned arc `(predecessor, id]`).
    pub predecessor: Option<RingId>,
    /// Believed successors, nearest first; `successors[0]` is *the*
    /// successor. Inline (heap-free) — see [`crate::arena`].
    pub successors: SuccessorList,
    /// Finger table: `fingers.get(i)` ≈ `successor(id + 2^i)`. Inline up
    /// to 24 runs, boxed past that — see [`crate::arena`].
    pub fingers: FingerTable,
    /// The peer's local data (primary copies).
    pub store: LocalStore,
    /// Replicas held on behalf of other peers, keyed by the primary's id,
    /// with a lease age (rounds since last refresh; garbage-collected when
    /// the lease expires).
    pub replicas: Replicas,
}

/// One replica entry: the copy of a primary's store and its lease age.
pub type ReplicaEntry = (LocalStore, u32);

/// The replica map a peer holds, keyed by the primary's id: boxed, so a
/// record pays one pointer for it, and absent while empty, so a fresh
/// [`Node`] allocates nothing. Outside replication runs it stays absent.
///
/// Reads go through [`std::ops::Deref`] to the map (an absent map reads
/// as an empty one); writes go through the methods below.
#[derive(Clone, Default)]
#[allow(clippy::box_collection, reason = "the box shrinks every arena record by 16 bytes")]
pub struct Replicas(Option<Box<BTreeMap<RingId, ReplicaEntry>>>);

impl std::ops::Deref for Replicas {
    type Target = BTreeMap<RingId, ReplicaEntry>;

    fn deref(&self) -> &Self::Target {
        static EMPTY: BTreeMap<RingId, ReplicaEntry> = BTreeMap::new();
        self.0.as_deref().unwrap_or(&EMPTY)
    }
}

impl std::fmt::Debug for Replicas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Replicas {
    /// Inserts or replaces `primary`'s entry, boxing the map on first use.
    pub(crate) fn insert(&mut self, primary: RingId, entry: ReplicaEntry) -> Option<ReplicaEntry> {
        self.0.get_or_insert_with(Box::default).insert(primary, entry)
    }

    /// `primary`'s entry, for writing (the stabilization test's reference
    /// round edits entries in place).
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, primary: &RingId) -> Option<&mut ReplicaEntry> {
        self.0.as_mut()?.get_mut(primary)
    }

    /// Removes `primary`'s entry (no allocation when there is none).
    pub(crate) fn remove(&mut self, primary: &RingId) -> Option<ReplicaEntry> {
        self.0.as_mut()?.remove(primary)
    }

    /// Keeps only the entries `keep` accepts.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&RingId, &mut ReplicaEntry) -> bool) {
        if let Some(map) = &mut self.0 {
            map.retain(keep);
        }
    }

    /// Drops every entry and the box that held them.
    pub(crate) fn clear(&mut self) {
        self.0 = None;
    }
}

impl Node {
    /// A fresh node with empty routing state and no data.
    pub fn new(id: RingId) -> Self {
        Self {
            id,
            predecessor: None,
            successors: SuccessorList::new(),
            fingers: FingerTable::new(),
            store: LocalStore::new(),
            replicas: Replicas::default(),
        }
    }

    /// The immediate successor, if known.
    pub fn successor(&self) -> Option<RingId> {
        self.successors.first().copied()
    }

    /// The fraction of the ring this node believes it owns (its inclusion
    /// probability under uniform ring-position probing).
    ///
    /// `None` when the predecessor is unknown (a node that has not finished
    /// joining).
    pub fn arc_fraction(&self) -> Option<f64> {
        self.predecessor.map(|p| self.id.arc_fraction_from(p))
    }

    /// Whether ring point `t` falls in this node's believed arc.
    pub fn owns(&self, t: RingId) -> bool {
        match self.predecessor {
            Some(p) => t.in_arc(p, self.id),
            None => false,
        }
    }

    /// The progress ceiling for routing to `target`: a known peer `c` is a
    /// candidate when its clockwise progress `d = distance(self.id, c)`
    /// satisfies `1 ≤ d ≤ ceiling`, i.e. when it lies in the open arc
    /// `(self.id, target)` — the whole ring minus this node when `target`
    /// is this node's own id.
    pub(crate) fn route_ceiling(&self, target: RingId) -> u64 {
        self.id.distance_to(target).wrapping_sub(1)
    }

    /// The known peer (finger or successor) with the most clockwise
    /// progress not above `ceiling`, or `None` when no peer qualifies.
    ///
    /// One pass over the inline routing state — no buffer, no sort, and no
    /// argmax bookkeeping: progress from a fixed origin is injective, so
    /// the best progress alone names the peer (`self.id + progress`). A
    /// caller whose best candidate did not answer asks again with
    /// `ceiling = distance(self.id, c) − 1`; the successive answers are
    /// every known peer in the open arc `(self.id, target)` by decreasing
    /// progress, without duplicates (the proptest below), and the common
    /// case (the best candidate answers) costs a single scan.
    #[inline]
    pub(crate) fn best_candidate(&self, ceiling: u64) -> Option<RingId> {
        let me = self.id;
        let best = self
            .successors
            .iter()
            .map(|&s| me.distance_to(s))
            .filter(|&d| d <= ceiling)
            .fold(self.fingers.best_progress(me, ceiling), u64::max);
        (best != 0).then(|| RingId(me.0.wrapping_add(best)))
    }

    /// The first choice a lookup for `target` makes here, in the order it
    /// checks: this node's own arc, then an empty successor list, then the
    /// arc `(id, successor]`, then the best candidate. Every lookup and
    /// every route of a probe wave takes its hops through this one rule.
    #[inline]
    pub(crate) fn first_step(&self, target: RingId) -> Step {
        if self.owns(target) {
            return Step::Owned;
        }
        let Some(&succ) = self.successors.first() else {
            return Step::Isolated;
        };
        if target.in_arc(self.id, succ) {
            return Step::Successor(succ);
        }
        Step::Forward(self.best_candidate(self.route_ceiling(target)))
    }

    /// Reads what [`Node::first_step`] reads — id, predecessor, successor
    /// list and finger runs, one word per cache line — into
    /// [`std::hint::black_box`] without using it. A caller that steps many
    /// routes at once reads every route's record this way first, so all of
    /// their misses are in flight before the first step waits on one.
    #[inline]
    pub(crate) fn read_ahead(&self) {
        std::hint::black_box((self.predecessor, self.id, self.successors.first().copied()));
        for line in self.fingers.targets().chunks(8) {
            std::hint::black_box(line[0]);
        }
    }

    /// Purges a (discovered-dead) peer from all routing state.
    pub fn forget(&mut self, dead: RingId) {
        self.successors.retain(|&s| s != dead);
        self.fingers.forget(dead);
        if self.predecessor == Some(dead) {
            self.predecessor = None;
        }
    }

    /// Installs `peer` into the successor list if it belongs there (closer
    /// than an existing entry or list not full), keeping the list sorted by
    /// clockwise distance and bounded by [`SUCCESSOR_LIST_LEN`].
    pub fn offer_successor(&mut self, peer: RingId) {
        self.successors.merge_by_distance(self.id, [peer]);
    }

    /// Updates the predecessor if `peer` is closer (in the arc
    /// `(current_pred, self)`), or sets it when unknown.
    pub fn offer_predecessor(&mut self, peer: RingId) {
        if peer == self.id {
            return;
        }
        match self.predecessor {
            None => self.predecessor = Some(peer),
            Some(p) => {
                if peer.in_open_arc(p, self.id) {
                    self.predecessor = Some(peer);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Node {
        /// Every candidate the lookup path would try for `target`, in the
        /// order it tries them: [`Node::best_candidate`] asked repeatedly.
        fn route_candidates(&self, target: RingId) -> Vec<RingId> {
            let mut out = Vec::new();
            let mut ceiling = self.route_ceiling(target);
            while let Some(c) = self.best_candidate(ceiling) {
                out.push(c);
                ceiling = self.id.distance_to(c) - 1;
            }
            out
        }
    }

    #[test]
    fn fresh_node_owns_nothing() {
        let n = Node::new(RingId(100));
        assert!(!n.owns(RingId(100)));
        assert!(n.successor().is_none());
        assert!(n.arc_fraction().is_none());
    }

    #[test]
    fn ownership_follows_arc() {
        let mut n = Node::new(RingId(100));
        n.predecessor = Some(RingId(50));
        assert!(n.owns(RingId(100)));
        assert!(n.owns(RingId(51)));
        assert!(!n.owns(RingId(50)));
        assert!(!n.owns(RingId(101)));
    }

    #[test]
    fn route_candidates_ordered_by_progress() {
        let mut n = Node::new(RingId(0));
        n.fingers.set(4, Some(RingId(16)));
        n.fingers.set(6, Some(RingId(64)));
        n.successors = [RingId(5), RingId(16)].into();
        let cands = n.route_candidates(RingId(100));
        assert_eq!(cands, vec![RingId(64), RingId(16), RingId(5)]);
        // Target closer than some fingers: only preceding peers qualify.
        let cands = n.route_candidates(RingId(10));
        assert_eq!(cands, vec![RingId(5)]);
    }

    #[test]
    fn route_candidates_exclude_target_itself() {
        let mut n = Node::new(RingId(0));
        n.successors = [RingId(7)].into();
        // Target == candidate: open arc excludes it.
        assert!(n.route_candidates(RingId(7)).is_empty());
    }

    #[test]
    fn route_to_own_id_spans_the_whole_ring() {
        // Target == self: every other known peer qualifies, including the
        // one just counter-clockwise (progress u64::MAX).
        let mut n = Node::new(RingId(10));
        n.successors = [RingId(20), RingId(9)].into();
        n.fingers.set(0, Some(RingId(10)));
        assert_eq!(n.route_ceiling(RingId(10)), u64::MAX);
        assert_eq!(n.route_candidates(RingId(10)), vec![RingId(9), RingId(20)]);
    }

    /// The specification of the candidate order: filter to the open arc,
    /// sort by decreasing progress, drop duplicates.
    fn sorted_candidates(n: &Node, target: RingId) -> Vec<RingId> {
        let mut all: Vec<RingId> = n
            .fingers
            .present()
            .chain(n.successors.iter().copied())
            .filter(|&c| c != n.id && c.in_open_arc(n.id, target))
            .collect();
        all.sort_by_key(|&c| std::cmp::Reverse(n.id.distance_to(c)));
        all.dedup();
        all
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Lazy best-first enumeration ≡ the sorted candidate list, over
        /// arbitrary (stale, duplicated, self-referencing) routing state.
        #[test]
        fn lazy_enumeration_matches_sorted_list(
            me: u64,
            target: u64,
            seed: u64,
            fingers_present: u64,
            succ_len in 0usize..=SUCCESSOR_LIST_LEN,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut n = Node::new(RingId(me));
            // A small id pool forces duplicates, self entries and
            // targets-as-candidates; the rest are arbitrary.
            let pool = [me, target, me.wrapping_add(1), me.wrapping_sub(1), target.wrapping_sub(1)];
            let pick = |rng: &mut rand::rngs::StdRng| {
                if rng.gen_range(0..4) == 0 {
                    RingId(pool[rng.gen_range(0..pool.len())])
                } else {
                    RingId(rng.gen())
                }
            };
            for i in 0..64 {
                if fingers_present & (1 << i) != 0 {
                    n.fingers.set(i, Some(pick(&mut rng)));
                }
            }
            for _ in 0..succ_len {
                n.successors.push(pick(&mut rng));
            }
            let target = RingId(target);
            proptest::prop_assert_eq!(n.route_candidates(target), sorted_candidates(&n, target));
        }
    }

    #[test]
    fn forget_purges_everywhere() {
        let mut n = Node::new(RingId(0));
        n.predecessor = Some(RingId(90));
        n.successors = [RingId(5), RingId(9)].into();
        n.fingers.set(0, Some(RingId(5)));
        n.fingers.set(3, Some(RingId(9)));
        n.forget(RingId(5));
        assert_eq!(n.successors, vec![RingId(9)]);
        assert_eq!(n.fingers.get(0), None);
        assert_eq!(n.fingers.get(3), Some(RingId(9)));
        n.forget(RingId(90));
        assert_eq!(n.predecessor, None);
    }

    #[test]
    fn offer_successor_keeps_sorted_bounded() {
        let mut n = Node::new(RingId(0));
        for i in (1..=20).rev() {
            n.offer_successor(RingId(i * 10));
        }
        assert_eq!(n.successors.len(), SUCCESSOR_LIST_LEN);
        assert_eq!(n.successor(), Some(RingId(10)));
        // Offering self is ignored.
        n.offer_successor(RingId(0));
        assert!(!n.successors.contains(&RingId(0)));
        // Offering a duplicate doesn't grow the list.
        n.offer_successor(RingId(10));
        assert_eq!(n.successors.len(), SUCCESSOR_LIST_LEN);
    }

    #[test]
    fn offer_successor_handles_wraparound() {
        let mut n = Node::new(RingId(u64::MAX - 10));
        n.offer_successor(RingId(5)); // wraps around 0
        n.offer_successor(RingId(u64::MAX)); // nearer
        assert_eq!(n.successor(), Some(RingId(u64::MAX)));
    }

    #[test]
    fn offer_predecessor_takes_closer() {
        let mut n = Node::new(RingId(100));
        n.offer_predecessor(RingId(10));
        assert_eq!(n.predecessor, Some(RingId(10)));
        n.offer_predecessor(RingId(50)); // closer to 100
        assert_eq!(n.predecessor, Some(RingId(50)));
        n.offer_predecessor(RingId(20)); // farther: ignored
        assert_eq!(n.predecessor, Some(RingId(50)));
        n.offer_predecessor(RingId(100)); // self: ignored
        assert_eq!(n.predecessor, Some(RingId(50)));
    }
}
