//! Sorted-vec node index: the network's alive-peer map.
//!
//! Replaces a `BTreeMap<RingId, Node>` on the per-hop lookup path with
//! parallel columns kept sorted by id. Point lookups become a single
//! `partition_point` binary search over a dense `Vec<RingId>` (one cache
//! line per probe instead of a pointer chase per tree level), ring-order
//! iteration is a plain walk, and positional access (`key_at`) makes
//! random-peer draws O(1) instead of the `O(n)` `keys().nth(..)` walk a
//! `BTreeMap` forces.
//!
//! Ring position `i` holds id `keys[i]` and its record lives in arena slot
//! `order[i]` — the permutation column decouples ring order from record
//! placement, so a membership change splices the two 12-byte-per-position
//! columns and recycles one slot, never memmoving the ~650-byte records.
//! `NodeIndex::repair_positions` then restores perfect routing state
//! around the changed arcs in `O(log P)` per event (amortized over the
//! finger-density argument below) instead of the `O(P · RING_BITS)` full
//! rewire, bit-identical to [`RingArena::wire_perfect`] on the final column.

use crate::arena::{FingerTable, RingArena, SuccessorList};
use crate::id::{RingId, RING_BITS};
use crate::node::{Node, SUCCESSOR_LIST_LEN};

/// Work counters for a locality repair — the evidence behind the
/// "sublinear per-event repair" claim (F12b asserts these grow like
/// `log P`, not `P`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Node records whose routing state was written (full rewires plus
    /// neighborhood stitches).
    pub nodes_rewired: u64,
    /// Individual finger-slot writes (full-table rebuilds count
    /// [`RING_BITS`] each; retargets count one per redirected finger).
    pub finger_writes: u64,
}

impl RepairStats {
    /// Accumulates another repair's counters into this one.
    pub fn absorb(&mut self, other: RepairStats) {
        self.nodes_rewired += other.nodes_rewired;
        self.finger_writes += other.finger_writes;
    }
}

/// Alive peers, keyed by ring id, in ring (ascending id) order.
///
/// The id column (`keys`) is a dense sorted `Vec<RingId>`, the order column
/// maps each ring position to its slot in the [`RingArena`] slab, and the
/// slab owns the records. See [`crate::arena`] for the memory model.
#[derive(Debug, Clone, Default)]
pub struct NodeIndex {
    keys: Vec<RingId>,
    order: Vec<u32>,
    arena: RingArena,
}

impl NodeIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index of fresh (unwired) nodes from a strictly sorted id
    /// column in O(P) — the bulk-construction entry point, skipping the
    /// per-insert binary search and memmove of [`NodeIndex::insert`].
    ///
    /// # Panics
    /// Panics if `ids` is not strictly ascending.
    pub fn from_sorted_ids(ids: &[RingId]) -> Self {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly sorted");
        let mut arena = RingArena::with_capacity(ids.len());
        for &id in ids {
            arena.push(Node::new(id));
        }
        let order = (0..ids.len() as u32).collect();
        Self { keys: ids.to_vec(), order, arena }
    }

    /// Resets every node's routing state to the perfect steady state in
    /// `O(P · RING_BITS)` (see [`RingArena::wire_perfect`]).
    pub fn rewire_perfect(&mut self) {
        self.arena.wire_perfect(&self.keys, &self.order);
    }

    /// Column-consistency oracle: id, order, and free columns in lockstep,
    /// inline lists shape-valid (see [`RingArena::check_columns`]).
    pub fn check_columns(&self) -> Vec<String> {
        self.arena.check_columns(&self.keys, &self.order)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Position of `id`, if present.
    #[inline]
    fn position(&self, id: RingId) -> Result<usize, usize> {
        let pos = self.keys.partition_point(|&k| k < id);
        if pos < self.keys.len() && self.keys[pos] == id {
            Ok(pos)
        } else {
            Err(pos)
        }
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: &RingId) -> bool {
        self.position(*id).is_ok()
    }

    /// Ring-order position of `id`, if present — one binary search. The
    /// lookup path resolves each hop's callee here once and then addresses
    /// it by position ([`NodeIndex::node_at`]).
    #[inline]
    pub(crate) fn position_of(&self, id: RingId) -> Option<usize> {
        self.position(id).ok()
    }

    /// Position of `id`, trusting `hint` in O(1) when it still holds `id`
    /// and re-searching only after a membership change shifted the column.
    #[inline]
    pub(crate) fn position_hinted(&self, id: RingId, hint: usize) -> Option<usize> {
        if self.keys.get(hint) == Some(&id) {
            Some(hint)
        } else {
            self.position_of(id)
        }
    }

    /// The node at ring-order position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub(crate) fn node_at(&self, idx: usize) -> &Node {
        self.arena.slot(self.order[idx] as usize)
    }

    /// The node with `id`, if present.
    #[inline]
    pub fn get(&self, id: &RingId) -> Option<&Node> {
        self.position(*id).ok().map(|i| self.arena.slot(self.order[i] as usize))
    }

    /// Mutable access to the node with `id`, if present.
    #[inline]
    pub fn get_mut(&mut self, id: &RingId) -> Option<&mut Node> {
        match self.position(*id) {
            Ok(i) => Some(self.arena.slot_mut(self.order[i] as usize)),
            Err(_) => None,
        }
    }

    /// Inserts `node` under `id`, returning the displaced node if `id` was
    /// already present.
    pub fn insert(&mut self, id: RingId, node: Node) -> Option<Node> {
        match self.position(id) {
            Ok(i) => Some(self.arena.replace(self.order[i] as usize, node)),
            Err(i) => {
                let slot = self.arena.alloc_slot(node);
                self.keys.insert(i, id);
                self.order.insert(i, slot);
                None
            }
        }
    }

    /// Removes and returns the node with `id`, if present.
    pub fn remove(&mut self, id: &RingId) -> Option<Node> {
        match self.position(*id) {
            Ok(i) => {
                self.keys.remove(i);
                let slot = self.order.remove(i);
                Some(self.arena.free_slot(slot))
            }
            Err(_) => None,
        }
    }

    /// Peer ids in ring order.
    pub fn keys(&self) -> std::slice::Iter<'_, RingId> {
        self.keys.iter()
    }

    /// Nodes in ring order.
    pub fn values(&self) -> impl Iterator<Item = &Node> + '_ {
        self.order.iter().map(|&s| self.arena.slot(s as usize))
    }

    /// `(id, node)` pairs in ring order.
    pub fn iter(&self) -> Iter<'_> {
        self.into_iter()
    }

    /// The id at ring-order position `idx` (O(1); random-peer draws).
    pub fn key_at(&self, idx: usize) -> Option<RingId> {
        self.keys.get(idx).copied()
    }

    /// Mutable access to the node at ring-order position `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn node_at_mut(&mut self, idx: usize) -> &mut Node {
        self.arena.slot_mut(self.order[idx] as usize)
    }

    /// Ring-order position of the first peer with id `>= t`, wrapping to 0
    /// past the top of the ring — the position of `t`'s true owner.
    ///
    /// # Panics
    /// Panics if the index is empty.
    pub fn owner_position(&self, t: RingId) -> usize {
        assert!(!self.keys.is_empty(), "owner_position on empty index");
        let pos = self.keys.partition_point(|&k| k < t);
        if pos == self.keys.len() {
            0
        } else {
            pos
        }
    }

    /// The first peer id strictly greater than `t`, if any (no wrap).
    pub fn first_after(&self, t: RingId) -> Option<RingId> {
        let pos = self.keys.partition_point(|&k| k <= t);
        self.keys.get(pos).copied()
    }

    /// The smallest peer id, if any.
    pub fn first(&self) -> Option<RingId> {
        self.keys.first().copied()
    }

    /// Ensures room for `additional` more peers without reallocating any
    /// column mid-mutation (part of the allocation-free churn fence).
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.order.reserve(additional);
        self.arena.reserve(additional);
    }

    /// The id and order columns, read-only (batch merge planning).
    pub(crate) fn columns(&self) -> (&[RingId], &[u32]) {
        (&self.keys, &self.order)
    }

    /// Splits the index into read-only columns plus the mutable slab — the
    /// borrow shape a `ChurnBatch` data-movement pass needs (drain one slot
    /// while resolving others against the frozen columns).
    pub(crate) fn split_view(&mut self) -> (&[RingId], &[u32], &mut RingArena) {
        (&self.keys, &self.order, &mut self.arena)
    }

    /// Stores `node` in a slot without entering it into the columns (batch
    /// join staging: the merged columns arrive later via
    /// [`NodeIndex::splice_columns`]). Returns the slot index.
    pub(crate) fn alloc_detached(&mut self, node: Node) -> u32 {
        self.arena.alloc_slot(node)
    }

    /// Retires `slot` to the free list (batch leave/crash retirement, after
    /// the columns have stopped referencing it), returning its record.
    pub(crate) fn free_slot(&mut self, slot: u32) -> Node {
        self.arena.free_slot(slot)
    }

    /// Swaps in replacement id/order columns, handing the old ones back in
    /// their place (the caller keeps them as scratch, so steady-state churn
    /// ping-pongs two column pairs and never reallocates).
    ///
    /// # Panics
    /// Panics if the replacement columns disagree in length.
    pub(crate) fn splice_columns(&mut self, keys: &mut Vec<RingId>, order: &mut Vec<u32>) {
        assert_eq!(keys.len(), order.len(), "replacement columns out of lockstep");
        std::mem::swap(&mut self.keys, keys);
        std::mem::swap(&mut self.order, order);
    }

    /// Restores perfect routing state after a membership change that left
    /// the columns final but the records stale, touching only the changed
    /// arcs. `affected` holds the final-column ring positions whose
    /// ownership arc changed: each join's own position, and the heir
    /// (successor) position of each departed peer. Positions must be in
    /// bounds; duplicates are harmless (every write is idempotent against
    /// the final column).
    ///
    /// Per affected position `i` this (1) fully rebuilds position `i`'s
    /// record, (2) stitches the neighborhood — successor's predecessor,
    /// the [`SUCCESSOR_LIST_LEN`] predecessors' successor lists — and
    /// (3) retargets every finger whose start falls in the changed arc
    /// `(pred, keys[i]]` to `keys[i]`, found per level by binary search
    /// (the level-`f` starts landing there are the keys in
    /// `(pred − 2^f, keys[i] − 2^f]`). Affected arcs are disjoint
    /// `(pred, self]` ownership arcs of the final ring and every other
    /// owner is unchanged, so the result is bit-identical to
    /// [`RingArena::wire_perfect`] on the final columns — the cross-path
    /// property `churn_equivalence.rs` pins.
    ///
    /// Rings small enough that one event shifts the successor-list length
    /// regime (`P ≤ SUCCESSOR_LIST_LEN + 1`) take the full rewire instead —
    /// correct and just as cheap at that size.
    pub(crate) fn repair_positions(&mut self, affected: &[usize]) -> RepairStats {
        let p = self.keys.len();
        let mut stats = RepairStats::default();
        if p == 0 {
            return stats;
        }
        if p <= SUCCESSOR_LIST_LEN + 1 {
            self.rewire_perfect();
            stats.nodes_rewired = p as u64;
            stats.finger_writes = (p as u64) * u64::from(RING_BITS);
            return stats;
        }
        let Self { keys, order, arena } = self;
        for &i in affected {
            rewire_position(keys, order, arena, i);
            stats.nodes_rewired += 1;
            stats.finger_writes += u64::from(RING_BITS);
            let succ_pos = (i + 1) % p;
            arena.slot_mut(order[succ_pos] as usize).predecessor = Some(keys[i]);
            stats.nodes_rewired += 1;
            // p > SUCCESSOR_LIST_LEN + 1, so these positions are distinct
            // from i and the writes below never clobber the full rewire.
            for k in 1..=SUCCESSOR_LIST_LEN {
                rebuild_successors(keys, order, arena, (i + p - k) % p);
                stats.nodes_rewired += 1;
            }
            stats.finger_writes += retarget_fingers(keys, order, arena, i);
        }
        stats
    }
}

/// Rebuilds the full routing record at ring position `i` from the final
/// columns: predecessor and successors off ring order, each finger by owner
/// binary search (bit-identical to the `wire_perfect` monotone sweep — the
/// equivalence `arena.rs` pins in `wire_perfect_matches_binary_search_owners`).
fn rewire_position(keys: &[RingId], order: &[u32], arena: &mut RingArena, i: usize) {
    let p = keys.len();
    let id = keys[i];
    let mut fingers = FingerTable::new();
    for f in 0..RING_BITS {
        let start = id.finger_start(f);
        let pos = keys.partition_point(|&k| k < start);
        fingers.set(f as usize, Some(keys[if pos == p { 0 } else { pos }]));
    }
    let mut succs = SuccessorList::new();
    for k in 1..=SUCCESSOR_LIST_LEN.min(p - 1).max(1) {
        succs.push(keys[(i + k) % p]);
    }
    let node = arena.slot_mut(order[i] as usize);
    node.predecessor = Some(keys[(i + p - 1) % p]);
    node.successors = succs;
    node.fingers = fingers;
}

/// Rebuilds only the successor list at ring position `pos` (the stitch for
/// the [`SUCCESSOR_LIST_LEN`] positions preceding a changed arc).
fn rebuild_successors(keys: &[RingId], order: &[u32], arena: &mut RingArena, pos: usize) {
    let p = keys.len();
    let mut succs = SuccessorList::new();
    for k in 1..=SUCCESSOR_LIST_LEN.min(p - 1).max(1) {
        succs.push(keys[(pos + k) % p]);
    }
    arena.slot_mut(order[pos] as usize).successors = succs;
}

/// Points every finger whose start falls in the changed ownership arc
/// `(pred, keys[i]]` at its new owner `keys[i]`. For level `f` the starts
/// landing in that arc belong to exactly the keys in the (wrapped) arc
/// `(pred − 2^f, keys[i] − 2^f]`, found with two binary searches. Covers
/// both directions of change: fingers stolen from the old owner by a join,
/// and fingers inherited by an heir from a departed peer. Returns the
/// number of finger writes.
fn retarget_fingers(keys: &[RingId], order: &[u32], arena: &mut RingArena, i: usize) -> u64 {
    let p = keys.len();
    let id = keys[i];
    let pred = keys[(i + p - 1) % p];
    debug_assert_ne!(pred, id, "retarget on a degenerate arc");
    let mut writes = 0u64;
    for f in 0..RING_BITS {
        let step = 1u64 << f;
        let lo = RingId(pred.0.wrapping_sub(step));
        let hi = RingId(id.0.wrapping_sub(step));
        let a = keys.partition_point(|&k| k <= lo);
        let b = keys.partition_point(|&k| k <= hi);
        let mut set = |j: usize| {
            arena.slot_mut(order[j] as usize).fingers.set(f as usize, Some(id));
            writes += 1;
        };
        if lo < hi {
            (a..b).for_each(&mut set);
        } else {
            (a..p).for_each(&mut set);
            (0..b).for_each(&mut set);
        }
    }
    writes
}

/// Ring-order `(id, node)` iterator over a [`NodeIndex`] — walks the id and
/// order columns in lockstep, resolving each position's slot in the arena.
pub struct Iter<'a> {
    keys: std::slice::Iter<'a, RingId>,
    order: std::slice::Iter<'a, u32>,
    arena: &'a RingArena,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a RingId, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.keys.next()?;
        let &slot = self.order.next()?;
        Some((key, self.arena.slot(slot as usize)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a NodeIndex {
    type Item = (&'a RingId, &'a Node);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        Iter { keys: self.keys.iter(), order: self.order.iter(), arena: &self.arena }
    }
}

impl std::ops::Index<&RingId> for NodeIndex {
    type Output = Node;

    fn index(&self, id: &RingId) -> &Node {
        self.get(id).expect("no node with this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(ids: &[u64]) -> NodeIndex {
        let mut n = NodeIndex::new();
        for &i in ids {
            n.insert(RingId(i), Node::new(RingId(i)));
        }
        n
    }

    #[test]
    fn insert_keeps_ring_order() {
        let n = idx(&[50, 10, 90, 30]);
        let keys: Vec<u64> = n.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![10, 30, 50, 90]);
        assert_eq!(n.len(), 4);
        assert!(n.contains_key(&RingId(30)));
        assert!(!n.contains_key(&RingId(31)));
        assert!(n.check_columns().is_empty());
    }

    #[test]
    fn insert_replaces_and_returns_old() {
        let mut n = idx(&[10]);
        let mut replacement = Node::new(RingId(10));
        replacement.predecessor = Some(RingId(5));
        let old = n.insert(RingId(10), replacement).expect("was present");
        assert_eq!(old.predecessor, None);
        assert_eq!(n.len(), 1);
        assert_eq!(n[&RingId(10)].predecessor, Some(RingId(5)));
    }

    #[test]
    fn remove_returns_node_and_recycles_slot() {
        let mut n = idx(&[10, 20, 30]);
        assert!(n.remove(&RingId(15)).is_none());
        let gone = n.remove(&RingId(20)).expect("present");
        assert_eq!(gone.id, RingId(20));
        assert_eq!(n.len(), 2);
        assert!(!n.contains_key(&RingId(20)));
        assert!(n.check_columns().is_empty());
        // Re-inserting recycles the freed slot: columns stay consistent and
        // ring order is preserved even though slot order is now permuted.
        n.insert(RingId(25), Node::new(RingId(25)));
        let keys: Vec<u64> = n.keys().map(|k| k.0).collect();
        assert_eq!(keys, vec![10, 25, 30]);
        assert!(n.check_columns().is_empty());
    }

    #[test]
    fn positional_and_successor_queries() {
        let n = idx(&[10, 20, 30]);
        assert_eq!(n.key_at(0), Some(RingId(10)));
        assert_eq!(n.key_at(2), Some(RingId(30)));
        assert_eq!(n.key_at(3), None);
        assert_eq!(n.owner_position(RingId(20)), 1); // at-or-after, inclusive
        assert_eq!(n.owner_position(RingId(21)), 2);
        assert_eq!(n.owner_position(RingId(31)), 0); // wraps
        assert_eq!(n.first_after(RingId(20)), Some(RingId(30)));
        assert_eq!(n.first_after(RingId(30)), None); // strict, no wrap
        assert_eq!(n.first(), Some(RingId(10)));
    }

    #[test]
    fn positional_node_access_and_hints() {
        let mut n = idx(&[10, 20, 30]);
        assert_eq!(n.position_of(RingId(20)), Some(1));
        assert_eq!(n.position_of(RingId(25)), None);
        assert_eq!(n.node_at(2).id, RingId(30));
        // A valid hint is trusted; a stale one falls back to the search.
        assert_eq!(n.position_hinted(RingId(30), 2), Some(2));
        n.remove(&RingId(10)).expect("present");
        assert_eq!(n.position_hinted(RingId(30), 2), Some(1));
        assert_eq!(n.position_hinted(RingId(30), 7), Some(1));
        assert_eq!(n.position_hinted(RingId(10), 0), None);
    }

    #[test]
    fn from_sorted_ids_matches_incremental_inserts() {
        let ids: Vec<RingId> = [10u64, 20, 30, 90].iter().map(|&i| RingId(i)).collect();
        let bulk = NodeIndex::from_sorted_ids(&ids);
        let incremental = idx(&[90, 20, 10, 30]);
        assert_eq!(bulk.len(), incremental.len());
        for (&k, node) in &bulk {
            assert_eq!(node.id, k);
            assert!(incremental.contains_key(&k));
        }
        assert!(bulk.check_columns().is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn from_sorted_ids_rejects_unsorted() {
        let _ = NodeIndex::from_sorted_ids(&[RingId(20), RingId(10)]);
    }

    #[test]
    fn iteration_yields_pairs_in_order_despite_permuted_slots() {
        let mut n = idx(&[30, 10, 20]);
        // Churn the slots so ring order and slot order disagree.
        n.remove(&RingId(10)).expect("present");
        n.insert(RingId(15), Node::new(RingId(15)));
        let pairs: Vec<u64> = (&n)
            .into_iter()
            .map(|(&k, node)| {
                assert_eq!(k, node.id);
                k.0
            })
            .collect();
        assert_eq!(pairs, vec![15, 20, 30]);
        let via_values: Vec<u64> = n.values().map(|node| node.id.0).collect();
        assert_eq!(via_values, pairs);
    }

    #[test]
    fn repair_positions_matches_wire_perfect_after_a_splice() {
        // Direct column-surgery exercise of the repair engine, independent
        // of the ChurnBatch driver: insert one id mid-ring, repair only its
        // position, and demand bit-identical state to a full rewire.
        let ids: Vec<RingId> =
            (1..=32u64).map(|i| RingId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        let mut n = NodeIndex::from_sorted_ids(&sorted);
        n.rewire_perfect();
        let new_id = RingId(sorted[10].0 + 1);
        n.insert(new_id, Node::new(new_id));
        let pos = n.owner_position(new_id);
        assert_eq!(n.key_at(pos), Some(new_id));
        let stats = n.repair_positions(&[pos]);
        assert!(stats.nodes_rewired >= 1 && stats.finger_writes >= u64::from(RING_BITS));

        let mut full = n.clone();
        full.rewire_perfect();
        for (&k, node) in &n {
            let reference = &full[&k];
            assert_eq!(node.predecessor, reference.predecessor, "pred of {k}");
            assert_eq!(node.successors, reference.successors, "succs of {k}");
            assert_eq!(node.fingers, reference.fingers, "fingers of {k}");
        }
        assert!(n.check_columns().is_empty());
    }
}
