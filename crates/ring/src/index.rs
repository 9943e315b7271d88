//! Sorted-vec node index: the network's alive-peer map.
//!
//! Replaces a `BTreeMap<RingId, Node>` on the per-hop lookup path with
//! parallel columns kept sorted by id. Point lookups go through a radix
//! directory beside the dense `Vec<RingId>` (`IdColumn`): the key's top
//! bits pick a bucket of one or two peers on average, and a binary search
//! runs only inside it, where a whole-column `partition_point` would touch
//! `log P` cache lines. Ring-order iteration is a plain walk, and
//! positional access (`key_at`) makes random-peer draws O(1) instead of the
//! `O(n)` `keys().nth(..)` walk a `BTreeMap` forces.
//!
//! Ring position `i` holds id `keys[i]` and its record lives in arena slot
//! `order[i]` — the permutation column decouples ring order from record
//! placement, so a membership change splices the two 12-byte-per-position
//! columns and recycles one slot, never memmoving the 336-byte records.
//! `NodeIndex::repair_positions` then restores perfect routing state
//! around the changed arcs in `O(log P)` per event (amortized over the
//! finger-density argument below) instead of the `O(P · RING_BITS)` full
//! rewire, bit-identical to [`RingArena::wire_perfect`] on the final column.

use crate::arena::{levels_within, FingerTable, RingArena, SuccessorList};
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
    /// Finger levels written (full-table rebuilds count [`RING_BITS`] each;
    /// retargets count one per redirected level, however many levels one
    /// range write covers).
    pub finger_writes: u64,
}

impl RepairStats {
    /// Accumulates another repair's counters into this one.
    pub fn absorb(&mut self, other: RepairStats) {
        self.nodes_rewired += other.nodes_rewired;
        self.finger_writes += other.finger_writes;
    }
}

/// The sorted id column and its radix directory, kept in lockstep.
///
/// `dir[b]` is the first position whose id's top `bits` bits are `≥ b`, for
/// every `b` in `0..=2^bits` (so the last entry is the column length).
/// `bits` is `⌊log₂ P⌋`, at least 1, so a bucket holds one or two peers on
/// average and the directory costs 4 bytes per bucket. A search reads its
/// key's bucket bounds `dir[b]..dir[b + 1]` and binary-searches only inside
/// them. Every id in a lower bucket is smaller than the key and every id in
/// a higher one larger, so [`IdColumn::lower_bound`] and
/// [`IdColumn::upper_bound`] equal `partition_point` over the whole column
/// with `<` and `<=`. An id column packed into one narrow arc falls into one
/// bucket, and the search degrades to the whole-column binary search.
///
/// Every mutator keeps the directory current in O(P). None of them
/// allocates once [`IdColumn::reserve`] has covered the new length.
#[derive(Debug, Clone)]
pub(crate) struct IdColumn {
    ids: Vec<RingId>,
    dir: Vec<u32>,
    /// `64 − bits`: an id's bucket is `id >> shift`.
    shift: u32,
}

/// The directory's bit count for a column of `len` ids (`⌊log₂ len⌋`, at
/// least 1, so the shift stays below 64).
fn radix_bits(len: usize) -> u32 {
    len.max(2).ilog2()
}

impl Default for IdColumn {
    fn default() -> Self {
        Self::from_sorted(Vec::new())
    }
}

impl std::ops::Deref for IdColumn {
    type Target = [RingId];

    fn deref(&self) -> &[RingId] {
        &self.ids
    }
}

impl IdColumn {
    /// Takes a strictly ascending id column and builds its directory.
    fn from_sorted(ids: Vec<RingId>) -> Self {
        let mut col = Self { ids, dir: Vec::new(), shift: 0 };
        col.rebuild();
        col
    }

    /// Recomputes the directory from the id column: a bucket histogram, then
    /// its prefix sums. Allocates only when the directory outgrows its
    /// capacity.
    fn rebuild(&mut self) {
        let bits = radix_bits(self.ids.len());
        self.shift = 64 - bits;
        self.dir.clear();
        self.dir.resize((1 << bits) + 1, 0);
        for id in &self.ids {
            self.dir[(id.0 >> self.shift) as usize + 1] += 1;
        }
        let mut below = 0;
        for d in &mut self.dir {
            below += *d;
            *d = below;
        }
    }

    /// The positions `dir[b]..dir[b + 1]` of `t`'s bucket `b`.
    #[inline]
    fn bucket(&self, t: RingId) -> (usize, usize) {
        let b = (t.0 >> self.shift) as usize;
        (self.dir[b] as usize, self.dir[b + 1] as usize)
    }

    /// The first position whose id is `>= t` (`len` if none).
    #[inline]
    pub(crate) fn lower_bound(&self, t: RingId) -> usize {
        let (lo, hi) = self.bucket(t);
        lo + self.ids[lo..hi].partition_point(|&k| k < t)
    }

    /// The first position whose id is `> t` (`len` if none).
    #[inline]
    pub(crate) fn upper_bound(&self, t: RingId) -> usize {
        let (lo, hi) = self.bucket(t);
        lo + self.ids[lo..hi].partition_point(|&k| k <= t)
    }

    /// Inserts `id` at `pos`, which must keep the column strictly ascending.
    fn insert(&mut self, pos: usize, id: RingId) {
        self.ids.insert(pos, id);
        self.moved(id, |d| *d += 1);
    }

    /// Removes the id at `pos`.
    fn remove(&mut self, pos: usize) {
        let id = self.ids.remove(pos);
        self.moved(id, |d| *d -= 1);
    }

    /// Brings the directory up to date after `id` entered or left the
    /// column: `step` moves the start of every bucket above `id`'s by one,
    /// unless the new length changed the bit count, which rebuilds.
    fn moved(&mut self, id: RingId, step: impl FnMut(&mut u32)) {
        if radix_bits(self.ids.len()) == 64 - self.shift {
            let b = (id.0 >> self.shift) as usize;
            self.dir[b + 1..].iter_mut().for_each(step);
        } else {
            self.rebuild();
        }
    }

    /// Swaps in a replacement id column (strictly ascending), handing the
    /// old one back in its place, and rebuilds the directory.
    fn swap_ids(&mut self, ids: &mut Vec<RingId>) {
        std::mem::swap(&mut self.ids, ids);
        self.rebuild();
    }

    /// Ensures room for `additional` more ids, and for the directory of the
    /// longer column, without reallocating.
    fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        let entries = (1usize << radix_bits(self.ids.len() + additional)) + 1;
        self.dir.reserve(entries.saturating_sub(self.dir.len()));
    }

    /// A description of the first directory entry that disagrees with the
    /// id column, if any (part of the column-consistency oracle).
    fn check_directory(&self) -> Option<String> {
        let fresh = Self::from_sorted(self.ids.clone());
        if fresh.shift != self.shift {
            return Some(format!("directory shift {} for {} ids", self.shift, self.ids.len()));
        }
        let b = fresh.dir.iter().zip(&self.dir).position(|(a, b)| a != b)?;
        Some(format!("directory entry {b} is {} (want {})", self.dir[b], fresh.dir[b]))
    }
}

/// Alive peers, keyed by ring id, in ring (ascending id) order.
///
/// The id column (`keys`) is a dense sorted `Vec<RingId>` with a radix
/// directory (`IdColumn`), the order column maps each ring position to its
/// slot in the [`RingArena`] slab, and the slab owns the records. See
/// [`crate::arena`] for the memory model.
#[derive(Debug, Clone, Default)]
pub struct NodeIndex {
    keys: IdColumn,
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
    /// per-insert search and memmove of [`NodeIndex::insert`].
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
        Self { keys: IdColumn::from_sorted(ids.to_vec()), order, arena }
    }

    /// Resets every node's routing state to the perfect steady state in
    /// `O(P · RING_BITS)` (see [`RingArena::wire_perfect`]).
    pub fn rewire_perfect(&mut self) {
        self.arena.wire_perfect(&self.keys, &self.order);
    }

    /// Column-consistency oracle: id, order, and free columns in lockstep,
    /// inline lists shape-valid (see [`RingArena::check_columns`]), and the
    /// id column's radix directory current.
    pub fn check_columns(&self) -> Vec<String> {
        let mut problems = self.arena.check_columns(&self.keys, &self.order);
        problems.extend(self.keys.check_directory());
        problems
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
        let pos = self.keys.lower_bound(id);
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

    /// Ring-order position of `id`, if present — one directory search. The
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

    /// Position of `id`, hinted `k` positions clockwise of `pos`, where a
    /// converged ring keeps the `k`-th successor of the peer at `pos` (on a
    /// ring of fewer than `k` peers the hint just misses).
    #[inline]
    pub(crate) fn position_ahead(&self, id: RingId, pos: usize, k: usize) -> Option<usize> {
        let hint = pos + k;
        self.position_hinted(id, if hint >= self.len() { hint - self.len() } else { hint })
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
        let pos = self.keys.lower_bound(t);
        if pos == self.keys.len() {
            0
        } else {
            pos
        }
    }

    /// The first peer id strictly greater than `t`, if any (no wrap).
    pub fn first_after(&self, t: RingId) -> Option<RingId> {
        self.keys.get(self.keys.upper_bound(t)).copied()
    }

    /// The smallest peer id, if any.
    pub fn first(&self) -> Option<RingId> {
        self.keys.first().copied()
    }

    /// Ensures room for `additional` more peers without reallocating any
    /// column or the directory mid-mutation (part of the allocation-free
    /// churn fence).
    pub fn reserve(&mut self, additional: usize) {
        self.keys.reserve(additional);
        self.order.reserve(additional);
        self.arena.reserve(additional);
    }

    /// The id and order columns, read-only (batch merge planning).
    pub(crate) fn columns(&self) -> (&IdColumn, &[u32]) {
        (&self.keys, &self.order)
    }

    /// Splits the index into read-only columns plus the mutable slab — the
    /// borrow shape a `ChurnBatch` data-movement pass needs (drain one slot
    /// while resolving others against the frozen columns).
    pub(crate) fn split_view(&mut self) -> (&IdColumn, &[u32], &mut RingArena) {
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
    /// ping-pongs two column pairs and never reallocates), and rebuilds the
    /// directory for the new id column.
    ///
    /// # Panics
    /// Panics if the replacement columns disagree in length.
    pub(crate) fn splice_columns(&mut self, keys: &mut Vec<RingId>, order: &mut Vec<u32>) {
        assert_eq!(keys.len(), order.len(), "replacement columns out of lockstep");
        self.keys.swap_ids(keys);
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
    /// `(pred, keys[i]]` to `keys[i]`, found per level by directory search
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
/// search (bit-identical to the `wire_perfect` monotone sweep — the
/// equivalence `arena.rs` pins in `wire_perfect_matches_binary_search_owners`).
fn rewire_position(keys: &IdColumn, order: &[u32], arena: &mut RingArena, i: usize) {
    let p = keys.len();
    let id = keys[i];
    let succ = keys[(i + 1) % p];
    let near = levels_within(id.distance_to(succ));
    let fingers = FingerTable::from_levels((0..RING_BITS).map(|f| {
        if f < near {
            return Some(succ);
        }
        let pos = keys.lower_bound(id.finger_start(f));
        Some(keys[if pos == p { 0 } else { pos }])
    }));
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
/// `(pred − 2^f, keys[i] − 2^f]`, found with two directory searches. Covers
/// both directions of change: fingers stolen from the old owner by a join,
/// and fingers inherited by an heir from a departed peer.
///
/// A node's starts `keys[j] + 2^f` grow with `f`, and only `keys[i]` itself
/// lies in the arc, so the levels at which one node's starts land there are
/// consecutive. Each node is therefore written once, at the first level
/// that reaches it, as one [`FingerTable::set_range`] over all of its
/// levels. While `2^f` fits in both gaps beside `pred`, the level-`f` arc
/// holds `pred` alone, so those levels need no search. Returns the number
/// of finger *levels* written.
fn retarget_fingers(keys: &IdColumn, order: &[u32], arena: &mut RingArena, i: usize) -> u64 {
    let p = keys.len();
    let id = keys[i];
    let pred_pos = (i + p - 1) % p;
    let pred = keys[pred_pos];
    debug_assert_ne!(pred, id, "retarget on a degenerate arc");
    let mut retarget = |j: usize, from: u32| {
        // The last level is the highest `g` with `2^g ≤ distance(keys[j],
        // id)`; `keys[i]`'s own starts that land in its arc run to the top.
        let end = if j == i { RING_BITS } else { levels_within(keys[j].distance_to(id)) };
        debug_assert!((from..end).all(|g| keys[j].finger_start(g).in_arc(pred, id)));
        debug_assert!(end == RING_BITS || !keys[j].finger_start(end).in_arc(pred, id));
        arena.slot_mut(order[j] as usize).fingers.set_range(from as usize..end as usize, Some(id));
    };
    let near = levels_within(pred.distance_to(id).min(keys[(i + p - 2) % p].distance_to(pred)));
    retarget(pred_pos, 0);
    let mut writes = u64::from(near);
    // The previous level's positions: `a..b`, or `a..p` and `0..b` wrapped.
    let mut last = (pred_pos, pred_pos + 1, false);
    for f in near..RING_BITS {
        let step = 1u64 << f;
        let lo = RingId(pred.0.wrapping_sub(step));
        let hi = RingId(id.0.wrapping_sub(step));
        let a = keys.upper_bound(lo);
        let b = keys.upper_bound(hi);
        let (head, wrapped) = if lo < hi { (a..b, 0..0) } else { (a..p, 0..b) };
        for j in head.chain(wrapped) {
            writes += 1;
            let (la, lb, lwrap) = last;
            let reached_before = if lwrap { j >= la || j < lb } else { la <= j && j < lb };
            if !reached_before {
                retarget(j, f);
            }
        }
        last = (a, b, lo >= hi);
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

    /// Every probe the directory contract covers: each key, its neighbours
    /// (wrapping), and both ends of the ring.
    fn assert_bounds_match_partition_point(col: &IdColumn, step: &str) {
        let mut probes = vec![RingId(0), RingId(u64::MAX)];
        for &k in col.iter() {
            probes.extend([k, RingId(k.0.wrapping_sub(1)), RingId(k.0.wrapping_add(1))]);
        }
        for t in probes {
            let lower = col.partition_point(|&k| k < t);
            let upper = col.partition_point(|&k| k <= t);
            assert_eq!(col.lower_bound(t), lower, "{step}: lower_bound({t})");
            assert_eq!(col.upper_bound(t), upper, "{step}: upper_bound({t})");
        }
    }

    /// A strictly ascending id column of `n` ids in one of four shapes:
    /// uniform, packed into one narrow arc (the adversarial layout), a run
    /// of consecutive ids, or uniform with both ring ends taken.
    fn id_column(rng: &mut rand::rngs::StdRng, shape: usize, n: usize) -> Vec<RingId> {
        use rand::Rng;
        let base: u64 = rng.gen();
        let mut ids: Vec<RingId> = match shape {
            0 => (0..n).map(|_| RingId(rng.gen())).collect(),
            1 => (0..n).map(|_| RingId(base.wrapping_add(rng.gen_range(0..1u64 << 24)))).collect(),
            2 => (0..n as u64).map(|i| RingId(base.wrapping_add(i))).collect(),
            _ => [RingId(0), RingId(u64::MAX)]
                .into_iter()
                .chain((2..n).map(|_| RingId(rng.gen())))
                .take(n)
                .collect(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The directory contract: `lower_bound` and `upper_bound` equal
        /// `partition_point` with `<` and `<=` on every id-column shape, at
        /// sizes 0–3, powers of two ±1 and in between, and keep doing so
        /// through random `insert`, `remove` and column-swap sequences.
        #[test]
        fn directory_bounds_match_partition_point(
            seed: u64,
            shape in 0usize..4,
            size in 0usize..40,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = match size {
                0..=3 => size,
                4..=33 => (1usize << ((size - 4) / 3 + 2)) + (size - 4) % 3 - 1,
                _ => rng.gen_range(4..2048),
            };
            let mut col = IdColumn::from_sorted(id_column(&mut rng, shape, n));
            assert_bounds_match_partition_point(&col, &format!("shape {shape}, {n} ids"));
            for op in 0..16 {
                let step = match rng.gen_range(0..3) {
                    0 => {
                        let near = col.get(rng.gen_range(0..col.len().max(1))).map_or(0, |k| k.0);
                        let id = RingId(match rng.gen_range(0..4) {
                            0 => rng.gen(),
                            1 => near.wrapping_add(1),
                            2 => near.wrapping_sub(1),
                            _ => [0, u64::MAX][rng.gen_range(0..2usize)],
                        });
                        let pos = col.lower_bound(id);
                        if col.get(pos) != Some(&id) {
                            col.insert(pos, id);
                        }
                        format!("op {op}: insert {id}")
                    }
                    1 if !col.is_empty() => {
                        let pos = rng.gen_range(0..col.len());
                        col.remove(pos);
                        format!("op {op}: remove position {pos}")
                    }
                    _ => {
                        let (shape, fresh) = (rng.gen_range(0..4), rng.gen_range(0..600));
                        let mut next = id_column(&mut rng, shape, fresh);
                        next.extend(col.iter().filter(|_| rng.gen_range(0..2) == 0));
                        next.sort_unstable();
                        next.dedup();
                        let len = next.len();
                        col.swap_ids(&mut next);
                        format!("op {op}: swap in {len} ids")
                    }
                };
                assert_bounds_match_partition_point(&col, &step);
            }
        }
    }
}
