//! Arena-backed per-peer routing state for the mega-scale regime.
//!
//! Before this module, every [`Node`] owned two heap allocations for routing
//! state alone — a `Vec<RingId>` successor list and a ~1 KiB
//! `Vec<Option<RingId>>` finger table — so a 10⁶-peer network cost two
//! million small allocations before storing a single item, and building one
//! re-derived each finger with an `O(log P)` binary search
//! (`O(P · RING_BITS · log P)` total). This module replaces both:
//!
//! * [`SuccessorList`] — the successor list as an inline
//!   `[RingId; SUCCESSOR_LIST_LEN]` plus a length, heap-free;
//! * [`FingerTable`] — the finger table as an inline
//!   `[RingId; RING_BITS]` plus a presence bitmask, heap-free;
//! * [`RingArena`] — the slab that owns every node record. Together with the
//!   id and order columns kept by [`crate::index::NodeIndex`] this is the
//!   network's columnar store: a dense sorted `Vec<RingId>` for search, a
//!   `Vec<u32>` permutation mapping ring positions to slots, and one
//!   contiguous slab of fixed-size records for state. Forking a network
//!   clones three flat vectors (data stores stay CoW behind their `Arc`s),
//!   and a membership change splices the 12-byte-per-position columns — the
//!   records never move, so churn at 10⁶ peers costs kilobytes of memmove,
//!   not megabytes.
//!
//! [`RingArena::wire_perfect`] rebuilds *perfect* routing state in
//! `O(P · RING_BITS)`: for a fixed finger level `f`, the targets
//! `ids[i] + 2^f` are strictly increasing in `i`, so their owners are found
//! with one monotone sweep over the (virtually doubled) id column instead of
//! a binary search per finger.

use crate::id::{RingId, RING_BITS};
use crate::node::{Node, SUCCESSOR_LIST_LEN};

/// A heap-free successor list: up to [`SUCCESSOR_LIST_LEN`] peer ids, inline.
///
/// Dereferences to a slice, so reads (`iter`, `contains`, `first`, indexing,
/// `len`) look exactly like the `Vec<RingId>` it replaced. Mutations keep a
/// normalization invariant — slots at and beyond `len` are `RingId(0)` — so
/// the derived `PartialEq`/`Hash` compare logical contents and
/// [`RingArena::check_columns`] can detect a corrupted length column.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SuccessorList {
    ids: [RingId; SUCCESSOR_LIST_LEN],
    len: u8,
}

impl SuccessorList {
    /// An empty list.
    /// Deterministic: constructs fixed, zeroed contents.
    pub fn new() -> Self {
        Self { ids: [RingId(0); SUCCESSOR_LIST_LEN], len: 0 }
    }

    /// Appends `peer`.
    ///
    /// # Panics
    /// Panics if the list is full — construction paths never exceed the
    /// capacity; bounded insertion goes through [`Node::offer_successor`].
    /// Deterministic: appends in call order; no hidden ordering.
    pub fn push(&mut self, peer: RingId) {
        let len = self.len as usize;
        assert!(len < SUCCESSOR_LIST_LEN, "successor list over capacity");
        self.ids[len] = peer;
        self.len += 1;
    }

    /// Keeps only the ids satisfying `pred`, preserving order.
    /// Deterministic: order-preserving filter over inline slots.
    pub fn retain(&mut self, mut pred: impl FnMut(&RingId) -> bool) {
        let len = self.len as usize;
        let mut kept = 0;
        for i in 0..len {
            if pred(&self.ids[i]) {
                self.ids[kept] = self.ids[i];
                kept += 1;
            }
        }
        for slot in &mut self.ids[kept..len] {
            *slot = RingId(0);
        }
        self.len = kept as u8;
    }

    /// Shortens the list to at most `n` ids.
    /// Deterministic: order-preserving shrink; vacated slots normalized.
    pub fn truncate(&mut self, n: usize) {
        let len = self.len as usize;
        if n < len {
            for slot in &mut self.ids[n..len] {
                *slot = RingId(0);
            }
            self.len = n as u8;
        }
    }

    /// Removes and returns the id at `idx`, shifting the tail left.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    /// Deterministic: index-addressed removal with a left shift.
    pub fn remove(&mut self, idx: usize) -> RingId {
        let len = self.len as usize;
        assert!(idx < len, "remove index {idx} out of bounds (len {len})");
        let removed = self.ids[idx];
        self.ids.copy_within(idx + 1..len, idx);
        self.ids[len - 1] = RingId(0);
        self.len -= 1;
        removed
    }

    /// Replays the historical offer semantics (append if absent, stable-sort
    /// by clockwise distance from `me`, truncate to capacity) on a stack
    /// scratch buffer. Distance from a fixed origin is injective, so the
    /// sorted order is unique and an unstable sort is equivalent.
    pub(crate) fn offer_by_distance(&mut self, me: RingId, peer: RingId) {
        let len = self.len as usize;
        let mut scratch = [RingId(0); SUCCESSOR_LIST_LEN + 1];
        scratch[..len].copy_from_slice(&self.ids[..len]);
        let mut m = len;
        if !scratch[..len].contains(&peer) {
            scratch[m] = peer;
            m += 1;
        }
        scratch[..m].sort_unstable_by_key(|&s| me.distance_to(s));
        let keep = m.min(SUCCESSOR_LIST_LEN);
        self.ids[..keep].copy_from_slice(&scratch[..keep]);
        for slot in &mut self.ids[keep..] {
            *slot = RingId(0);
        }
        self.len = keep as u8;
    }

    /// Internal invariant check: length in bounds and vacated slots
    /// normalized to `RingId(0)`.
    fn check_shape(&self) -> Result<(), String> {
        let len = self.len as usize;
        if len > SUCCESSOR_LIST_LEN {
            return Err(format!("successor length column {len} > {SUCCESSOR_LIST_LEN}"));
        }
        if let Some(junk) = self.ids[len..].iter().find(|&&s| s != RingId(0)) {
            return Err(format!("successor slot beyond len {len} holds {junk}"));
        }
        Ok(())
    }
}

impl Default for SuccessorList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for SuccessorList {
    type Target = [RingId];

    fn deref(&self) -> &[RingId] {
        &self.ids[..self.len as usize]
    }
}

impl<const N: usize> From<[RingId; N]> for SuccessorList {
    fn from(ids: [RingId; N]) -> Self {
        let mut list = Self::new();
        for id in ids {
            list.push(id);
        }
        list
    }
}

impl FromIterator<RingId> for SuccessorList {
    fn from_iter<I: IntoIterator<Item = RingId>>(iter: I) -> Self {
        let mut list = Self::new();
        for id in iter {
            list.push(id);
        }
        list
    }
}

impl IntoIterator for SuccessorList {
    type Item = RingId;
    type IntoIter = std::iter::Take<std::array::IntoIter<RingId, SUCCESSOR_LIST_LEN>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len as usize)
    }
}

impl<'a> IntoIterator for &'a SuccessorList {
    type Item = &'a RingId;
    type IntoIter = std::slice::Iter<'a, RingId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq<Vec<RingId>> for SuccessorList {
    fn eq(&self, other: &Vec<RingId>) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for SuccessorList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A heap-free finger table: [`RING_BITS`] inline targets plus a presence
/// bitmask (`fingers[i] ≈ successor(id + 2^i)`, absent when the last refresh
/// failed).
///
/// Absent slots keep their target normalized to `RingId(0)` so the derived
/// `PartialEq` compares logical contents and [`RingArena::check_columns`]
/// can detect a target/bitmask desync.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FingerTable {
    targets: [RingId; RING_BITS as usize],
    mask: u64,
}

impl FingerTable {
    /// An empty table (every finger absent).
    /// Deterministic: constructs fixed, zeroed contents.
    pub fn new() -> Self {
        Self { targets: [RingId(0); RING_BITS as usize], mask: 0 }
    }

    /// The finger at level `i`, if set.
    #[inline]
    /// Deterministic: reads the indexed slot.
    pub fn get(&self, i: usize) -> Option<RingId> {
        if self.mask & (1u64 << i) != 0 {
            Some(self.targets[i])
        } else {
            None
        }
    }

    /// Sets or clears the finger at level `i`.
    #[inline]
    /// Deterministic: writes the indexed slot.
    pub fn set(&mut self, i: usize, target: Option<RingId>) {
        match target {
            Some(t) => {
                self.targets[i] = t;
                self.mask |= 1u64 << i;
            }
            None => {
                self.targets[i] = RingId(0);
                self.mask &= !(1u64 << i);
            }
        }
    }

    /// The set fingers in level order (the replacement for the old
    /// `fingers.iter().flatten()`); allocation-free.
    /// Deterministic: yields targets in fixed finger-index order.
    pub fn present(&self) -> impl Iterator<Item = RingId> + '_ {
        let mask = self.mask;
        (0..RING_BITS as usize)
            .filter(move |i| mask & (1u64 << i) != 0)
            .map(move |i| self.targets[i])
    }

    /// The largest clockwise progress `distance(me, finger)` among set
    /// fingers that does not exceed `ceiling`, or 0 when none qualifies.
    /// Branch-free over all [`RING_BITS`] slots (a fixed-trip loop the
    /// compiler can unroll), since routing calls it on every hop.
    /// Deterministic: a pure max over the slots.
    #[inline]
    pub(crate) fn best_progress(&self, me: RingId, ceiling: u64) -> u64 {
        let mut best = 0u64;
        for (i, t) in self.targets.iter().enumerate() {
            let d = me.distance_to(*t);
            let ok = (self.mask >> i) & 1 == 1 && d <= ceiling;
            best = best.max(if ok { d } else { 0 });
        }
        best
    }

    /// Clears every finger pointing at `dead`.
    /// Deterministic: clears matching slots in index order.
    pub fn forget(&mut self, dead: RingId) {
        for i in 0..RING_BITS as usize {
            if self.mask & (1u64 << i) != 0 && self.targets[i] == dead {
                self.set(i, None);
            }
        }
    }

    /// Internal invariant check: absent slots normalized to `RingId(0)`.
    fn check_shape(&self) -> Result<(), String> {
        for i in 0..RING_BITS as usize {
            if self.mask & (1u64 << i) == 0 && self.targets[i] != RingId(0) {
                return Err(format!("finger {i} absent in mask but targets {}", self.targets[i]));
            }
        }
        Ok(())
    }
}

impl Default for FingerTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FingerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries((0..RING_BITS as usize).filter_map(|i| self.get(i).map(|t| (i, t))))
            .finish()
    }
}

/// The slab owning every node record, addressed through the permutation
/// column kept by [`crate::index::NodeIndex`].
///
/// Records are fixed-size (successors and fingers inline, store and replica
/// payloads behind CoW handles), so the slab is one contiguous allocation
/// and positional access never chases a pointer. Records are **slot-stable**:
/// a membership change splices the 12-byte-per-position `(key, order)`
/// columns, never the ~650-byte records themselves, and a freed slot is
/// recycled through a free list (`alloc_slot` / `free_slot`) so a warmed
/// join/leave cycle allocates nothing. Ring order lives entirely in the
/// `order` column; slot indices carry no ordering meaning.
#[derive(Debug, Clone, Default)]
pub struct RingArena {
    slots: Vec<Node>,
    free: Vec<u32>,
}

impl RingArena {
    /// An empty arena.
    /// Deterministic: constructs fixed, zeroed contents.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `n` records.
    /// Deterministic: constructs fixed contents for the given capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self { slots: Vec::with_capacity(n), free: Vec::new() }
    }

    /// Number of live records (slab size minus the free list).
    /// Deterministic: reads the column lengths.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the arena holds no live records.
    /// Deterministic: reads the column lengths.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record in slot `i`.
    #[inline]
    /// Deterministic: reads the indexed slot.
    pub fn slot(&self, i: usize) -> &Node {
        &self.slots[i]
    }

    /// Mutable access to the record in slot `i`.
    #[inline]
    /// Deterministic: borrows the indexed slot.
    pub fn slot_mut(&mut self, i: usize) -> &mut Node {
        &mut self.slots[i]
    }

    /// Appends a record at the next slab position (bulk construction: ids
    /// arrive pre-sorted, so slot order equals ring order and the order
    /// column is the identity).
    ///
    /// # Panics
    /// Panics if slots have been freed — bulk append on a recycled slab
    /// would desync slot indices from positions.
    /// Deterministic: appends in call order; no hidden ordering.
    pub fn push(&mut self, node: Node) {
        assert!(self.free.is_empty(), "bulk push on an arena with freed slots");
        self.slots.push(node);
    }

    /// Stores `node` in a recycled slot if one is free, else appends;
    /// returns the slot index. Allocation-free once the slab has capacity
    /// and the free list is non-empty.
    /// Deterministic: recycles most-recently-freed first (LIFO).
    pub fn alloc_slot(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = node;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("arena slot count exceeds u32");
                self.slots.push(node);
                s
            }
        }
    }

    /// Retires slot `s` to the free list, returning its record (the slot
    /// itself keeps a zeroed tombstone until recycled).
    /// Deterministic: swaps the indexed slot; LIFO free list.
    pub fn free_slot(&mut self, s: u32) -> Node {
        let node = std::mem::replace(&mut self.slots[s as usize], Node::new(RingId(0)));
        self.free.push(s);
        node
    }

    /// Ensures room for `additional` more live records without reallocating
    /// mid-mutation.
    /// Deterministic: capacity growth only; contents untouched.
    pub fn reserve(&mut self, additional: usize) {
        let fresh = additional.saturating_sub(self.free.len());
        self.slots.reserve(fresh);
        self.free.reserve(additional);
    }

    /// Replaces the record in slot `i`, returning the old one.
    /// Deterministic: swaps the indexed slot.
    pub fn replace(&mut self, i: usize, node: Node) -> Node {
        std::mem::replace(&mut self.slots[i], node)
    }

    /// Resets every record's routing state to the perfect steady state for
    /// the id column `keys` (ring position `i` living in slot `order[i]`),
    /// in `O(P · RING_BITS)`.
    ///
    /// Successors and predecessors read straight off ring order. Fingers use
    /// a monotone sweep per level: for fixed `f` the (un-wrapped) targets
    /// `keys[i] + 2^f` are strictly increasing, so the owning position in
    /// the virtually doubled column `[keys[0], …, keys[p-1], keys[0]+2^64, …]`
    /// only ever advances. Output is bit-identical to the per-finger
    /// `true_owner` binary search it replaced.
    ///
    /// # Panics
    /// Panics if `keys` and `order` disagree in length (the columns are
    /// out of lockstep).
    /// Deterministic: a pure function of the sorted `keys` and `order`
    /// columns.
    pub fn wire_perfect(&mut self, keys: &[RingId], order: &[u32]) {
        let p = keys.len();
        assert_eq!(p, order.len(), "id column and order column out of lockstep");
        if p == 0 {
            return;
        }
        for i in 0..p {
            let node = &mut self.slots[order[i] as usize];
            node.predecessor = Some(keys[(i + p - 1) % p]);
            let mut succs = SuccessorList::new();
            for k in 1..=SUCCESSOR_LIST_LEN.min(p - 1).max(1) {
                succs.push(keys[(i + k) % p]);
            }
            node.successors = succs;
            node.fingers = FingerTable::new();
        }
        let wrap = 1u128 << RING_BITS;
        let virt = |j: usize| -> u128 {
            if j < p {
                u128::from(keys[j].0)
            } else {
                u128::from(keys[j - p].0) + wrap
            }
        };
        for f in 0..RING_BITS as usize {
            let step = 1u128 << f;
            let mut j = 0usize;
            for i in 0..p {
                let target = u128::from(keys[i].0) + step;
                while j < 2 * p && virt(j) < target {
                    j += 1;
                }
                // j == 2p can only mean the target wrapped past the top of
                // the doubled column; ownership wraps to the first peer.
                let owner = keys[if j < 2 * p { j % p } else { 0 }];
                self.slots[order[i] as usize].fingers.set(f, Some(owner));
            }
        }
    }

    /// Column-consistency oracle for the DST harness: the id and order
    /// columns must be in lockstep (same length, strictly sorted ids, each
    /// position's slot live and holding the matching id), the order and free
    /// columns must partition the slab (every slot referenced exactly once),
    /// and every inline list must be shape-valid (length in bounds, vacated
    /// slots normalized). Returns a list of violations (empty = consistent).
    /// Deterministic: scans positions in ring order; messages are stable.
    pub fn check_columns(&self, keys: &[RingId], order: &[u32]) -> Vec<String> {
        let mut violations = Vec::new();
        if keys.len() != order.len() {
            violations.push(format!(
                "id column has {} entries but order column has {}",
                keys.len(),
                order.len()
            ));
            return violations;
        }
        if order.len() + self.free.len() != self.slots.len() {
            violations.push(format!(
                "order ({}) + free ({}) entries do not cover the {}-slot slab",
                order.len(),
                self.free.len(),
                self.slots.len()
            ));
        }
        let mut seen = vec![false; self.slots.len()];
        for &s in &self.free {
            match seen.get_mut(s as usize) {
                Some(flag) if !*flag => *flag = true,
                Some(_) => violations.push(format!("slot {s} freed twice")),
                None => violations.push(format!("free list references slot {s} out of bounds")),
            }
        }
        for (i, (&key, &s)) in keys.iter().zip(order.iter()).enumerate() {
            let node = match seen.get_mut(s as usize) {
                Some(flag) if !*flag => {
                    *flag = true;
                    &self.slots[s as usize]
                }
                Some(_) => {
                    violations.push(format!("position {i} references slot {s} already claimed"));
                    continue;
                }
                None => {
                    violations.push(format!("position {i} references slot {s} out of bounds"));
                    continue;
                }
            };
            if node.id != key {
                violations.push(format!("column desync at {i}: key {key} vs record {}", node.id));
            }
            if i + 1 < keys.len() && keys[i] >= keys[i + 1] {
                violations.push(format!("id column not strictly sorted at {i}"));
            }
            if let Err(e) = node.successors.check_shape() {
                violations.push(format!("{key}: {e}"));
            }
            if let Err(e) = node.fingers.check_shape() {
                violations.push(format!("{key}: {e}"));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_list_mirrors_vec_semantics() {
        let mut list = SuccessorList::new();
        assert!(list.is_empty());
        list.push(RingId(5));
        list.push(RingId(9));
        list.push(RingId(12));
        assert_eq!(list.len(), 3);
        assert_eq!(list.first(), Some(&RingId(5)));
        assert!(list.contains(&RingId(9)));
        assert_eq!(list, vec![RingId(5), RingId(9), RingId(12)]);
        assert_eq!(list.remove(0), RingId(5));
        assert_eq!(list, vec![RingId(9), RingId(12)]);
        list.retain(|&s| s != RingId(12));
        assert_eq!(list, vec![RingId(9)]);
        list.truncate(0);
        assert!(list.is_empty());
        assert_eq!(list, SuccessorList::new());
    }

    #[test]
    fn successor_list_normalizes_vacated_slots() {
        let mut a: SuccessorList = [RingId(3), RingId(7), RingId(11)].into();
        a.remove(1);
        a.check_shape().expect("normalized after remove");
        a.retain(|&s| s != RingId(3));
        a.check_shape().expect("normalized after retain");
        // Logical equality ignores history: a list built directly compares equal.
        let b: SuccessorList = [RingId(11)].into();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn successor_list_push_guards_capacity() {
        let mut list = SuccessorList::new();
        for i in 0..=SUCCESSOR_LIST_LEN as u64 {
            list.push(RingId(i));
        }
    }

    #[test]
    fn offer_by_distance_matches_push_sort_truncate() {
        // Replay of the historical Vec semantics, including on a list that
        // is not distance-sorted (stale joins can produce those).
        let me = RingId(50);
        let mut list: SuccessorList = [RingId(100), RingId(10), RingId(60)].into();
        let mut reference: Vec<RingId> = vec![RingId(100), RingId(10), RingId(60)];
        for peer in [RingId(55), RingId(10), RingId(49), RingId(51), RingId(90), RingId(200)] {
            list.offer_by_distance(me, peer);
            if !reference.contains(&peer) {
                reference.push(peer);
            }
            reference.sort_by_key(|&s| me.distance_to(s));
            reference.truncate(SUCCESSOR_LIST_LEN);
            assert_eq!(list, reference, "after offering {peer}");
        }
    }

    #[test]
    fn finger_table_set_get_present() {
        let mut t = FingerTable::new();
        assert_eq!(t.get(0), None);
        t.set(4, Some(RingId(16)));
        t.set(6, Some(RingId(64)));
        t.set(63, Some(RingId(1)));
        assert_eq!(t.get(4), Some(RingId(16)));
        assert_eq!(t.present().collect::<Vec<_>>(), vec![RingId(16), RingId(64), RingId(1)]);
        t.set(4, None);
        assert_eq!(t.get(4), None);
        t.forget(RingId(64));
        assert_eq!(t.present().collect::<Vec<_>>(), vec![RingId(1)]);
        t.check_shape().expect("normalized");
    }

    #[test]
    fn wire_perfect_matches_binary_search_owners() {
        // Adversarially bunched ids plus wraparound coverage.
        let mut keys: Vec<RingId> = vec![
            RingId(3),
            RingId(5),
            RingId(6),
            RingId(1 << 20),
            RingId(u64::MAX / 2),
            RingId(u64::MAX - 4),
            RingId(u64::MAX - 3),
            RingId(u64::MAX),
        ];
        keys.sort();
        let mut arena = RingArena::new();
        for &k in &keys {
            arena.push(Node::new(k));
        }
        let order: Vec<u32> = (0..keys.len() as u32).collect();
        arena.wire_perfect(&keys, &order);
        let true_owner = |t: RingId| -> RingId {
            let pos = keys.partition_point(|&k| k < t);
            keys[if pos == keys.len() { 0 } else { pos }]
        };
        for (i, &id) in keys.iter().enumerate() {
            let node = arena.slot(i);
            for f in 0..RING_BITS {
                assert_eq!(
                    node.fingers.get(f as usize),
                    Some(true_owner(id.finger_start(f))),
                    "node {id} finger {f}"
                );
            }
            assert_eq!(node.predecessor, Some(keys[(i + keys.len() - 1) % keys.len()]));
            assert_eq!(node.successor(), Some(keys[(i + 1) % keys.len()]));
        }
        assert!(arena.check_columns(&keys, &order).is_empty());
    }

    #[test]
    fn wire_perfect_single_node_points_at_itself() {
        let keys = vec![RingId(42)];
        let mut arena = RingArena::new();
        arena.push(Node::new(RingId(42)));
        arena.wire_perfect(&keys, &[0]);
        let node = arena.slot(0);
        assert_eq!(node.predecessor, Some(RingId(42)));
        assert_eq!(node.successor(), Some(RingId(42)));
        for f in 0..RING_BITS as usize {
            assert_eq!(node.fingers.get(f), Some(RingId(42)));
        }
    }

    #[test]
    fn wire_perfect_follows_a_permuted_order_column() {
        // Ring position i lives in an arbitrary slot; wiring must land on
        // the slot the order column names, not on slab position i.
        let keys = vec![RingId(10), RingId(20), RingId(30)];
        let order = vec![2u32, 0, 1];
        let mut arena = RingArena::new();
        arena.push(Node::new(RingId(20))); // slot 0 = position 1
        arena.push(Node::new(RingId(30))); // slot 1 = position 2
        arena.push(Node::new(RingId(10))); // slot 2 = position 0
        arena.wire_perfect(&keys, &order);
        assert!(arena.check_columns(&keys, &order).is_empty());
        for (i, &s) in order.iter().enumerate() {
            let node = arena.slot(s as usize);
            assert_eq!(node.id, keys[i]);
            assert_eq!(node.successor(), Some(keys[(i + 1) % 3]));
            assert_eq!(node.predecessor, Some(keys[(i + 2) % 3]));
        }
    }

    #[test]
    fn alloc_slot_recycles_freed_slots() {
        let mut arena = RingArena::new();
        let a = arena.alloc_slot(Node::new(RingId(1)));
        let b = arena.alloc_slot(Node::new(RingId(2)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(arena.len(), 2);
        let gone = arena.free_slot(a);
        assert_eq!(gone.id, RingId(1));
        assert_eq!(arena.len(), 1);
        // LIFO recycling: the freed slot is reused before the slab grows.
        let c = arena.alloc_slot(Node::new(RingId(3)));
        assert_eq!(c, a);
        assert_eq!(arena.slot(c as usize).id, RingId(3));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn check_columns_flags_desync() {
        let keys = vec![RingId(10), RingId(20)];
        let mut arena = RingArena::new();
        arena.push(Node::new(RingId(10)));
        arena.push(Node::new(RingId(99))); // record disagrees with column
        let violations = arena.check_columns(&keys, &[0, 1]);
        assert!(violations.iter().any(|v| v.contains("column desync")), "{violations:?}");
        assert!(arena.check_columns(&keys[..1], &[0, 1]).iter().any(|v| v.contains("entries")));
        // A position must not reference a freed slot, and the order + free
        // columns must cover the slab exactly.
        let _ = arena.free_slot(1);
        let violations = arena.check_columns(&keys, &[0, 1]);
        assert!(violations.iter().any(|v| v.contains("already claimed")), "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("cover")), "{violations:?}");
        // With the freed slot accounted for, the shrunken columns are clean.
        assert!(arena.check_columns(&keys[..1], &[0]).is_empty());
    }
}
