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
//! * [`FingerTable`] — the finger table, run-length encoded: a presence
//!   mask, a run-start mask, and each *run*'s target once. A run is a
//!   maximal stretch of present levels naming the same peer; every level
//!   below about `64 − log₂ P` names the successor, so a wired table holds
//!   about 17 runs at 10⁵ peers (8 at 256) and at most 29 in any ring built
//!   here up to 10⁶ peers. Up to 24 targets (`INLINE_RUNS`) sit inline,
//!   packed at the front of the record's slots; a table with more keeps
//!   all of its runs in one boxed 64-slot array instead, which exists
//!   exactly while it has more than 24 runs (23 of 10⁶ uniform peers). A
//!   routing hop scans the runs, not the 64 levels, and so reads about the
//!   first 272 of a record's 336 bytes;
//! * [`RingArena`] — the slab that owns every node record. Together with the
//!   id and order columns kept by [`crate::index::NodeIndex`] this is the
//!   network's columnar store: a dense sorted `Vec<RingId>` for search, a
//!   `Vec<u32>` permutation mapping ring positions to slots, and one
//!   contiguous slab of fixed-size records for state. Forking a network
//!   clones three flat vectors (data stores stay CoW behind their `Arc`s,
//!   and the rare spilled finger table is copied with its record),
//!   and a membership change splices the 12-byte-per-position columns — the
//!   records never move, so churn at 10⁶ peers costs kilobytes of memmove,
//!   not megabytes.
//!
//! [`RingArena::wire_perfect`] rebuilds *perfect* routing state in
//! `O(P · RING_BITS)`: for a fixed finger level `f`, the targets
//! `ids[i] + 2^f` are strictly increasing in `i`, so their owners are found
//! with one monotone cursor per level over the (virtually doubled) id column
//! instead of a binary search per finger. The sweep goes record by record,
//! so each record is written once, its table built whole by
//! [`FingerTable::from_levels`]; later edits (churn repair, stabilization)
//! splice level ranges with [`FingerTable::set_range`].

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

    /// Offers every peer in `offers` but `me`: the entries and every offer
    /// not already present, sorted by clockwise distance from `me` and cut
    /// to capacity. Distance from a fixed origin is injective, so the order
    /// is unique and an unstable sort serves. This equals offering the
    /// peers one at a time with the historical semantics (append if
    /// absent, sort, truncate), since each such offer keeps the nearest
    /// distinct ids seen so far; one sort at the end lands on the same
    /// list. With nothing offered but `me`, the list keeps its order, as it
    /// would under no offer at all.
    ///
    /// # Panics
    /// Panics if the entries and the new offers number more than
    /// `2 · SUCCESSOR_LIST_LEN + 1` (a full list, a successor and its list
    /// fit).
    pub(crate) fn merge_by_distance(
        &mut self,
        me: RingId,
        offers: impl IntoIterator<Item = RingId>,
    ) {
        let len = self.len as usize;
        let mut scratch = [RingId(0); 2 * SUCCESSOR_LIST_LEN + 1];
        scratch[..len].copy_from_slice(&self.ids[..len]);
        let mut m = len;
        let mut offered = false;
        for peer in offers.into_iter().filter(|&p| p != me) {
            offered = true;
            if !scratch[..m].contains(&peer) {
                scratch[m] = peer;
                m += 1;
            }
        }
        if !offered {
            return;
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

/// A finger table (`get(i) ≈ successor(id + 2^i)`, absent when the last
/// refresh failed), stored run-length encoded.
///
/// A *run* is a maximal stretch of present levels, taken in level order and
/// skipping absent ones, that name the same target. Every level below about
/// `64 − log₂ P` names the successor, so a perfectly wired table at 10⁵
/// peers holds about 17 runs, not 64 distinct targets. The table keeps a
/// presence mask, a run-start mask (bit `i` set when level `i` opens a run)
/// and each run's target once, packed at the front of its slots; level `i`'s
/// target is slot `r` for the run `r` that covers it. The slots are the
/// `INLINE_RUNS` (24) inline ones while the table has at most that many runs,
/// and one boxed [`RING_BITS`]-slot spill once it has more. Rings built
/// here up to 10⁶ peers hold at most 29 runs per table, and all but 23
/// tables of a uniform 10⁶-peer ring fit inline (a load-balanced one, whose
/// ids pack where the data does, spills about one in nine), so the record
/// stays at 336 bytes. The masks and the spill's pointer come first, so a
/// routing hop reads the 24-byte header and `8 · runs` bytes of targets,
/// never a word past the runs.
///
/// The form is canonical — the lowest present level opens a run, runs open
/// only on present levels, adjacent runs differ, the spill exists exactly
/// when the runs outnumber the inline slots, and every slot past the run
/// count (every inline slot, once spilled) holds `RingId(0)` — so the
/// derived `PartialEq` compares logical contents and
/// [`RingArena::check_columns`] can detect a corrupted table.
#[derive(Clone, PartialEq, Eq)]
#[repr(C)]
pub struct FingerTable {
    present: u64,
    starts: u64,
    spill: Option<Box<[RingId; RING_BITS as usize]>>,
    inline: [RingId; INLINE_RUNS],
}

/// The runs a [`FingerTable`] holds inline; a table with more moves them
/// all into its boxed spill.
const INLINE_RUNS: usize = 24;

// Size fences: the header and 24 inline runs plus the spill's pointer come
// to 216 bytes, and a record, which sets the slab's size (336 MB at 10⁶
// peers), stays within 336 bytes: its store handle is 16 bytes and its
// replica map a boxed pointer (see `Replicas`).
const _: () = assert!(std::mem::size_of::<FingerTable>() <= 216);
const _: () = assert!(std::mem::size_of::<Node>() <= 336);

/// The number of finger levels `f` with `2^f ≤ gap`. When `gap` is the
/// distance from a peer to its successor, every start `id + 2^f` of those
/// levels falls in `(id, successor]`: they all name the successor.
#[inline]
pub(crate) fn levels_within(gap: u64) -> u32 {
    u64::BITS - gap.leading_zeros()
}

/// The mask of levels below `i` (all 64 when `i == RING_BITS`).
#[inline]
fn below(i: usize) -> u64 {
    1u64.checked_shl(i as u32).map_or(u64::MAX, |bit| bit - 1)
}

impl FingerTable {
    /// An empty table (every finger absent).
    /// Deterministic: constructs fixed, zeroed contents.
    pub fn new() -> Self {
        Self { present: 0, starts: 0, spill: None, inline: [RingId(0); INLINE_RUNS] }
    }

    /// Builds a whole table from its levels in order: item `i` is level
    /// `i`'s finger. Each run's target is written once, so wiring a record
    /// this way costs one pass over its levels, not one splice per level.
    ///
    /// # Panics
    /// Panics if `levels` yields more than [`RING_BITS`] items.
    /// Deterministic: a pure function of the level sequence.
    pub fn from_levels(levels: impl IntoIterator<Item = Option<RingId>>) -> Self {
        let mut table = Self::new();
        let mut targets = [RingId(0); RING_BITS as usize];
        let mut runs = 0;
        for (i, level) in levels.into_iter().enumerate() {
            assert!(i < RING_BITS as usize, "more than {RING_BITS} finger levels");
            let Some(t) = level else { continue };
            table.present |= 1 << i;
            if runs == 0 || targets[runs - 1] != t {
                table.starts |= 1 << i;
                targets[runs] = t;
                runs += 1;
            }
        }
        if runs > INLINE_RUNS {
            table.spill = Some(Box::new(targets));
        } else {
            table.inline.copy_from_slice(&targets[..INLINE_RUNS]);
        }
        table
    }

    /// The number of runs (distinct targets in level order).
    #[inline]
    fn runs(&self) -> usize {
        self.starts.count_ones() as usize
    }

    /// The slots that hold the runs: the inline ones, or the spill if there
    /// is one. The spill is read out of line so that this compiles to a
    /// predicted branch, not a select: a hop's loads of the inline targets
    /// then issue without waiting for the spill's pointer to load.
    #[inline]
    fn slots(&self) -> &[RingId] {
        match &self.spill {
            None => &self.inline,
            Some(spill) => spilled(spill),
        }
    }

    /// Each run's target, in level order.
    #[inline]
    pub(crate) fn targets(&self) -> &[RingId] {
        &self.slots()[..self.runs()]
    }

    /// Moves the runs to the slots a table of `runs` runs keeps them in:
    /// into a fresh spill when they outgrow the inline slots, back inline
    /// once they fit. Slots past the run count hold `RingId(0)`, so the
    /// first `INLINE_RUNS` slots carry every run either way.
    fn store_for(&mut self, runs: usize) {
        match (&self.spill, runs > INLINE_RUNS) {
            (None, true) => {
                let mut spill = Box::new([RingId(0); RING_BITS as usize]);
                spill[..INLINE_RUNS].copy_from_slice(&self.inline);
                self.inline = [RingId(0); INLINE_RUNS];
                self.spill = Some(spill);
            }
            (Some(spill), false) => {
                self.inline.copy_from_slice(&spill[..INLINE_RUNS]);
                self.spill = None;
            }
            _ => {}
        }
    }

    /// The finger at level `i`, if set.
    #[inline]
    /// Deterministic: reads the run covering the level.
    pub fn get(&self, i: usize) -> Option<RingId> {
        let bit = 1u64 << i;
        (self.present & bit != 0)
            .then(|| self.slots()[(self.starts & (bit | (bit - 1))).count_ones() as usize - 1])
    }

    /// Sets or clears the finger at level `i`.
    #[inline]
    /// Deterministic: splices the one level (see [`FingerTable::set_range`]).
    pub fn set(&mut self, i: usize, target: Option<RingId>) {
        self.set_range(i..i + 1, target);
    }

    /// Points every level in `levels` at `target`, or clears them all, as
    /// one splice of the run list: the runs left of the range keep their
    /// slots, the range becomes one run (or merges into its left
    /// neighbour), and the runs right of it shift once, merging at either
    /// seam when the targets meet. A range that is exactly one run is
    /// renamed in place, with nothing shifted. The splice runs in the
    /// spill whenever the table has one before or after it.
    ///
    /// # Panics
    /// Panics if the range is decreasing or reaches past [`RING_BITS`].
    /// Deterministic: a pure function of the table, range and target.
    pub fn set_range(&mut self, levels: std::ops::Range<usize>, target: Option<RingId>) {
        let std::ops::Range { start: lo, end: hi } = levels;
        assert!(lo <= hi && hi <= RING_BITS as usize, "finger levels {lo}..{hi} out of range");
        if lo == hi {
            return;
        }
        let n = self.runs();
        // Runs opening left of the range keep their slots `0..left`.
        let left = (self.starts & below(lo)).count_ones() as usize;
        // The first present level right of the range, and the run covering
        // it, whose slot `right` opens the kept right part `right..n`.
        let tail = self.present & !below(hi);
        let first = (tail != 0).then(|| tail.trailing_zeros() as usize);
        let right = first.map_or(n, |r| (self.starts & below(r + 1)).count_ones() as usize - 1);
        let slots = self.slots();
        let before = left.checked_sub(1).map(|r| slots[r]);
        let opened = target.filter(|&t| before != Some(t));
        let merged = first.is_some() && target.or(before) == Some(slots[right]);
        let src = right + usize::from(merged);
        let dst = left + usize::from(opened.is_some());
        let runs = dst + (n - src);
        self.store_for(n.max(runs));
        let slots = match &mut self.spill {
            Some(spill) => &mut spill[..],
            None => &mut self.inline[..],
        };
        if src != dst {
            slots.copy_within(src..n, dst);
        }
        if let Some(t) = opened {
            slots[left] = t;
        }
        if runs < n {
            slots[runs..n].fill(RingId(0));
        }
        self.store_for(runs);
        let mut starts = self.starts & below(lo);
        if opened.is_some() {
            starts |= 1 << lo;
        }
        if let Some(r) = first {
            starts |= (self.starts & !below(r + 1)) | (u64::from(!merged) << r);
        }
        self.starts = starts;
        let range = below(hi) & !below(lo);
        self.present = if target.is_some() { self.present | range } else { self.present & !range };
    }

    /// The set fingers in level order, one item per present level (repeats
    /// included, as the flat table yielded them); allocation-free.
    /// Deterministic: yields targets in fixed finger-index order.
    pub fn present(&self) -> impl Iterator<Item = RingId> + '_ {
        let (present, starts, slots) = (self.present, self.starts, self.slots());
        let mut run = 0;
        (0..RING_BITS as usize).filter(move |i| present & (1u64 << i) != 0).map(move |i| {
            run += (starts >> i & 1) as usize;
            slots[run - 1]
        })
    }

    /// The largest clockwise progress `distance(me, finger)` among set
    /// fingers that does not exceed `ceiling`, or 0 when none qualifies.
    /// Scans each run's target once (about 17 at 10⁵ peers, against the
    /// flat table's 64 slots), since routing calls it on every hop.
    /// Deterministic: a pure max over the runs.
    #[inline]
    pub(crate) fn best_progress(&self, me: RingId, ceiling: u64) -> u64 {
        let mut best = 0u64;
        for t in self.targets() {
            let d = me.distance_to(*t);
            best = best.max(if d <= ceiling { d } else { 0 });
        }
        best
    }

    /// Clears every finger pointing at `dead`.
    /// Deterministic: rebuilds the levels in index order.
    pub fn forget(&mut self, dead: RingId) {
        if self.targets().contains(&dead) {
            *self = Self::from_levels(
                (0..RING_BITS as usize).map(|i| self.get(i).filter(|&t| t != dead)),
            );
        }
    }

    /// Internal invariant check: the canonical run-length form.
    fn check_shape(&self) -> Result<(), String> {
        let stray = self.starts & !self.present;
        if stray != 0 {
            return Err(format!("finger run starts at absent level {}", stray.trailing_zeros()));
        }
        let lowest = self.present & self.present.wrapping_neg();
        if self.starts & lowest != lowest {
            let i = self.present.trailing_zeros();
            return Err(format!("lowest present finger level {i} does not start a run"));
        }
        let n = self.runs();
        match (&self.spill, n > INLINE_RUNS) {
            (Some(_), false) => return Err(format!("finger spill holds only {n} runs")),
            (None, true) => return Err(format!("{n} finger runs but no spill")),
            _ => {}
        }
        let targets = self.targets();
        if let Some(r) = (1..n).find(|&r| targets[r] == targets[r - 1]) {
            return Err(format!("finger runs {} and {r} both target {}", r - 1, targets[r]));
        }
        let idle: &[RingId] = if self.spill.is_some() { &self.inline } else { &[] };
        if let Some(junk) = self.slots()[n..].iter().chain(idle).find(|&&t| t != RingId(0)) {
            return Err(format!("finger slot beyond {n} runs holds {junk}"));
        }
        Ok(())
    }
}

/// A spill's slots; see [`FingerTable::slots`].
#[cold]
#[inline(never)]
fn spilled(spill: &[RingId; RING_BITS as usize]) -> &[RingId] {
    spill
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
/// Records are fixed-size (successors and up to 24 finger runs inline, store
/// and replica payloads behind CoW handles), so the slab is one contiguous
/// allocation and positional access chases a pointer only into the rare
/// spilled finger table. Records are **slot-stable**: a membership change
/// splices the 12-byte-per-position `(key, order)` columns, never the
/// 336-byte records themselves, and a freed slot is
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
    /// a monotone cursor per level: for fixed `f` the (un-wrapped) targets
    /// `keys[i] + 2^f` are strictly increasing in `i`, so the owning
    /// position in the virtually doubled column
    /// `[keys[0], …, keys[p-1], keys[0]+2^64, …]` only ever advances. The
    /// sweep goes node-major with all [`RING_BITS`] cursors side by side, so
    /// each record is written once, its table built whole by
    /// [`FingerTable::from_levels`]. Output is bit-identical to the
    /// per-finger `true_owner` binary search it replaced.
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
        let wrap = 1u128 << RING_BITS;
        let virt = |j: usize| -> u128 {
            if j < p {
                u128::from(keys[j].0)
            } else {
                u128::from(keys[j - p].0) + wrap
            }
        };
        let mut cursors = [0usize; RING_BITS as usize];
        for i in 0..p {
            let base = u128::from(keys[i].0);
            let succ = keys[(i + 1) % p];
            // The levels within the successor's gap skip their cursors,
            // which catch up whenever a later, tighter gap needs them.
            let near = levels_within(keys[i].distance_to(succ)) as usize;
            let fingers = FingerTable::from_levels(cursors.iter_mut().enumerate().map(|(f, j)| {
                if f < near {
                    return Some(succ);
                }
                let target = base + (1u128 << f);
                while *j < 2 * p && virt(*j) < target {
                    *j += 1;
                }
                // j == 2p can only mean the target wrapped past the top of
                // the doubled column; ownership wraps to the first peer.
                Some(
                    keys[match *j {
                        j if j < p => j,
                        j if j < 2 * p => j - p,
                        _ => 0,
                    }],
                )
            }));
            let mut succs = SuccessorList::new();
            for k in 1..=SUCCESSOR_LIST_LEN.min(p - 1).max(1) {
                succs.push(keys[(i + k) % p]);
            }
            let node = &mut self.slots[order[i] as usize];
            node.predecessor = Some(keys[(i + p - 1) % p]);
            node.successors = succs;
            node.fingers = fingers;
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

    impl SuccessorList {
        /// One offer on a stack scratch buffer, as every offer was made
        /// before `merge_by_distance`: append if absent, sort by clockwise
        /// distance from `me`, truncate to capacity. Kept verbatim as the
        /// reference `merge_matches_sequential_offers` holds the merge to.
        fn offer_by_distance(&mut self, me: RingId, peer: RingId) {
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
    }

    #[test]
    fn offer_by_distance_matches_push_sort_truncate() {
        // A single offer through the merge ≡ a replay of the historical Vec
        // semantics, including on a list that is not distance-sorted (stale
        // joins can produce those).
        let me = RingId(50);
        let mut list: SuccessorList = [RingId(100), RingId(10), RingId(60)].into();
        let mut reference: Vec<RingId> = vec![RingId(100), RingId(10), RingId(60)];
        for peer in [RingId(55), RingId(10), RingId(49), RingId(51), RingId(90), RingId(200)] {
            list.merge_by_distance(me, [peer]);
            if !reference.contains(&peer) {
                reference.push(peer);
            }
            reference.sort_by_key(|&s| me.distance_to(s));
            reference.truncate(SUCCESSOR_LIST_LEN);
            assert_eq!(list, reference, "after offering {peer}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// One merge ≡ offering each peer in turn with `offer_by_distance`,
        /// skipping `me` as `Node::offer_successor` does. A small id pool
        /// makes duplicates (in the list, among the offers, and between
        /// them), self entries and truncation common; lists come unsorted,
        /// empty and full, and offer sets empty or holding only `me`.
        #[test]
        fn merge_matches_sequential_offers(
            me: u64,
            seed: u64,
            len in 0usize..=SUCCESSOR_LIST_LEN,
            offers in 0usize..=SUCCESSOR_LIST_LEN + 1,
            only_me: bool,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let me = RingId(me);
            let mut pool = vec![me, RingId(me.0.wrapping_add(1)), RingId(me.0.wrapping_sub(1))];
            pool.extend((0..10).map(|_| RingId(rng.gen())));
            let mut pick = || {
                if rng.gen_range(0..4) == 0 {
                    RingId(rng.gen())
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            };
            let list: SuccessorList = (0..len).map(|_| pick()).collect();
            let offered: Vec<RingId> =
                (0..offers).map(|_| if only_me { me } else { pick() }).collect();
            let mut sequential = list;
            for &peer in offered.iter().filter(|&&p| p != me) {
                sequential.offer_by_distance(me, peer);
            }
            let mut merged = list;
            merged.merge_by_distance(me, offered.iter().copied());
            proptest::prop_assert_eq!(merged, sequential, "list {:?} offered {:?}", list, offered);
            merged.check_shape().expect("normalized");
        }
    }

    #[test]
    fn merge_without_an_offer_keeps_the_order() {
        let me = RingId(50);
        let unsorted: SuccessorList = [RingId(100), RingId(10), RingId(60)].into();
        for offers in [vec![], vec![me, me]] {
            let mut list = unsorted;
            list.merge_by_distance(me, offers);
            assert_eq!(list, unsorted);
        }
        let mut list = unsorted;
        list.merge_by_distance(me, [me, RingId(10)]);
        assert_eq!(list, vec![RingId(60), RingId(100), RingId(10)]);
    }

    /// The flat finger table the run-length one replaced, verbatim: one
    /// slot per level plus a presence mask. The reference model below holds
    /// [`FingerTable`] to it.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct FlatFingers {
        targets: [RingId; RING_BITS as usize],
        mask: u64,
    }

    impl FlatFingers {
        fn new() -> Self {
            Self { targets: [RingId(0); RING_BITS as usize], mask: 0 }
        }

        fn get(&self, i: usize) -> Option<RingId> {
            if self.mask & (1u64 << i) != 0 {
                Some(self.targets[i])
            } else {
                None
            }
        }

        fn set(&mut self, i: usize, target: Option<RingId>) {
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

        fn present(&self) -> impl Iterator<Item = RingId> + '_ {
            let mask = self.mask;
            (0..RING_BITS as usize)
                .filter(move |i| mask & (1u64 << i) != 0)
                .map(move |i| self.targets[i])
        }

        fn best_progress(&self, me: RingId, ceiling: u64) -> u64 {
            let mut best = 0u64;
            for (i, t) in self.targets.iter().enumerate() {
                let d = me.distance_to(*t);
                let ok = (self.mask >> i) & 1 == 1 && d <= ceiling;
                best = best.max(if ok { d } else { 0 });
            }
            best
        }

        fn forget(&mut self, dead: RingId) {
            for i in 0..RING_BITS as usize {
                if self.mask & (1u64 << i) != 0 && self.targets[i] == dead {
                    self.set(i, None);
                }
            }
        }
    }

    impl std::fmt::Debug for FlatFingers {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_map()
                .entries((0..RING_BITS as usize).filter_map(|i| self.get(i).map(|t| (i, t))))
                .finish()
        }
    }

    /// Every read of the run-length table agrees with the flat reference.
    fn assert_matches_flat(
        table: &FingerTable,
        flat: &FlatFingers,
        me: RingId,
        pool: &[RingId],
        rng: &mut rand::rngs::StdRng,
        step: &str,
    ) {
        use rand::Rng;
        for i in 0..RING_BITS as usize {
            assert_eq!(table.get(i), flat.get(i), "{step}: level {i}");
        }
        assert_eq!(
            table.present().collect::<Vec<_>>(),
            flat.present().collect::<Vec<_>>(),
            "{step}: present()"
        );
        let mut ceilings = vec![0, u64::MAX, rng.gen(), rng.gen()];
        for &t in pool {
            let d = me.distance_to(t);
            ceilings.extend([d, d.wrapping_sub(1), d.wrapping_add(1)]);
        }
        for ceiling in ceilings {
            assert_eq!(
                table.best_progress(me, ceiling),
                flat.best_progress(me, ceiling),
                "{step}: best_progress at ceiling {ceiling}"
            );
        }
        assert_eq!(format!("{table:?}"), format!("{flat:?}"), "{step}: Debug");
        let rebuilt = FingerTable::from_levels((0..RING_BITS as usize).map(|i| flat.get(i)));
        assert_eq!(*table, rebuilt, "{step}: equality with the table rebuilt from its levels");
        table.check_shape().unwrap_or_else(|e| panic!("{step}: {e}"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The run-length table ≡ the flat table under 200 random writes:
        /// single levels, ranges, clears, `forget` and whole rebuilds, over
        /// a small id pool so equal neighbours, self ids and wraparound
        /// distances all occur.
        #[test]
        fn run_length_table_matches_flat_reference(me: u64, seed: u64) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let me = RingId(me);
            let pool = [
                me,
                RingId(me.0.wrapping_add(1)),
                RingId(me.0.wrapping_sub(1)),
                RingId(0),
                RingId(u64::MAX),
                RingId(rng.gen()),
                RingId(rng.gen()),
            ];
            let mut table = FingerTable::new();
            let mut flat = FlatFingers::new();
            for op in 0..200 {
                let pick = |rng: &mut rand::rngs::StdRng| pool[rng.gen_range(0..pool.len())];
                let target = |rng: &mut rand::rngs::StdRng| {
                    (rng.gen_range(0..4) != 0).then(|| pick(rng))
                };
                let step = match rng.gen_range(0..8) {
                    0..=2 => {
                        let (i, t) = (rng.gen_range(0..RING_BITS as usize), target(&mut rng));
                        table.set(i, t);
                        flat.set(i, t);
                        format!("op {op}: set({i}, {t:?})")
                    }
                    3..=5 => {
                        let lo = rng.gen_range(0..=RING_BITS as usize);
                        let hi = rng.gen_range(lo..=RING_BITS as usize);
                        let t = target(&mut rng);
                        table.set_range(lo..hi, t);
                        (lo..hi).for_each(|i| flat.set(i, t));
                        format!("op {op}: set_range({lo}..{hi}, {t:?})")
                    }
                    6 => {
                        let dead = pick(&mut rng);
                        table.forget(dead);
                        flat.forget(dead);
                        format!("op {op}: forget({dead})")
                    }
                    _ => {
                        let mut levels = [None; RING_BITS as usize];
                        for i in 0..RING_BITS as usize {
                            levels[i] = match rng.gen_range(0..8) {
                                0 => None,
                                1..=5 if i > 0 => levels[i - 1],
                                _ => Some(pick(&mut rng)),
                            };
                        }
                        table = FingerTable::from_levels(levels);
                        flat = FlatFingers::new();
                        levels.iter().enumerate().for_each(|(i, &t)| flat.set(i, t));
                        format!("op {op}: from_levels({levels:?})")
                    }
                };
                assert_matches_flat(&table, &flat, me, &pool, &mut rng, &step);
            }
        }
    }

    #[test]
    fn check_columns_flags_non_canonical_finger_tables() {
        let keys = vec![RingId(10)];
        let canonical = FingerTable::from_levels(
            (0..RING_BITS as usize).map(|i| (i % 8 != 0).then_some(RingId(1 + i as u64 / 16))),
        );
        // 32 runs, two levels each: past the inline slots, so spilled.
        let wide =
            FingerTable::from_levels((0..RING_BITS).map(|i| Some(RingId(1 + u64::from(i) / 2))));
        assert!(wide.spill.is_some());
        let mut equal_runs = canonical.clone();
        equal_runs.inline[1] = equal_runs.inline[0];
        let mut stray_start = canonical.clone();
        stray_start.starts |= 1 << 8;
        let mut junk_slot = canonical.clone();
        junk_slot.inline[canonical.runs()] = RingId(7);
        let mut headless = canonical.clone();
        headless.starts &= !(1 << 1);
        let mut kept_spill = canonical.clone();
        kept_spill.store_for(INLINE_RUNS + 1);
        let mut missing_spill = wide.clone();
        missing_spill.store_for(0);
        let mut junk_inline = wide.clone();
        junk_inline.inline[0] = RingId(7);
        for (table, needle) in [
            (equal_runs, "both target"),
            (stray_start, "starts at absent level 8"),
            (junk_slot, "beyond 4 runs"),
            (headless, "lowest present finger level 1 does not start a run"),
            (kept_spill, "finger spill holds only 4 runs"),
            (missing_spill, "32 finger runs but no spill"),
            (junk_inline, "beyond 32 runs"),
        ] {
            let mut arena = RingArena::new();
            let mut node = Node::new(RingId(10));
            node.fingers = table;
            arena.push(node);
            let violations = arena.check_columns(&keys, &[0]);
            assert!(violations.iter().any(|v| v.contains(needle)), "{needle}: {violations:?}");
        }
        for table in [canonical, wide] {
            let mut arena = RingArena::new();
            let mut node = Node::new(RingId(10));
            node.fingers = table;
            arena.push(node);
            assert!(arena.check_columns(&keys, &[0]).is_empty());
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
