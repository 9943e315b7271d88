//! Same-origin batched-routing charge dedup.
//!
//! Extracted from `network.rs` so the batching policy has its own seam: the
//! router is pure bookkeeping over `(from, to)` hop edges — no `Network`
//! access, no I/O — which is exactly the shape the ROADMAP-1 sans-IO node
//! split wants to lift unchanged.

use crate::id::RingId;

/// Reusable charge-dedup state for one same-origin arrival window of
/// batched lookups (see [`crate::Network::lookup_batched`]).
///
/// Lookups issued from one peer inside one window share route prefixes: the
/// first lookup to traverse a hop `a → b` pays its two messages, and every
/// later lookup in the window rides the same (still-open) exchange for free.
/// Routing *decisions* are untouched — owners and hop counts are identical
/// to per-op routing (property-tested in `crates/sim/tests/batch_equivalence.rs`);
/// only the message/byte charges are amortized.
///
/// The edge set is an open-addressing hash table (linear probing, load at
/// most ½), so checking an edge costs O(1) however wide the window is.
/// Every slot carries the stamp of the window that wrote it, and a slot
/// from an older window reads as empty: opening a window is one counter
/// bump, not a clear. The table only grows, so a warmed batch path
/// allocates nothing (fenced by `crates/ring/tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct BatchRouter {
    /// Power-of-two slot table (empty before the first edge).
    slots: Vec<EdgeSlot>,
    /// The current window's stamp; never 0, which marks never-used slots.
    stamp: u32,
    /// Distinct edges paid in the current window.
    len: usize,
}

/// One table slot: a hop edge and the window stamp it was paid in.
#[derive(Debug, Clone, Copy)]
struct EdgeSlot {
    from: RingId,
    to: RingId,
    stamp: u32,
}

impl EdgeSlot {
    /// A never-used slot (stamp 0 matches no window).
    const EMPTY: Self = Self { from: RingId(0), to: RingId(0), stamp: 0 };
}

/// Smallest slot table allocated on first use.
const MIN_SLOTS: usize = 16;

impl BatchRouter {
    /// An empty router with no cached edges. Deterministic: fixed contents.
    pub fn new() -> Self {
        Self { slots: Vec::new(), stamp: 1, len: 0 }
    }

    /// Opens a new arrival window: previously paid edges no longer amortize
    /// (the table is kept, so warmed windows never allocate).
    ///
    /// Deterministic: bumps the window stamp; when the stamp wraps, every
    /// slot is scrubbed so no edge from 2³² windows ago can alias.
    pub fn begin_window(&mut self) {
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(EdgeSlot::EMPTY);
            self.stamp = 1;
        }
    }

    /// Number of distinct hop edges paid for in the current window.
    /// Deterministic: reads the window's edge count.
    pub fn edges_paid(&self) -> usize {
        self.len
    }

    /// Whether `from → to` was already paid this window; records it if not.
    /// Deterministic: the answer depends only on the window's edge set, not
    /// on where the fixed hash places edges.
    pub(crate) fn seen_or_insert(&mut self, from: RingId, to: RingId) -> bool {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = edge_hash(from, to) & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                *slot = EdgeSlot { from, to, stamp: self.stamp };
                self.len += 1;
                return false;
            }
            if slot.from == from && slot.to == to {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or allocates the first one) and re-inserts the
    /// current window's edges.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EdgeSlot::EMPTY; cap]);
        let mask = cap - 1;
        for e in old.into_iter().filter(|e| e.stamp == self.stamp) {
            let mut i = edge_hash(e.from, e.to) & mask;
            while self.slots[i].stamp == self.stamp {
                i = (i + 1) & mask;
            }
            self.slots[i] = e;
        }
    }
}

impl Default for BatchRouter {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed (unseeded) mix of both endpoints — adversarially packed ids
/// share high bits, so both words are multiplied through before folding.
fn edge_hash(from: RingId, to: RingId) -> usize {
    let h = (from.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ to.0).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h ^ (h >> 32)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedups_within_a_window_and_forgets_across() {
        let mut b = BatchRouter::new();
        let (a, c) = (RingId(1), RingId(2));
        assert!(!b.seen_or_insert(a, c));
        assert!(b.seen_or_insert(a, c));
        // Edges are directed.
        assert!(!b.seen_or_insert(c, a));
        assert_eq!(b.edges_paid(), 2);
        b.begin_window();
        assert_eq!(b.edges_paid(), 0);
        assert!(!b.seen_or_insert(a, c));
    }

    #[test]
    fn stamp_wrap_scrubs_old_windows() {
        let mut b = BatchRouter::new();
        assert!(!b.seen_or_insert(RingId(5), RingId(6)));
        // Jump to the last stamp before the wrap, pay one edge there, and
        // wrap: nothing from before may read as paid afterwards.
        b.stamp = u32::MAX;
        b.len = 0;
        assert!(!b.seen_or_insert(RingId(7), RingId(8)));
        b.begin_window();
        assert_eq!(b.stamp, 1);
        assert!(!b.seen_or_insert(RingId(5), RingId(6)));
        assert!(!b.seen_or_insert(RingId(7), RingId(8)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hash table ≡ a linear-scan edge list, across
        /// windows wide enough to force several growths and ids drawn from
        /// a small pool so repeats are common.
        #[test]
        fn matches_linear_scan_reference(
            seed: u64,
            pool in 2u64..64,
            window_odds in 8u32..400,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut table = BatchRouter::new();
            let mut reference: Vec<(RingId, RingId)> = Vec::new();
            for _ in 0..2_000 {
                if rng.gen_range(0..window_odds) == 0 {
                    table.begin_window();
                    reference.clear();
                }
                let from = RingId(rng.gen_range(0..pool).wrapping_mul(0x0100_0000_0000_0000));
                let to = RingId(rng.gen_range(0..pool));
                let seen = reference.contains(&(from, to));
                if !seen {
                    reference.push((from, to));
                }
                prop_assert_eq!(table.seen_or_insert(from, to), seen);
                prop_assert_eq!(table.edges_paid(), reference.len());
            }
        }
    }
}
