//! Per-peer local data stores.
//!
//! Each peer keeps its items sorted by value, which makes rank queries,
//! range handoff (on join/leave), uniform tuple draws, and equi-depth
//! summary construction all cheap — exactly the operations the estimators
//! exercise.

use crate::id::RingId;
use crate::placement::Placement;
use dde_stats::equidepth::EquiDepthSummary;
use rand::Rng;
use std::cmp::Ordering;
use std::sync::Arc;

/// The process-wide empty backing vector. Every fresh store borrows this
/// allocation until its first write, so constructing a [`crate::Node`] —
/// and hence staging a join in a `ChurnBatch` — costs zero allocations
/// (fenced in `ring/tests/alloc_free.rs`). The shared count makes the first
/// mutation detach, exactly as in a forked store.
fn shared_empty() -> Arc<Vec<f64>> {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<Arc<Vec<f64>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A peer's local data: values sorted ascending by `total_cmp` (so `-0.0`
/// sits before `0.0`), the one order every mutator keeps.
///
/// The backing vector sits behind an [`Arc`] so cloning a store — and hence
/// forking a whole loaded [`crate::Network`] from a cached scenario
/// snapshot — is O(1) per peer. The first mutation of a shared store
/// detaches it with one copy of its values. `insert`, `extend_values` and `drain_all`
/// copy the shared slice into a vector of its final size with their change
/// applied, so it never grows within the same call; `remove` and `drain_by`
/// only shrink the vector, so `Arc::make_mut`'s exact-length copy serves
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalStore {
    sorted: Arc<Vec<f64>>,
}

impl Default for LocalStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalStore {
    /// An empty store (no allocation: the backing vector is the shared
    /// process-wide empty until the first write).
    pub fn new() -> Self {
        Self { sorted: shared_empty() }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inserts one value after every value `total_cmp`-at-or-below it,
    /// keeping order (`O(n)` worst case; bulk loading should use
    /// [`LocalStore::extend_values`]).
    pub fn insert(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        let pos = self.sorted.partition_point(|v| v.total_cmp(&x).is_le());
        match Arc::get_mut(&mut self.sorted) {
            Some(v) => v.insert(pos, x),
            None => {
                let mut v = Vec::with_capacity(self.sorted.len() + 1);
                v.extend_from_slice(&self.sorted[..pos]);
                v.push(x);
                v.extend_from_slice(&self.sorted[pos..]);
                self.sorted = Arc::new(v);
            }
        }
    }

    /// Adds many values at once, re-sorting once (`O((n+m) log (n+m))`),
    /// with one reservation for the first value plus the rest's lower size
    /// bound. An empty iterator is a guaranteed no-op (no copy-on-write
    /// detach), so empty handoffs under batched churn stay allocation-free.
    pub fn extend_values(&mut self, values: impl IntoIterator<Item = f64>) {
        let mut it = values.into_iter();
        let Some(first) = it.next() else { return };
        let additional = 1 + it.size_hint().0;
        if Arc::get_mut(&mut self.sorted).is_none() {
            let mut v = Vec::with_capacity(self.sorted.len() + additional);
            v.extend_from_slice(&self.sorted);
            self.sorted = Arc::new(v);
        }
        // Unshared now, so `make_mut` does not copy.
        let sorted = Arc::make_mut(&mut self.sorted);
        sorted.reserve(additional);
        sorted.push(first);
        sorted.extend(it);
        sorted.sort_by(f64::total_cmp);
    }

    /// Drops all items, keeping the backing allocation when this store owns
    /// it (so a recycled arena slot's store can refill without reallocating).
    pub fn clear(&mut self) {
        match Arc::get_mut(&mut self.sorted) {
            Some(v) => v.clear(),
            None => self.sorted = shared_empty(),
        }
    }

    /// Number of items `<= x` (exact).
    pub fn count_le(&self, x: f64) -> usize {
        self.sorted.partition_point(|&v| v <= x)
    }

    /// Number of items in `[lo, hi]` (exact).
    pub fn count_range(&self, lo: f64, hi: f64) -> usize {
        if hi < lo {
            return 0;
        }
        let a = self.sorted.partition_point(|&v| v < lo);
        let b = self.sorted.partition_point(|&v| v <= hi);
        b - a
    }

    /// All items, sorted.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Removes and returns all items (graceful-leave handoff). Guaranteed
    /// not to allocate (or detach a shared backing) when already empty.
    pub fn drain_all(&mut self) -> Vec<f64> {
        if self.sorted.is_empty() {
            return Vec::new();
        }
        match Arc::get_mut(&mut self.sorted) {
            Some(v) => std::mem::take(v),
            None => {
                let out = self.sorted.to_vec();
                self.sorted = shared_empty();
                out
            }
        }
    }

    /// Removes one occurrence of `x`, matched by `total_cmp`, that is by its
    /// exact bits (`remove(0.0)` leaves a `-0.0`); returns whether it was
    /// present.
    pub fn remove(&mut self, x: f64) -> bool {
        let pos = self.sorted.partition_point(|v| v.total_cmp(&x).is_lt());
        if pos < self.sorted.len() && self.sorted[pos].total_cmp(&x).is_eq() {
            Arc::make_mut(&mut self.sorted).remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes and returns every item matching `pred`, preserving order of
    /// the remainder. Used for handoff under hashed placement, where the
    /// handoff set is defined in *ring* space, not value space.
    pub fn drain_by(&mut self, mut pred: impl FnMut(f64) -> bool) -> Vec<f64> {
        if self.sorted.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        Arc::make_mut(&mut self.sorted).retain(|&x| {
            if pred(x) {
                out.push(x);
                false
            } else {
                true
            }
        });
        out
    }

    /// One uniform random item, or `None` if empty.
    pub fn sample_uniform<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted[rng.gen_range(0..self.sorted.len())])
        }
    }

    /// The item at the local `q`-quantile, or `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        let idx = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// The equi-depth summary with `buckets` buckets this peer would ship in
    /// a probe reply.
    pub fn summary(&self, buckets: usize) -> EquiDepthSummary {
        EquiDepthSummary::from_sorted(&self.sorted, buckets.max(1))
    }

    /// Number of items in `self` that are missing from `other` (multiset
    /// difference size, linear merge over both sorted stores). Used to
    /// charge only the *delta* when refreshing replicas.
    ///
    /// Two stores that share one backing vector (a replica refreshed from
    /// this store and not written since) miss nothing, and answer without
    /// the merge.
    pub fn missing_from(&self, other: &LocalStore) -> usize {
        if Arc::ptr_eq(&self.sorted, &other.sorted) {
            return 0;
        }
        let (a, b) = (&self.sorted, &other.sorted);
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

    /// Whether any item's ring position under `placement` lies outside the
    /// arc `(pred, id]`, decided without writing (so a shared store is not
    /// copied). The map of range placement is monotone, so ring positions
    /// never decrease along the sorted store and the items outside the arc
    /// form a prefix and a suffix, or one middle run `(id, pred]` when the
    /// arc wraps: two endpoint checks or one binary search decide. Hashed
    /// placement scans the items.
    pub(crate) fn any_outside(&self, placement: Placement, pred: RingId, id: RingId) -> bool {
        let values = &self.sorted[..];
        let Some(map) = placement.domain_map() else {
            return values.iter().any(|&x| !placement.place(x).in_arc(pred, id));
        };
        let (Some(&lo), Some(&hi)) = (values.first(), values.last()) else { return false };
        match pred.cmp(&id) {
            // `(id, id]` is the whole ring.
            Ordering::Equal => false,
            Ordering::Less => map.to_ring(lo) <= pred || map.to_ring(hi) > id,
            Ordering::Greater => values
                .get(values.partition_point(|&x| map.to_ring(x) <= id))
                .is_some_and(|&x| map.to_ring(x) <= pred),
        }
    }

    /// Sum of all stored values (for aggregate queries).
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Sum of squares of all stored values (for variance estimation).
    pub fn sum_sq(&self) -> f64 {
        self.sorted.iter().map(|x| x * x).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A store of `values` in any order.
    fn from_values(mut values: Vec<f64>) -> LocalStore {
        values.sort_by(f64::total_cmp);
        LocalStore { sorted: Arc::new(values) }
    }

    #[test]
    fn insert_keeps_sorted() {
        let mut s = LocalStore::new();
        for x in [5.0, 1.0, 3.0, 3.0, 9.0, 0.0] {
            s.insert(x);
        }
        assert_eq!(s.values(), &[0.0, 1.0, 3.0, 3.0, 5.0, 9.0]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn count_queries() {
        let s = from_values(vec![1.0, 2.0, 2.0, 5.0, 8.0]);
        assert_eq!(s.count_le(0.0), 0);
        assert_eq!(s.count_le(2.0), 3);
        assert_eq!(s.count_le(100.0), 5);
        assert_eq!(s.count_range(2.0, 5.0), 3);
        assert_eq!(s.count_range(3.0, 4.0), 0);
        assert_eq!(s.count_range(5.0, 1.0), 0); // inverted
    }

    #[test]
    fn drain_all_empties() {
        let mut s = from_values(vec![1.0, 2.0]);
        assert_eq!(s.drain_all(), vec![1.0, 2.0]);
        assert!(s.is_empty());
    }

    #[test]
    fn sample_uniform_covers_items() {
        let s = from_values(vec![1.0, 2.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let x = s.sample_uniform(&mut rng).unwrap();
            seen[(x as usize) - 1] = true;
        }
        assert!(seen.iter().all(|&b| b));
        assert!(LocalStore::new().sample_uniform(&mut rng).is_none());
    }

    #[test]
    fn quantiles() {
        let s = from_values((1..=100).map(f64::from).collect());
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(LocalStore::new().quantile(0.5), None);
    }

    #[test]
    fn summary_matches_store_counts() {
        let s = from_values((0..1000).map(|i| (i % 97) as f64).collect());
        let sum = s.summary(16);
        assert_eq!(sum.total(), 1000);
        for x in [0.0, 10.0, 48.0, 96.0] {
            let exact = s.count_le(x) as f64;
            let approx = sum.count_le(x);
            assert!(
                (approx - exact).abs() <= 1000.0 / 16.0,
                "x={x}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn extend_values_bulk() {
        let mut s = from_values(vec![5.0]);
        s.extend_values([3.0, 9.0, 1.0]);
        assert_eq!(s.values(), &[1.0, 3.0, 5.0, 9.0]);
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn both_zeros_keep_total_order_in_either_arrival_order() {
        for first in [-0.0, 0.0] {
            let mut s = from_values(vec![1.0, -1.0]);
            for x in [first, -first, first] {
                s.insert(x);
            }
            let mut want = vec![1.0, -1.0, first, -first, first];
            want.sort_by(f64::total_cmp);
            assert_eq!(bits(s.values()), bits(&want), "first {first:?}");
            // Removal matches bits: `-first` leaves both copies of `first`.
            assert!(s.remove(-first));
            assert!(!s.remove(-first));
            assert_eq!(bits(s.values()), bits(&[-1.0, first, first, 1.0]));
        }
    }

    #[test]
    fn missing_from_counts_the_delta() {
        let a = from_values(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(a.missing_from(&a.clone()), 0);
        let same_length = from_values(vec![1.0, 2.0, 3.0, 5.0]);
        assert_eq!(a.missing_from(&same_length), 1);
        assert_eq!(a.missing_from(&LocalStore::new()), 4);
        assert_eq!(LocalStore::new().missing_from(&a), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The arc check ≡ the per-item scan, under range placement on
        /// stores holding both zeros, the domain's ends and values clamped
        /// past them, against arcs that wrap and do not, and `pred == id`.
        /// Arc ends sit on item positions and next to them, so items on an
        /// endpoint are common. Hashed placement takes the scan itself.
        #[test]
        fn any_outside_matches_the_per_item_scan(seed: u64, len in 0usize..10, hashed: bool) {
            let mut rng = StdRng::seed_from_u64(seed);
            let placement =
                if hashed { Placement::hashed(0.0, 100.0) } else { Placement::range(0.0, 100.0) };
            let pool = [-0.0, 0.0, 100.0, -7.5, 250.0, 12.5, 50.0, 87.5];
            let values: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..3) {
                    0 => rng.gen::<f64>() * 100.0,
                    _ => pool[rng.gen_range(0..pool.len())],
                })
                .collect();
            let store = from_values(values.clone());
            let mut ends = vec![RingId(0), RingId(u64::MAX), RingId(rng.gen())];
            for &x in &values {
                let at = placement.place(x).0;
                ends.extend([RingId(at), RingId(at.wrapping_add(1)), RingId(at.wrapping_sub(1))]);
            }
            for &pred in &ends {
                for &id in &ends {
                    let scan = values.iter().any(|&x| !placement.place(x).in_arc(pred, id));
                    proptest::prop_assert_eq!(
                        store.any_outside(placement, pred, id),
                        scan,
                        "values {:?}, arc ({}, {}]",
                        store.values(),
                        pred,
                        id
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Every mutator ≡ the same operation on a plain `Vec` kept sorted
        /// by `total_cmp` (an insert pushes and re-sorts, a removal drops
        /// one bit-equal copy), on shared and unshared stores alike, over
        /// values with duplicates and both zeros. A clone taken before an
        /// operation (which makes the store shared) must still read as it
        /// did.
        #[test]
        fn mutators_match_plain_vec_reference(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = [-0.0, 0.0, 1.0, 2.0, 2.0, 3.5, -1.0, 7.25];
            let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())];
            let mut store = LocalStore::new();
            let mut reference: Vec<f64> = Vec::new();
            for op in 0..48 {
                let snapshot = (rng.gen_range(0..2) == 0).then(|| store.clone());
                let before = bits(&reference);
                let step = match rng.gen_range(0..6) {
                    0 | 1 => {
                        let x = pick(&mut rng);
                        store.insert(x);
                        reference.push(x);
                        reference.sort_by(f64::total_cmp);
                        format!("insert({x:?})")
                    }
                    2 => {
                        let x = pick(&mut rng);
                        let found = reference.iter().position(|v| v.to_bits() == x.to_bits());
                        let present = found.is_some();
                        if let Some(pos) = found {
                            reference.remove(pos);
                        }
                        assert_eq!(store.remove(x), present, "op {op}: remove({x:?})");
                        format!("remove({x:?})")
                    }
                    3 => {
                        let xs: Vec<f64> = (0..rng.gen_range(0..6)).map(|_| pick(&mut rng)).collect();
                        store.extend_values(xs.iter().copied());
                        if !xs.is_empty() {
                            reference.extend_from_slice(&xs);
                            reference.sort_by(f64::total_cmp);
                        }
                        format!("extend_values({xs:?})")
                    }
                    4 => {
                        let k = rng.gen_range(0..3u64);
                        let drained = store.drain_by(|x| x.to_bits() % 3 == k);
                        let mut want = Vec::new();
                        reference.retain(|&x| {
                            let take = x.to_bits() % 3 == k;
                            if take {
                                want.push(x);
                            }
                            !take
                        });
                        assert_eq!(bits(&drained), bits(&want), "op {op}: drain_by residue {k}");
                        format!("drain_by(residue {k})")
                    }
                    _ => {
                        let drained = store.drain_all();
                        assert_eq!(bits(&drained), bits(&std::mem::take(&mut reference)), "op {op}: drain_all");
                        "drain_all".to_string()
                    }
                };
                assert_eq!(bits(store.values()), bits(&reference), "op {op}: {step}");
                assert_eq!(store.len(), reference.len(), "op {op}: {step} len");
                if let Some(snapshot) = snapshot {
                    assert_eq!(bits(snapshot.values()), before, "op {op}: {step} changed a clone");
                }
            }
        }
    }
}
