//! Per-peer local data stores.
//!
//! Each peer keeps its items sorted by value, which makes rank queries,
//! range handoff (on join/leave), uniform tuple draws, and equi-depth
//! summary construction all cheap — exactly the operations the estimators
//! exercise.

use dde_stats::equidepth::EquiDepthSummary;
use rand::Rng;
use std::sync::Arc;

/// The process-wide empty backing vector. Every fresh store borrows this
/// allocation until its first write, so constructing a [`crate::Node`] —
/// and hence staging a join in a `ChurnBatch` — costs zero allocations
/// (fenced in `ring/tests/alloc_free.rs`). `Arc::make_mut` sees the shared
/// count and detaches on first mutation, exactly like a forked store.
fn shared_empty() -> Arc<Vec<f64>> {
    use std::sync::OnceLock;
    static EMPTY: OnceLock<Arc<Vec<f64>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A peer's local data: values sorted ascending.
///
/// The backing vector sits behind an [`Arc`] so cloning a store — and hence
/// forking a whole loaded [`crate::Network`] from a cached scenario
/// snapshot — is O(1) per peer; the first mutation of a shared store copies
/// it (`Arc::make_mut`).
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

    /// Builds from unsorted values.
    pub fn from_values(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: Arc::new(values) }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Inserts one value, keeping order (`O(n)` worst case; bulk loading
    /// should use [`LocalStore::extend_values`]).
    pub fn insert(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        let pos = self.sorted.partition_point(|&v| v <= x);
        Arc::make_mut(&mut self.sorted).insert(pos, x);
    }

    /// Adds many values at once, re-sorting once (`O((n+m) log (n+m))`).
    /// An empty iterator is a guaranteed no-op (no copy-on-write detach), so
    /// empty handoffs under batched churn stay allocation-free.
    pub fn extend_values(&mut self, values: impl IntoIterator<Item = f64>) {
        let mut it = values.into_iter();
        let Some(first) = it.next() else { return };
        let sorted = Arc::make_mut(&mut self.sorted);
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
        std::mem::take(Arc::make_mut(&mut self.sorted))
    }

    /// Removes one occurrence of `x`; returns whether it was present.
    pub fn remove(&mut self, x: f64) -> bool {
        let pos = self.sorted.partition_point(|&v| v < x);
        if pos < self.sorted.len() && self.sorted[pos] == x {
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
    pub fn missing_from(&self, other: &LocalStore) -> usize {
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
        let s = LocalStore::from_values(vec![1.0, 2.0, 2.0, 5.0, 8.0]);
        assert_eq!(s.count_le(0.0), 0);
        assert_eq!(s.count_le(2.0), 3);
        assert_eq!(s.count_le(100.0), 5);
        assert_eq!(s.count_range(2.0, 5.0), 3);
        assert_eq!(s.count_range(3.0, 4.0), 0);
        assert_eq!(s.count_range(5.0, 1.0), 0); // inverted
    }

    #[test]
    fn drain_all_empties() {
        let mut s = LocalStore::from_values(vec![1.0, 2.0]);
        assert_eq!(s.drain_all(), vec![1.0, 2.0]);
        assert!(s.is_empty());
    }

    #[test]
    fn sample_uniform_covers_items() {
        let s = LocalStore::from_values(vec![1.0, 2.0, 3.0]);
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
        let s = LocalStore::from_values((1..=100).map(f64::from).collect());
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(LocalStore::new().quantile(0.5), None);
    }

    #[test]
    fn summary_matches_store_counts() {
        let s = LocalStore::from_values((0..1000).map(|i| (i % 97) as f64).collect());
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
        let mut s = LocalStore::from_values(vec![5.0]);
        s.extend_values([3.0, 9.0, 1.0]);
        assert_eq!(s.values(), &[1.0, 3.0, 5.0, 9.0]);
    }
}
