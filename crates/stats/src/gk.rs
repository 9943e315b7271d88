//! Greenwald–Khanna streaming quantile sketch.
//!
//! Peers whose local stores are too large (or arrive as streams) build their
//! equi-depth probe summaries from a GK sketch instead of from sorted data.
//! The sketch answers any quantile query within rank error `ε·n` using
//! `O((1/ε)·log(εn))` space (Greenwald & Khanna, SIGMOD 2001).

/// One sketch tuple `(v, g, Δ)`: `g` = gap in min-rank to the predecessor,
/// `Δ` = uncertainty of the rank of `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A Greenwald–Khanna ε-approximate quantile sketch.
#[derive(Debug, Clone)]
pub struct GkSketch {
    epsilon: f64,
    tuples: Vec<Tuple>,
    count: u64,
    inserts_since_compress: u64,
}

impl GkSketch {
    /// Creates a sketch with rank-error bound `epsilon` (e.g. 0.01 for 1%).
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 0.5)`.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 0.5, "epsilon {epsilon} out of (0, 0.5)");
        Self { epsilon, tuples: Vec::new(), count: 0, inserts_since_compress: 0 }
    }

    /// Number of items inserted.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of tuples currently stored (the space cost).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn size(&self) -> usize {
        self.tuples.len()
    }

    /// The error bound.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Inserts one value.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn insert(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "NaN inserted into GK sketch");
        self.count += 1;
        let cap = (2.0 * self.epsilon * self.count as f64).floor() as u64;

        // First tuple with value > v.
        let pos = self.tuples.partition_point(|t| t.v <= v);
        let delta = if pos == 0 || pos == self.tuples.len() {
            0 // new min or max: rank known exactly
        } else {
            cap.saturating_sub(1)
        };
        self.tuples.insert(pos, Tuple { v, g: 1, delta });

        self.inserts_since_compress += 1;
        let period = (1.0 / (2.0 * self.epsilon)).ceil() as u64;
        if self.inserts_since_compress >= period {
            self.compress();
            self.inserts_since_compress = 0;
        }
    }

    /// Merges tuples whose combined uncertainty stays within the bound.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let cap = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        let mut i = self.tuples.len() - 2;
        // Never merge away index 0 (the minimum).
        while i >= 1 {
            let a = self.tuples[i];
            let b = self.tuples[i + 1];
            if a.g + b.g + b.delta <= cap {
                self.tuples[i + 1].g += a.g;
                self.tuples.remove(i);
            }
            i -= 1;
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) within rank error `ε·n`, or `None` if
    /// the sketch is empty.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.tuples.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Order-statistic rank `⌊q·(n−1)⌋ + 1`, not nearest-rank `⌈q·n⌉`:
        // the ceiling convention collapses every tail quantile to rank `n`
        // once `q ≥ 1 − 1/n`, so p99 on a small sample silently becomes the
        // max element. The interior convention keeps q = 0 on the exact min
        // and q = 1 on the exact max while tail queries land on a real
        // interior rank (pinned by `tail_quantiles_are_interior_ranks`).
        let rank =
            (((q * (self.count as f64 - 1.0)).floor() as u64).saturating_add(1)).min(self.count);
        let err = (self.epsilon * self.count as f64) as u64;

        let mut rmin = 0u64;
        let mut prev_v = self.tuples[0].v;
        for t in &self.tuples {
            rmin += t.g;
            let rmax = rmin + t.delta;
            if rmax > rank + err {
                return Some(prev_v);
            }
            prev_v = t.v;
        }
        Some(prev_v)
    }

    /// Merges `other` into `self` by interleaving the tuple lists in value
    /// order (each tuple keeps its `(g, Δ)`), summing counts, and
    /// recompressing. The merged sketch answers quantiles within rank error
    /// `(ε₁ + ε₂)·(n₁ + n₂)` — with equal ε on both sides, `2ε·n` — while
    /// `epsilon()` keeps reporting the larger input ε (callers merging many
    /// sketches should budget the doubled bound).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn merge(&mut self, other: &GkSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.tuples.len() + other.tuples.len());
        let (mut i, mut j) = (0, 0);
        while i < self.tuples.len() && j < other.tuples.len() {
            if self.tuples[i].v <= other.tuples[j].v {
                merged.push(self.tuples[i]);
                i += 1;
            } else {
                merged.push(other.tuples[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.tuples[i..]);
        merged.extend_from_slice(&other.tuples[j..]);
        self.tuples = merged;
        self.count += other.count;
        self.epsilon = self.epsilon.max(other.epsilon);
        self.compress();
        self.inserts_since_compress = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rank_of(sorted: &[f64], v: f64) -> usize {
        sorted.partition_point(|&x| x <= v)
    }

    #[test]
    fn quantiles_within_epsilon() {
        let eps = 0.01;
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(42);
        let mut sketch = GkSketch::new(eps);
        let mut data: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect();
        for &x in &data {
            sketch.insert(x);
        }
        data.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = sketch.quantile(q).unwrap();
            let r = rank_of(&data, est) as f64;
            let target = q * n as f64;
            assert!(
                (r - target).abs() <= 2.0 * eps * n as f64 + 1.0,
                "q={q}: rank {r} vs target {target}"
            );
        }
    }

    #[test]
    fn space_is_sublinear() {
        let mut sketch = GkSketch::new(0.01);
        for i in 0..50_000 {
            sketch.insert((i as f64).sin() * 100.0);
        }
        assert!(sketch.size() < 2_000, "size = {}", sketch.size());
    }

    #[test]
    fn sorted_and_reverse_sorted_streams() {
        for reverse in [false, true] {
            let mut sketch = GkSketch::new(0.02);
            let n = 10_000;
            for i in 0..n {
                let v = if reverse { (n - i) as f64 } else { i as f64 };
                sketch.insert(v);
            }
            let med = sketch.quantile(0.5).unwrap();
            assert!(
                (med - n as f64 / 2.0).abs() <= 2.0 * 0.02 * n as f64 + 1.0,
                "median {med} (reverse={reverse})"
            );
        }
    }

    #[test]
    fn min_and_max_are_exact() {
        let mut sketch = GkSketch::new(0.05);
        let vals = [5.0, -3.0, 7.5, 0.0, 100.0, -50.0, 2.0];
        for &v in &vals {
            sketch.insert(v);
        }
        assert_eq!(sketch.quantile(0.0).unwrap(), -50.0);
        assert_eq!(sketch.quantile(1.0).unwrap(), 100.0);
    }

    /// Closed-form pin of the tail-rank fix: with ε small enough that no
    /// compression ever fires (`⌊2εn⌋ = 0`), the sketch stores every value
    /// exactly, so `quantile(q)` must return precisely the order statistic
    /// at rank `⌊q·(n−1)⌋ + 1`. Under the old `⌈q·n⌉` convention, p99 on
    /// these sample counts returned the max element.
    #[test]
    fn tail_quantiles_are_interior_ranks() {
        for n in [10u64, 50, 100] {
            let mut sketch = GkSketch::new(0.001);
            for i in 0..n {
                sketch.insert(i as f64);
            }
            // p99 must be an interior element, not the max, for n ≤ 100.
            let p99 = sketch.quantile(0.99).unwrap();
            let expect = ((0.99 * (n as f64 - 1.0)).floor()) as u64;
            assert_eq!(p99, expect as f64, "p99 of 0..{n}");
            assert!(p99 < (n - 1) as f64, "p99 of {n} samples collapsed to the max");
            // p999 likewise stays interior below n = 1000.
            let p999 = sketch.quantile(0.999).unwrap();
            assert!(p999 < (n - 1) as f64, "p999 of {n} samples collapsed to the max");
            // The endpoints stay exact.
            assert_eq!(sketch.quantile(0.0).unwrap(), 0.0);
            assert_eq!(sketch.quantile(1.0).unwrap(), (n - 1) as f64);
        }
    }

    #[test]
    fn empty_sketch_returns_none() {
        let sketch = GkSketch::new(0.1);
        assert!(sketch.quantile(0.5).is_none());
        assert_eq!(sketch.count(), 0);
    }
}
