//! Equi-depth (quantile) summaries.
//!
//! This is the compact statistic every peer ships in a probe reply: `b`
//! bucket boundaries such that each bucket holds (approximately) `n/b` of the
//! peer's items. The estimator evaluates `count ≤ x` against these summaries;
//! experiment F6 sweeps the bucket count `b` to measure the accuracy /
//! message-size trade-off.

use crate::CdfFn;

/// An equi-depth summary of a (local) dataset: bucket boundaries plus exact
/// per-bucket counts.
///
/// `count_le` is exact at bucket boundaries and linearly interpolated inside
/// buckets, so its worst-case error is bounded by the largest bucket count.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthSummary {
    /// `b + 1` non-decreasing boundary values (empty when the summary is of
    /// an empty dataset).
    boundaries: Vec<f64>,
    /// Exact item count per bucket (`boundaries.len() - 1` entries).
    counts: Vec<u64>,
}

impl EquiDepthSummary {
    /// A summary of an empty dataset.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    fn empty() -> Self {
        Self { boundaries: Vec::new(), counts: Vec::new() }
    }

    /// Builds a summary with (up to) `buckets` buckets from data sorted
    /// ascending.
    ///
    /// # Panics
    /// Panics if `buckets == 0` or the input is not sorted (debug builds).
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn from_sorted(sorted: &[f64], buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
        let n = sorted.len();
        if n == 0 {
            return Self::empty();
        }
        let b = buckets.min(n);
        let mut boundaries = Vec::with_capacity(b + 1);
        let mut ranks = Vec::with_capacity(b + 1);
        for i in 0..=b {
            // Boundary i sits at rank round(i·n/b); rank 0 = min, rank n = max.
            let rank = (i * n) / b;
            ranks.push(rank);
            let idx = if rank == 0 { 0 } else { rank - 1 };
            boundaries.push(if i == 0 { sorted[0] } else { sorted[idx] });
        }
        let counts = ranks.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
        Self { boundaries, counts }
    }

    /// Builds a summary directly from `b + 1` quantile boundary values and a
    /// total count, distributing the count evenly across buckets (remainder
    /// spread over the first buckets).
    ///
    /// Its one user is `crates/stats/tests/pooled_kernel.rs`, which feeds
    /// the pooled kernel even-count summaries through it.
    ///
    /// # Panics
    /// Panics if fewer than two boundaries are given (unless `total == 0`)
    /// or boundaries are not sorted.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    // ddelint::allow(dead-pub, "the pooled-kernel contract (pooled_kernel.rs) feeds the kernel even-count summaries over arbitrary boundaries, which a reply may carry but from_sorted never builds")
    pub fn from_quantiles(boundaries: &[f64], total: u64) -> Self {
        if total == 0 {
            return Self::empty();
        }
        assert!(boundaries.len() >= 2, "need at least two boundaries");
        assert!(boundaries.windows(2).all(|w| w[0] <= w[1]), "boundaries not sorted");
        let b = boundaries.len() - 1;
        let base = total / b as u64;
        let rem = (total % b as u64) as usize;
        let counts = (0..b).map(|i| base + u64::from(i < rem)).collect();
        Self { boundaries: boundaries.to_vec(), counts }
    }

    /// Total number of items summarized.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of buckets.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// The bucket boundary values (empty for an empty summary). These are
    /// natural support points when assembling many summaries into a global
    /// CDF: `count_le` is exact there.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// `(min, max)` of the summarized data, or `None` if empty.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn bounds(&self) -> Option<(f64, f64)> {
        if self.boundaries.is_empty() {
            None
        } else {
            Some((self.boundaries[0], *self.boundaries.last().expect("nonempty")))
        }
    }

    /// Estimated number of items `≤ x`.
    ///
    /// Exact at bucket boundaries; linear interpolation inside a bucket.
    /// Zero-width buckets (runs of duplicates) are counted fully once `x`
    /// reaches their value.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn count_le(&self, x: f64) -> f64 {
        if self.boundaries.is_empty() {
            return 0.0;
        }
        if x < self.boundaries[0] {
            return 0.0;
        }
        let last = *self.boundaries.last().expect("nonempty");
        if x >= last {
            return self.total() as f64;
        }
        // Find the bucket i with boundaries[i] <= x < boundaries[i+1].
        // partition_point gives the first boundary > x.
        let hi_idx = self.boundaries.partition_point(|&b| b <= x);
        debug_assert!(hi_idx >= 1 && hi_idx < self.boundaries.len());
        let i = hi_idx - 1;
        let below: u64 = self.counts[..i].iter().sum();
        let blo = self.boundaries[i];
        let bhi = self.boundaries[hi_idx];
        let width = bhi - blo;
        let frac = if width > 0.0 { (x - blo) / width } else { 1.0 };
        below as f64 + frac * self.counts[i] as f64
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`) by inverse interpolation, or
    /// `None` if the summary is empty.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.boundaries.is_empty() || self.total() == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.total() as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = acc + c as f64;
            if next >= target || i == self.counts.len() - 1 {
                let blo = self.boundaries[i];
                let bhi = self.boundaries[i + 1];
                let frac = if c > 0 { ((target - acc) / c as f64).clamp(0.0, 1.0) } else { 0.0 };
                return Some(blo + frac * (bhi - blo));
            }
            acc = next;
        }
        self.bounds().map(|(_, hi)| hi)
    }

    /// The serialized size of this summary on the wire, in bytes, as
    /// accounted by the network simulator (8 bytes per boundary + 8 per
    /// count).
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn wire_size(&self) -> usize {
        8 * self.boundaries.len() + 8 * self.counts.len()
    }
}

/// How one summary's `count_le(x)` enters a pooled sum (see
/// [`pooled_cdf_points`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolTerm {
    /// `count_le(x)` itself (count-weighted and exact pooling).
    Count,
    /// `count_le(x) * w` (a Horvitz–Thompson weight; 1 when unweighted).
    Scaled(f64),
    /// `count_le(x) / n` (equal weighting: the summary's own CDF times `n`'s
    /// share).
    Divided(f64),
}

impl PoolTerm {
    /// The term of a summary whose `count_le(x)` is `c`.
    fn apply(self, c: f64) -> f64 {
        match self {
            PoolTerm::Count => c,
            PoolTerm::Scaled(w) => c * w,
            PoolTerm::Divided(n) => c / n,
        }
    }
}

/// One summary of a pool, flattened into the pool's knot column
/// (`(boundary, items below it)` pairs).
struct Part {
    /// First boundary: `count_le` is 0 below it (`+∞` when empty).
    lo: f64,
    /// Last boundary: `count_le` is the total from it on (`-∞` when empty).
    hi: f64,
    /// The term at or above `hi`.
    full: f64,
    /// The least `lo` of this and every later part: all of them are 0 below.
    floor: f64,
    term: PoolTerm,
    /// `count_le`'s `partition_point`: the first knot above the last `x`
    /// this part was evaluated at inside its range (only ever advances).
    cursor: usize,
    /// One past this part's last knot.
    end: usize,
}

impl Part {
    /// `count_le(x)` for `lo <= x < hi`, by the same arithmetic as
    /// [`EquiDepthSummary::count_le`].
    fn count_inside(&mut self, x: f64, knots: &[(f64, u64)]) -> f64 {
        while self.cursor + 1 < self.end && knots[self.cursor].0 <= x {
            self.cursor += 1;
        }
        let (blo, below) = knots[self.cursor - 1];
        let (bhi, next) = knots[self.cursor];
        let width = bhi - blo;
        let frac = if width > 0.0 { (x - blo) / width } else { 1.0 };
        below as f64 + frac * (next - below) as f64
    }
}

/// Pools summaries into the points of one global CDF: `(lo, 0)`, then
/// `(x, finish(Σⱼ termⱼ(sⱼ.count_le(x))))` at every support point `x`,
/// then `(hi, 1)`. The support is the union of the summaries' finite
/// boundaries strictly inside `domain = (lo, hi)`, sorted, deduplicated and
/// uniformly thinned to `support_cap` points.
///
/// Every sum is bit-identical to the left fold
/// `summaries.map(|(s, t)| t(s.count_le(x))).sum::<f64>()`, but costs
/// what its nonzero terms cost rather than `O(k·b)` per point:
///
/// * each summary keeps a bucket cursor that only advances as `x` grows, in
///   place of `count_le`'s search and prefix sum;
/// * a summary below its first boundary contributes `+0.0`, which leaves a
///   non-negative sum unchanged, so it is skipped — and once every later
///   summary is below its own first boundary (a suffix minimum), the fold
///   stops;
/// * summaries at or past their last boundary contribute a constant, so the
///   fold over the leading run of them is kept and extended, not redone.
///
/// The order of the nonzero terms, and each term's own `×w`, `÷n` or
/// identity, are unchanged. Term factors must be positive and finite, so
/// that a zero count makes a `+0.0` term.
///
/// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
pub fn pooled_cdf_points<'a, I>(
    summaries: I,
    domain: (f64, f64),
    support_cap: usize,
    finish: impl Fn(f64) -> f64,
) -> Vec<(f64, f64)>
where
    I: IntoIterator<Item = (&'a EquiDepthSummary, PoolTerm)>,
    I::IntoIter: Clone,
{
    let (lo, hi) = domain;
    let summaries = summaries.into_iter();
    let (n, n_knots) =
        summaries.clone().fold((0, 0), |(n, k), (s, _)| (n + 1, k + s.boundaries.len()));
    let mut parts: Vec<Part> = Vec::with_capacity(n);
    let mut knots: Vec<(f64, u64)> = Vec::with_capacity(n_knots);
    for (s, term) in summaries {
        debug_assert!(match term {
            PoolTerm::Count => true,
            PoolTerm::Scaled(f) | PoolTerm::Divided(f) => f > 0.0 && f.is_finite(),
        });
        let start = knots.len();
        let mut below = 0;
        if let Some(&first) = s.boundaries.first() {
            knots.push((first, 0));
            for (&b, &c) in s.boundaries[1..].iter().zip(&s.counts) {
                below += c;
                knots.push((b, below));
            }
        }
        let (first, last) = s.bounds().unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
        parts.push(Part {
            lo: first,
            hi: last,
            full: term.apply(below as f64),
            floor: first,
            term,
            cursor: start + 1,
            end: knots.len(),
        });
    }
    let mut floor = f64::INFINITY;
    for part in parts.iter_mut().rev() {
        floor = floor.min(part.lo);
        part.floor = floor;
    }

    let mut support = Vec::with_capacity(knots.len());
    support.extend(knots.iter().map(|k| k.0).filter(|x| x.is_finite() && *x > lo && *x < hi));
    // total_cmp ties are bit-identical, so an unstable sort is as
    // deterministic as a stable one, without the stable sort's buffer.
    support.sort_unstable_by(f64::total_cmp);
    support.dedup();
    if support.len() > support_cap {
        let step = support.len() as f64 / support_cap as f64;
        // In place: the source index `⌊i·step⌋ ≥ i` is never overwritten yet.
        for i in 0..support_cap {
            support[i] = support[(i as f64 * step) as usize];
        }
        support.truncate(support_cap);
        support.dedup();
    }

    let mut points = Vec::with_capacity(support.len() + 2);
    points.push((lo, 0.0));
    let (mut full_run, mut full_sum, mut live) = (0, 0.0, 0);
    for &x in &support {
        while full_run < n && parts[full_run].hi <= x {
            full_sum += parts[full_run].full;
            full_run += 1;
        }
        while live < n && parts[live].floor <= x {
            live += 1;
        }
        let mut sum = full_sum;
        for part in parts.iter_mut().take(live).skip(full_run) {
            if x < part.lo {
                continue;
            }
            sum += if x >= part.hi {
                part.full
            } else {
                let c = part.count_inside(x, &knots);
                part.term.apply(c)
            };
        }
        points.push((x, finish(sum)));
    }
    points.push((hi, 1.0));
    points
}

impl CdfFn for EquiDepthSummary {
    fn cdf(&self, x: f64) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.count_le(x) / t as f64
    }

    fn domain(&self) -> (f64, f64) {
        self.bounds().unwrap_or((0.0, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(data: &mut [f64], buckets: usize) -> EquiDepthSummary {
        data.sort_by(f64::total_cmp);
        EquiDepthSummary::from_sorted(data, buckets)
    }

    #[test]
    fn exact_at_boundaries() {
        let mut data: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summary_of(&mut data, 4);
        assert_eq!(s.total(), 100);
        assert_eq!(s.buckets(), 4);
        // Boundaries at ranks 0,25,50,75,100 → values 1,25,50,75,100.
        assert_eq!(s.count_le(25.0), 25.0);
        assert_eq!(s.count_le(50.0), 50.0);
        assert_eq!(s.count_le(75.0), 75.0);
        assert_eq!(s.count_le(100.0), 100.0);
        assert_eq!(s.count_le(0.5), 0.0);
        assert_eq!(s.count_le(1000.0), 100.0);
    }

    #[test]
    fn interpolates_inside_buckets() {
        let mut data: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summary_of(&mut data, 4);
        // Halfway through the first bucket [1, 25]: 25 items spread there.
        let mid = s.count_le(13.0);
        assert!((mid - 12.5).abs() < 1.0, "mid = {mid}");
    }

    #[test]
    fn count_le_is_monotone() {
        let mut data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let s = summary_of(&mut data, 8);
        let mut prev = -1.0;
        for i in 0..=200 {
            let x = i as f64 / 2.0;
            let c = s.count_le(x);
            assert!(c + 1e-12 >= prev, "not monotone at {x}");
            prev = c;
        }
    }

    #[test]
    fn handles_duplicates() {
        let mut data = vec![5.0; 50];
        data.extend((0..50).map(f64::from));
        let s = summary_of(&mut data, 10);
        assert_eq!(s.total(), 100);
        // All 50 duplicates plus the values 0..=5 are ≤ 5.0.
        let c = s.count_le(5.0);
        assert!((c - 56.0).abs() <= 6.0, "count_le(5.0) = {c}");
        assert_eq!(s.count_le(49.0), 100.0);
    }

    #[test]
    fn empty_and_singleton() {
        let s = EquiDepthSummary::from_sorted(&[], 8);
        assert_eq!(s.total(), 0);
        assert_eq!(s.count_le(1.0), 0.0);
        assert!(s.bounds().is_none());
        assert!(s.quantile(0.5).is_none());

        let s = EquiDepthSummary::from_sorted(&[7.0], 8);
        assert_eq!(s.total(), 1);
        assert_eq!(s.count_le(7.0), 1.0);
        assert_eq!(s.count_le(6.9), 0.0);
        assert_eq!(s.bounds(), Some((7.0, 7.0)));
    }

    #[test]
    fn more_buckets_than_items() {
        let s = EquiDepthSummary::from_sorted(&[1.0, 2.0, 3.0], 100);
        assert_eq!(s.buckets(), 3);
        assert_eq!(s.total(), 3);
        assert_eq!(s.count_le(2.0), 2.0);
    }

    #[test]
    fn quantile_round_trip() {
        let mut data: Vec<f64> = (0..1000).map(|i| i as f64 / 10.0).collect();
        let s = summary_of(&mut data, 16);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let x = s.quantile(q).unwrap();
            let back = s.count_le(x) / s.total() as f64;
            assert!((back - q).abs() < 0.01, "q={q} x={x} back={back}");
        }
    }

    #[test]
    fn wire_size_scales_with_buckets() {
        let mut data: Vec<f64> = (0..100).map(f64::from).collect();
        let s4 = summary_of(&mut data.clone(), 4);
        let s16 = summary_of(&mut data, 16);
        assert!(s16.wire_size() > s4.wire_size());
        assert_eq!(s4.wire_size(), 8 * 5 + 8 * 4);
    }
}
