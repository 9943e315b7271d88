//! Streamed ground truth for the mega-scale regime.
//!
//! Quick-suite scales keep the realized dataset as one sorted vector (the
//! build's empirical CDF, which shares the ring's load buffer) and evaluate
//! KS statistics against that empirical CDF. At 10⁶ peers with items ∝ P
//! that vector is 10⁷–10⁸ doubles per cell — most of the build budget and a
//! large slice of memory, spent re-deriving something the scenario already
//! knows analytically: the data was *sampled from* a known generating
//! distribution.
//!
//! [`StreamingTruth`] is the lazy replacement. It wraps the generating
//! distribution's analytic CDF (every [`crate::dist::DistributionKind`] the
//! scenario builders emit — Uniform, Pareto, HotspotZipf, … — has an exact
//! closed-form CDF) plus the realized item count, and evaluates KS distances
//! by streaming the per-peer sorted store slices through a k-way merge —
//! never materializing the global vector. Agreement with the materialized
//! path is exact (property-tested to < 1e-9 in
//! `crates/stats/tests/streaming_truth.rs` and the `dde-sim` suite).

use crate::dist::Distribution;
use crate::{sort_total, CdfFn};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `f64` ordered by `total_cmp` so merge keys can live in a [`BinaryHeap`].
#[derive(PartialEq)]
struct TotalF64(f64);

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Analytic ground truth: the generating distribution's exact CDF plus the
/// realized item count, standing in for a materialized global sample vector.
///
/// Implements [`CdfFn`], so everything that can measure a distance to an
/// [`crate::ecdf::Ecdf`] can measure the same distance to the generator —
/// without `O(items)` memory or sort time.
pub struct StreamingTruth {
    dist: Box<dyn Distribution>,
    items: u64,
    /// Epoch delta journal: values present in the realized data but not in
    /// the parts a caller will stream (items inserted since the parts were
    /// frozen), one batch per call, as it arrived.
    adds: Vec<Vec<f64>>,
    /// Epoch delta journal: values still present in streamed parts but no
    /// longer in the realized data (crash losses, turnover deletes), one
    /// batch per call, as it arrived.
    removes: Vec<Vec<f64>>,
}

impl StreamingTruth {
    /// Wraps the generating distribution and the realized item count.
    pub fn new(dist: Box<dyn Distribution>, items: u64) -> Self {
        Self { dist, items, adds: Vec::new(), removes: Vec::new() }
    }

    /// The realized item count (the `n` of every DKW band), including the
    /// net effect of journaled deltas.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Journals values inserted since the streamed parts were frozen: they
    /// participate in every subsequent [`StreamingTruth::ks_of_parts`] as an
    /// extra merge part, and they raise [`StreamingTruth::items`]. The batch
    /// is kept as it arrives, so `M` items cost at most `O(M)` here (a
    /// `Vec` is kept without a copy): no truth rebuild and no sort. Only
    /// `ks_of_parts` reads the journal in order, and it sorts once per read.
    pub fn journal_adds(&mut self, values: impl IntoIterator<Item = f64>) {
        let batch: Vec<f64> = values.into_iter().collect();
        self.items += batch.len() as u64;
        self.adds.push(batch);
    }

    /// Journals values deleted since the streamed parts were frozen (e.g.
    /// crash losses): each one cancels its first `total_cmp`-equal occurrence
    /// during the merge, and lowers [`StreamingTruth::items`]. Kept as it
    /// arrives, like [`StreamingTruth::journal_adds`]. A journaled removal
    /// that never matches a streamed value is a caller bug (debug
    /// assertion).
    pub fn journal_removes(&mut self, values: impl IntoIterator<Item = f64>) {
        let batch: Vec<f64> = values.into_iter().collect();
        self.items = self
            .items
            .checked_sub(batch.len() as u64)
            .expect("removed more items than the truth holds");
        self.removes.push(batch);
    }

    /// The generating distribution.
    pub fn distribution(&self) -> &dyn Distribution {
        self.dist.as_ref()
    }

    /// The exact KS distance between the empirical CDF of the union of
    /// `parts` (each a sorted slice, e.g. one peer's store) and the analytic
    /// CDF — computed by k-way merge, without materializing the union.
    ///
    /// Bit-identical to
    /// `Ecdf::new(concatenated_and_sorted).ks_distance_to(generator)`: the
    /// merge visits values in the same `total_cmp` order, and the running
    /// `max` is order-independent for ties.
    ///
    /// Journaled deltas fold into the merge: sorted copies of the two
    /// journals are taken once per call, `adds` ride along as one extra
    /// part, and each journaled removal silently consumes its first
    /// `total_cmp`-equal streamed value (no rank advance) — so the result is
    /// bit-identical to a full recompute over the *mutated* multiset
    /// (equal values share one CDF point and interchangeable ranks, so which
    /// equal copy cancels is immaterial; property-tested across all
    /// distribution kinds in `crates/stats/tests/streaming_truth.rs`).
    pub fn ks_of_parts<'a, I>(&self, parts: I) -> f64
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let adds = sort_total(self.adds.concat());
        let removes = sort_total(self.removes.concat());
        let mut parts: Vec<&[f64]> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        if !adds.is_empty() {
            parts.push(&adds);
        }
        let streamed: usize = parts.iter().map(|p| p.len()).sum();
        let n = streamed
            .checked_sub(removes.len())
            .expect("more journaled removals than streamed values");
        if n == 0 {
            return 0.0;
        }
        let mut heap: BinaryHeap<Reverse<(TotalF64, usize, usize)>> =
            parts.iter().enumerate().map(|(pi, p)| Reverse((TotalF64(p[0]), pi, 0))).collect();
        let nf = n as f64;
        let mut d = 0.0f64;
        let mut rank = 0usize;
        let mut ri = 0usize;
        while let Some(Reverse((TotalF64(x), pi, off))) = heap.pop() {
            if off + 1 < parts[pi].len() {
                heap.push(Reverse((TotalF64(parts[pi][off + 1]), pi, off + 1)));
            }
            if ri < removes.len() && removes[ri].total_cmp(&x).is_eq() {
                ri += 1;
                continue;
            }
            debug_assert!(
                ri >= removes.len() || removes[ri].total_cmp(&x).is_gt(),
                "journaled removal {} absent from streamed parts",
                removes[ri]
            );
            let f = self.dist.cdf(x);
            d = d.max((f - rank as f64 / nf).abs()).max(((rank + 1) as f64 / nf - f).abs());
            rank += 1;
        }
        debug_assert_eq!(ri, removes.len(), "unmatched journaled removals");
        d
    }
}

impl CdfFn for StreamingTruth {
    fn cdf(&self, x: f64) -> f64 {
        self.dist.cdf(x)
    }

    fn domain(&self) -> (f64, f64) {
        self.dist.domain()
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        self.dist.inv_cdf(u)
    }

    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        self.dist.cdf_ascending(xs, out);
    }
}

impl std::fmt::Debug for StreamingTruth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingTruth")
            .field("dist", &self.dist.name())
            .field("items", &self.items)
            .field("pending_adds", &self.adds.iter().map(Vec::len).sum::<usize>())
            .field("pending_removes", &self.removes.iter().map(Vec::len).sum::<usize>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Uniform;
    use crate::ecdf::Ecdf;

    fn truth() -> StreamingTruth {
        StreamingTruth::new(Box::new(Uniform::new(0.0, 1.0)), 6)
    }

    #[test]
    fn ks_of_parts_matches_materialized_ecdf() {
        let parts: Vec<Vec<f64>> = vec![vec![0.05, 0.5], vec![0.1, 0.9], vec![0.3, 0.31]];
        let mut all: Vec<f64> = parts.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        let expected = Ecdf::new(all).ks_distance_to(&Uniform::new(0.0, 1.0));
        let got = truth().ks_of_parts(parts.iter().map(Vec::as_slice));
        assert_eq!(got, expected, "merge path must be bit-identical");
    }

    #[test]
    fn ks_of_parts_handles_empty_parts_and_ties() {
        let parts: Vec<Vec<f64>> = vec![vec![], vec![0.25, 0.25, 0.25], vec![], vec![0.25]];
        let mut all: Vec<f64> = parts.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        let expected = Ecdf::new(all).ks_distance_to(&Uniform::new(0.0, 1.0));
        let got = truth().ks_of_parts(parts.iter().map(Vec::as_slice));
        assert_eq!(got, expected);
        assert_eq!(truth().ks_of_parts(std::iter::empty()), 0.0);
    }

    #[test]
    fn journaled_deltas_match_full_recompute() {
        let parts: Vec<Vec<f64>> = vec![vec![0.05, 0.5, 0.5], vec![0.1, 0.9], vec![0.3, 0.31]];
        let mut t = truth();
        t.journal_adds([0.42, 0.07]);
        t.journal_removes([0.5, 0.1]);
        assert_eq!(t.items(), 6); // 6 + 2 − 2
                                  // Full recompute over the mutated multiset.
        let mut mutated: Vec<f64> = parts.iter().flatten().copied().collect();
        mutated.extend([0.42, 0.07]);
        for r in [0.5, 0.1] {
            let pos = mutated.iter().position(|&x| x == r).unwrap();
            mutated.remove(pos);
        }
        mutated.sort_by(f64::total_cmp);
        let expected = Ecdf::new(mutated).ks_distance_to(&Uniform::new(0.0, 1.0));
        let got = t.ks_of_parts(parts.iter().map(Vec::as_slice));
        assert_eq!(got, expected, "delta fold must be bit-identical");
    }

    #[test]
    fn removes_may_empty_the_stream() {
        let parts: Vec<Vec<f64>> = vec![vec![0.25, 0.75]];
        let mut t = truth();
        t.journal_removes([0.25, 0.75]);
        assert_eq!(t.ks_of_parts(parts.iter().map(Vec::as_slice)), 0.0);
    }

    #[test]
    fn cdf_delegates_and_band_uses_item_count() {
        let t = truth();
        assert_eq!(t.cdf(0.5), 0.5);
        assert_eq!(t.domain(), (0.0, 1.0));
        assert_eq!(t.items(), 6);
    }
}
