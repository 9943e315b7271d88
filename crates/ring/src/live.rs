//! The ring's stored values as one ascending multiset, read where they live.
//!
//! Live-data scoring compares an estimate with every value the stores hold
//! now. [`LiveValues`] is that multiset as a [`CdfFn`] and an ascending
//! iterator: under range placement it reads the stores' sorted runs in
//! place, so a score pays for the points it evaluates, not for a copy of the
//! ring.

use dde_stats::{gallop, sort_total, CdfFn, Ecdf};

/// Every value stored on the ring, ascending by `total_cmp` (the ground
/// truth live-data scoring reads; built by [`crate::Network::live_values`]).
///
/// The stores are read as runs in ring order: position 0's values placed at
/// or before its own id, then positions 1…P−1, then position 0's wrap
/// tail. When the concatenation of those runs is in `total_cmp` order —
/// under range placement with every item on its owner — the view reads the
/// runs in place ([`LiveValues::Runs`]). Otherwise (hashed placement, or
/// items that protocol joins left off their owners) it holds one sorted
/// copy ([`LiveValues::Sorted`]). Values equal under `total_cmp` have
/// identical bits, so either way [`LiveValues::iter`] yields what a
/// collect-and-sort would, bit for bit, and the [`CdfFn`] is the [`Ecdf`]
/// of the same multiset bit for bit: `rank / n`, with `rank` the number of
/// values `<= x`.
///
/// # Panics
/// The [`CdfFn`] methods panic on a ring that holds no items, as an
/// [`Ecdf`] of an empty sample does.
#[derive(Debug)]
pub enum LiveValues<'a> {
    /// The stores' runs, read in place.
    Runs(StoreRuns<'a>),
    /// One sorted copy of every stored value.
    Sorted(Ecdf),
}

/// The stores' non-empty runs in ring order, whose concatenation is in
/// `total_cmp` order (the [`LiveValues::Runs`] arm).
#[derive(Debug)]
pub struct StoreRuns<'a> {
    /// Each run with the rank of its first value.
    runs: Vec<(usize, &'a [f64])>,
    /// Total values over all runs.
    len: usize,
}

impl<'a> LiveValues<'a> {
    /// The view of `runs`, each sorted by `total_cmp`: in place when their
    /// concatenation is sorted too, one sorted copy otherwise.
    pub(crate) fn from_runs(runs: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let mut kept: Vec<(usize, &'a [f64])> = Vec::new();
        let mut len = 0;
        let mut ascending = true;
        for run in runs.into_iter().filter(|run| !run.is_empty()) {
            if let Some(&(_, prev)) = kept.last() {
                if prev[prev.len() - 1].total_cmp(&run[0]).is_gt() {
                    ascending = false;
                }
            }
            kept.push((len, run));
            len += run.len();
        }
        if ascending {
            return LiveValues::Runs(StoreRuns { runs: kept, len });
        }
        let mut all = Vec::with_capacity(len);
        for (_, run) in kept {
            all.extend_from_slice(run);
        }
        LiveValues::Sorted(Ecdf::from_sorted(sort_total(all)))
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            LiveValues::Runs(r) => r.len,
            LiveValues::Sorted(e) => e.len(),
        }
    }

    /// Whether the ring holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values, ascending by `total_cmp`.
    pub fn iter(&self) -> impl Iterator<Item = &f64> + '_ {
        let (runs, sorted): (&[(usize, &[f64])], &[f64]) = match self {
            LiveValues::Runs(r) => (&r.runs, &[]),
            LiveValues::Sorted(e) => (&[], e.samples()),
        };
        runs.iter().flat_map(|&(_, run)| run).chain(sorted)
    }
}

impl CdfFn for LiveValues<'_> {
    fn cdf(&self, x: f64) -> f64 {
        match self {
            LiveValues::Runs(r) => r.cdf(x),
            LiveValues::Sorted(e) => e.cdf(x),
        }
    }

    fn domain(&self) -> (f64, f64) {
        match self {
            LiveValues::Runs(r) => r.domain(),
            LiveValues::Sorted(e) => e.domain(),
        }
    }

    fn inv_cdf(&self, u: f64) -> f64 {
        match self {
            LiveValues::Runs(r) => r.inv_cdf(u),
            LiveValues::Sorted(e) => e.inv_cdf(u),
        }
    }

    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        match self {
            LiveValues::Runs(r) => r.cdf_ascending(xs, out),
            LiveValues::Sorted(e) => e.cdf_ascending(xs, out),
        }
    }
}

impl CdfFn for StoreRuns<'_> {
    /// One point through the forward cursor: `O(log P + log n)`.
    fn cdf(&self, x: f64) -> f64 {
        let mut out = [0.0];
        self.cdf_ascending(&[x], &mut out);
        out[0]
    }

    fn domain(&self) -> (f64, f64) {
        let (Some(&(_, first)), Some(&(_, last))) = (self.runs.first(), self.runs.last()) else {
            panic!("the CDF of a ring without items");
        };
        (first[0], last[last.len() - 1])
    }

    /// [`Ecdf::quantile`]'s type-1 convention over the concatenated runs.
    fn inv_cdf(&self, u: f64) -> f64 {
        assert!(self.len > 0, "the CDF of a ring without items");
        let n = self.len;
        let idx = ((u.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
        let (start, run) = self.runs[self.runs.partition_point(|&(start, _)| start <= idx) - 1];
        run[idx - start]
    }

    /// One forward cursor over the runs: whole runs at or below a point are
    /// skipped by galloping over their last values, and inside the run
    /// that holds the point's rank the rank gallops from the previous
    /// point's.
    fn cdf_ascending(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        assert!(self.len > 0, "the CDF of a ring without items");
        debug_assert!(xs.windows(2).all(|w| w[0] <= w[1]), "points not ascending");
        let n = self.len as f64;
        // The run holding the current rank, and the rank's offset inside it.
        let (mut r, mut i) = (0, 0);
        for (o, &x) in out.iter_mut().zip(xs) {
            let next = gallop(&self.runs, r, |&(_, run)| run[run.len() - 1] <= x);
            if next > r {
                r = next;
                i = 0;
            }
            let rank = match self.runs.get(r) {
                Some(&(start, run)) => {
                    i = gallop(run, i, |&v| v <= x);
                    start + i
                }
                None => self.len,
            };
            *o = rank as f64 / n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both arms ≡ the [`Ecdf`] of the concatenation, on runs with both
    /// zeros, duplicates across a run boundary, an empty run and a run of
    /// one value, at points on, between, below and above the values.
    #[test]
    fn both_arms_match_the_ecdf_of_their_values() {
        let runs: [&[f64]; 5] = [&[-2.0, -0.0], &[0.0, 0.0, 1.5], &[], &[1.5, 3.0], &[7.0]];
        let xs = [-9.0, -2.0, -1.0, -0.0, 0.0, 1.0, 1.5, 1.5, 2.0, 3.0, 6.9, 7.0, 8.0];
        let mut swapped = runs;
        swapped.swap(0, 4);
        for (runs, in_place) in [(runs, true), (swapped, false)] {
            let view = LiveValues::from_runs(runs);
            assert_eq!(matches!(view, LiveValues::Runs(_)), in_place);
            let values: Vec<f64> = view.iter().copied().collect();
            let ecdf = Ecdf::new(runs.concat());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&values), bits(ecdf.samples()));
            let mut got = [f64::NAN; 13];
            view.cdf_ascending(&xs, &mut got);
            for (&x, &f) in xs.iter().zip(&got) {
                assert_eq!(f.to_bits(), ecdf.cdf(x).to_bits(), "x = {x}");
                assert_eq!(view.cdf(x).to_bits(), ecdf.cdf(x).to_bits(), "x = {x}");
            }
            for u in [0.0, 0.1, 0.3, 0.5, 0.77, 1.0] {
                assert_eq!(view.inv_cdf(u).to_bits(), ecdf.inv_cdf(u).to_bits(), "u = {u}");
            }
            assert_eq!(view.domain(), ecdf.domain());
            assert_eq!(view.len(), 8);
        }
    }
}
