//! Deterministic adversarial node placement.
//!
//! The paper's stratified sampler probes ring positions; a position's owner
//! is the peer whose arc covers it, so a peer's chance of being sampled is
//! its arc *length* — not its data share. The placement that maximizes the
//! bias of an uncorrected (arc-uniform) estimator therefore packs almost
//! every peer into the *sparsest* data region (a thicket of tiny, empty
//! arcs that soak up samples) while a handful of peers cover the dense
//! region with giant arcs. This module generates that layout — fully
//! deterministically, with no RNG: the ids are a pure function of the
//! dataset and peer count, so seed purity is inherited from the dataset and
//! two builds of the same scenario place identically.

use dde_ring::{DomainMap, Network, RingId};

/// Equal-width value windows scanned when classifying dense/sparse regions.
pub const WINDOWS: usize = 16;

/// Fraction of peers packed into the sparsest window: `PACKED_NUM /
/// PACKED_DEN` of them (the rest spread over the remaining ring).
const PACKED_NUM: usize = 7;
const PACKED_DEN: usize = 8;

/// Item count per equal-width value window over `[lo, hi]`.
///
/// `sorted` must be ascending; counts come from binary searches, so this is
/// O(WINDOWS · log n).
fn window_counts(sorted: &[f64], lo: f64, hi: f64) -> [usize; WINDOWS] {
    let width = (hi - lo) / WINDOWS as f64;
    let mut counts = [0usize; WINDOWS];
    let mut prev = sorted.partition_point(|&x| x < lo);
    for (w, slot) in counts.iter_mut().enumerate() {
        let edge = if w + 1 == WINDOWS { hi } else { lo + (w + 1) as f64 * width };
        let next = sorted.partition_point(|&x| x <= edge);
        *slot = next - prev;
        prev = next;
    }
    counts
}

/// Index of the window holding the *fewest* items (ties → lowest index).
fn sparsest_window(sorted: &[f64], lo: f64, hi: f64) -> usize {
    let counts = window_counts(sorted, lo, hi);
    counts.iter().enumerate().min_by_key(|&(_, c)| *c).map(|(w, _)| w).expect("WINDOWS > 0")
}

/// Index of the window holding the *most* items (ties → lowest index).
pub fn densest_window(sorted: &[f64], lo: f64, hi: f64) -> usize {
    let counts = window_counts(sorted, lo, hi);
    counts.iter().enumerate().max_by_key(|&(_, c)| *c).map(|(w, _)| w).expect("WINDOWS > 0")
}

/// The ring arc `(start, span)` that value window `w` maps to under `map`.
pub fn window_arc(w: usize, lo: f64, hi: f64, map: &DomainMap) -> (u64, u64) {
    let width = (hi - lo) / WINDOWS as f64;
    let start = map.to_ring(lo + w as f64 * width).0;
    let end = if w + 1 == WINDOWS { u64::MAX } else { map.to_ring(lo + (w + 1) as f64 * width).0 };
    (start, end.wrapping_sub(start))
}

/// The bias-maximizing node layout for `peers` peers over `sorted` data
/// (ascending) on `[lo, hi]` under range placement `map`: 7/8 of the peers
/// evenly packed into the sparsest window's arc, the rest evenly spread
/// over the remaining ring. Deterministic — no RNG.
///
/// The caller sorts/dedups; evenly-spaced ids cannot collide within one
/// group, and cross-group collisions would need the two lattices to align
/// exactly (measure zero; dedup handles it regardless).
pub fn adversarial_ids(
    peers: usize,
    sorted: &[f64],
    lo: f64,
    hi: f64,
    map: &DomainMap,
) -> Vec<RingId> {
    let w = sparsest_window(sorted, lo, hi);
    let (start, span) = window_arc(w, lo, hi, map);
    let packed = (peers * PACKED_NUM / PACKED_DEN).max(1).min(peers);
    let rest = peers - packed;
    let mut ids = Vec::with_capacity(peers);
    // Evenly spaced inside the packed arc, offset to midpoints so the first
    // id is never exactly the arc start (which the sparse side also emits).
    for i in 0..packed {
        let off = (span as u128 * (2 * i as u128 + 1) / (2 * packed as u128)) as u64;
        ids.push(RingId(start.wrapping_add(off)));
    }
    let rest_start = start.wrapping_add(span);
    let rest_span = span.wrapping_neg(); // 2^64 - span, mod 2^64
    for i in 0..rest {
        let off = (rest_span as u128 * (2 * i as u128 + 1) / (2 * rest as u128)) as u64;
        ids.push(RingId(rest_start.wrapping_add(off)));
    }
    ids
}

/// Relative bias of the *uncorrected* arc-uniform estimator on `net`: the
/// expected naive total estimate `P · Σᵢ arc_fracᵢ · countᵢ` against the
/// true item total, as a fraction of the total. Near 0 when arc length and
/// data share are uncorrelated (uniform ids); large and positive when dense
/// peers own long arcs (this module's layout). Diagnostic for tests and the
/// F13 report.
// ddelint::allow(dead-pub, "the measure the adversarial layout is built to maximize; build.rs and adversary_props.rs assert through it that the layout earns its name")
pub fn arc_weighted_bias(net: &Network) -> f64 {
    let ids: Vec<RingId> = net.ids().collect();
    let p = ids.len();
    let total: u64 = net.total_items();
    if p == 0 || total == 0 {
        return 0.0;
    }
    let mut naive = 0.0;
    for (i, &id) in ids.iter().enumerate() {
        let pred = ids[(i + p - 1) % p];
        let arc = id.0.wrapping_sub(pred.0);
        let frac = arc as f64 / 2f64.powi(64);
        let count = net.node(id).expect("listed id").store.len() as f64;
        naive += frac * count;
    }
    (naive * p as f64 - total as f64) / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_partition_the_dataset() {
        let sorted: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let counts = window_counts(&sorted, 0.0, 1000.0);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // Uniform data: every window gets ~1000/16.
        for c in counts {
            assert!((50..=75).contains(&c), "uniform window count off: {c}");
        }
    }

    #[test]
    fn sparse_and_dense_windows_found() {
        // All mass in the first sixteenth: window 0 densest, window 1 the
        // first empty one.
        let sorted: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect(); // [0, 49.5]
        assert_eq!(densest_window(&sorted, 0.0, 1000.0), 0);
        assert_eq!(sparsest_window(&sorted, 0.0, 1000.0), 1);
    }

    #[test]
    fn adversarial_ids_are_deterministic_and_distinct() {
        let sorted: Vec<f64> = (0..500).map(|i| (i as f64).powf(1.5)).collect();
        let map = DomainMap::new(0.0, 12_000.0);
        let a = adversarial_ids(64, &sorted, 0.0, 12_000.0, &map);
        let b = adversarial_ids(64, &sorted, 0.0, 12_000.0, &map);
        assert_eq!(a, b, "generator must be a pure function");
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 64, "evenly spaced ids must not collide");
    }

    #[test]
    fn most_ids_land_in_the_sparsest_arc() {
        let sorted: Vec<f64> = (0..500).map(|i| (i as f64).powf(1.5)).collect();
        let (lo, hi) = (0.0, 12_000.0);
        let map = DomainMap::new(lo, hi);
        let ids = adversarial_ids(64, &sorted, lo, hi, &map);
        let (start, span) = window_arc(sparsest_window(&sorted, lo, hi), lo, hi, &map);
        let inside = ids.iter().filter(|id| id.0.wrapping_sub(start) < span).count();
        assert_eq!(inside, 64 * PACKED_NUM / PACKED_DEN);
    }
}
