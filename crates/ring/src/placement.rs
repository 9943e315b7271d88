//! Data placement: mapping data values onto the identifier ring.
//!
//! Two modes, mirroring the two families of ring-based P2P systems:
//!
//! * **Hashed** (classic Chord/DHT): an item's ring position is a hash of its
//!   value. Every peer holds a uniform random subset of the global data, so
//!   data volume per peer is balanced but ring position says nothing about
//!   the data domain.
//! * **Range** (order-preserving, Mercury / P-Ring style): the data domain
//!   `[lo, hi]` is mapped affinely onto the ring, so each peer owns a
//!   contiguous *data range*. Skewed data now means skewed per-peer volume —
//!   the regime where naive peer sampling is biased and the paper's
//!   distribution-free correction matters.

use crate::id::RingId;
use dde_stats::rng::splitmix64;

/// An affine, order-preserving map between a bounded data domain and the
/// identifier ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainMap {
    lo: f64,
    hi: f64,
}

impl DomainMap {
    /// Creates the map for domain `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or bounds are non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad domain [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The data domain `[lo, hi]`.
    pub fn domain(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Ring position of data value `x` (clamped into the domain).
    ///
    /// The top of the domain maps to the top of the ring, never wrapping to
    /// 0, so domain order is preserved on the un-wrapped ring `[0, 2⁶⁴)`.
    pub fn to_ring(&self, x: f64) -> RingId {
        let frac = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        // Scale into [0, 2^64); clamp the open end.
        let pos = frac * 2f64.powi(64);
        RingId(if pos >= 2f64.powi(64) { u64::MAX } else { pos as u64 })
    }
}

/// How items are assigned ring positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Hash of the value's bits (uniform on the ring).
    Hashed {
        /// Domain bounds, kept for ground-truth bookkeeping.
        map: DomainMap,
    },
    /// Order-preserving affine map of the value.
    Range {
        /// The domain↔ring map.
        map: DomainMap,
    },
}

impl Placement {
    /// Order-preserving placement on `[lo, hi]`.
    pub fn range(lo: f64, hi: f64) -> Self {
        Placement::Range { map: DomainMap::new(lo, hi) }
    }

    /// Hashed placement, remembering `[lo, hi]` as the data domain.
    pub fn hashed(lo: f64, hi: f64) -> Self {
        Placement::Hashed { map: DomainMap::new(lo, hi) }
    }

    /// The data domain.
    pub fn domain(&self) -> (f64, f64) {
        match self {
            Placement::Hashed { map } | Placement::Range { map } => map.domain(),
        }
    }

    /// Ring position where item `x` is stored.
    pub fn place(&self, x: f64) -> RingId {
        match self {
            Placement::Hashed { .. } => RingId(splitmix64(x.to_bits())),
            Placement::Range { map } => map.to_ring(x),
        }
    }

    /// The order-preserving map, if this is range placement.
    pub fn domain_map(&self) -> Option<&DomainMap> {
        match self {
            Placement::Range { map } => Some(map),
            Placement::Hashed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn domain_map_endpoints() {
        let m = DomainMap::new(0.0, 100.0);
        assert_eq!(m.to_ring(0.0), RingId(0));
        assert_eq!(m.to_ring(100.0), RingId(u64::MAX));
        assert_eq!(m.to_ring(-5.0), RingId(0)); // clamped
        assert_eq!(m.to_ring(105.0), RingId(u64::MAX));
    }

    #[test]
    fn domain_map_midpoint() {
        let m = DomainMap::new(0.0, 100.0);
        let mid = m.to_ring(50.0);
        assert!((mid.0 as f64 / 2f64.powi(64) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn range_placement_is_monotone() {
        let p = Placement::range(0.0, 1.0);
        let mut prev = RingId(0);
        for i in 0..=100 {
            let pos = p.place(i as f64 / 100.0);
            assert!(pos.0 >= prev.0, "not monotone at {i}");
            prev = pos;
        }
    }

    #[test]
    fn hashed_placement_scatters() {
        let p = Placement::hashed(0.0, 1.0);
        // Adjacent values land far apart: 20 increasing inputs must not map
        // to monotone ring positions.
        let pos: Vec<u64> = (1..=20).map(|i| p.place(i as f64 / 1000.0).0).collect();
        let ascending = pos.windows(2).all(|w| w[0] <= w[1]);
        let descending = pos.windows(2).all(|w| w[0] >= w[1]);
        assert!(!ascending && !descending);
        let a = p.place(0.001);
        // And must be deterministic.
        assert_eq!(p.place(0.001), a);
    }

    #[test]
    fn hashed_placement_spreads_uniformly() {
        // Bucket 10k hashed positions into 16 ring sectors; each should get
        // roughly 1/16.
        let p = Placement::hashed(0.0, 1.0);
        let mut buckets = [0u32; 16];
        for i in 0..10_000 {
            let pos = p.place(i as f64 / 10_000.0);
            buckets[(pos.0 >> 60) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!((450..=800).contains(&b), "sector {i} got {b}");
        }
    }

    proptest! {
        #[test]
        fn range_monotone_prop(a in 0.0f64..1000.0, b in 0.0f64..1000.0) {
            let p = Placement::range(0.0, 1000.0);
            if a <= b {
                prop_assert!(p.place(a).0 <= p.place(b).0);
            } else {
                prop_assert!(p.place(a).0 >= p.place(b).0);
            }
        }
    }
}
