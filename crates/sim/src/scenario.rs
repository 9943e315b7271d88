//! Declarative scenario configuration.

use dde_stats::dist::DistributionKind;

/// The most initial peers a scenario may ask for: F12's largest point.
pub const MAX_PEERS: usize = 1_000_000;

/// The most initial items a scenario may ask for: F12's largest point.
pub const MAX_ITEMS: usize = 20_000_000;

/// Refuses an initial network the simulator cannot or should not build:
/// zero peers or items (the scenario build would panic), or more than
/// [`MAX_PEERS`] / [`MAX_ITEMS`] (the build would try to allocate them).
/// Every entry point that takes a size from outside the program — a DST
/// repro file or a `ring-dde` command line — checks it here first.
pub fn check_size(peers: usize, items: usize) -> Result<(), String> {
    for (field, value, cap) in [("peers", peers, MAX_PEERS), ("items", items, MAX_ITEMS)] {
        if !(1..=cap).contains(&value) {
            return Err(format!("{field}: {value} is outside 1..={cap}"));
        }
    }
    Ok(())
}

/// The most events one run may schedule: churn's joins, departures and
/// per-peer stabilization steps, a workload's operations and estimate
/// refreshes, or a DST fuzz run's schedules times their events. Sized so
/// that a `ring-dde churn` or `ring-dde workload` run at the cap, on the
/// default scenario, finishes in seconds.
pub const MAX_EVENTS: usize = 200_000;

/// Refuses a run expected to schedule more than [`MAX_EVENTS`] events.
/// `events` is a product of rates, a duration and a peer count, taken in
/// `f64` so that no input overflows it; a NaN is refused too.
pub fn check_events(events: f64) -> Result<(), String> {
    if events <= MAX_EVENTS as f64 {
        Ok(())
    } else {
        Err(format!("events: the run would schedule {events:.3e}, above {MAX_EVENTS}"))
    }
}

/// How items map to ring positions (see [`dde_ring::Placement`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementMode {
    /// Order-preserving range placement (the paper's regime).
    Range,
    /// Classic DHT hashing.
    Hashed,
}

/// How peer identifiers are laid out on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLayout {
    /// Uniformly random node ids (plain consistent hashing).
    UniformIds,
    /// Node ids at the data's quantiles, so every peer holds ~equal volume —
    /// the steady state of load-balanced range-partitioned systems
    /// (Mercury, P-Ring). Arc length then anti-correlates with data density,
    /// the adversarial case for uncorrected ring-position sampling.
    LoadBalanced,
    /// Deterministic worst-case placement: most peers are packed into the
    /// sparsest data region (tiny, empty arcs) while a handful of peers
    /// cover the dense region with giant arcs — the layout that maximizes
    /// the bias of uncorrected (arc-uniform) stratified sampling. See
    /// [`crate::adversary`]. Falls back to [`NodeLayout::UniformIds`] under
    /// hashed placement, like [`NodeLayout::LoadBalanced`].
    Adversarial,
}

/// The heterogeneous peer-capacity axis: a static fraction of peers is slow,
/// scaling the delay of every message they send and (optionally) missing
/// reply deadlines. Integer parameters keep the spec `Eq`, so the snapshot
/// cache's scenario comparison is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySpec {
    /// Per-mille of peers in the slow class (e.g. 250 = 25%).
    pub slow_pm: u32,
    /// Delay multiplier for messages sent by slow peers (≥ 2 to matter).
    pub factor: u64,
    /// Reply deadline in delay units; a slow reply drawn above it surfaces
    /// as a timeout. 0 = callers wait forever (pure delay scaling).
    pub deadline: u64,
}

/// The spatially-correlated arc-partition axis: a contiguous arc of the ring
/// is cut off from the rest. Positions are per-mille of the ring so the spec
/// stays `Eq` and the snapshot cache's scenario comparison exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Arc start position, in per-mille of the ring (0..1000).
    pub start_pm: u32,
    /// Arc span, in per-mille of the ring (0 disables the partition).
    pub span_pm: u32,
}

/// A complete, reproducible experiment scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of peers.
    pub peers: usize,
    /// Number of data items.
    pub items: usize,
    /// The data domain `[lo, hi]`.
    pub domain: (f64, f64),
    /// The generating distribution.
    pub distribution: DistributionKind,
    /// Item placement mode.
    pub placement: PlacementMode,
    /// Node-id layout.
    pub layout: NodeLayout,
    /// Equi-depth buckets per probe reply.
    pub summary_buckets: usize,
    /// Peers that join through the overlay back-to-back — within one
    /// stabilization window, no repair rounds in between — right after the
    /// bulk load, clustered on the densest data region (0 = off).
    pub flash_crowd: usize,
    /// Heterogeneous peer-capacity axis (`None` = homogeneous peers).
    pub capacity: Option<CapacitySpec>,
    /// Spatially-correlated arc partition (`None` = fully connected).
    pub partition: Option<PartitionSpec>,
    /// Master seed: everything (ids, data, probes, churn) derives from it.
    pub seed: u64,
}

impl Default for Scenario {
    /// The defaults of experiment table T1: a mid-size ring with skewed data
    /// under range placement.
    fn default() -> Self {
        Self {
            peers: 1024,
            items: 100_000,
            domain: (0.0, 1000.0),
            distribution: DistributionKind::Zipf { cells: 64, exponent: 1.1 },
            placement: PlacementMode::Range,
            layout: NodeLayout::UniformIds,
            summary_buckets: 8,
            flash_crowd: 0,
            capacity: None,
            partition: None,
            seed: 42,
        }
    }
}

impl Scenario {
    /// Returns a copy with the given peer count.
    pub fn with_peers(mut self, peers: usize) -> Self {
        self.peers = peers;
        self
    }

    /// Returns a copy with the given item count.
    pub fn with_items(mut self, items: usize) -> Self {
        self.items = items;
        self
    }

    /// Returns a copy with the given distribution.
    pub fn with_distribution(mut self, d: DistributionKind) -> Self {
        self.distribution = d;
        self
    }

    /// Returns a copy with the given placement mode.
    pub fn with_placement(mut self, p: PlacementMode) -> Self {
        self.placement = p;
        self
    }

    /// Returns a copy with the given node layout.
    pub fn with_layout(mut self, l: NodeLayout) -> Self {
        self.layout = l;
        self
    }

    /// Returns a copy with the given summary granularity.
    pub fn with_summary_buckets(mut self, b: usize) -> Self {
        self.summary_buckets = b;
        self
    }

    /// Returns a copy with the given flash-crowd size.
    pub fn with_flash_crowd(mut self, joiners: usize) -> Self {
        self.flash_crowd = joiners;
        self
    }

    /// Returns a copy with the given capacity axis.
    pub fn with_capacity(mut self, c: CapacitySpec) -> Self {
        self.capacity = Some(c);
        self
    }

    /// Returns a copy with the given arc partition.
    pub fn with_partition(mut self, p: PartitionSpec) -> Self {
        self.partition = Some(p);
        self
    }

    /// Returns a copy with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let s = Scenario::default()
            .with_peers(16)
            .with_items(100)
            .with_seed(7)
            .with_summary_buckets(4)
            .with_placement(PlacementMode::Hashed)
            .with_layout(NodeLayout::LoadBalanced);
        assert_eq!(s.peers, 16);
        assert_eq!(s.items, 100);
        assert_eq!(s.seed, 7);
        assert_eq!(s.summary_buckets, 4);
        assert_eq!(s.placement, PlacementMode::Hashed);
        assert_eq!(s.layout, NodeLayout::LoadBalanced);
    }

    #[test]
    fn event_cap_admits_the_cap_and_refuses_past_it() {
        assert!(check_events(MAX_EVENTS as f64).is_ok());
        for events in [MAX_EVENTS as f64 + 1.0, f64::INFINITY, f64::NAN] {
            let err = check_events(events).unwrap_err();
            assert!(err.contains("above 200000"), "{events}: {err}");
        }
    }

    #[test]
    fn defaults_are_the_t1_parameters() {
        let s = Scenario::default();
        assert_eq!(s.peers, 1024);
        assert_eq!(s.items, 100_000);
        assert_eq!(s.domain, (0.0, 1000.0));
        assert_eq!(s.placement, PlacementMode::Range);
        assert_eq!(s.layout, NodeLayout::UniformIds);
        assert_eq!(s.summary_buckets, 8);
        assert_eq!(s.flash_crowd, 0);
        assert_eq!(s.capacity, None);
        assert_eq!(s.partition, None);
        assert_eq!(s, s.clone());
    }

    #[test]
    fn adversarial_axis_builders_compose() {
        let s = Scenario::default()
            .with_flash_crowd(12)
            .with_capacity(CapacitySpec { slow_pm: 250, factor: 4, deadline: 10 })
            .with_partition(PartitionSpec { start_pm: 100, span_pm: 200 })
            .with_layout(NodeLayout::Adversarial);
        assert_eq!(s.flash_crowd, 12);
        assert_eq!(s.capacity, Some(CapacitySpec { slow_pm: 250, factor: 4, deadline: 10 }));
        assert_eq!(s.partition, Some(PartitionSpec { start_pm: 100, span_pm: 200 }));
        assert_eq!(s.layout, NodeLayout::Adversarial);
    }
}
