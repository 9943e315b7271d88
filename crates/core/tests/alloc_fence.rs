//! Allocation fence for the gossip baseline. A Push-Sum estimate sizes its
//! flat state, its per-round push snapshot and its neighbour lists once, so
//! the number of heap allocations it makes must not grow with the number
//! of rounds. The binary installs [`CountingAlloc`] and counts this
//! thread's allocations across one estimate.

use dde_core::{DensityEstimator, GossipAggregation, GossipConfig};
use dde_ring::{Network, Placement, RingId};
use dde_stats::alloc::{thread_allocations, CountingAlloc};
use dde_stats::rng::{Component, SeedSequence};
use rand::Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn gossip_allocations_do_not_grow_with_rounds() {
    let seq = SeedSequence::new(77);
    let mut id_rng = seq.stream(Component::NodeIds, 0);
    let ids: Vec<RingId> = (0..256).map(|_| RingId(id_rng.gen())).collect();
    let mut net = Network::build_bulk(ids, Placement::range(0.0, 1000.0));
    let mut data_rng = seq.stream(Component::Dataset, 0);
    let data: Vec<f64> = (0..20_000).map(|_| data_rng.gen::<f64>() * 1000.0).collect();
    net.bulk_load(&data);
    let initiator = net.random_peer(&mut seq.stream(Component::Workload, 0)).expect("nonempty");

    let allocations = |rounds: usize| {
        let gossip = GossipAggregation::new(GossipConfig { rounds, bins: 64 });
        let mut net = net.fork();
        let mut rng = seq.stream(Component::Probes, 0);
        let before = thread_allocations();
        let report = gossip.estimate(&mut net, initiator, &mut rng).expect("estimates");
        let made = thread_allocations() - before;
        drop(report);
        made
    };
    let (few, many) = (allocations(2), allocations(40));
    assert!(few > 0, "the counting allocator is not installed");
    assert_eq!(few, many, "2 rounds allocated {few} times, 40 rounds {many}");
}
