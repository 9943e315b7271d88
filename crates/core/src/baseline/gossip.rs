//! Push-Sum gossip aggregation (Kempe, Dobra & Gehrke, FOCS 2003) over
//! histograms.
//!
//! Every peer starts with `(value = its local histogram, weight = 1)`. Each
//! synchronous round, every peer splits its pair in half, keeps one half, and
//! sends the other to a random overlay neighbor. The ratio `value/weight`
//! converges exponentially to the global average histogram at **every** peer
//! — i.e. to the exact global distribution — but a single estimate costs
//! `rounds × P` messages, each carrying a histogram. This is the
//! "aggregate everything" end of the cost spectrum the paper's probing
//! estimator is positioned against.

use crate::estimate::DensityEstimate;
use crate::estimator::{with_cost, DensityEstimator, EstimateError, EstimationReport};
use dde_ring::{MessageKind, Network, RingId};
use dde_stats::{CdfFn, Histogram, PiecewiseCdf};
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration for [`GossipAggregation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Synchronous gossip rounds. Push-Sum's relative error decays like
    /// `e^(-Θ(rounds))`; `2·log2(P) + 10` is comfortably converged.
    pub rounds: usize,
    /// Histogram bins gossiped.
    pub bins: usize,
}

impl Default for GossipConfig {
    fn default() -> Self {
        Self { rounds: 30, bins: 64 }
    }
}

/// Push-Sum gossip estimator (see module docs).
#[derive(Debug, Clone)]
pub struct GossipAggregation {
    config: GossipConfig,
}

impl GossipAggregation {
    /// Creates the estimator.
    ///
    /// Determinism: pure function of its inputs — no RNG, clock, or ambient state.
    pub fn new(config: GossipConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    ///
    /// Determinism: pure function of `self` and its arguments — no RNG, clock, or ambient state.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Runs `rounds` synchronous Push-Sum rounds from every peer's local
    /// histogram and returns the initiator's final `(value, weight)`, or
    /// [`EstimateError::InitiatorDead`] when the initiator is not a peer.
    ///
    /// State lives in flat buffers indexed by ring position, and each round
    /// pushes from one halved snapshot: receivers add their deliveries in
    /// sender (ring) order, the order a per-receiver inbox would hold them,
    /// so every bin sums the same terms in the same order.
    fn push_sum(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<(Histogram, f64), EstimateError> {
        let (lo, hi) = net.placement().domain();
        let GossipConfig { rounds, bins } = self.config;
        // Peer `i` (in ring order) owns `state[i*stride..(i+1)*stride]`:
        // its histogram's bin masses, then its weight.
        let stride = bins + 1;
        let ids: Vec<RingId> = net.ids().collect();
        let at = ids.binary_search(&initiator).map_err(|_| EstimateError::InitiatorDead)?;
        let grid = Histogram::new(lo, hi, bins);
        let mut state = vec![0.0; ids.len() * stride];
        for (own, &id) in state.chunks_exact_mut(stride).zip(&ids) {
            let node = net.node(id).expect("invariant: `ids` is this network's id column");
            for &x in node.store.values() {
                own[grid.bin_of(x)] += 1.0;
            }
            // Sum variant of Push-Sum: only the initiator carries weight, so
            // value/weight converges to the global *sum* (Kempe et al. §2)
            // rather than the average.
            own[bins] = f64::from(u8::from(id == initiator));
        }
        let neighbours = Neighbours::build(net, &ids);
        // This round's pushes: every peer's halved state, and where it went.
        let mut sent = vec![0.0; state.len()];
        let mut target: Vec<Option<usize>> = vec![None; ids.len()];
        let payload = 8 * bins + 8;

        for _ in 0..rounds {
            // Synchronous round: everyone halves and pushes.
            for (v, out) in state.iter_mut().zip(&mut sent) {
                *v *= 0.5;
                *out = *v;
            }
            for (i, to) in target.iter_mut().enumerate() {
                // Random alive neighbor from the peer's routing state.
                let nbrs = neighbours.of(i);
                *to = None;
                if nbrs.is_empty() {
                    continue;
                }
                let t = nbrs[rng.gen_range(0..nbrs.len())];
                net.stats_mut().record(MessageKind::Gossip, payload);
                // Under a fault plan, a lost push loses its share of
                // mass outright — Push-Sum's conservation breaks and
                // the estimate drifts (no retries in plain Push-Sum).
                if !net.message_lost(ids[i], ids[t]) {
                    *to = Some(t);
                }
            }
            // Deliveries land in sender (ring) order at every receiver.
            for (out, to) in sent.chunks_exact(stride).zip(&target) {
                let Some(t) = *to else { continue };
                for (v, d) in state[t * stride..(t + 1) * stride].iter_mut().zip(out) {
                    *v += d;
                }
            }
        }
        let own = &state[at * stride..(at + 1) * stride];
        Ok((Histogram::from_masses(lo, hi, own[..bins].to_vec()), own[bins]))
    }
}

/// Each peer's distinct alive overlay neighbours (successors and fingers),
/// as sorted ring positions. Computed once per estimate: gossip does not
/// change the overlay, so every round would rebuild the same lists.
struct Neighbours {
    /// Peer `i`'s neighbours are `list[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    list: Vec<usize>,
}

impl Neighbours {
    fn build(net: &Network, ids: &[RingId]) -> Self {
        let mut start = Vec::with_capacity(ids.len() + 1);
        let mut list = Vec::new();
        let mut candidates = Vec::new();
        for &id in ids {
            let node = net.node(id).expect("invariant: `ids` is this network's id column");
            candidates.clear();
            candidates.extend(
                node.successors.iter().copied().chain(node.fingers.present()).filter(|&n| n != id),
            );
            // Dedup: finger tables repeat nearby peers many times and would
            // skew the push target distribution, slowing mixing. Deduping
            // first leaves one position search per distinct neighbour;
            // positions sort like ids, so draws index the same list.
            candidates.sort_unstable();
            candidates.dedup();
            start.push(list.len());
            list.extend(candidates.iter().filter_map(|n| ids.binary_search(n).ok()));
        }
        start.push(list.len());
        Self { start, list }
    }

    fn of(&self, i: usize) -> &[usize] {
        &self.list[self.start[i]..self.start[i + 1]]
    }
}

impl DensityEstimator for GossipAggregation {
    fn name(&self) -> &'static str {
        "gossip"
    }

    fn estimate(
        &self,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<EstimationReport, EstimateError> {
        let (lo, hi) = net.placement().domain();
        let GossipConfig { rounds, bins } = self.config;
        let ((hist, weight), cost) = with_cost(net, |net| self.push_sum(net, initiator, rng))?;

        if weight <= 0.0 || hist.total() <= 0.0 {
            return Err(EstimateError::NoData);
        }
        // value/weight estimates the average histogram; normalizing gives the
        // global distribution directly.
        let norm = hist.normalized();
        let mut points: Vec<(f64, f64)> = Vec::with_capacity(bins + 1);
        points.push((lo, 0.0));
        for i in 0..bins {
            let edge = lo + (hi - lo) * (i + 1) as f64 / bins as f64;
            points.push((edge, norm.cdf(edge)));
        }
        let cdf = PiecewiseCdf::from_noisy_points(points)
            .ok_or(EstimateError::InsufficientProbes { got: 0, need: 2 })?;
        // N̂ = value_total / weight (Push-Sum's sum estimate at the initiator).
        let n_hat = hist.total() / weight;
        Ok(EstimationReport {
            estimate: DensityEstimate::from_cdf(cdf),
            cost,
            peers_contacted: 0, // gossip involves everyone; "contacted" n/a
            estimated_total: Some(n_hat),
            estimated_sum: None,
            estimated_sum_sq: None,
            probes_requested: rounds,
            probes_succeeded: rounds, // every round runs; loss shows as drift
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_ring::{FaultPlan, Placement};
    use dde_stats::dist::DistributionKind;
    use dde_stats::rng::{Component, SeedSequence};
    use rand::SeedableRng;

    fn build_net(peers: usize, items: usize, kind: &DistributionKind, seed: u64) -> Network {
        let seq = SeedSequence::new(seed);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let mut ids: Vec<RingId> = (0..peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 100.0));
        let dist = kind.build(0.0, 100.0);
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..items).map(|_| dist.sample(&mut data_rng)).collect();
        net.bulk_load(&data);
        net
    }

    /// Push-Sum as it ran before the flat buffers: `BTreeMap` state, every
    /// neighbour list rebuilt every round, cloned histograms collected in a
    /// `BTreeMap` inbox. The reference [`GossipAggregation::push_sum`] must
    /// match bin for bin.
    fn push_sum_reference(
        net: &mut Network,
        initiator: RingId,
        cfg: GossipConfig,
        rng: &mut StdRng,
    ) -> (Histogram, f64) {
        use std::collections::BTreeMap;
        let (lo, hi) = net.placement().domain();
        let ids: Vec<RingId> = net.ids().collect();
        let mut state: BTreeMap<RingId, (Histogram, f64)> = ids
            .iter()
            .map(|&id| {
                let mut h = Histogram::new(lo, hi, cfg.bins);
                for &x in net.node(id).unwrap().store.values() {
                    h.add(x, 1.0);
                }
                (id, (h, f64::from(u8::from(id == initiator))))
            })
            .collect();
        for _ in 0..cfg.rounds {
            let mut inbox: BTreeMap<RingId, Vec<(Histogram, f64)>> = BTreeMap::new();
            for &id in &ids {
                let (h, w) = state.get_mut(&id).unwrap();
                h.scale(0.5);
                *w *= 0.5;
                let out = (h.clone(), *w);
                let node = net.node(id).unwrap();
                let mut nbrs: Vec<RingId> = node
                    .successors
                    .iter()
                    .copied()
                    .chain(node.fingers.present())
                    .filter(|&n| n != id && net.is_alive(n))
                    .collect();
                nbrs.sort();
                nbrs.dedup();
                if nbrs.is_empty() {
                    continue;
                }
                let target = nbrs[rng.gen_range(0..nbrs.len())];
                net.stats_mut().record(MessageKind::Gossip, 8 * cfg.bins + 8);
                if net.message_lost(id, target) {
                    continue;
                }
                inbox.entry(target).or_default().push(out);
            }
            for (id, deliveries) in inbox {
                let (h, w) = state.get_mut(&id).unwrap();
                for (dh, dw) in deliveries {
                    h.merge(&dh);
                    *w += dw;
                }
            }
        }
        state.remove(&initiator).unwrap()
    }

    #[test]
    fn flat_push_sum_matches_btreemap_reference_under_loss_and_partition() {
        // Past ~50 rounds the halved masses stop being exact dyadic sums, so
        // the order deliveries are added in can show in the low bits.
        let cfg = GossipConfig { rounds: 120, bins: 24 };
        for seed in 0..4u64 {
            let mut base = build_net(72, 5_000, &DistributionKind::Bimodal, 40 + seed);
            // Silent crashes leave dead entries in routing state, so the
            // alive filter matters.
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..5 {
                let victim = base.random_peer(&mut rng).unwrap();
                base.fail(victim).unwrap();
            }
            let plan =
                FaultPlan::new(seed).with_loss(0.15).with_partition(seed << 60, u64::MAX / 5);
            base.set_fault_plan(plan);
            let initiator = base.random_peer(&mut rng).unwrap();
            let (mut flat_net, mut ref_net) = (base.fork(), base.fork());
            let (mut flat_rng, mut ref_rng) = (rng.clone(), rng.clone());

            let gossip = GossipAggregation::new(cfg);
            let (hist, weight) = gossip.push_sum(&mut flat_net, initiator, &mut flat_rng).unwrap();
            let (ref_hist, ref_weight) =
                push_sum_reference(&mut ref_net, initiator, cfg, &mut ref_rng);

            let bits =
                |h: &Histogram| (0..h.bins()).map(|i| h.mass(i).to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&hist), bits(&ref_hist), "seed {seed}: bins differ");
            assert!(hist.total() > 0.0, "seed {seed}: no mass reached the initiator");
            assert_eq!(weight.to_bits(), ref_weight.to_bits(), "seed {seed}: weight differs");
            assert_eq!(flat_net.stats(), ref_net.stats(), "seed {seed}: charges differ");
            assert!(flat_net.stats().count(MessageKind::FaultDrop) > 0, "seed {seed}: no loss");
            assert!(flat_net.stats().count(MessageKind::FaultPartition) > 0, "seed {seed}: no cut");
            assert_eq!(flat_net.fault_plan(), ref_net.fault_plan(), "seed {seed}: fault draws");
            assert_eq!(flat_rng.gen::<u64>(), ref_rng.gen::<u64>(), "seed {seed}: rng draws");
        }
    }

    #[test]
    fn converges_to_global_distribution() {
        let kind = DistributionKind::Bimodal;
        let mut net = build_net(96, 30_000, &kind, 12);
        let truth = kind.build(0.0, 100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let initiator = net.random_peer(&mut rng).unwrap();
        let est = GossipAggregation::new(GossipConfig::default())
            .estimate(&mut net, initiator, &mut rng)
            .unwrap();
        let ks = est.estimate.ks_to(truth.as_ref());
        assert!(ks < 0.05, "gossip ks = {ks}");
        // Push-Sum also estimates the global count.
        let n_hat = est.estimated_total.unwrap();
        assert!((n_hat - 30_000.0).abs() / 30_000.0 < 0.1, "n_hat = {n_hat}");
    }

    #[test]
    fn cost_is_rounds_times_peers() {
        let mut net = build_net(64, 1_000, &DistributionKind::Uniform, 13);
        let mut rng = StdRng::seed_from_u64(6);
        let initiator = net.random_peer(&mut rng).unwrap();
        let cfg = GossipConfig { rounds: 10, bins: 32 };
        let est = GossipAggregation::new(cfg).estimate(&mut net, initiator, &mut rng).unwrap();
        assert_eq!(est.cost.count(MessageKind::Gossip), 10 * 64);
        // Orders of magnitude more than a probing estimator would use.
        assert!(est.messages() >= 640);
        // An initiator that is not a peer costs nothing and names itself.
        let before = net.stats().total_messages();
        let dead = GossipAggregation::new(cfg).estimate(&mut net, RingId(77), &mut rng);
        assert!(matches!(dead, Err(EstimateError::InitiatorDead)));
        assert_eq!(net.stats().total_messages(), before);
    }

    #[test]
    fn more_rounds_means_better_estimate() {
        let kind = DistributionKind::Exponential { rate_scale: 8.0 };
        let truth = kind.build(0.0, 100.0);
        let mut ks = Vec::new();
        for rounds in [2usize, 40] {
            let mut net = build_net(64, 10_000, &kind, 14);
            let mut rng = StdRng::seed_from_u64(7);
            let initiator = net.random_peer(&mut rng).unwrap();
            let est = GossipAggregation::new(GossipConfig { rounds, bins: 64 })
                .estimate(&mut net, initiator, &mut rng)
                .unwrap();
            ks.push(est.estimate.ks_to(truth.as_ref()));
        }
        assert!(ks[1] < ks[0], "40 rounds ({}) should beat 2 ({})", ks[1], ks[0]);
    }
}
