//! The one Phase-1 probe loop ≡ the two hand-kept loops it replaced.
//!
//! Dedicated probing (`DfDde::run_probes`) and piggybacked probing
//! (`ProbePlan::{plan, offer_owner, complete}`) drive one per-stratum
//! probe/retry routine. Before that routine existed each kept its own copy
//! of the loop, with different RNG orders: dedicated probing draws each
//! stratum's attempt-0 point just before probing it, a plan draws all of
//! them up front. Those two loops live on here, verbatim, as the reference
//! model ([`reference`]); the library must match them exactly.
//!
//! Each case builds one ring, installs one fault plan (request loss, reply
//! loss, sick windows, crashes and a capacity deadline, each switched on at
//! random) and runs the library and the reference on two forks of it from
//! the same RNG state. Both sides must return equal replies (or both
//! `InitiatorDead`), bill equal `MessageStats` (waiting time included),
//! leave the RNG at the same next draw and leave the same peers alive.
//! The sweep covers `k ∈ 1..=70` (powers of two or not), both
//! [`ProbeStrategy`]s, 1–5 attempts and, for plans, a random subset of
//! owners offered before completion.

use dde_core::{DfDde, DfDdeConfig, EstimateError, ProbePlan, ProbeStrategy, RetryPolicy};
use dde_ring::{FaultPlan, Network, Placement, ProbeReply, RingId};
use dde_stats::rng::{Component, SeedSequence};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// The two Phase-1 loops as they stood before sharing one routine.
mod reference {
    use dde_core::{DfDde, EstimateError, ProbeStrategy};
    use dde_ring::{Network, ProbeReply, RingId};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `DfDde::run_probes` with its own loop (`self.config` → `est.config()`).
    pub fn run_probes(
        est: &DfDde,
        net: &mut Network,
        initiator: RingId,
        rng: &mut StdRng,
    ) -> Result<Vec<ProbeReply>, EstimateError> {
        let k = est.config().probes;
        let retry = est.config().retry;
        let mut replies = Vec::with_capacity(k);
        // Stratum width for systematic probing (k strata tile the ring).
        let stratum = (u128::from(u64::MAX) + 1) / k.max(1) as u128;
        for j in 0..k {
            for attempt in 0..retry.max_attempts.max(1) {
                let point = match est.config().strategy {
                    ProbeStrategy::IidUniform => RingId(rng.gen()),
                    ProbeStrategy::Stratified => {
                        let offset = rng.gen::<u64>() as u128 % stratum;
                        RingId(((j as u128 % k as u128) * stratum + offset) as u64)
                    }
                };
                match net.probe(initiator, point) {
                    Ok(reply) => {
                        replies.push(reply);
                        break;
                    }
                    Err(dde_ring::LookupError::InitiatorDead) => {
                        return Err(EstimateError::InitiatorDead)
                    }
                    Err(_) => {
                        net.stats_mut().record_delay(retry.failed_attempt_cost(attempt));
                    }
                }
            }
        }
        Ok(replies)
    }

    /// `ProbePlan` with its own stratum draw and its own retry loop.
    #[derive(Debug, Clone)]
    pub struct ProbePlan {
        points: Vec<RingId>,
        replies: Vec<Option<ProbeReply>>,
        piggybacked: usize,
    }

    impl ProbePlan {
        pub fn plan(estimator: &DfDde, rng: &mut StdRng) -> Self {
            let cfg = estimator.config();
            let k = cfg.probes;
            let stratum = (u128::from(u64::MAX) + 1) / k.max(1) as u128;
            let points: Vec<RingId> = (0..k)
                .map(|j| match cfg.strategy {
                    ProbeStrategy::IidUniform => RingId(rng.gen()),
                    ProbeStrategy::Stratified => {
                        let offset = u128::from(rng.gen::<u64>()) % stratum;
                        RingId(((j as u128 % k as u128) * stratum + offset) as u64)
                    }
                })
                .collect();
            Self { replies: vec![None; points.len()], points, piggybacked: 0 }
        }

        pub fn offer_owner(&mut self, net: &mut Network, owner: RingId) -> usize {
            let Some(pred) = net.node(owner).and_then(|n| n.predecessor) else {
                return 0;
            };
            let mut harvested = 0;
            for (slot, &point) in self.replies.iter_mut().zip(&self.points) {
                if slot.is_some() || !point.in_arc(pred, owner) {
                    continue;
                }
                if let Some(reply) = net.piggyback_probe(owner, point) {
                    *slot = Some(reply);
                    harvested += 1;
                }
            }
            self.piggybacked += harvested;
            harvested
        }

        pub fn pending(&self) -> usize {
            self.replies.iter().filter(|r| r.is_none()).count()
        }

        pub fn points(&self) -> &[RingId] {
            &self.points
        }

        pub fn piggybacked(&self) -> usize {
            self.piggybacked
        }

        pub fn complete(
            mut self,
            estimator: &DfDde,
            net: &mut Network,
            initiator: RingId,
            rng: &mut StdRng,
        ) -> Result<Vec<ProbeReply>, EstimateError> {
            let cfg = estimator.config();
            let retry = cfg.retry;
            let k = self.points.len().max(1);
            let stratum = (u128::from(u64::MAX) + 1) / k as u128;
            for (j, slot) in self.replies.iter_mut().enumerate() {
                if slot.is_some() {
                    continue;
                }
                for attempt in 0..retry.max_attempts.max(1) {
                    let point = if attempt == 0 {
                        self.points[j]
                    } else {
                        match cfg.strategy {
                            ProbeStrategy::IidUniform => RingId(rng.gen()),
                            ProbeStrategy::Stratified => {
                                let offset = u128::from(rng.gen::<u64>()) % stratum;
                                RingId(((j as u128 % k as u128) * stratum + offset) as u64)
                            }
                        }
                    };
                    match net.probe(initiator, point) {
                        Ok(reply) => {
                            *slot = Some(reply);
                            break;
                        }
                        Err(dde_ring::LookupError::InitiatorDead) => {
                            return Err(EstimateError::InitiatorDead)
                        }
                        Err(_) => {
                            net.stats_mut().record_delay(retry.failed_attempt_cost(attempt));
                        }
                    }
                }
            }
            Ok(self.replies.into_iter().flatten().collect())
        }
    }
}

/// One generated case: the ring, the fault plan, the estimator and the
/// initiator, all derived from the case's seeds.
struct Case {
    net: Network,
    est: DfDde,
    initiator: RingId,
    rng: StdRng,
}

/// Ring size, fault mix and estimator shape drawn by the properties.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    peers: usize,
    k: usize,
    stratified: bool,
    attempts: usize,
    faults: u8,
    dead_initiator: bool,
}

impl Shape {
    /// Builds the ring and its fault plan. Bits of `faults` switch on, in
    /// order: request loss, reply loss, sick windows, crashes and a
    /// capacity deadline, each at a rate drawn from the seed.
    fn build(self) -> Case {
        let seq = SeedSequence::new(self.seed);
        let mut id_rng = seq.stream(Component::NodeIds, 0);
        let mut ids: Vec<RingId> = (0..self.peers).map(|_| RingId(id_rng.gen())).collect();
        ids.sort();
        ids.dedup();
        let mut net = Network::build_bulk(ids, Placement::range(0.0, 100.0));
        let mut data_rng = seq.stream(Component::Dataset, 0);
        let data: Vec<f64> = (0..self.peers * 40).map(|_| data_rng.gen::<f64>() * 100.0).collect();
        net.bulk_load(&data);

        let mut fault_rng = seq.stream(Component::Test, 1);
        let mut plan = FaultPlan::new(fault_rng.gen());
        let on = |bit: u8| self.faults & (1 << bit) != 0;
        if on(0) {
            plan = plan.with_loss(fault_rng.gen_range(0.05..0.5));
        }
        if on(1) {
            plan = plan.with_reply_loss(fault_rng.gen_range(0.05..0.4));
        }
        if on(2) {
            plan = plan.with_sick(fault_rng.gen_range(0.05..0.4), fault_rng.gen_range(1..32));
        }
        if on(3) {
            plan = plan.with_crash(fault_rng.gen_range(0.005..0.05));
        }
        if on(4) {
            let (slow, factor) = (fault_rng.gen_range(0.1..0.6), fault_rng.gen_range(2..16));
            plan = plan.with_capacity(slow, factor, fault_rng.gen_range(1..48));
        }
        net.set_fault_plan(plan);

        let mut rng = seq.stream(Component::Estimator, 0);
        let initiator = if self.dead_initiator {
            (0..).map(|_| RingId(rng.gen())).find(|&id| !net.is_alive(id)).expect("ring is sparse")
        } else {
            net.random_peer(&mut rng).expect("nonempty")
        };
        let strategy =
            if self.stratified { ProbeStrategy::Stratified } else { ProbeStrategy::IidUniform };
        let est = DfDde::new(DfDdeConfig {
            strategy,
            retry: RetryPolicy { max_attempts: self.attempts, ..RetryPolicy::default() },
            ..DfDdeConfig::with_probes(self.k)
        });
        Case { net, est, initiator, rng }
    }
}

/// Both sides of one comparison, after the run.
struct Side {
    result: Result<Vec<ProbeReply>, EstimateError>,
    net: Network,
    next_draw: u64,
}

/// Asserts the library side equals the reference side in every observable.
fn assert_same(lib: Side, reference: Side, shape: Shape) {
    assert_eq!(lib.result, reference.result, "replies differ: {shape:?}");
    assert_eq!(lib.net.stats(), reference.net.stats(), "billing differs: {shape:?}");
    assert_eq!(lib.next_draw, reference.next_draw, "RNG use differs: {shape:?}");
    assert_eq!(
        lib.net.ids().collect::<Vec<_>>(),
        reference.net.ids().collect::<Vec<_>>(),
        "alive set differs: {shape:?}"
    );
    assert_eq!(lib.net.fault_plan(), reference.net.fault_plan(), "fault stream differs: {shape:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `DfDde::run_probes` ≡ the dedicated reference loop: attempt-0 points
    /// drawn interleaved with the retries, every retry inside its stratum,
    /// the last attempt charged its timeout without a backoff.
    #[test]
    fn run_probes_matches_the_reference_loop(
        seed: u64,
        peers in 16usize..160,
        k in 1usize..=70,
        stratified: bool,
        attempts in 1usize..=5,
        faults in 0u8..32,
        dead in 0u8..8,
    ) {
        let shape = Shape { seed, peers, k, stratified, attempts, faults, dead_initiator: dead == 0 };
        let Case { net, est, initiator, rng } = shape.build();
        let run = |on_reference: bool| {
            let (mut net, mut rng) = (net.fork(), rng.clone());
            let result = if on_reference {
                reference::run_probes(&est, &mut net, initiator, &mut rng)
            } else {
                est.run_probes(&mut net, initiator, &mut rng)
            };
            Side { result, net, next_draw: rng.gen() }
        };
        let (lib, reference) = (run(false), run(true));
        if shape.dead_initiator {
            assert_eq!(lib.result, Err(EstimateError::InitiatorDead), "{shape:?}");
        }
        assert_same(lib, reference, shape);
    }

    /// `ProbePlan` ≡ the piggyback reference: the same pre-drawn points, the
    /// same harvest from a random subset of offered owners, then the same
    /// dedicated completion of whatever stayed pending.
    #[test]
    fn probe_plan_matches_the_reference_plan(
        seed: u64,
        peers in 16usize..160,
        k in 1usize..=70,
        stratified: bool,
        attempts in 1usize..=5,
        faults in 0u8..32,
        dead in 0u8..8,
        offer_share in 0u64..=4,
    ) {
        let shape = Shape { seed, peers, k, stratified, attempts, faults, dead_initiator: dead == 0 };
        let Case { net, est, initiator, rng } = shape.build();
        let mut offer_rng = SeedSequence::new(seed).stream(Component::Test, 0);
        let offered: Vec<RingId> =
            net.ids().filter(|_| offer_rng.gen_range(0..4u64) < offer_share).collect();

        let (mut lib_net, mut lib_rng) = (net.fork(), rng.clone());
        let mut lib_plan = ProbePlan::plan(&est, &mut lib_rng);
        let (mut ref_net, mut ref_rng) = (net.fork(), rng);
        let mut ref_plan = reference::ProbePlan::plan(&est, &mut ref_rng);
        for &owner in &offered {
            assert_eq!(
                lib_plan.offer_owner(&mut lib_net, owner),
                ref_plan.offer_owner(&mut ref_net, owner),
                "harvest differs at {owner}: {shape:?}"
            );
        }
        assert_eq!(lib_plan.len(), k);
        let pending = lib_plan.len() - lib_plan.piggybacked();
        assert_eq!(pending, ref_plan.pending(), "{shape:?}");
        assert_eq!(lib_plan.piggybacked(), ref_plan.piggybacked(), "{shape:?}");

        let lib_result = lib_plan.complete(&est, &mut lib_net, initiator, &mut lib_rng);
        let lib = Side { result: lib_result, net: lib_net, next_draw: lib_rng.gen() };
        let ref_result = ref_plan.complete(&est, &mut ref_net, initiator, &mut ref_rng);
        let reference = Side { result: ref_result, net: ref_net, next_draw: ref_rng.gen() };
        if shape.dead_initiator && pending > 0 {
            assert_eq!(lib.result, Err(EstimateError::InitiatorDead), "{shape:?}");
        }
        assert_same(lib, reference, shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ProbePlan::offer_owner`'s arc search ≡ the reference's scan of
    /// every point, on arbitrary believed arcs under both strategies. The
    /// ring gains peers on about a third of the planned points, so points
    /// sit on an owner's end of its arc, and before each offer the owner's
    /// predecessor is replanted on both sides as the owner itself (the whole
    /// ring), a random id (the arc wraps past zero about half the time), or
    /// a planned point or one next to it. Each offer must harvest as many
    /// points, and the completed plans must return equal replies, slot for
    /// slot, with equal billing.
    #[test]
    fn offers_on_arbitrary_arcs_match_the_reference_scan(
        seed: u64,
        peers in 1usize..48,
        k in 1usize..=70,
        stratified: bool,
        offers in 1usize..40,
    ) {
        let shape = Shape { seed, peers, k, stratified, attempts: 1, faults: 0, dead_initiator: false };
        let Case { net, est, initiator, rng } = shape.build();
        let mut lib_rng = rng.clone();
        let mut lib_plan = ProbePlan::plan(&est, &mut lib_rng);
        let mut ref_rng = rng;
        let mut ref_plan = reference::ProbePlan::plan(&est, &mut ref_rng);
        let mut arc_rng = SeedSequence::new(seed).stream(Component::Test, 2);
        let mut ids: Vec<RingId> = net.ids().collect();
        ids.extend(ref_plan.points().iter().filter(|_| arc_rng.gen_range(0..3) == 0));
        let mut grown = Network::build_bulk(ids, net.placement());
        grown.bulk_load(net.live_values().iter().copied().collect::<Vec<f64>>());
        let ids: Vec<RingId> = grown.ids().collect();
        let (mut lib_net, mut ref_net) = (grown.fork(), grown);
        for _ in 0..offers {
            let owner = ids[arc_rng.gen_range(0..ids.len())];
            let point = ref_plan.points()[arc_rng.gen_range(0..k)].0;
            let pred = match arc_rng.gen_range(0..5) {
                0 => owner,
                1 => RingId(arc_rng.gen()),
                2 => RingId(point),
                3 => RingId(point.wrapping_sub(1)),
                _ => RingId(point.wrapping_add(1)),
            };
            for net in [&mut lib_net, &mut ref_net] {
                net.node_mut(owner).unwrap().predecessor = Some(pred);
            }
            prop_assert_eq!(
                lib_plan.offer_owner(&mut lib_net, owner),
                ref_plan.offer_owner(&mut ref_net, owner),
                "harvest differs at {} with predecessor {}: {:?}", owner, pred, shape
            );
        }
        prop_assert_eq!(lib_plan.piggybacked(), ref_plan.piggybacked());
        let lib_result = lib_plan.complete(&est, &mut lib_net, initiator, &mut lib_rng);
        let lib = Side { result: lib_result, net: lib_net, next_draw: lib_rng.gen() };
        let ref_result = ref_plan.complete(&est, &mut ref_net, initiator, &mut ref_rng);
        let reference = Side { result: ref_result, net: ref_net, next_draw: ref_rng.gen() };
        assert_same(lib, reference, shape);
    }
}

/// The fault mix must actually bite: with one attempt some strata go
/// unanswered, and five attempts answer more of them. Guards against a
/// fault mix that silently stopped firing and left the contract vacuous.
#[test]
fn the_fault_mix_forces_retries_and_exhaustion() {
    const K: usize = 33;
    let answered = |seed: u64, attempts: usize| {
        let shape = Shape {
            seed,
            peers: 64,
            k: K,
            stratified: true,
            attempts,
            faults: 0b11111,
            dead_initiator: false,
        };
        let Case { mut net, est, initiator, mut rng } = shape.build();
        est.run_probes(&mut net, initiator, &mut rng).map_or(0, |r| r.len())
    };
    let (once, retried): (Vec<usize>, Vec<usize>) =
        (0..16).map(|seed| (answered(seed, 1), answered(seed, 5))).unzip();
    assert!(once.iter().all(|&n| n < K), "a stratum never failed: {once:?}");
    assert!(retried.iter().sum::<usize>() > once.iter().sum::<usize>(), "{retried:?}");
}
