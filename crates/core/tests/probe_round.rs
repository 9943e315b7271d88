//! The one Phase-1 probe loop and its wave ≡ the two hand-kept loops they
//! replaced.
//!
//! Dedicated probing (`DfDde::run_probes`) and piggybacked probing
//! (`ProbePlan::{plan, offer_owner, complete}`) drive one per-stratum
//! probe/retry routine. Before that routine existed each kept its own copy
//! of the loop, with different RNG orders: dedicated probing draws each
//! stratum's attempt-0 point just before probing it, a plan draws all of
//! them up front. Those two loops live on here, verbatim, as the reference
//! model ([`reference`]); the library must match them exactly.
//!
//! Both library paths first offer their attempt-0 points to
//! `Network::probe_wave`, which routes them together and answers only when
//! no fault plan is installed and every route meets live peers; otherwise
//! it declines, having changed nothing, and the loop runs. So the cases
//! come in two families. With a fault plan (request loss, reply loss, sick
//! windows, crashes and a capacity deadline, each switched on at random;
//! all off still installs a plan) the wave always declines and the cases
//! test the loop. Without one, the ring is fresh from a bulk build,
//! churned through a `ChurnBatch` window, or left stale by `fail` and
//! `leave` with no stabilization, so routes meet dead fingers and
//! successors and the wave declines mid-route; the cases test the wave and
//! its hand-over to the loop.
//!
//! Each case runs the library and the reference on two forks of one ring
//! from the same RNG state. Both sides must return equal replies (or both
//! `InitiatorDead`), bill equal `MessageStats` (waiting time included),
//! leave the RNG at the same next draw, and leave the same peers alive with
//! equal stores and routing state. The sweep covers `k ∈ 1..=70` (powers
//! of two or not), both [`ProbeStrategy`]s, 1–5 attempts and, for plans, a
//! random subset of owners offered before completion. Direct cases pin the
//! wave itself: on healthy rings it answers what point-by-point probes
//! answer, and it declines without a trace under a fault plan that injects
//! nothing, from a dead initiator, on a route through a dead finger and
//! past the hop limit.

use dde_core::{DfDde, DfDdeConfig, EstimateError, ProbePlan, ProbeStrategy, RetryPolicy};
use dde_ring::{
    ChurnBatch, FaultPlan, FingerTable, LookupError, MessageKind, Network, Placement, ProbeReply,
    RingId, SuccessorList,
};
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

/// The state a case's ring is in before the probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ring {
    /// Bulk-built and loaded: perfect routing.
    Fresh,
    /// Then one `ChurnBatch` window of leaves, crashes and joins, which
    /// ends with perfect routing on the changed membership.
    Churned,
    /// Then `fail` and `leave` on about 15 % of the peers with no
    /// stabilization, so routing state still names departed peers.
    Stale,
}

impl Ring {
    const ALL: [Ring; 3] = [Ring::Fresh, Ring::Churned, Ring::Stale];
}

/// Ring size, fault mix and estimator shape drawn by the properties.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    peers: usize,
    ring: Ring,
    k: usize,
    stratified: bool,
    attempts: usize,
    /// `None`: no fault plan. `Some(bits)`: a plan with the axes `bits`
    /// switches on (see [`Shape::build`]); `Some(0)` injects nothing.
    faults: Option<u8>,
    dead_initiator: bool,
}

impl Shape {
    /// Builds the ring, brings it into `self.ring`'s state and installs
    /// the fault plan. Bits of `faults` switch on, in order: request loss,
    /// reply loss, sick windows, crashes and a capacity deadline, each at a
    /// rate drawn from the seed.
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

        let mut churn_rng = seq.stream(Component::Churn, 0);
        let ids: Vec<RingId> = net.ids().collect();
        match self.ring {
            Ring::Fresh => {}
            Ring::Churned => {
                let mut batch = ChurnBatch::new();
                for &id in &ids {
                    match churn_rng.gen_range(0..8) {
                        0 => batch.leave(id),
                        1 => batch.crash(id),
                        _ => {}
                    }
                }
                for _ in 0..ids.len() / 4 {
                    batch.join(RingId(churn_rng.gen()));
                }
                batch.apply(&mut net);
            }
            Ring::Stale => {
                let victims: Vec<RingId> =
                    ids.into_iter().filter(|_| churn_rng.gen_range(0..100) < 15).collect();
                for v in victims.into_iter().take(net.len() - 2) {
                    if churn_rng.gen() { net.fail(v) } else { net.leave(v) }.expect("alive");
                }
            }
        }

        if let Some(faults) = self.faults {
            let mut fault_rng = seq.stream(Component::Test, 1);
            let mut plan = FaultPlan::new(fault_rng.gen());
            let on = |bit: u8| faults & (1 << bit) != 0;
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
        }

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

/// Every peer's routing state and stored bits, in ring order: what a probe
/// round may read and a timeout may purge.
type RingState = Vec<(RingId, Option<RingId>, SuccessorList, FingerTable, Vec<u64>)>;

fn ring_state(net: &Network) -> RingState {
    net.ids()
        .map(|id| {
            let node = net.node(id).expect("alive");
            let bits = node.store.values().iter().map(|x| x.to_bits()).collect();
            (id, node.predecessor, node.successors, node.fingers.clone(), bits)
        })
        .collect()
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
    assert!(ring_state(&lib.net) == ring_state(&reference.net), "ring state differs: {shape:?}");
    assert_eq!(lib.net.fault_plan(), reference.net.fault_plan(), "fault stream differs: {shape:?}");
}

/// `DfDde::run_probes` against the dedicated reference loop, on two forks
/// of `shape`'s ring from one RNG state.
fn check_run_probes(shape: Shape) {
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

/// `ProbePlan` against the piggyback reference: the same pre-drawn points,
/// the same harvest from the owners `offer_share` picks (of 4), then the
/// same completion of whatever stayed pending.
fn check_probe_plan(shape: Shape, offer_share: u64) {
    let Case { net, est, initiator, rng } = shape.build();
    let mut offer_rng = SeedSequence::new(shape.seed).stream(Component::Test, 0);
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
    assert_eq!(lib_plan.len(), shape.k);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `DfDde::run_probes` ≡ the dedicated reference loop under a fault
    /// plan: attempt-0 points drawn interleaved with the retries, every
    /// retry inside its stratum, the last attempt charged its timeout
    /// without a backoff.
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
        check_run_probes(Shape {
            seed,
            peers,
            ring: Ring::Fresh,
            k,
            stratified,
            attempts,
            faults: Some(faults),
            dead_initiator: dead == 0,
        });
    }

    /// `ProbePlan` ≡ the piggyback reference under a fault plan: the same
    /// pre-drawn points, the same harvest from a random subset of offered
    /// owners, then the same dedicated completion of whatever stayed
    /// pending.
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
        let shape = Shape {
            seed,
            peers,
            ring: Ring::Fresh,
            k,
            stratified,
            attempts,
            faults: Some(faults),
            dead_initiator: dead == 0,
        };
        check_probe_plan(shape, offer_share);
    }

    /// `DfDde::run_probes` ≡ the dedicated reference loop with no fault
    /// plan, where the round goes to the wave first: on fresh and churned
    /// rings it answers, on stale ones it mostly declines mid-route and
    /// the loop runs from the untouched RNG, purging as it goes.
    #[test]
    fn run_probes_without_faults_matches_the_reference_loop(
        seed: u64,
        peers in 16usize..160,
        ring in 0usize..3,
        k in 1usize..=70,
        stratified: bool,
        attempts in 1usize..=5,
        dead in 0u8..8,
    ) {
        check_run_probes(Shape {
            seed,
            peers,
            ring: Ring::ALL[ring],
            k,
            stratified,
            attempts,
            faults: None,
            dead_initiator: dead == 0,
        });
    }

    /// `ProbePlan` ≡ the piggyback reference with no fault plan: after
    /// random offers, `complete` hands the open points to the wave, and to
    /// the loop when it declines.
    #[test]
    fn probe_plan_without_faults_matches_the_reference_plan(
        seed: u64,
        peers in 16usize..160,
        ring in 0usize..3,
        k in 1usize..=70,
        stratified: bool,
        attempts in 1usize..=5,
        dead in 0u8..8,
        offer_share in 0u64..=4,
    ) {
        let shape = Shape {
            seed,
            peers,
            ring: Ring::ALL[ring],
            k,
            stratified,
            attempts,
            faults: None,
            dead_initiator: dead == 0,
        };
        check_probe_plan(shape, offer_share);
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
        let shape = Shape {
            seed,
            peers,
            ring: Ring::Fresh,
            k,
            stratified,
            attempts: 1,
            faults: Some(0),
            dead_initiator: false,
        };
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
            ring: Ring::Fresh,
            k: K,
            stratified: true,
            attempts,
            faults: Some(0b11111),
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

/// A 64-probe shape on `ring` with no fault plan.
fn healthy(seed: u64, ring: Ring) -> Shape {
    Shape {
        seed,
        peers: 128,
        ring,
        k: 64,
        stratified: true,
        attempts: 1,
        faults: None,
        dead_initiator: false,
    }
}

/// 64 stratified points, one per stratum, from the case's RNG.
fn points_of(case: &mut Case) -> Vec<RingId> {
    let stratum = (u128::from(u64::MAX) + 1) / 64;
    (0..64u128)
        .map(|j| RingId((j * stratum + u128::from(case.rng.gen::<u64>()) % stratum) as u64))
        .collect()
}

/// On fresh and churned rings the wave answers, and answers what probing
/// the points one by one answers: the same replies in point order and the
/// same billing, hop for hop. The stale rings of the properties exercise
/// the other side.
#[test]
fn the_wave_answers_healthy_rings_as_probes_do() {
    for seed in 0..8 {
        for ring in [Ring::Fresh, Ring::Churned] {
            let mut case = healthy(seed, ring).build();
            let points = points_of(&mut case);
            let mut one_by_one = case.net.fork();
            let expected: Vec<ProbeReply> = points
                .iter()
                .map(|&p| one_by_one.probe(case.initiator, p).expect("healthy ring"))
                .collect();
            let mut net = case.net.fork();
            let got = net.probe_wave(case.initiator, &points);
            assert_eq!(got.as_ref(), Some(&expected), "seed {seed}, {ring:?}");
            assert_eq!(net.stats(), one_by_one.stats(), "seed {seed}, {ring:?}");
            let hops: u64 = expected.iter().map(|r| u64::from(r.hops)).sum();
            let billed = net.stats().since(case.net.stats());
            assert_eq!(billed.count(MessageKind::LookupHop), 2 * hops, "seed {seed}, {ring:?}");
            assert!(hops > 64, "the routes should take hops: {hops}");
        }
    }
}

/// Calls the wave on `net` and requires it to decline without a trace:
/// billing, stores, routing state and the fault plan as they were.
fn assert_declines(net: &mut Network, initiator: RingId, points: &[RingId], why: &str) {
    let (stats, state, plan) = (net.stats().clone(), ring_state(net), net.fault_plan().cloned());
    assert_eq!(net.probe_wave(initiator, points), None, "{why}");
    assert_eq!(net.stats(), &stats, "{why}: billing changed");
    assert!(ring_state(net) == state, "{why}: ring state changed");
    assert_eq!(net.fault_plan(), plan.as_ref(), "{why}: fault plan changed");
}

/// The wave declines, and leaves stats, stores and routing state bit for
/// bit as they were, whenever a point-by-point run could differ from it: a
/// fault plan, even one that injects nothing; a dead initiator; a route
/// whose next hop is a dead finger; and a route past the hop limit.
#[test]
fn the_wave_declines_without_a_trace() {
    let mut case = healthy(3, Ring::Fresh).build();
    let points = points_of(&mut case);
    let (net, initiator) = (&mut case.net, case.initiator);

    let mut quiet = net.fork();
    quiet.set_fault_plan(FaultPlan::new(9));
    assert_declines(&mut quiet, initiator, &points, "a fault plan that injects nothing");

    let dead = (1..).map(RingId).find(|&id| !net.is_alive(id)).expect("sparse ring");
    assert_declines(&mut net.fork(), dead, &points, "a dead initiator");

    // The initiator's top finger sits about half a ring away, past its
    // successor list; the point just after it routes there first.
    let mut stale = net.fork();
    let far = stale.node(initiator).and_then(|n| n.fingers.get(63)).expect("wired finger");
    assert!(!stale.node(initiator).expect("alive").successors.contains(&far));
    stale.fail(far).expect("alive");
    let target = RingId(far.0.wrapping_add(1));
    let mut per_point = stale.fork();
    let before = per_point.stats().count(MessageKind::LookupTimeout);
    per_point.probe(initiator, target).expect("the route recovers");
    assert!(per_point.stats().count(MessageKind::LookupTimeout) > before, "no dead hop met");
    assert_declines(&mut stale, initiator, &[points[0], target], "a dead finger on a route");

    // Strip every finger and all successors but the first: a route then
    // walks the ring peer by peer, so from `ids[1]` the point `ids[h + 1]`
    // takes `h` hops. A lookup refuses to step on from a peer it reached
    // after more than `MAX_HOPS` (512) hops: 513 hops resolve, 514 do not.
    let ids: Vec<RingId> = (1..=600u64).map(|i| RingId(i << 50)).collect();
    let mut chain = Network::build_bulk(ids.clone(), Placement::range(0.0, 100.0));
    for &id in &ids {
        let node = chain.node_mut(id).expect("alive");
        node.fingers = FingerTable::new();
        node.successors.truncate(1);
    }
    let mut per_point = chain.fork();
    let reply = per_point.probe(ids[1], ids[514]).expect("513 hops");
    assert_eq!((reply.peer, reply.hops), (ids[514], 513));
    assert_eq!(chain.fork().probe_wave(ids[1], &[ids[514]]), Some(vec![reply]));
    assert_eq!(per_point.probe(ids[1], ids[515]), Err(LookupError::HopLimitExceeded));
    assert_declines(&mut chain, ids[1], &[ids[5], ids[515]], "the hop limit");
}
