//! Integration tests for `core::retry` against a live faulty network: cost
//! accounting on exhaustion, within-stratum re-issue, and graceful skeleton
//! degradation from a partial reply set.

use dde_core::{DfDde, DfDdeConfig, RetryPolicy};
use dde_ring::{FaultPlan, MessageKind, Network, Placement, RingId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulated-time cost of exhausting one logical probe under `policy`:
/// `Σ failed_attempt_cost(a)` over all attempts.
fn exhaustion_cost(policy: &RetryPolicy) -> u64 {
    (0..policy.max_attempts).map(|a| policy.failed_attempt_cost(a)).sum()
}

/// Every probe attempt times out (all peers sick), so every logical probe
/// exhausts its budget. The delay counter must hold *exactly* the retry
/// policy's waiting time — `k · Σ failed_attempt_cost` — and the fault
/// counter exactly one timeout per attempt: the network charges messages,
/// the policy charges waits, nothing is counted twice.
#[test]
fn exhaustion_charges_exact_timeout_and_backoff_sum() {
    // Two peers: the initiator owns a ~5-point arc of the 2^64 ring, so
    // every probe position is remote and must cross the sick link.
    let mut net = Network::build(vec![RingId(5), RingId(10)], Placement::range(0.0, 100.0));
    net.set_fault_plan(FaultPlan::new(1).with_sick(1.0, 1 << 32));

    let k = 8;
    let policy = RetryPolicy::default();
    let est = DfDde::new(DfDdeConfig { retry: policy, ..DfDdeConfig::with_probes(k) });
    let delay_before = net.stats().total_delay();
    let sick_before = net.stats().count(MessageKind::FaultSick);

    let mut rng = StdRng::seed_from_u64(7);
    let replies = est.run_probes(&mut net, RingId(10), &mut rng).expect("initiator alive");

    assert!(replies.is_empty(), "all probes must exhaust, got {} replies", replies.len());
    // Default policy {4 attempts, backoff 2, timeout 8}: 10 + 12 + 16 + 8 = 46.
    assert_eq!(exhaustion_cost(&policy), 46);
    assert_eq!(
        net.stats().total_delay() - delay_before,
        k as u64 * 46,
        "waiting time must be exactly k probes x exhaustion cost"
    );
    assert_eq!(
        net.stats().count(MessageKind::FaultSick) - sick_before,
        (k * policy.max_attempts) as u64,
        "exactly one timeout per attempt"
    );
}

/// Re-issued attempts must stay inside their probe's ring stratum: with four
/// peers at the four quarter points and `k = 4`, each stratum has a distinct
/// owner, so even under loss (forcing re-issues) the reply set must cover
/// all four peers — a retried probe leaking into a neighbouring stratum
/// would double-cover one owner and miss another.
#[test]
fn retries_reissue_within_their_stratum() {
    let q = 1u64 << 62;
    let ids = vec![RingId(0), RingId(q), RingId(2 * q), RingId(3 * q)];
    let mut net = Network::build(ids, Placement::range(0.0, 100.0));
    net.set_fault_plan(FaultPlan::new(3).with_loss(0.4));

    let est = DfDde::new(DfDdeConfig::with_probes(4));
    let delay_before = net.stats().total_delay();
    let mut rng = StdRng::seed_from_u64(11);
    let replies = est.run_probes(&mut net, RingId(0), &mut rng).expect("initiator alive");

    assert_eq!(replies.len(), 4, "all four probes succeed within the attempt budget");
    let mut peers: Vec<RingId> = replies.iter().map(|r| r.peer).collect();
    peers.sort();
    // Stratum j = [j·2^62, (j+1)·2^62) is owned by peer (j+1)·2^62 mod 2^64.
    assert_eq!(
        peers,
        vec![RingId(0), RingId(q), RingId(2 * q), RingId(3 * q)],
        "each stratum's probe must land on that stratum's owner, retries included"
    );
    assert!(
        net.stats().total_delay() > delay_before,
        "seed 11 at 40% loss must force at least one charged retry"
    );
}

/// A probe whose attempts run out is skipped, not fabricated: under heavy
/// loss with a small retry budget the reply set is partial, and the skeleton
/// built from it still exists and is a monotone CDF over the domain.
#[test]
fn partial_reply_set_still_yields_monotone_skeleton() {
    let seq = dde_stats::rng::SeedSequence::new(5);
    let mut id_rng = seq.stream(dde_stats::rng::Component::NodeIds, 0);
    let mut ids: Vec<RingId> = (0..64).map(|_| RingId(rand::Rng::gen(&mut id_rng))).collect();
    ids.sort();
    ids.dedup();
    let mut net = Network::build(ids, Placement::range(0.0, 100.0));
    let mut data_rng = seq.stream(dde_stats::rng::Component::Dataset, 0);
    let data: Vec<f64> = (0..5_000).map(|_| rand::Rng::gen::<f64>(&mut data_rng) * 100.0).collect();
    net.bulk_load(&data);
    net.set_fault_plan(FaultPlan::new(9).with_loss(0.7));

    let k = 16;
    let est = DfDde::new(DfDdeConfig {
        retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
        ..DfDdeConfig::with_probes(k)
    });
    let initiator = net.ids().next().expect("nonempty");
    let mut rng = StdRng::seed_from_u64(13);
    let replies = est.run_probes(&mut net, initiator, &mut rng).expect("initiator alive");

    assert!(
        replies.len() >= 2 && replies.len() < k,
        "seed 13 at 70% loss with 2 attempts must yield a partial set, got {}",
        replies.len()
    );
    let skeleton = est.build_skeleton(&replies, (0.0, 100.0)).expect("partial set suffices");
    assert_eq!(skeleton.probes_used, replies.len());
    let mut prev = f64::NEG_INFINITY;
    for i in 0..=64 {
        let x = 100.0 * i as f64 / 64.0;
        let c = dde_stats::CdfFn::cdf(&skeleton.cdf, x);
        assert!((-1e-9..=1.0 + 1e-9).contains(&c), "cdf({x}) = {c}");
        assert!(c >= prev - 1e-12, "cdf not monotone at {x}");
        prev = c;
    }
}
