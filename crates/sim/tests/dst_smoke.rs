//! Tier-3 smoke: a bounded DST fuzz run wired into `cargo test`.
//!
//! The full-budget fuzz lives in the nightly CI job (see TESTING.md); this
//! binary keeps the per-commit cost bounded — a fixed seed corpus plus one
//! CI-rotated seed (`DST_ROTATE_SEED`), and a bug-injection drill proving
//! the oracle catches a planted crash-heal race, the shrinker reduces it to
//! a handful of events, and the repro file replays byte-identically.

mod support;

use dde_sim::dst::{self, DstConfig, InjectedBug};

/// Schedules per corpus seed. Small on purpose: the clean corpus is a smoke
/// signal, not the fuzz budget.
const SMOKE_SCHEDULES: usize = 4;

/// The fixed seed corpus.
const CORPUS: [u64; 3] = [0xD57, 0xBEEF, 2026];

/// The fixed corpus, plus the CI-rotated seed when `DST_ROTATE_SEED` is set
/// (the nightly job injects a fresh value so coverage widens over time).
fn corpus_seeds() -> Vec<u64> {
    let mut seeds = CORPUS.to_vec();
    if let Ok(raw) = std::env::var("DST_ROTATE_SEED") {
        match raw.trim().parse::<u64>() {
            Ok(seed) => seeds.push(seed),
            Err(e) => panic!("DST_ROTATE_SEED {raw:?} is not a u64: {e}"),
        }
    }
    seeds
}

/// The generator and repro format's contract: every RNG draw and every
/// repro line of 256-event schedules for the fixed corpus, one injected-bug
/// setting per seed, pinned in `tests/golden/dst_schedules.ron`. Re-bless
/// only for an intended change to the schedule stream or the repro text:
/// `GOLDEN_UPDATE=1 cargo test -p dde-sim --test dst_smoke`.
#[test]
fn corpus_schedules_match_their_golden_repros() {
    let bugs =
        [None, Some(InjectedBug::SkipSuccessorOnHeal), Some(InjectedBug::DropCapacityFifoGuard)];
    let mut text = String::new();
    let mut kinds = Vec::new();
    for (seed, bug) in CORPUS.into_iter().zip(bugs) {
        let schedule = dst::generate(&DstConfig { seed, events: 256, bug, ..DstConfig::default() });
        for event in &schedule.events {
            let kind = std::mem::discriminant(event);
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        text.push_str(&dst::to_repro(&schedule));
    }
    assert_eq!(kinds.len(), 15, "the golden corpus must exercise every DstEvent variant");
    support::check("dst_schedules.ron", &text);
}

#[test]
fn clean_corpus_runs_without_violations() {
    for seed in corpus_seeds() {
        let cfg = DstConfig { seed, ..DstConfig::default() };
        let outcome = dst::fuzz(&cfg, SMOKE_SCHEDULES);
        assert_eq!(outcome.schedules, SMOKE_SCHEDULES);
        if let Some(found) = outcome.failure {
            panic!(
                "corpus seed {seed}: schedule {} violated an invariant:\n{}\nshrunk repro:\n{}",
                found.schedule_index,
                found.failure,
                dst::to_repro(&found.shrunk),
            );
        }
    }
}

/// F12's smallest sweep cell, fuzzed: the mega-scale shape (bulk-built ring,
/// items ∝ P) must survive a schedule of churn, batched churn windows,
/// probes, and fault windows with zero violations — including the
/// `ChurnWindow` oracle's demand that a batched sweep over a converged ring
/// leaves it *fully* converged, with items conserved (minus the reported
/// crash losses) and across a CoW fork.
#[test]
fn f12_smallest_cell_survives_a_fuzzed_schedule() {
    let s = dde_sim::experiments::f12_scale::scale_scenario(1_000);
    let cfg = DstConfig {
        seed: 0xF12,
        peers: s.peers,
        items: s.items,
        events: 24,
        ..DstConfig::default()
    };
    let outcome = dst::fuzz(&cfg, 1);
    assert_eq!(outcome.schedules, 1);
    if let Some(found) = outcome.failure {
        panic!(
            "f12 smallest cell violated an invariant:\n{}\nshrunk repro:\n{}",
            found.failure,
            dst::to_repro(&found.shrunk),
        );
    }
}

/// The churn tentpole's regime under the DST oracle: a 10⁵-peer bulk-built
/// ring mutated *only* through batched `ChurnWindow` sweeps (1% of the
/// membership per window, F12b's rate). Because no one-at-a-time overlay
/// event ever degrades the wiring, the world stays converged and the
/// **full** ground-truth invariant oracle runs after every window — each
/// batched repair sweep must hand back a perfectly wired ring, with item
/// losses exactly the crashed primaries'.
#[test]
fn churn_windows_keep_a_mega_scale_ring_fully_converged() {
    use dde_sim::dst::{run_schedule, DstEvent, Schedule};
    use dde_stats::rng::splitmix64;

    let e = |i: u64| splitmix64(0xC4A2 ^ i);
    let mut events = Vec::new();
    for round in 0..3u64 {
        events.push(DstEvent::ChurnWindow { entropy: e(round), count: 2_000 });
        events.push(DstEvent::Probe { initiator_rank: e(round + 0x10), point: e(round + 0x20) });
        events.push(DstEvent::Insert {
            initiator_rank: e(round + 0x30),
            value_entropy: e(round + 0x40),
        });
        events.push(DstEvent::EstimateRefresh {
            initiator_rank: e(round + 0x50),
            entropy: e(round + 0x60),
        });
    }
    let schedule = Schedule {
        seed: 0xC4A2,
        peers: 100_000,
        items: 200_000,
        replication: 1,
        bug: None,
        events,
    };
    let report = run_schedule(&schedule).unwrap_or_else(|f| panic!("{f}"));
    assert_eq!(report.events, 12);
    // Join-biased windows keep the size near 10^5 against the crash losses.
    assert!(
        report.final_peers > 99_000 && report.final_peers < 103_100,
        "final size {} drifted",
        report.final_peers
    );
}

#[test]
fn injected_bug_is_caught_shrunk_and_replays_byte_identically() {
    let cfg = DstConfig { bug: Some(InjectedBug::SkipSuccessorOnHeal), ..DstConfig::default() };
    let outcome = dst::fuzz(&cfg, SMOKE_SCHEDULES);
    let found = outcome.failure.expect("planted bug must surface within the smoke budget");

    // The shrinker must reduce the schedule to a short reproducer: the bug
    // needs one Crash followed by one Heal, so a 1-minimal schedule is tiny.
    assert!(
        found.shrunk.events.len() <= 10,
        "shrunk repro still has {} events:\n{}",
        found.shrunk.events.len(),
        dst::to_repro(&found.shrunk)
    );

    // Round-trip through the repro file format, then replay: the failure
    // report must be byte-identical (the `expts dst --replay` contract).
    let text = dst::to_repro(&found.shrunk);
    let parsed = dst::parse_repro(&text).expect("repro text parses back");
    assert_eq!(parsed, found.shrunk);
    let replayed = dst::run_schedule(&parsed).expect_err("repro must still fail");
    assert_eq!(replayed.to_string(), found.shrunk_failure.to_string());
}

/// The second drill: the planted *delivery* bug (the capacity axis's
/// per-link FIFO clamp dropped) must be caught by the always-on reordering
/// oracle, shrink to a tiny installer-plus-traffic reproducer, and replay
/// byte-identically — proving the adversarial event pack is wired through
/// the same catch/shrink/replay loop as the membership drill above.
#[test]
fn fifo_guard_bug_is_caught_shrunk_and_replays_byte_identically() {
    let cfg = DstConfig { bug: Some(InjectedBug::DropCapacityFifoGuard), ..DstConfig::default() };
    let outcome = dst::fuzz(&cfg, SMOKE_SCHEDULES);
    let found = outcome.failure.expect("planted delivery bug must surface within the smoke budget");

    // The bug needs one CapacitySkew installer plus slow-link traffic, so a
    // 1-minimal schedule is at most a handful of events.
    assert!(
        found.shrunk.events.len() <= 3,
        "shrunk repro still has {} events:\n{}",
        found.shrunk.events.len(),
        dst::to_repro(&found.shrunk)
    );
    assert!(
        found.shrunk_failure.violations.iter().any(|v| v.contains("reordering")),
        "expected a FIFO violation, got:\n{}",
        found.shrunk_failure
    );

    let text = dst::to_repro(&found.shrunk);
    let parsed = dst::parse_repro(&text).expect("repro text parses back");
    assert_eq!(parsed, found.shrunk);
    let replayed = dst::run_schedule(&parsed).expect_err("repro must still fail");
    assert_eq!(replayed.to_string(), found.shrunk_failure.to_string());
}

/// `fuzz` must report the same first failure (and shrink it to the same
/// reproducer) regardless of worker count. Kept as a single test because
/// the jobs knob is process-global.
#[test]
fn fuzz_outcome_is_independent_of_worker_count() {
    let cfg = DstConfig {
        bug: Some(InjectedBug::SkipSuccessorOnHeal),
        events: 24,
        ..DstConfig::default()
    };
    let serial = {
        dde_sim::exec::set_jobs(1);
        dst::fuzz(&cfg, 3)
    };
    let parallel = {
        dde_sim::exec::set_jobs(4);
        dst::fuzz(&cfg, 3)
    };
    dde_sim::exec::set_jobs(0);
    assert_eq!(serial, parallel, "fuzz outcome drifted with the worker count");
}
