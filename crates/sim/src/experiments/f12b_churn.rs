//! F12b — churn at mega-scale: accuracy and repair cost under live
//! membership and data turnover, 10⁴ → 10⁶ peers.
//!
//! F12 shows a fixed probe budget holds its DKW accuracy band across three
//! decades of *static* network size. This column stresses the same claim on
//! a network that never sits still: every round, 1% of the membership
//! churns (half joins, a quarter graceful leaves, a quarter crashes —
//! applied as one [`ChurnBatch`] repair sweep) and 5% of the items turn
//! over (direct-placement inserts/deletes, charged as handoffs but not
//! routed — routing 10⁶ turnover writes would drown the phase under
//! measurement). Two assertions ride on the sweep:
//!
//! * **accuracy**: the post-churn estimate stays inside the *same*
//!   `KsBand::new(k, 1e-3)` envelope as the static F12 column — churn must
//!   not cost accuracy, because repair restores perfect routing and handoff
//!   conserves (non-crashed) data;
//! * **sublinear repair**: finger writes *per membership event* grow like
//!   `O(log P)` — the ratio between adjacent decades stays far below the
//!   10× a linear (rebuild-per-event) policy would pay. Wall-clock is
//!   asserted only in the nightly budget test
//!   (`crates/sim/tests/churn_nightly.rs`), never here.
//!
//! Ground truth stays cheap under mutation: analytic cells journal churn
//! deltas into [`dde_stats::streaming::StreamingTruth`] (`O(M log M)` per
//! round), empirical cells re-collect the realized ECDF once after the last
//! round.

use super::f12_scale::{scale_scenario, ITEMS_PER_PEER, PROBES};
use super::Scale;
use crate::build::{BuiltScenario, DataTruth};
use crate::exec::ExecPlan;
use crate::report::{f, Table};
use crate::runner::aggregate;
use crate::scenario::Scenario;
use dde_core::{DfDde, DfDdeConfig};
use dde_ring::{ChurnBatch, Network, RepairStats, RingId};
use dde_stats::rng::{Component, SeedSequence};
use dde_stats::Ecdf;
use rand::Rng;

/// The sweep's seed: distinct from F12 so the two columns never share a
/// snapshot (a churned network must not be mistaken for a pristine one —
/// `crates/sim/tests/determinism.rs` checks the scenarios differ).
pub const CHURN_SEED: u64 = 0xF12B;

/// Churn rounds per cell. Two rounds exercise repeated-mutation paths
/// (journals folding on journals, repair on already-repaired columns)
/// without owning the 10⁶-peer cell's budget.
pub const ROUNDS: u64 = 2;

/// Membership churn per round: `p/100` joins, `p/200` leaves, `p/200`
/// crashes — 1% of the network in motion, join-biased to keep size stable
/// against the crash losses.
pub const MEMBERSHIP_PER_ROUND_DEN: usize = 100;

/// Item turnover per round, as a fraction of the live item count.
pub const TURNOVER_FRAC: f64 = 0.05;

/// Repeats per cell (matches F12).
const REPEATS: usize = 3;

/// Network sizes swept: the upper decades, where amortized mutation is the
/// only affordable policy.
pub fn churn_sweep(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1_000, 10_000],
        Scale::Full => vec![10_000, 100_000, 1_000_000],
    }
}

/// The scenario for one sweep point: F12's shape (items ∝ P, skewed Zipf
/// under range placement) re-seeded for the churn column.
// ddelint::allow(dead-pub, "shared with the nightly churn budget (churn_nightly.rs), determinism.rs and streaming_agreement.rs, which replay F12b's own churn; ROADMAP item 1 retires the nightly budget")
pub fn churn_scenario(p: usize) -> Scenario {
    scale_scenario(p).with_seed(CHURN_SEED)
}

/// What one cell's churn phase did, accumulated over all rounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnPhaseStats {
    /// Membership events applied (joins + leaves + crashes).
    pub events: u64,
    /// Membership events skipped by batch policy (duplicate victims, …).
    pub skipped: u64,
    /// Items moved by join/leave handoffs.
    pub items_moved: u64,
    /// Items inserted + deleted by turnover.
    pub items_turned: u64,
    /// Repair work across all batches.
    pub repair: RepairStats,
}

impl ChurnPhaseStats {
    /// Finger writes per applied membership event — the sublinearity metric.
    fn writes_per_event(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.repair.finger_writes as f64 / self.events as f64
    }
}

/// Queues and applies one round's membership window — `p/100` joins at
/// fresh uniform ids, `p/200` leaves and `p/200` crashes at uniform victims
/// — as a single [`ChurnBatch`]. Victim collisions are resolved by the
/// batch's one-event-per-id policy (skipped, counted). Shared with the
/// nightly budget test, which times exactly this call.
// ddelint::allow(dead-pub, "shared with the nightly churn budget (churn_nightly.rs), determinism.rs and streaming_agreement.rs, which replay F12b's own churn; ROADMAP item 1 retires the nightly budget")
pub fn membership_batch(
    net: &mut Network,
    batch: &mut ChurnBatch,
    seed: u64,
    round: u64,
) -> dde_ring::ChurnApplied {
    let mut rng = SeedSequence::new(seed).stream(Component::Churn, 2 * round);
    let p = net.len();
    let joins = (p / MEMBERSHIP_PER_ROUND_DEN).max(2);
    let deaths = (p / (2 * MEMBERSHIP_PER_ROUND_DEN)).max(1);
    for _ in 0..joins {
        batch.join(RingId(rng.gen()));
    }
    for _ in 0..deaths {
        if let Some(id) = net.random_peer(&mut rng) {
            batch.leave(id);
        }
    }
    for _ in 0..deaths {
        if let Some(id) = net.random_peer(&mut rng) {
            batch.crash(id);
        }
    }
    batch.apply(net)
}

/// One round of item turnover: deletes `TURNOVER_FRAC` of the live items
/// (uniform over stores) and inserts the same number of fresh draws from
/// the generating distribution, both through the direct-placement path.
/// Returns `(inserted, removed)` for the caller's truth journal.
// ddelint::allow(dead-pub, "shared with the nightly churn budget (churn_nightly.rs), determinism.rs and streaming_agreement.rs, which replay F12b's own churn; ROADMAP item 1 retires the nightly budget")
pub fn item_turnover(built: &mut BuiltScenario, round: u64) -> (Vec<f64>, Vec<f64>) {
    let seq = SeedSequence::new(built.scenario.seed);
    let mut rng = seq.stream(Component::Churn, 2 * round + 1);
    let t = (built.net.total_items() as f64 * TURNOVER_FRAC) as usize;
    let mut removed = Vec::with_capacity(t);
    for _ in 0..t {
        if let Some(x) = built.net.churn_remove_item(&mut rng) {
            removed.push(x);
        }
    }
    let mut inserted = Vec::with_capacity(t);
    for _ in 0..t {
        let x = built.truth.sample(&mut rng);
        built.net.churn_insert_item(x);
        inserted.push(x);
    }
    (inserted, removed)
}

/// Runs the full churn phase on a built scenario: `ROUNDS` alternations of
/// membership batch + item turnover, with the ground truth kept in sync
/// (delta journals for analytic cells, one ECDF re-collection at the end
/// for empirical cells).
// ddelint::allow(dead-pub, "shared with the nightly churn budget (churn_nightly.rs), determinism.rs and streaming_agreement.rs, which replay F12b's own churn; ROADMAP item 1 retires the nightly budget")
pub fn churn_phase(built: &mut BuiltScenario) -> ChurnPhaseStats {
    let mut phase = ChurnPhaseStats::default();
    let seed = built.scenario.seed;
    let mut batch = ChurnBatch::new();
    for round in 0..ROUNDS {
        let applied = membership_batch(&mut built.net, &mut batch, seed, round);
        phase.events += applied.joins + applied.leaves + applied.crashes;
        phase.skipped += applied.skipped;
        phase.items_moved += applied.items_moved;
        phase.repair.absorb(applied.repair);
        let lost = applied.lost;
        let (inserted, removed) = item_turnover(built, round);
        phase.items_turned += (inserted.len() + removed.len()) as u64;
        if let DataTruth::Analytic(truth) = &mut built.data_truth {
            truth.journal_adds(inserted);
            truth.journal_removes(removed.into_iter().chain(lost));
        }
    }
    if matches!(built.data_truth, DataTruth::Empirical(_)) {
        built.data_truth = DataTruth::Empirical(Ecdf::from_sorted(built.net.global_values()));
    }
    phase
}

/// Builds figure F12b's series.
pub fn f12b_churn(scale: Scale) -> Vec<Table> {
    let sizes = churn_sweep(scale);
    let mut t = Table::new(
        format!(
            "F12b: churn at mega-scale, {ROUNDS} rounds of 1% membership + {:.0}% item \
             turnover (items = {ITEMS_PER_PEER}·P, k = {PROBES})",
            TURNOVER_FRAC * 100.0
        ),
        &["P", "items", "events", "moved", "ks(gen)", "±std", "msgs", "KB", "writes/event"],
    );
    for &p in &sizes {
        let scenario = churn_scenario(p);
        let mut plan = ExecPlan::new();
        {
            let s = &scenario;
            plan.push(move || {
                let mut built = crate::build::build(s);
                let phase = churn_phase(&mut built);
                let est = DfDde::new(DfDdeConfig::with_probes(PROBES));
                let agg = aggregate(&mut built, &est, REPEATS);
                (agg, phase)
            });
        }
        let results = plan.run();
        let r = &results[0];
        let (agg, phase) = &r.value;
        eprintln!(
            "[f12b] P = {p}: build {:.2}s, churn + estimate {:.2}s ({} events, {} finger \
             writes, {} items turned)",
            r.build.as_secs_f64(),
            r.elapsed.saturating_sub(r.build).as_secs_f64(),
            phase.events,
            phase.repair.finger_writes,
            phase.items_turned,
        );
        t.push_row(vec![
            p.to_string(),
            (p * ITEMS_PER_PEER).to_string(),
            phase.events.to_string(),
            phase.items_moved.to_string(),
            f(agg.ks_mean),
            f(agg.ks_std),
            f(agg.messages_mean),
            f(agg.bytes_mean / 1024.0),
            f(phase.writes_per_event()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dde_stats::assert::KsBand;

    #[test]
    fn f12b_holds_accuracy_band_and_sublinear_repair_cost() {
        let t = &f12b_churn(Scale::Quick)[0];
        assert_eq!(t.rows.len(), 2);
        let col = |row: usize, c: usize| -> f64 { t.rows[row][c].parse().unwrap() };
        for (row, p) in [(0usize, 1_000), (1, 10_000)] {
            assert_eq!(t.rows[row][0], p.to_string());
            // Same DKW band as static F12: churn must not cost accuracy.
            KsBand::new(PROBES, 1e-3)
                .with_systematic(0.06)
                .assert(&format!("f12b df-dde @ P = {p}"), col(row, 4));
            assert!(col(row, 2) > 0.0, "no events applied at P = {p}");
        }
        // Sublinear per-event repair: a 10× larger network may pay only the
        // extra O(log P) finger locality, nowhere near 10×.
        let ratio = col(1, 8) / col(0, 8);
        assert!(
            ratio < 3.0,
            "finger writes/event grew {ratio:.2}× for 10× peers (linear would be ~10×)"
        );
    }

    #[test]
    fn churn_phase_keeps_truth_and_network_consistent() {
        let scenario = churn_scenario(512).with_items(512 * ITEMS_PER_PEER);
        let mut built = crate::build::build_fresh(&scenario);
        let items_before = built.net.total_items();
        let phase = churn_phase(&mut built);
        assert!(phase.events > 0);
        assert!(phase.items_turned > 0);
        assert!(built.net.check_invariants().is_empty(), "{:?}", built.net.check_invariants());
        // Empirical truth was re-collected: its sample count equals the live
        // item count (crashes lost some, turnover is net-zero).
        let ecdf = built.data_truth.ecdf().expect("quick scale is empirical");
        assert_eq!(ecdf.samples().len() as u64, built.net.total_items());
        assert!(built.net.total_items() < items_before, "crashes must lose some items");
    }

    #[test]
    fn full_sweep_reaches_a_million_peers() {
        assert_eq!(churn_sweep(Scale::Full), vec![10_000, 100_000, 1_000_000]);
        assert_ne!(churn_scenario(1_000).seed, scale_scenario(1_000).seed);
    }
}
