//! Path-scoped rule policy.
//!
//! Paths are workspace-relative with `/` separators. The policy is code, not
//! config: the rule set is repo-specific law, and changing where a rule
//! applies should show up in review as a diff to this file (see TESTING.md
//! §"Tier 0 — static analysis" for the rationale and the procedure for
//! adding a rule).

use crate::rules::RuleId;

/// The four crates whose behaviour must be a pure function of the seed.
const DET_CRATES: &[&str] = &["crates/core/", "crates/ring/", "crates/stats/", "crates/sim/"];

/// Estimator modules whose public API must document a determinism contract
/// (rule D6). Kept explicit so adding a module is a reviewed decision.
pub const D6_FILES: &[&str] = &[
    "crates/core/src/estimator.rs",
    "crates/core/src/dfdde.rs",
    "crates/core/src/continuous.rs",
    "crates/core/src/exact.rs",
    "crates/core/src/skeleton.rs",
    "crates/core/src/piggyback.rs",
    "crates/core/src/baseline/gossip.rs",
    "crates/core/src/baseline/random_walk.rs",
    "crates/core/src/baseline/uniform_peer.rs",
    "crates/stats/src/ecdf.rs",
    "crates/stats/src/equidepth.rs",
    "crates/stats/src/piecewise.rs",
    "crates/stats/src/histogram.rs",
    "crates/sim/src/workload.rs",
    "crates/ring/src/arena.rs",
    "crates/ring/src/batch.rs",
];

/// Modules that must stay sans-IO (rule D10): the estimator/probe/routing
/// policy layer in `crates/core`. These files may *interrogate* the network
/// and bill message stats, but direct topology/data mutation belongs to the
/// drivers (`sim` and the CLI) — keeping the policy layer a pure
/// `(incoming message, state) → outgoing messages` state machine, the shape
/// a sans-IO probe round (ROADMAP item 3) needs. Nor may they read the
/// ground truth their estimates are scored against.
pub fn d10_file(path: &str) -> bool {
    path.starts_with("crates/core/src/")
}

/// `Network` methods the sans-IO layer may call (rule D10): probe message
/// exchanges (the simulated transport), the reads a peer could make of its
/// own view, and stats billing. Everything else — membership, builds,
/// rewiring, data mutation, fault-plan edits, and ground-truth reads such as
/// `total_items`, `true_owner` or `global_values` — is driver territory.
pub const NETWORK_READ_WHITELIST: &[&str] = &[
    // Message exchanges: the simulated transport surface.
    "probe",
    "piggyback_probe",
    "sample_tuple",
    "message_lost",
    "reply_lost",
    // Reads.
    "len",
    "placement",
    "ids",
    "is_alive",
    "node",
    "summary_buckets",
    "random_peer",
    // Stats billing.
    "stats",
    "stats_mut",
];

/// Whether the walker should descend into / lint this path at all.
///
/// Fixtures are deliberate rule violations (the lint test corpus), `target`
/// and `.git` are build products, and the shims vendor an external API
/// surface (they *define* `thread_rng`; holding them to the workspace's
/// conventions would mean diverging from the upstream API they mirror).
pub fn linted(path: &str) -> bool {
    !path.starts_with("target/")
        && !path.contains("/target/")
        && !path.starts_with(".git/")
        && !path.contains("tests/fixtures/")
}

fn in_shims(path: &str) -> bool {
    path.starts_with("shims/")
}

fn in_det_crate(path: &str) -> bool {
    DET_CRATES.iter().any(|c| path.starts_with(c))
}

fn in_det_src(path: &str) -> bool {
    DET_CRATES.iter().any(|c| {
        let mut src = String::with_capacity(c.len() + 4);
        src.push_str(c);
        src.push_str("src/");
        path.starts_with(&src)
    })
}

/// Whether code in the file at `path` can ship a call (rule D11): library
/// src of the deterministic crates, the `ring-dde` binary, the benchmark
/// harness and the examples. Tests, benches, the linter and the
/// shims cannot, and neither can a `#[cfg(test)]` region in any file (that
/// exclusion is positional, in dead.rs).
pub fn ships(path: &str) -> bool {
    in_det_src(path)
        || ["crates/cli/src/", "ringbench/src/", "examples/"]
            .iter()
            .any(|dir| path.starts_with(dir))
}

/// Whether `rule` applies to the file at `path` (before `#[cfg(test)]`
/// region and allow-comment filtering, which are positional, not per-file).
pub fn applies(rule: RuleId, path: &str) -> bool {
    if in_shims(path) {
        // Shims mirror external crates; only the allow-grammar rules apply
        // (an allow comment in a shim must still be well-formed).
        return matches!(rule, RuleId::A0 | RuleId::A1);
    }
    match rule {
        // The one sanctioned entropy module is stats::rng — everything else,
        // including test code and examples, derives from SeedSequence.
        RuleId::D1 => path != "crates/stats/src/rng.rs",
        // Wall-clock reads need a site-level allow everywhere; the timing
        // paths in sim::exec and crates/cli carry them inline.
        RuleId::D2 => true,
        RuleId::D3 => in_det_crate(path) || path.starts_with("tests/"),
        RuleId::D4 => true,
        // D5 is scoped to library-crate src; `#[cfg(test)]` regions inside
        // those files are excluded positionally in check.rs.
        RuleId::D5 => in_det_src(path),
        RuleId::D6 => D6_FILES.contains(&path),
        // D8 reports where determinism is law: deterministic-crate src and
        // the integration-test tree. Taint still *propagates* through
        // everything (including shims — that's where `thread_rng` is
        // defined); benches and the CLI may time and jitter freely.
        RuleId::D8 => in_det_src(path) || path.starts_with("tests/"),
        RuleId::D10 => d10_file(path),
        // D11 reports in library src, where a `pub` is a promise to other
        // crates; binaries, tests and benches have no public API to rot.
        RuleId::D11 => in_det_src(path),
        RuleId::A0 | RuleId::A1 => true,
    }
}

/// Whether violations of `rule` are exempt inside `#[cfg(test)]` regions.
///
/// D5 (unwrap hygiene), D6 (public-API docs), D8 (taint — in-file unit
/// tests drive helpers off arbitrary state), D10 (tests exercise mutation
/// deliberately) and D11 (a test helper is no public API) are test-exempt;
/// ambient entropy, wall-clock, unordered maps, and unsafe would break
/// deterministic replay of the test suite itself.
pub fn test_exempt(rule: RuleId) -> bool {
    matches!(rule, RuleId::D5 | RuleId::D6 | RuleId::D8 | RuleId::D10 | RuleId::D11)
}
