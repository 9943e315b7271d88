//! Tier-0 as a tier-1 test: the whole workspace must lint clean, so a rule
//! violation introduced by any future PR fails `cargo test` as well as the CI
//! `ddelint check` step.

use lint::policy::D6_FILES;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn workspace_lints_clean() {
    let violations = lint::check_tree(&workspace_root()).expect("tree walk succeeds");
    assert!(
        violations.is_empty(),
        "ddelint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
    );
}

/// A policy entry naming a deleted or renamed file polices nothing, and no
/// rule reports it: every path the policy lists must still exist.
#[test]
fn policy_paths_exist() {
    let root = workspace_root();
    let missing: Vec<&str> = D6_FILES.iter().copied().filter(|p| !root.join(p).is_file()).collect();
    assert!(missing.is_empty(), "ddelint policy names files that do not exist: {missing:?}");
}
