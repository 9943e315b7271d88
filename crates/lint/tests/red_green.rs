//! The red/green demo from the acceptance criteria: the real
//! `crates/stats/src/ecdf.rs` lints clean today (green); the same file with a
//! deliberately planted `thread_rng()` is caught by D1 at the planted line
//! (red). This pins the linter to the actual tree, not just to fixtures.
//!
//! The cross-file rules get the same treatment against the *whole* workspace
//! (`read_tree` + one in-memory plant): D8 catches entropy laundered through
//! the exempt RNG module, D10 catches a direct `Network` mutation inside an
//! estimator module, and D11 catches a `pub fn` that nothing calls,
//! re-exported or not.

use std::path::Path;

use lint::rules::RuleId;
use lint::{check_source, check_workspace, read_tree, Violation};

const ECDF_PATH: &str = "crates/stats/src/ecdf.rs";

fn real_ecdf() -> String {
    let on_disk = concat!(env!("CARGO_MANIFEST_DIR"), "/../../crates/stats/src/ecdf.rs");
    std::fs::read_to_string(on_disk).expect("ecdf.rs exists in the workspace")
}

#[test]
fn green_the_real_ecdf_lints_clean() {
    let v = check_source(ECDF_PATH, &real_ecdf());
    assert!(v.is_empty(), "ecdf.rs must be clean, got: {v:?}");
}

#[test]
fn red_a_planted_thread_rng_is_caught_by_d1() {
    let mut src = real_ecdf();
    let planted = "\nfn sneak_entropy() -> f64 {\n    let mut rng = rand::thread_rng();\n    rng.gen::<f64>()\n}\n";
    src.push_str(planted);
    let v = check_source(ECDF_PATH, &src);
    assert_eq!(v.len(), 1, "exactly the planted site must fire: {v:?}");
    assert_eq!(v[0].rule, RuleId::D1);
    // The planted call sits 3 lines from the end of the appended block; check
    // the reported line matches the actual text at that position.
    let line_text = src.lines().nth(v[0].line - 1).expect("reported line exists");
    assert!(line_text.contains("rand::thread_rng()"), "line {}: {line_text}", v[0].line);
    assert_eq!(v[0].col, line_text.find("thread_rng").expect("needle on line") + 1);
}

#[test]
fn red_goes_green_again_with_a_site_allow() {
    let mut src = real_ecdf();
    src.push_str(
        "\nfn sneak_entropy() -> f64 {\n    // ddelint::allow(ambient-rng, \"demo: red/green test round-trip\")\n    let mut rng = rand::thread_rng();\n    rng.gen::<f64>()\n}\n",
    );
    let v = check_source(ECDF_PATH, &src);
    assert!(v.is_empty(), "allow must restore green: {v:?}");
}

// ---- whole-workspace drills for the cross-file rules -----------------------

/// The real workspace sources, read from disk relative to this crate.
fn real_tree() -> Vec<(String, String)> {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    read_tree(root).expect("workspace tree is readable")
}

/// Appends `plant` to the in-memory copy of `path` within the tree.
fn plant(tree: &mut [(String, String)], path: &str, plant: &str) {
    let entry = tree
        .iter_mut()
        .find(|(p, _)| p == path)
        .unwrap_or_else(|| panic!("{path} is part of the linted tree"));
    entry.1.push_str(plant);
}

fn rules_of(violations: &[Violation]) -> Vec<RuleId> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn green_the_real_workspace_lints_clean() {
    let v = check_workspace(&real_tree());
    assert!(v.is_empty(), "main must stay violation-free: {v:?}");
}

#[test]
fn red_d8_catches_entropy_laundered_through_the_exempt_rng_module() {
    let mut tree = real_tree();
    // The helper hides in `stats::rng`, where the D1 needle rule does not
    // apply — only the taint pass can see the flow from its importers.
    plant(
        &mut tree,
        "crates/stats/src/rng.rs",
        "\npub fn drill_jitter() -> u64 {\n    rand::thread_rng().next_u64()\n}\n",
    );
    plant(
        &mut tree,
        "crates/stats/src/ecdf.rs",
        "\nfn drill_launder() -> u64 {\n    crate::rng::drill_jitter()\n}\n\n\
         /// Nondeterministic on purpose: the D8 drill target.\n\
         pub(crate) fn drill_perturb(x: u64) -> u64 {\n    x ^ drill_launder()\n}\n",
    );
    let v = check_workspace(&tree);
    assert_eq!(rules_of(&v), vec![RuleId::D8, RuleId::D8], "{v:?}");
    // Reported at the importing call sites, with file:line:col pointing at
    // real text and a witness chain naming the source.
    for violation in &v {
        assert_eq!(violation.path, "crates/stats/src/ecdf.rs");
        assert!(violation.message.contains("drill_jitter"), "{}", violation.message);
        let src = &tree.iter().find(|(p, _)| p == &violation.path).unwrap().1;
        let line_text = src.lines().nth(violation.line - 1).expect("reported line exists");
        assert!(
            line_text.contains("drill_jitter()") || line_text.contains("drill_launder()"),
            "line {}: {line_text}",
            violation.line
        );
    }
}

#[test]
fn red_d10_catches_a_direct_network_mutation_in_an_estimator() {
    let mut tree = real_tree();
    plant(
        &mut tree,
        "crates/core/src/dfdde.rs",
        "\n/// Deterministic: drill-only; never merged.\n\
         pub(crate) fn drill_repair(net: &mut Network) {\n    net.set_replication(3);\n}\n",
    );
    let v = check_workspace(&tree);
    assert_eq!(rules_of(&v), vec![RuleId::D10], "{v:?}");
    assert_eq!(v[0].path, "crates/core/src/dfdde.rs");
    assert!(v[0].message.contains("set_replication"), "{}", v[0].message);
    assert!(v[0].snippet.contains("net.set_replication(3)"));
}

#[test]
fn red_d10_goes_green_with_a_reasoned_allow() {
    let mut tree = real_tree();
    plant(
        &mut tree,
        "crates/core/src/dfdde.rs",
        "\n/// Deterministic: drill-only; never merged.\n\
         pub(crate) fn drill_repair(net: &mut Network) {\n    \
         // ddelint::allow(sans-io, \"demo: red/green round-trip for the boundary rule\")\n    \
         net.set_replication(3);\n}\n",
    );
    let v = check_workspace(&tree);
    assert!(v.is_empty(), "allow must restore green: {v:?}");
}

/// A `pub fn` nothing calls, planted at the end of the real `ecdf.rs`, with
/// `allow` as its first line.
fn dead_pub_plant(allow: &str, visibility: &str) -> String {
    format!(
        "\n{allow}/// Deterministic: drill-only; never merged.\n\
         {visibility} fn drill_unused() -> u64 {{\n    7\n}}\n"
    )
}

#[test]
fn red_d11_catches_a_pub_fn_nothing_calls() {
    let mut tree = real_tree();
    plant(&mut tree, ECDF_PATH, &dead_pub_plant("", "pub"));
    let v = check_workspace(&tree);
    assert_eq!(rules_of(&v), vec![RuleId::D11], "{v:?}");
    assert_eq!(v[0].path, ECDF_PATH);
    assert!(v[0].message.contains("drill_unused"), "{}", v[0].message);
    let src = &tree.iter().find(|(p, _)| p == ECDF_PATH).expect("ecdf.rs in tree").1;
    let line_text = src.lines().nth(v[0].line - 1).expect("reported line exists");
    assert_eq!(line_text, "pub fn drill_unused() -> u64 {");
    assert_eq!(v[0].col, "pub fn ".len() + 1);
}

#[test]
fn red_d11_sees_through_a_pub_use_reexport() {
    // `dist/mod.rs` re-exports its modules' fns; a re-exported `pub fn`
    // that nothing calls is still reported.
    let normal = "crates/stats/src/dist/normal.rs";
    let mut tree = real_tree();
    plant(&mut tree, normal, &dead_pub_plant("", "pub"));
    plant(&mut tree, "crates/stats/src/dist/mod.rs", "pub use normal::drill_unused;\n");
    let v = check_workspace(&tree);
    assert_eq!(rules_of(&v), vec![RuleId::D11], "{v:?}");
    assert_eq!(v[0].path, normal);
    assert!(v[0].message.contains("drill_unused"), "{}", v[0].message);
}

#[test]
fn red_d11_goes_green_with_a_reasoned_allow_and_a1_catches_a_stale_one() {
    let allow =
        "// ddelint::allow(dead-pub, \"demo: red/green round-trip for the dead-pub rule\")\n";
    let mut tree = real_tree();
    plant(&mut tree, ECDF_PATH, &dead_pub_plant(allow, "pub"));
    let v = check_workspace(&tree);
    assert!(v.is_empty(), "allow must restore green: {v:?}");

    // The same allow over a `pub(crate)` fn suppresses nothing.
    let mut tree = real_tree();
    plant(&mut tree, ECDF_PATH, &dead_pub_plant(allow, "pub(crate)"));
    let v = check_workspace(&tree);
    assert_eq!(rules_of(&v), vec![RuleId::A1], "{v:?}");
    assert!(v[0].message.contains("D11[dead-pub]"), "{}", v[0].message);
}
