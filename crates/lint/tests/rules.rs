//! Rule behaviour over the fixture corpus: one true-positive and one
//! allowlisted case per per-file rule (D2, D4, D5, D6), plus the
//! allow-grammar meta rules A0/A1. D2 and D4 apply to every linted file, the
//! shims included. The retired D1 and D3, and D5's `.unwrap()` half, are
//! clippy's now; CI's clippy plants prove them red and green.

use lint::check_source;
use lint::rules::RuleId;

/// Runs a fixture's contents under a synthetic workspace path (rule scoping
/// is path-driven, so the path chooses which rules are live).
fn check_fixture(file: &str, as_path: &str) -> Vec<lint::Violation> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    let src = std::fs::read_to_string(format!("{dir}{file}")).expect("fixture exists");
    check_source(as_path, &src)
}

fn rules_of(violations: &[lint::Violation]) -> Vec<RuleId> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d2_true_positive_and_trailing_allow() {
    let v = check_fixture("d2_violation.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::D2, RuleId::D2]);
    let v = check_fixture("d2_allowed.rs", "crates/sim/src/fixture.rs");
    assert!(v.is_empty(), "trailing same-line allow must cover the site: {v:?}");
}

#[test]
fn d4_true_positive_and_reasoned_allow() {
    let v = check_fixture("d4_violation.rs", "crates/stats/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::D4]);
    let v = check_fixture("d4_allowed.rs", "crates/stats/src/fixture.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d5_true_positive_skips_cfg_test_region() {
    let v = check_fixture("d5_violation.rs", "crates/stats/src/fixture.rs");
    // The bare `.unwrap()` in `head` is clippy's (`unwrap_used`) and reports
    // nothing; the `expect("")` inside #[cfg(test)] mod tests is exempt.
    assert_eq!(rules_of(&v), vec![RuleId::D5], "{v:?}");
    assert_eq!(v[0].snippet, "s.parse().expect(\"\")");
}

#[test]
fn d5_allow_and_binary_crate_exemption() {
    let v = check_fixture("d5_allowed.rs", "crates/core/src/fixture.rs");
    assert!(v.is_empty(), "{v:?}");
    let v = check_fixture("d5_violation.rs", "crates/cli/src/fixture.rs");
    assert!(v.is_empty(), "D5 is scoped to library crates: {v:?}");
}

#[test]
fn d6_flags_missing_and_contractless_docs() {
    let v = check_fixture("d6_violation.rs", "crates/stats/src/histogram.rs");
    assert_eq!(rules_of(&v), vec![RuleId::D6, RuleId::D6]);
    assert!(v[0].message.contains("does not name"), "{}", v[0].message);
    assert!(v[1].message.contains("no doc comment"), "{}", v[1].message);
}

#[test]
fn d6_satisfied_by_contract_line_or_reasoned_allow() {
    let v = check_fixture("d6_allowed.rs", "crates/stats/src/histogram.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d6_only_applies_to_listed_estimator_modules() {
    let v = check_fixture("d6_violation.rs", "crates/stats/src/metrics.rs");
    assert!(v.is_empty(), "metrics.rs is not in the D6 module list: {v:?}");
}

#[test]
fn a0_rejects_each_malformed_allow() {
    let v = check_fixture("a0_violation.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::A0; 4]);
    assert!(v[0].message.contains("unknown rule"));
    assert!(v[1].message.contains("missing a reason"));
    assert!(v[2].message.contains("empty reason"));
    assert!(v[3].message.contains("cannot be allowed away"));
}

#[test]
fn a1_flags_stale_allows() {
    let v = check_fixture("a1_violation.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::A1]);
    assert!(v[0].message.contains("suppressed nothing"));
}

#[test]
fn shims_keep_the_allow_grammar_and_skip_crate_scoped_rules() {
    let bad_allow = "// ddelint::allow(bogus, \"x\")\nfn f() {}\n";
    let v = check_source("shims/rand/src/lib.rs", bad_allow);
    assert_eq!(rules_of(&v), vec![RuleId::A0], "{v:?}");
    // D5 is scoped to the deterministic crates by path.
    let v = check_fixture("d5_violation.rs", "shims/rand/src/lib.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn rule_ids_parse_by_code_and_name() {
    assert_eq!(RuleId::parse("D2"), Some(RuleId::D2));
    assert_eq!(RuleId::parse("wallclock"), Some(RuleId::D2));
    assert_eq!(RuleId::parse("doc-determinism"), Some(RuleId::D6));
    assert_eq!(RuleId::parse("bogus"), None);
    // Every rule in the one list parses back from its code and its name.
    for rule in RuleId::ALL {
        assert_eq!(RuleId::parse(rule.code()), Some(rule));
        assert_eq!(RuleId::parse(rule.name()), Some(rule));
    }
    // Retired rules stay retired, so an allow that names one trips A0.
    for retired in [
        "D1",
        "ambient-rng",
        "D3",
        "unordered-map",
        "D7",
        "hot-clone",
        "D8",
        "det-taint",
        "D9",
        "message-exhaustive",
    ] {
        assert_eq!(RuleId::parse(retired), None, "{retired}");
        let allow = format!("// ddelint::allow({retired}, \"x\")\n");
        let v = check_source("crates/core/src/fixture.rs", &allow);
        assert_eq!(rules_of(&v), vec![RuleId::A0], "{retired}: {v:?}");
        let unknown = format!("unknown rule `{retired}`");
        assert!(v[0].message.contains(&unknown), "{}", v[0].message);
    }
}

#[test]
fn violations_render_file_line_col_and_rule() {
    let v = check_fixture("d4_violation.rs", "crates/stats/src/fixture.rs");
    let rendered = v[0].to_string();
    assert!(
        rendered.starts_with("crates/stats/src/fixture.rs:3:5: D4[unsafe]"),
        "unexpected render: {rendered}"
    );
}
