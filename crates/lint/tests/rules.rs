//! Rule behaviour over the fixture corpus: one true-positive and one
//! allowlisted case per rule D1–D6, plus the allow-grammar meta rules A0/A1.

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
fn d1_true_positive_reports_each_needle_with_position() {
    let v = check_fixture("d1_violation.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::D1, RuleId::D1, RuleId::D1]);
    // First hit: `rand::thread_rng()` on line 3. The column points at the
    // needle, not the line start.
    assert_eq!((v[0].line, v[0].col), (3, 25));
    assert!(v[0].snippet.contains("thread_rng"));
    assert!(v[1].snippet.contains("from_entropy"));
    assert!(v[2].snippet.contains("rand::random"));
}

#[test]
fn d1_allow_suppresses_and_is_consumed() {
    let v = check_fixture("d1_allowed.rs", "crates/core/src/fixture.rs");
    assert!(v.is_empty(), "allowed fixture must be clean, got: {v:?}");
}

#[test]
fn d1_exempts_only_the_rng_module() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/d1_violation.rs"
    ))
    .expect("fixture exists");
    assert!(check_source("crates/stats/src/rng.rs", &src).is_empty());
    assert_eq!(check_source("crates/stats/src/ecdf.rs", &src).len(), 3);
}

#[test]
fn d2_true_positive_and_trailing_allow() {
    let v = check_fixture("d2_violation.rs", "crates/sim/src/fixture.rs");
    assert_eq!(rules_of(&v), vec![RuleId::D2, RuleId::D2]);
    let v = check_fixture("d2_allowed.rs", "crates/sim/src/fixture.rs");
    assert!(v.is_empty(), "trailing same-line allow must cover the site: {v:?}");
}

#[test]
fn d3_true_positive_counts_every_mention() {
    let v = check_fixture("d3_violation.rs", "crates/ring/src/fixture.rs");
    assert!(v.iter().all(|x| x.rule == RuleId::D3));
    assert_eq!(v.len(), 3, "use decl + type + constructor: {v:?}");
    let v = check_fixture("d3_allowed.rs", "crates/ring/src/fixture.rs");
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d3_does_not_apply_outside_deterministic_crates() {
    let v = check_fixture("d3_violation.rs", "crates/cli/src/fixture.rs");
    assert!(v.is_empty(), "cli may use HashMap: {v:?}");
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
    assert_eq!(rules_of(&v), vec![RuleId::D5, RuleId::D5]);
    assert!(v[0].snippet.contains("unwrap"));
    assert!(v[1].snippet.contains("expect"));
    // The unwrap inside #[cfg(test)] mod tests produced no third violation.
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
fn shims_are_exempt_except_allow_grammar() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/d1_violation.rs"
    ))
    .expect("fixture exists");
    assert!(check_source("shims/rand/src/lib.rs", &src).is_empty());
    let bad_allow = "// ddelint::allow(bogus, \"x\")\nfn f() {}\n";
    assert_eq!(check_source("shims/rand/src/lib.rs", bad_allow).len(), 1);
}

#[test]
fn rule_ids_parse_by_code_and_name() {
    assert_eq!(RuleId::parse("D1"), Some(RuleId::D1));
    assert_eq!(RuleId::parse("wallclock"), Some(RuleId::D2));
    assert_eq!(RuleId::parse("doc-determinism"), Some(RuleId::D6));
    assert_eq!(RuleId::parse("bogus"), None);
    // Every rule in the one list parses back from its code and its name.
    for rule in RuleId::ALL {
        assert_eq!(RuleId::parse(rule.code()), Some(rule));
        assert_eq!(RuleId::parse(rule.name()), Some(rule));
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
