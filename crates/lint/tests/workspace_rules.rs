//! Cross-file rule behaviour (D8 taint, D9 exhaustiveness, D10 sans-IO)
//! plus the D3 alias-resolution fix, driven through `check_workspace` over
//! fixture corpora with synthetic workspace paths (rule scoping is
//! path-driven, so the paths choose which rules are live).

use lint::rules::RuleId;
use lint::{check_source, check_workspace, Violation};

fn fixture(file: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    std::fs::read_to_string(format!("{dir}{file}")).expect("fixture exists")
}

/// Builds a corpus of (synthetic path, fixture contents) pairs and checks it.
fn check_corpus(pairs: &[(&str, &str)]) -> Vec<Violation> {
    let inputs: Vec<(String, String)> =
        pairs.iter().map(|(path, file)| (path.to_string(), fixture(file))).collect();
    check_workspace(&inputs)
}

fn rules_of(violations: &[Violation]) -> Vec<RuleId> {
    violations.iter().map(|v| v.rule).collect()
}

#[test]
fn d3_alias_flags_every_usage_not_just_the_declaration() {
    let v = check_source("crates/ring/src/fixture.rs", &fixture("d3_alias_violation.rs"));
    assert!(v.iter().all(|x| x.rule == RuleId::D3), "{v:?}");
    // The `use` line fires via the needle; the return type and the
    // constructor fire via alias resolution.
    assert_eq!(v.len(), 3, "decl + 2 alias usages: {v:?}");
    assert!(v[1].message.contains("std::collections::HashMap"), "{}", v[1].message);
    assert!(v[1].snippet.contains("Map<u64, u64>"));
    assert!(v[2].snippet.contains("Map::new()"));
}

#[test]
fn d3_alias_to_an_ordered_map_is_clean() {
    let v = check_source("crates/ring/src/fixture.rs", &fixture("d3_alias_allowed.rs"));
    assert!(v.is_empty(), "BTreeMap alias must be clean: {v:?}");
}

#[test]
fn d8_catches_laundering_two_calls_deep_with_witness_chain() {
    let v = check_corpus(&[
        ("crates/stats/src/rng.rs", "d8_source.rs"),
        ("crates/stats/src/ecdf.rs", "d8_violation.rs"),
    ]);
    assert_eq!(rules_of(&v), vec![RuleId::D8, RuleId::D8], "{v:?}");
    // Direct importer: reported at the call site of the exempt-module helper.
    assert_eq!(v[0].path, "crates/stats/src/ecdf.rs");
    assert!(v[0].message.contains("`laundered` reaches ambient entropy"), "{}", v[0].message);
    assert!(v[0].message.contains("ambient_jitter"), "{}", v[0].message);
    assert!(v[0].snippet.contains("crate::rng::ambient_jitter()"));
    // Transitive importer: the witness names the whole chain.
    assert!(v[1].message.contains("`perturb` reaches ambient entropy"), "{}", v[1].message);
    assert!(
        v[1].message.contains("`laundered`") && v[1].message.contains("ambient_jitter"),
        "witness chain must name both hops: {}",
        v[1].message
    );
    // `stream_blend` threads a seed parameter: transitive taint absolved, so
    // exactly two reports.
}

#[test]
fn d8_source_module_alone_reports_nothing() {
    // The exempt RNG module seeds taint but is not itself D8-reported (and
    // D1 does not apply there) — without an importer the corpus is clean.
    let v = check_corpus(&[("crates/stats/src/rng.rs", "d8_source.rs")]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d8_allow_at_the_import_site_stops_the_flow_for_callers_too() {
    let v = check_corpus(&[
        ("crates/stats/src/rng.rs", "d8_source.rs"),
        ("crates/stats/src/ecdf.rs", "d8_allowed.rs"),
    ]);
    assert!(v.is_empty(), "reviewed allow must silence the chain: {v:?}");
}

#[test]
fn d8_does_not_apply_outside_deterministic_src() {
    let v = check_corpus(&[
        ("crates/stats/src/rng.rs", "d8_source.rs"),
        ("crates/bench/src/fixture.rs", "d8_violation.rs"),
    ]);
    assert!(v.is_empty(), "benches may jitter: {v:?}");
}

#[test]
fn d9_reports_the_unbilled_variant_at_its_declaration() {
    let v = check_corpus(&[
        ("crates/ring/src/messages.rs", "d9_violation.rs"),
        ("crates/ring/src/network.rs", "d9_billing.rs"),
    ]);
    assert_eq!(rules_of(&v), vec![RuleId::D9], "only Unbilled fires: {v:?}");
    assert_eq!(v[0].path, "crates/ring/src/messages.rs");
    assert!(v[0].message.contains("MessageKind::Unbilled"), "{}", v[0].message);
    assert!(v[0].message.contains("billing"), "{}", v[0].message);
    assert!(v[0].snippet.contains("Unbilled"));
    // Line/col point at the variant declaration.
    let src = fixture("d9_violation.rs");
    let line_text = src.lines().nth(v[0].line - 1).expect("line exists");
    assert!(line_text.trim_start().starts_with("Unbilled"), "{line_text}");
}

#[test]
fn d9_missing_index_arm_is_named_separately() {
    // Drop the billing file AND the index arm coverage by feeding only the
    // enum file with its arms intact: billing is the one missing dimension,
    // and the message says which.
    let v = check_corpus(&[("crates/ring/src/messages.rs", "d9_violation.rs")]);
    // Both variants now lack billing (no use-site file in the corpus).
    assert_eq!(rules_of(&v), vec![RuleId::D9, RuleId::D9], "{v:?}");
    assert!(v.iter().all(|x| x.message.contains("billing")), "{v:?}");
    assert!(
        v.iter().all(|x| !x.message.contains("dense-index")),
        "index arms are present in the fixture: {v:?}"
    );
}

#[test]
fn d9_allow_on_the_variant_line_escapes() {
    let v = check_corpus(&[
        ("crates/ring/src/messages.rs", "d9_allowed.rs"),
        ("crates/ring/src/network.rs", "d9_billing.rs"),
    ]);
    assert!(v.is_empty(), "reasoned allow on the variant line: {v:?}");
}

#[test]
fn d9_refuses_an_entry_whose_enum_shows_no_variants() {
    // Declared inside a macro: the parser reads `enum MessageKind` with zero
    // variants, so the entry would check nothing. Reported at the enum name.
    let v = check_corpus(&[
        ("crates/ring/src/messages.rs", "d9_vacuous.rs"),
        ("crates/ring/src/network.rs", "d9_billing.rs"),
    ]);
    assert_eq!(rules_of(&v), vec![RuleId::D9], "{v:?}");
    assert_eq!(v[0].path, "crates/ring/src/messages.rs");
    assert!(v[0].message.contains("`MessageKind` checks nothing"), "{}", v[0].message);
    let src = fixture("d9_vacuous.rs");
    let line_text = src.lines().nth(v[0].line - 1).expect("line exists");
    assert!(line_text.contains("enum MessageKind"), "{line_text}");

    // The defining file is present but declares no such enum at all:
    // reported at the file's start.
    let v = check_corpus(&[("crates/ring/src/messages.rs", "d9_billing.rs")]);
    assert_eq!(rules_of(&v), vec![RuleId::D9], "{v:?}");
    assert_eq!((v[0].line, v[0].col), (1, 1), "{v:?}");
    assert!(v[0].message.contains("checks nothing"), "{}", v[0].message);
}

#[test]
fn d10_flags_method_and_path_mutations_with_position() {
    let v = check_corpus(&[("crates/core/src/fixture.rs", "d10_violation.rs")]);
    assert_eq!(rules_of(&v), vec![RuleId::D10, RuleId::D10], "{v:?}");
    assert!(v[0].message.contains("bulk_join"), "{}", v[0].message);
    assert!(v[0].snippet.contains("net.bulk_join(4)"));
    assert!(v[1].message.contains("rewire_perfectly"), "{}", v[1].message);
    assert!(v[1].snippet.contains("Network::rewire_perfectly"));
    // Whitelisted reads (`len`) did not fire.
}

#[test]
fn d10_whitelisted_reads_and_reasoned_allow_are_clean() {
    let v = check_corpus(&[("crates/core/src/fixture.rs", "d10_allowed.rs")]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d10_does_not_apply_outside_the_sans_io_layer() {
    let v = check_corpus(&[("crates/sim/src/fixture.rs", "d10_violation.rs")]);
    assert!(v.is_empty(), "drivers own mutation: {v:?}");
}
