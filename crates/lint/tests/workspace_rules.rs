//! Cross-file rule behaviour (D10 sans-IO, D11 dead public API), driven
//! through `check_workspace` over fixture corpora with synthetic workspace
//! paths (rule scoping is path-driven, so the paths choose which rules are
//! live).

use lint::rules::RuleId;
use lint::{check_workspace, Violation};

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
fn d10_flags_ground_truth_reads_outside_tests() {
    let src = "fn peek(net: &Network, t: f64) -> u64 {\n    \
               net.total_items() + net.true_owner(t).0\n}\n\n\
               #[cfg(test)]\nmod tests {\n    \
               fn oracle(net: &Network, t: f64) -> u64 {\n        \
               net.total_items() + net.true_owner(t).0\n    }\n}\n";
    let v = check_workspace(&[("crates/core/src/fixture.rs".to_string(), src.to_string())]);
    assert_eq!(rules_of(&v), vec![RuleId::D10, RuleId::D10], "only the non-test reads: {v:?}");
    let line_text = src.lines().nth(1).expect("call line");
    for (violation, name) in v.iter().zip(["total_items", "true_owner"]) {
        assert!(violation.message.contains(name), "{}", violation.message);
        assert_eq!(violation.line, 2, "{violation:?}");
        assert_eq!(violation.col, line_text.find(name).expect("name on line") + 1);
    }
}

#[test]
fn d10_does_not_apply_outside_the_sans_io_layer() {
    let v = check_corpus(&[("crates/sim/src/fixture.rs", "d10_violation.rs")]);
    assert!(v.is_empty(), "drivers own mutation: {v:?}");
}

/// The names of the fns D11 reports, in report order.
fn dead_names(violations: &[Violation]) -> Vec<&str> {
    violations
        .iter()
        .map(|v| {
            assert_eq!(v.rule, RuleId::D11, "{v:?}");
            v.message.split('`').nth(1).expect("quoted fn").trim_start_matches("pub fn ")
        })
        .collect()
}

#[test]
fn d11_flags_pub_fns_named_elsewhere_only_in_comments_or_strings() {
    // A name used only by shipped code elsewhere is used: a sibling library
    // file, the `ring-dde` binary, the benchmark harness or an example.
    for user in [
        "crates/core/src/fixture_user.rs",
        "crates/cli/src/main.rs",
        "crates/cli/src/commands.rs",
        "ringbench/src/main.rs",
        "examples/demo.rs",
    ] {
        let v = check_corpus(&[
            ("crates/stats/src/fixture.rs", "d11_violation.rs"),
            (user, "d11_user.rs"),
        ]);
        let dead = ["mentioned_only", "called_here_only"];
        assert_eq!(dead_names(&v), dead, "{user}: {v:?}");
        // Reported at the fn's name.
        let src = fixture("d11_violation.rs");
        for (violation, name) in v.iter().zip(dead) {
            assert_eq!(violation.path, "crates/stats/src/fixture.rs");
            let line_text = src.lines().nth(violation.line - 1).expect("line exists");
            assert_eq!(line_text, format!("pub fn {name}() -> u64 {{"));
            assert_eq!(violation.col, line_text.find(name).expect("name on line") + 1);
        }
    }
}

#[test]
fn d11_skips_restricted_and_test_fns_and_needs_another_file() {
    // Without the user file, `called_elsewhere` is dead too; the
    // `pub(crate)` fn and the `#[cfg(test)]` helper are never reported.
    let v = check_corpus(&[("crates/stats/src/fixture.rs", "d11_violation.rs")]);
    assert_eq!(dead_names(&v), vec!["mentioned_only", "called_elsewhere", "called_here_only"]);
    // Binaries, tests and benches have no public API.
    let v = check_corpus(&[("crates/cli/src/fixture.rs", "d11_violation.rs")]);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn d11_counts_no_mention_in_code_that_cannot_ship() {
    // Tests, benches, the linter and the shims never call a library fn in
    // a shipped build, so a fn named only there is reported like one named
    // nowhere.
    let all_dead = ["mentioned_only", "called_elsewhere", "called_here_only"];
    for user in [
        "crates/stats/tests/props.rs",
        "tests/end_to_end.rs",
        "crates/ring/benches/lookup.rs",
        "crates/lint/src/fixture_user.rs",
        "shims/proptest/src/lib.rs",
    ] {
        let v = check_corpus(&[
            ("crates/stats/src/fixture.rs", "d11_violation.rs"),
            (user, "d11_user.rs"),
        ]);
        assert_eq!(dead_names(&v), all_dead, "{user}: {v:?}");
    }

    // Nor does a `#[cfg(test)]` module of another library file, while the
    // same call outside it counts.
    let user = fixture("d11_user.rs");
    let gated = format!("#[cfg(test)]\nmod tests {{\n{user}}}\n");
    for (src, dead) in [(gated, &all_dead[..]), (user, &["mentioned_only", "called_here_only"][..])]
    {
        let v = check_workspace(&[
            ("crates/stats/src/fixture.rs".to_string(), fixture("d11_violation.rs")),
            ("crates/core/src/fixture_user.rs".to_string(), src),
        ]);
        assert_eq!(dead_names(&v), dead, "{v:?}");
    }
}

#[test]
fn d11_counts_no_mention_in_a_use_declaration() {
    // A `pub use` re-export names a fn without calling it, so a fn that the
    // crate root re-exports and nothing calls is still reported, aliased or
    // not; an import counts only by the call its file then makes.
    let reexport = "pub use fixture::{called_elsewhere, mentioned_only};\n\
                    pub use fixture::called_here_only as renamed;\n";
    let importer = "use crate::fixture::called_elsewhere;\n\
                    fn caller() -> u64 {\n    called_elsewhere()\n}\n";
    let all_dead = ["mentioned_only", "called_elsewhere", "called_here_only"];
    for (user, src, dead) in [
        ("crates/stats/src/lib.rs", reexport, &all_dead[..]),
        ("crates/core/src/fixture_user.rs", importer, &["mentioned_only", "called_here_only"][..]),
    ] {
        let v = check_workspace(&[
            ("crates/stats/src/fixture.rs".to_string(), fixture("d11_violation.rs")),
            (user.to_string(), src.to_string()),
        ]);
        assert_eq!(dead_names(&v), dead, "{user}: {v:?}");
    }
}
