//! Machine-readable report formats: plain JSON and SARIF 2.1.0.
//!
//! Both emitters are hand-rolled (the workspace builds offline; no serde)
//! and deterministic: rules in declaration order, results in the order the
//! checker produced them, no timestamps. CI uploads the SARIF artifact to
//! GitHub code scanning so violations annotate the PR diff.

use crate::check::Violation;
use crate::rules::RuleId;

/// All rules in declaration order, for rule tables.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::D1,
    RuleId::D2,
    RuleId::D3,
    RuleId::D4,
    RuleId::D5,
    RuleId::D6,
    RuleId::D8,
    RuleId::D9,
    RuleId::D10,
    RuleId::D11,
    RuleId::A0,
    RuleId::A1,
];

/// Escapes a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders violations as the `ddelint` JSON report.
///
/// Deterministic: field order is fixed and no environment (time, host,
/// absolute paths) leaks in — the golden-fixture test byte-compares output.
pub fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("{\n  \"tool\": \"ddelint\",\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"name\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}",
            esc(&v.path),
            v.line,
            v.col,
            v.rule.code(),
            v.rule.name(),
            esc(&v.message),
            esc(&v.snippet),
        ));
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", violations.len()));
    out
}

/// Renders violations as a minimal SARIF 2.1.0 log (one run, one driver,
/// every rule in the driver's rule table, one result per violation).
///
/// Deterministic for the same input corpus — see [`to_json`].
pub fn to_sarif(violations: &[Violation]) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"ddelint\",\n          \
         \"informationUri\": \"https://example.invalid/ddelint\",\n          \"rules\": [",
    );
    for (i, rule) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"name\": \"{}\", \
             \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.code(),
            rule.name(),
            esc(rule.describe()),
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \
             \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            \
             {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}\n          ]\n        }}",
            v.rule.code(),
            esc(&format!("{}[{}] {}", v.rule.code(), v.rule.name(), v.message)),
            esc(&v.path),
            v.line,
            v.col,
        ));
    }
    if !violations.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}
