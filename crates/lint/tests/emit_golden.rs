//! Golden outputs for the machine formats: the JSON and SARIF renderings of
//! a fixed fixture corpus are byte-compared against checked-in files, so any
//! change to the wire format is a visible diff in review (CI uploads the
//! SARIF to code scanning — silent drift there is a broken dashboard).
//!
//! Re-bless after an intentional change with:
//! `GOLDEN_UPDATE=1 cargo test -p lint --test emit_golden`

use lint::{check_workspace, emit};

fn fixture(file: &str) -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/");
    std::fs::read_to_string(format!("{dir}{file}")).expect("fixture exists")
}

fn golden_path(file: &str) -> String {
    format!("{}{file}", concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/"))
}

/// One violation per rule family: D3 (alias), D8 (taint chain), D10
/// (boundary). Paths are synthetic but realistic, so the golden files double
/// as format documentation.
fn corpus() -> Vec<(String, String)> {
    [
        ("crates/ring/src/fixture.rs", "d3_alias_violation.rs"),
        ("crates/stats/src/rng.rs", "d8_source.rs"),
        ("crates/stats/src/ecdf.rs", "d8_violation.rs"),
        ("crates/core/src/fixture.rs", "d10_violation.rs"),
    ]
    .into_iter()
    .map(|(path, file)| (path.to_string(), fixture(file)))
    .collect()
}

fn compare(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, got).expect("golden dir is writable");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("{name} missing — bless with GOLDEN_UPDATE=1"));
    assert_eq!(got, want, "{name} drifted — bless with GOLDEN_UPDATE=1 if intentional");
}

#[test]
fn json_output_is_byte_stable() {
    compare("violations.json", &emit::to_json(&check_workspace(&corpus())));
}

#[test]
fn sarif_output_is_byte_stable() {
    compare("violations.sarif", &emit::to_sarif(&check_workspace(&corpus())));
}

#[test]
fn empty_reports_are_well_formed() {
    let json = emit::to_json(&[]);
    assert!(json.contains("\"count\": 0"), "{json}");
    let sarif = emit::to_sarif(&[]);
    assert!(sarif.contains("\"results\": []") || sarif.contains("\"results\": [\n"), "{sarif}");
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
}
