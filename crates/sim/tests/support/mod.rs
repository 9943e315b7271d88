//! Golden-fixture checks shared by the experiment test binaries
//! (`golden_experiments.rs`, `determinism.rs`) and the DST contract in
//! `dst_smoke.rs`.
//!
//! Fixtures live under `tests/golden/`: one `{id}_{i}.txt` and one
//! `{id}_{i}.csv` per rendered table, plus `dst_schedules.ron`. Setting
//! `GOLDEN_UPDATE=1` rewrites them instead of comparing.

#![allow(dead_code, reason = "each test binary uses a subset of these helpers")]

use dde_sim::report::Table;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `rendered` with fixture `name`, or rewrites the fixture under
/// `GOLDEN_UPDATE`.
pub fn check(name: &str, rendered: &str) {
    let path = fixture(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); run with GOLDEN_UPDATE=1"));
    assert_eq!(
        rendered, expected,
        "{name} drifted from its fixture; if intentional, regenerate with GOLDEN_UPDATE=1"
    );
}

/// Checks every table experiment `id` rendered against its fixtures.
pub fn check_tables(id: &str, tables: &[Table]) {
    assert!(!tables.is_empty(), "{id} produced no tables");
    for (i, table) in tables.iter().enumerate() {
        check(&format!("{id}_{i}.txt"), &table.to_text());
        check(&format!("{id}_{i}.csv"), &table.to_csv());
    }
}
