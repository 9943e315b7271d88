//! `ddelint` — the workspace determinism/hygiene linter.
//!
//! Every guarantee this reproduction ships — byte-identical `--jobs N`
//! replay, 1-minimal DST repros, DKW-band accuracy assertions — rests on a
//! convention: all randomness flows through `SeedSequence`, no wall-clock or
//! ambient entropy feeds experiment results, no unordered-map iteration in
//! deterministic paths. Clippy holds the parts it can state with resolved
//! paths: ambient entropy and unordered maps through the root `clippy.toml`,
//! and `.unwrap()` through `clippy::unwrap_used` in the library crates. This
//! crate holds the rest. It is dependency-free (no `syn`; the workspace
//! builds offline): a byte-exact [`lexer`] classifies code vs comments vs
//! literals, [`parse`] lifts the mask into items (fns and their call sites),
//! [`rules`] defines the rule set, [`policy`] scopes each rule to paths, and
//! [`check`] applies the per-file rules (D2, D4–D6) plus the cross-file
//! passes — [`proto`] (D10 sans-IO boundary) and [`dead`] (D11 dead public
//! API) — with inline `// ddelint::allow(rule, reason)` escapes. [`emit`]
//! renders JSON and SARIF for CI code scanning.
//!
//! Run it as `cargo run -p lint -- check`. The rule set, the allow grammar,
//! and the procedure for adding a rule are documented in TESTING.md
//! §"Tier 0 — static analysis".

pub mod check;
pub mod dead;
pub mod emit;
pub mod lexer;
pub mod parse;
pub mod policy;
pub mod proto;
pub mod rules;

pub use check::{check_source, check_workspace, FileCheck, Violation};
pub use rules::RuleId;

use std::path::{Path, PathBuf};

/// Recursively collects every `.rs` file under `root` that the policy lints,
/// returned as sorted workspace-relative `/`-separated paths. The walk is
/// deterministic (sorted directory entries) so report order is stable.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for entry in entries {
            let rel = entry
                .strip_prefix(root)
                .unwrap_or(&entry)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if entry.is_dir() {
                if policy::linted(&format!("{rel}/")) && !rel.starts_with('.') {
                    stack.push(entry);
                }
            } else if rel.ends_with(".rs") && policy::linted(&rel) {
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Reads every linted file under `root` into `(path, source)` pairs, in
/// sorted path order.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    collect_files(root)?
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel))?;
            Ok((rel, src))
        })
        .collect()
}

/// Lints the whole tree under `root` — per-file rules plus the cross-file
/// passes — returning all violations in (path, line, col) order.
pub fn check_tree(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(check_workspace(&read_tree(root)?))
}
