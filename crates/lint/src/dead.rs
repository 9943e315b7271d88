//! D11 (`dead-pub`) — public functions that no shipped code outside their
//! file names.
//!
//! A bare-`pub` fn in library src, outside `#[cfg(test)]`, must be named in
//! the code mask of at least one *other* file whose code can ship a call
//! ([`policy::ships`]): a sibling module or dependent library crate, the
//! `ring-dde` binary, the benchmark harness or an example, in each case
//! outside `#[cfg(test)]`. A mention in a test, a bench, the linter or a
//! `#[cfg(test)]` region does not count, so a fn that only tests call is
//! reported, and with it the library code it alone keeps alive.
//! Neither does a `use` declaration: a `pub use` re-export in a `mod.rs`
//! names a fn but calls nothing.
//! Otherwise it is dead, or private in all but name, and the `pub` hides it
//! from rustc's `dead_code` lint. Mentions in comments and string literals
//! do not count either (the mask blanks them). `pub(crate)` fns are rustc's
//! to guard and are not reported.
//!
//! The check is by name alone, so it cannot see a method whose name another
//! type's method shares: any mention of the name counts as a use.

use std::collections::{BTreeMap, BTreeSet};

use crate::check::{snippet_at, FileCheck, Violation};
use crate::parse::FnItem;
use crate::policy;
use crate::rules::RuleId;

/// The fns D11 polices in `file`: bare `pub`, outside `#[cfg(test)]`, in
/// library src.
fn policed(file: &FileCheck) -> impl Iterator<Item = &FnItem> {
    let applies = policy::applies(RuleId::D11, &file.path);
    file.parsed.fns.iter().filter(move |f| applies && f.is_pub && !file.in_test_region(f.at))
}

/// The identifiers in `file`'s shipped code, its code mask outside
/// `#[cfg(test)]` regions and `use` declarations; none for a file whose
/// code cannot ship. A `use`, `pub use` re-exports included, names a fn
/// without calling it.
fn shipped_words(file: &FileCheck) -> impl Iterator<Item = &str> {
    let mask = if policy::ships(&file.path) { file.lexed.mask.as_str() } else { "" };
    let mut start = 0;
    let mut use_end = 0;
    mask.char_indices()
        .chain(std::iter::once((mask.len(), ' ')))
        .filter_map(move |(i, c)| {
            if c.is_ascii_alphanumeric() || c == '_' {
                return None;
            }
            let word = (start, &mask[start..i]);
            start = i + c.len_utf8();
            (!word.1.is_empty()).then_some(word)
        })
        .filter(move |&(at, word)| {
            if word == "use" {
                use_end = mask[at..].find(';').map_or(mask.len(), |end| at + end);
            }
            at >= use_end
        })
        .filter(|&(at, _)| !file.in_test_region(at))
        .map(|(_, word)| word)
}

/// Runs the D11 pass, appending a violation at the name of each policed fn
/// that no other file's shipped code names.
pub fn check_d11(files: &mut [FileCheck]) {
    // How many files name each policed fn in shipped code. The defining file
    // always does (the declaration sits outside test regions in library
    // src), so a fn is used elsewhere exactly when at least two files do.
    let mut naming_files: BTreeMap<String, usize> =
        files.iter().flat_map(policed).map(|f| (f.name.clone(), 0)).collect();
    for file in files.iter() {
        let mut seen = BTreeSet::new();
        for word in shipped_words(file) {
            if let Some(count) = naming_files.get_mut(word) {
                if seen.insert(word) {
                    *count += 1;
                }
            }
        }
    }
    for file in files.iter_mut() {
        let dead: Vec<(usize, String)> = policed(file)
            .filter(|f| naming_files[&f.name] < 2)
            .map(|f| {
                // Report at the name: skip `fn` and the whitespace after it.
                let rest = &file.lexed.mask[f.at + 2..];
                (f.at + 2 + (rest.len() - rest.trim_start().len()), f.name.clone())
            })
            .collect();
        for (at, name) in dead {
            let (line, col) = file.lexed.pos(at);
            let message = format!(
                "`pub fn {name}` is named by no shipped code in another file (tests, benches \
                 and `#[cfg(test)]` code do not count) — delete it, or drop the `pub` so \
                 rustc's dead_code lint guards it"
            );
            let snippet = snippet_at(&file.src, &file.lexed, at);
            let path = file.path.clone();
            file.push(Violation { path, line, col, rule: RuleId::D11, message, snippet });
        }
    }
}
