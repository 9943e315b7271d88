//! D9 (message-exhaustiveness) and D10 (sans-IO boundary) — the structural
//! protocol-conformance rules.
//!
//! **D9.** The policy declares, per protocol enum ([`policy::EXHAUSTIVE_ENUMS`]),
//! the places every variant must appear: a handler arm in a named fn, a
//! listing in a registry const, a `MessageStats` billing call somewhere
//! outside the defining file. Adding a variant without wiring all of them
//! fails `cargo test` at the variant's declaration line. The checks are
//! textual-within-structure: each requirement searches the code mask
//! *inside the byte span* of the named fn (found by the item parser), so a
//! mention in a comment or an unrelated fn can never satisfy it. An entry
//! whose defining file is present but shows the parser no variants (the
//! enum is gone, empty, or declared inside a macro) would pass while
//! checking nothing, so it is itself a violation, reported at the file.
//!
//! **D10.** Estimator/probe/routing-policy modules ([`policy::d10_file`])
//! must stay sans-IO: they may probe the `Network`, read what a peer could
//! see, and bill stats, but direct topology/data mutation
//! (`net.insert(...)`, `net.build(...)`, `net.join(...)`) is left to the
//! simulation layer, and so is the ground truth estimates are scored against
//! (`net.total_items()`, `net.true_owner(...)`). Method calls on a `net` /
//! `network` receiver (and `Network::` paths) outside
//! [`policy::NETWORK_READ_WHITELIST`] are violations — the static
//! pre-enforcement of a `(incoming message, state) → outgoing messages`
//! discipline.

use crate::check::{snippet_at, FileCheck, Violation};
use crate::policy::{self, Requirement};
use crate::rules::RuleId;

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds ident-bounded `needle` occurrences in `hay`, returning offsets.
fn ident_hits(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut hits = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        from = at + 1;
        let head = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let tail = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if head && tail {
            hits.push(at);
        }
    }
    hits
}

/// Whether `hay` (a fn body or const initializer in the mask) references
/// `Enum::Variant` — the ident-bounded variant name directly preceded by
/// `::`, so a local named like a variant cannot satisfy an arm requirement.
fn has_qualified_variant(hay: &str, variant: &str) -> bool {
    ident_hits(hay, variant).iter().any(|&at| at >= 2 && &hay[at - 2..at] == "::")
}

/// The byte span of the initializer of `const NAME` in the mask (from its
/// `[` or `{` to the matching close), or `None`.
fn const_span(mask: &str, name: &str) -> Option<(usize, usize)> {
    let bytes = mask.as_bytes();
    for at in ident_hits(mask, name) {
        // Expect `const NAME` — look back over whitespace for `const`.
        let head = mask[..at].trim_end();
        if !head.ends_with("const") {
            continue;
        }
        // Walk forward to the `=`, tolerating `;` inside the type's array
        // brackets (`const ALL: [MessageKind; KIND_COUNT] = [...]`).
        let mut i = at + name.len();
        let mut ty_depth = 0usize;
        while i < bytes.len() {
            match bytes[i] {
                b'[' | b'<' | b'(' => ty_depth += 1,
                b']' | b'>' | b')' => ty_depth = ty_depth.saturating_sub(1),
                b'=' if ty_depth == 0 => break,
                b';' if ty_depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        if i >= bytes.len() || bytes[i] != b'=' {
            continue;
        }
        while i < bytes.len() && bytes[i] != b'[' && bytes[i] != b'{' && bytes[i] != b';' {
            i += 1;
        }
        if i >= bytes.len() || bytes[i] == b';' {
            continue;
        }
        let open = bytes[i];
        let close = if open == b'[' { b']' } else { b'}' };
        let start = i;
        let mut depth = 0usize;
        while i < bytes.len() {
            if bytes[i] == open {
                depth += 1;
            } else if bytes[i] == close {
                depth -= 1;
                if depth == 0 {
                    return Some((start, i + 1));
                }
            }
            i += 1;
        }
    }
    None
}

/// Union of body spans of every fn named `func` in `file` (match arms for
/// one enum may live in `fmt` impls for several types in the same file).
fn fn_bodies(file: &FileCheck, func: &str) -> Vec<(usize, usize)> {
    file.parsed
        .fns
        .iter()
        .filter(|f| f.name == func && f.body.1 > f.body.0)
        .map(|f| f.body)
        .collect()
}

/// Runs the D9 pass over all files, appending violations to the enum's
/// defining file at each unwired variant's declaration line.
pub fn check_d9(files: &mut [FileCheck]) {
    for spec in policy::EXHAUSTIVE_ENUMS {
        let Some(def_idx) = files.iter().position(|f| f.path == spec.file) else {
            continue; // Defining file absent (partial fixture corpus) — no law to enforce.
        };
        let variants: Vec<(String, usize)> = files[def_idx]
            .parsed
            .enums
            .iter()
            .filter(|e| e.name == spec.enum_name)
            .flat_map(|e| e.variants.iter().map(|v| (v.name.clone(), v.at)))
            .collect();
        if variants.is_empty() {
            report_vacuous(&mut files[def_idx], spec.enum_name);
            continue;
        }
        for (variant, at) in variants {
            let mut missing: Vec<String> = Vec::new();
            for req in spec.requirements {
                let ok = match req {
                    Requirement::ArmIn { file, func, .. } => {
                        files.iter().filter(|f| f.path == *file).any(|f| {
                            fn_bodies(f, func)
                                .iter()
                                .any(|&(a, b)| has_qualified_variant(&f.lexed.mask[a..b], &variant))
                        })
                    }
                    Requirement::ListedIn { file, const_name, .. } => {
                        files.iter().filter(|f| f.path == *file).any(|f| {
                            const_span(&f.lexed.mask, const_name).is_some_and(|(a, b)| {
                                has_qualified_variant(&f.lexed.mask[a..b], &variant)
                            })
                        })
                    }
                    Requirement::Billed { fns, .. } => files.iter().any(|f| {
                        if f.path == spec.file {
                            return false; // Billing must happen at use sites.
                        }
                        let qualified = format!("{}::{}", spec.enum_name, variant);
                        ident_hits(&f.lexed.mask, &qualified).iter().any(|&hit| {
                            if f.in_test_region(hit) {
                                return false;
                            }
                            let head = f.lexed.mask[..hit].trim_end();
                            let Some(head) = head.strip_suffix('(') else {
                                return false;
                            };
                            let head = head.trim_end();
                            fns.iter().any(|b| {
                                head.ends_with(b)
                                    && !head.as_bytes()[..head.len() - b.len()]
                                        .last()
                                        .copied()
                                        .is_some_and(is_ident_byte)
                            })
                        })
                    }),
                };
                if !ok {
                    missing.push(req.describe().to_string());
                }
            }
            if missing.is_empty() {
                continue;
            }
            let (line, col) = files[def_idx].lexed.pos(at);
            let message = format!(
                "variant `{}::{}` is not fully wired: missing {}",
                spec.enum_name,
                variant,
                missing.join("; ")
            );
            let snippet = snippet_at(&files[def_idx].src, &files[def_idx].lexed, at);
            let path = files[def_idx].path.clone();
            files[def_idx].push(Violation { path, line, col, rule: RuleId::D9, message, snippet });
        }
    }
}

/// Reports a D9 entry that checks nothing: its defining file is present,
/// but the parser sees no variants of `enum_name` there. Points at the
/// enum's name when the file still declares it, else at the file's start.
fn report_vacuous(file: &mut FileCheck, enum_name: &str) {
    let mask = &file.lexed.mask;
    let at = ident_hits(mask, enum_name)
        .into_iter()
        .find(|&at| mask[..at].trim_end().ends_with("enum"))
        .unwrap_or(0);
    let (line, col) = file.lexed.pos(at);
    let message = format!(
        "policy entry for `{enum_name}` checks nothing: the parser sees no `{enum_name}` \
         variants in this file (enum missing, empty, or declared inside a macro) — \
         declare them here or drop the entry"
    );
    let snippet = snippet_at(&file.src, &file.lexed, at);
    let path = file.path.clone();
    file.push(Violation { path, line, col, rule: RuleId::D9, message, snippet });
}

/// Runs the D10 pass, appending violations to each offending file.
pub fn check_d10(files: &mut [FileCheck]) {
    for file in files.iter_mut() {
        if !policy::applies(RuleId::D10, &file.path) {
            continue;
        }
        let mut found: Vec<(usize, String)> = Vec::new();
        for f in &file.parsed.fns {
            if file.in_test_region(f.at) {
                continue;
            }
            for call in &f.calls {
                let name = call.segments.last().map_or("", String::as_str);
                let flagged = if call.is_method {
                    matches!(call.receiver.as_deref(), Some("net" | "network"))
                        && !policy::NETWORK_READ_WHITELIST.contains(&name)
                } else {
                    call.segments.len() >= 2
                        && call.segments[call.segments.len() - 2] == "Network"
                        && !policy::NETWORK_READ_WHITELIST.contains(&name)
                };
                if flagged {
                    found.push((
                        call.at,
                        format!(
                            "`Network` call `{name}` outside the sans-IO probe/read/billing \
                             whitelist — mutation and ground truth belong to the driver \
                             (see DESIGN.md §7)"
                        ),
                    ));
                }
            }
        }
        for (at, message) in found {
            let (line, col) = file.lexed.pos(at);
            let snippet = snippet_at(&file.src, &file.lexed, at);
            let path = file.path.clone();
            file.push(Violation { path, line, col, rule: RuleId::D10, message, snippet });
        }
    }
}
