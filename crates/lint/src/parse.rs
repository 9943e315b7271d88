//! A lightweight Rust *item* parser on top of the [`crate::lexer`] code mask.
//!
//! `ddelint` v2 needs more than needles: the determinism-taint rule (D8)
//! follows entropy through call chains, the sans-IO boundary rule (D10)
//! classifies method calls, and the dead-public-API rule (D11) finds who
//! names a `pub fn`. None of that needs a real Rust parser — it needs
//! *items*: which functions exist, what their signatures mention, what they
//! call, and what `use` declarations alias.
//!
//! [`parse`] extracts exactly that, in one deterministic pass over the code
//! mask (so items inside comments or string literals can never exist). The
//! parser is heuristic by design — it tracks brace depth, `mod`/`impl`
//! context, and `fn` body spans, and records *candidate* call sites (an
//! identifier directly followed by `(`, or `.name(` method sugar). The
//! symbol graph ([`crate::graph`]) decides what those candidates resolve to.

use crate::lexer::Lexed;

/// One `use` leaf: the name it binds locally and the path it came from.
///
/// `use std::collections::HashMap as Map;` yields
/// `{ name: "Map", segments: ["std", "collections", "HashMap"] }`; group
/// imports (`use a::{B, C as D}`) are expanded into one record per leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseAlias {
    /// The locally bound name (the alias, or the path's last segment).
    pub name: String,
    /// Full path segments of the imported item.
    pub segments: Vec<String>,
    /// Byte offset of the binding (for reporting).
    pub at: usize,
}

/// A candidate call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path segments as written: `["rand", "thread_rng"]`, `["helper"]`.
    /// For method calls, the single method name.
    pub segments: Vec<String>,
    /// Whether this was `.name(...)` method sugar.
    pub is_method: bool,
    /// For method calls: the receiver identifier directly before the dot
    /// (`net` in `net.probe(...)`), when the receiver is a plain identifier.
    pub receiver: Option<String>,
    /// Byte offset of the called name (for reporting).
    pub at: usize,
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type name, if any (`Network` for `impl Network`).
    pub impl_type: Option<String>,
    /// Enclosing in-file module path (`["tests"]` for `mod tests`).
    pub modules: Vec<String>,
    /// Whether the declaration is bare `pub` (`pub(crate)`, `pub(super)`
    /// and private fns are not).
    pub is_pub: bool,
    /// Signature text *after* the name (generics, params, return type) up to
    /// the body brace — what D8's seed-threading absolution inspects.
    pub sig: String,
    /// Byte offset of the `fn` keyword (for reporting).
    pub at: usize,
    /// Body byte span in the mask (empty for bodyless trait declarations).
    pub body: (usize, usize),
    /// Candidate call sites in the body.
    pub calls: Vec<Call>,
}

/// Everything [`parse`] extracts from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// `use` bindings, in file order.
    pub uses: Vec<UseAlias>,
    /// Functions, in file order.
    pub fns: Vec<FnItem>,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte ranges of `#[cfg(test)]`-gated items (modules or functions), found by
/// brace-matching in the code mask so braces inside literals can't confuse
/// the span.
pub fn test_regions(mask: &str) -> Vec<(usize, usize)> {
    let bytes = mask.as_bytes();
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(rel) = mask[from..].find("#[cfg(test)]") {
        let attr = from + rel;
        let mut i = attr + "#[cfg(test)]".len();
        // Walk to the gated item's opening brace; stop at `;` (a gated
        // `use`/`mod foo;` has no body to skip).
        let mut open = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    open = Some(i);
                    break;
                }
                b';' => break,
                _ => i += 1,
            }
        }
        if let Some(start) = open {
            let mut depth = 0usize;
            let mut j = start;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((attr, j + 1));
            from = j + 1;
        } else {
            from = i.max(attr + 1);
        }
    }
    regions
}

/// Whether `byte` falls inside any of `regions`.
pub fn in_regions(regions: &[(usize, usize)], byte: usize) -> bool {
    regions.iter().any(|&(a, b)| byte >= a && byte < b)
}

/// A token over the code mask: identifiers and single punctuation bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Punct(u8),
}

struct Tokens<'a> {
    mask: &'a str,
    /// (token, byte offset) pairs.
    toks: Vec<(Tok<'a>, usize)>,
}

fn tokenize(mask: &str) -> Tokens<'_> {
    let b = mask.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if is_ident_byte(c) {
            let start = i;
            while i < b.len() && is_ident_byte(b[i]) {
                i += 1;
            }
            toks.push((Tok::Ident(&mask[start..i]), start));
        } else if c.is_ascii() {
            toks.push((Tok::Punct(c), i));
            i += 1;
        } else {
            i += 1;
        }
    }
    Tokens { mask, toks }
}

/// Matches the brace opened at token index `open` (must be `{`), returning
/// the token index of the closing `}` (or the last token).
fn match_brace(toks: &[(Tok<'_>, usize)], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].0 {
            Tok::Punct(b'{') => depth += 1,
            Tok::Punct(b'}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len() - 1
}

/// Expands one `use` declaration body (text between `use` and `;`) into
/// leaves. Handles `::`-paths, `as` aliases, and nested `{...}` groups.
fn expand_use(text: &str, prefix: &[String], at: usize, out: &mut Vec<UseAlias>) {
    let text = text.trim().trim_start_matches("::");
    // Split off a group suffix: `a::b::{...}`.
    if let Some(brace) = text.find('{') {
        let head = text[..brace].trim().trim_end_matches("::");
        let mut pre = prefix.to_vec();
        pre.extend(head.split("::").map(str::trim).filter(|s| !s.is_empty()).map(String::from));
        let inner = text[brace + 1..].rsplit_once('}').map_or("", |(i, _)| i);
        // Split the group on top-level commas only.
        let mut depth = 0usize;
        let mut part = String::new();
        let mut parts = Vec::new();
        for c in inner.chars() {
            match c {
                '{' => {
                    depth += 1;
                    part.push(c);
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    part.push(c);
                }
                ',' if depth == 0 => {
                    parts.push(std::mem::take(&mut part));
                }
                _ => part.push(c),
            }
        }
        parts.push(part);
        for p in parts {
            if !p.trim().is_empty() {
                expand_use(&p, &pre, at, out);
            }
        }
        return;
    }
    // Plain path, possibly aliased.
    let (path, alias) = match text.split_once(" as ") {
        Some((p, a)) => (p.trim(), Some(a.trim())),
        None => (text, None),
    };
    let segments: Vec<String> = prefix
        .iter()
        .cloned()
        .chain(path.split("::").map(str::trim).filter(|s| !s.is_empty()).map(String::from))
        .collect();
    let Some(last) = segments.last() else { return };
    if last == "*" {
        return; // Glob imports carry no binding we can resolve.
    }
    let name = alias.unwrap_or(last).to_string();
    if name == "self" {
        // `use a::b::{self}` binds `b`.
        let mut segments = segments;
        segments.pop();
        if let Some(last) = segments.last().cloned() {
            out.push(UseAlias { name: last, segments, at });
        }
        return;
    }
    out.push(UseAlias { name, segments, at });
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "return", "loop", "fn", "in", "as", "move", "else", "where"];

/// Collects candidate call sites between token indexes `from..to`.
fn collect_calls(toks: &[(Tok<'_>, usize)], from: usize, to: usize, out: &mut Vec<Call>) {
    let mut i = from;
    while i < to {
        let (Tok::Ident(name), at) = toks[i] else {
            i += 1;
            continue;
        };
        // Must be directly followed by `(`.
        if i + 1 >= to || toks[i + 1].0 != Tok::Punct(b'(') {
            i += 1;
            continue;
        }
        if CALL_KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        // Method sugar: `.name(`.
        if i >= 1 && toks[i - 1].0 == Tok::Punct(b'.') {
            let receiver = if i >= 2 {
                match toks[i - 2].0 {
                    Tok::Ident(r) => Some(r.to_string()),
                    _ => None,
                }
            } else {
                None
            };
            out.push(Call { segments: vec![name.to_string()], is_method: true, receiver, at });
            i += 1;
            continue;
        }
        // Free or path-qualified call: walk `seg:: seg:: name` backwards.
        let mut segs = vec![name.to_string()];
        let mut j = i;
        while j >= 3
            && toks[j - 1].0 == Tok::Punct(b':')
            && toks[j - 2].0 == Tok::Punct(b':')
            && matches!(toks[j - 3].0, Tok::Ident(_))
        {
            if let Tok::Ident(seg) = toks[j - 3].0 {
                segs.insert(0, seg.to_string());
            }
            j -= 3;
        }
        // A struct-literal guard: `Name (` after `struct` etc. is unlikely;
        // tuple-struct construction (`Some(x)`, `RingId(v)`) resolves to no
        // workspace fn and costs nothing.
        out.push(Call { segments: segs, is_method: false, receiver: None, at });
        i += 1;
    }
}

/// The `impl` header's type name: the last path segment before `{`, taking
/// the `for Type` side of trait impls.
fn impl_type_name(toks: &[(Tok<'_>, usize)], mut i: usize, end: usize) -> Option<String> {
    // Prefer the segment after `for` (trait impls name the trait first).
    let mut for_at = None;
    let mut j = i;
    while j < end {
        if toks[j].0 == Tok::Ident("for") {
            for_at = Some(j);
        }
        j += 1;
    }
    if let Some(f) = for_at {
        i = f + 1;
    }
    let mut last = None;
    let mut k = i;
    while k < end {
        match toks[k].0 {
            Tok::Ident(name) => {
                // Skip lifetimes (`'a`): preceded by a quote.
                if k >= 1 && toks[k - 1].0 == Tok::Punct(b'\'') {
                    k += 1;
                    continue;
                }
                last = Some(name.to_string());
            }
            // Generic args of the type we already captured; stop at the
            // first angle after a captured name to avoid `Vec<RingId>`
            // overwriting `Vec` with `RingId`.
            Tok::Punct(b'<') if last.is_some() => break,
            _ => {}
        }
        k += 1;
    }
    last
}

/// Parses one lexed file into its items. Deterministic in the input text.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let tokens = tokenize(&lexed.mask);
    let toks = &tokens.toks;
    let mut out = ParsedFile::default();

    // Context stacks, driven by brace depth.
    let mut depth = 0usize;
    let mut mod_stack: Vec<(String, usize)> = Vec::new();
    let mut impl_stack: Vec<(String, usize)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let (tok, at) = toks[i];
        match tok {
            Tok::Punct(b'{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                while mod_stack.last().is_some_and(|&(_, d)| d == depth) {
                    mod_stack.pop();
                }
                while impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                    impl_stack.pop();
                }
                i += 1;
            }
            Tok::Ident("use") => {
                // Capture to the terminating `;`.
                let mut j = i + 1;
                while j < toks.len() && toks[j].0 != Tok::Punct(b';') {
                    j += 1;
                }
                let end_byte = toks.get(j).map_or(lexed.mask.len(), |&(_, b)| b);
                let text = &tokens.mask[toks[i + 1].1.min(end_byte)..end_byte];
                expand_use(text, &[], at, &mut out.uses);
                i = j + 1;
            }
            Tok::Ident("mod") => {
                if let Some(&(Tok::Ident(name), _)) = toks.get(i + 1) {
                    if toks.get(i + 2).map(|t| t.0) == Some(Tok::Punct(b'{')) {
                        mod_stack.push((name.to_string(), depth));
                    }
                }
                i += 1;
            }
            Tok::Ident("impl") => {
                // Find the body `{`; `impl Trait for Type { ... }`.
                let mut j = i + 1;
                while j < toks.len()
                    && toks[j].0 != Tok::Punct(b'{')
                    && toks[j].0 != Tok::Punct(b';')
                {
                    j += 1;
                }
                if toks.get(j).map(|t| t.0) == Some(Tok::Punct(b'{')) {
                    if let Some(name) = impl_type_name(toks, i + 1, j) {
                        impl_stack.push((name, depth));
                    }
                }
                i += 1;
            }
            Tok::Ident("fn") => {
                let Some(&(Tok::Ident(name), _)) = toks.get(i + 1) else {
                    i += 1; // `fn(u64) -> u64` type position.
                    continue;
                };
                // `pub` / `pub(crate)` lookback (attributes may intervene but
                // visibility sits directly in the keyword run before `fn`).
                let mut is_pub = false;
                let mut restricted = false;
                let mut back = i;
                while back > 0 {
                    back -= 1;
                    match toks[back].0 {
                        Tok::Ident("pub") => {
                            is_pub = !restricted;
                            break;
                        }
                        Tok::Punct(b')') => restricted = true,
                        Tok::Ident("const" | "unsafe" | "async" | "extern" | "crate")
                        | Tok::Punct(b'(') => {}
                        _ => break,
                    }
                }
                // Signature runs to the body `{` or a `;`.
                let mut j = i + 2;
                while j < toks.len()
                    && toks[j].0 != Tok::Punct(b'{')
                    && toks[j].0 != Tok::Punct(b';')
                {
                    j += 1;
                }
                let sig_start = toks.get(i + 2).map_or(lexed.mask.len(), |&(_, b)| b);
                let sig_end = toks.get(j).map_or(lexed.mask.len(), |&(_, b)| b);
                let sig = lexed.mask[sig_start.min(sig_end)..sig_end].to_string();
                let (body, calls, next) = if toks.get(j).map(|t| t.0) == Some(Tok::Punct(b'{')) {
                    let close = match_brace(toks, j);
                    let mut calls = Vec::new();
                    collect_calls(toks, j + 1, close, &mut calls);
                    let span =
                        (toks[j].1, toks.get(close).map_or(lexed.mask.len(), |&(_, b)| b + 1));
                    (span, calls, close + 1)
                } else {
                    ((sig_end, sig_end), Vec::new(), j + 1)
                };
                out.fns.push(FnItem {
                    name: name.to_string(),
                    impl_type: impl_stack.last().map(|(n, _)| n.clone()),
                    modules: mod_stack.iter().map(|(n, _)| n.clone()).collect(),
                    is_pub,
                    sig,
                    at,
                    body,
                    calls,
                });
                i = next;
            }
            _ => i += 1,
        }
    }
    out
}
