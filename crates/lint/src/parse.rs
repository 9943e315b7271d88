//! A lightweight Rust *item* parser on top of the [`crate::lexer`] code mask.
//!
//! Some rules need more than needles: the sans-IO boundary rule (D10)
//! classifies the calls inside each fn, and the dead-public-API rule (D11)
//! finds each `pub fn`. Neither needs a real Rust parser — they need
//! *items*: which functions exist, whether they are `pub`, and what they
//! call.
//!
//! [`parse`] extracts exactly that, in one deterministic pass over the code
//! mask (so items inside comments or string literals can never exist). The
//! parser is heuristic by design — it matches each `fn` body's braces and
//! records *candidate* call sites in it (an identifier directly followed by
//! `(`, or `.name(` method sugar); the rules decide which candidates matter.

use crate::lexer::Lexed;

/// A candidate call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Path segments as written: `["Network", "probe"]`, `["helper"]`.
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
    /// Whether the declaration is bare `pub` (`pub(crate)`, `pub(super)`
    /// and private fns are not).
    pub is_pub: bool,
    /// Byte offset of the `fn` keyword (for reporting).
    pub at: usize,
    /// Candidate call sites in the body (none for a bodyless declaration).
    pub calls: Vec<Call>,
}

/// Everything [`parse`] extracts from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
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

/// Splits the code mask into (token, byte offset) pairs.
fn tokenize(mask: &str) -> Vec<(Tok<'_>, usize)> {
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
    toks
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

/// Parses one lexed file into its items. Deterministic in the input text.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let toks = &tokenize(&lexed.mask);
    let mut out = ParsedFile::default();

    let mut i = 0;
    while i < toks.len() {
        // `fn` and a name; a bare `fn(u64) -> u64` is a type.
        let (Tok::Ident("fn"), Some(&(Tok::Ident(name), _))) = (toks[i].0, toks.get(i + 1)) else {
            i += 1;
            continue;
        };
        let at = toks[i].1;
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
        while j < toks.len() && toks[j].0 != Tok::Punct(b'{') && toks[j].0 != Tok::Punct(b';') {
            j += 1;
        }
        let mut calls = Vec::new();
        i = if toks.get(j).map(|t| t.0) == Some(Tok::Punct(b'{')) {
            let close = match_brace(toks, j);
            collect_calls(toks, j + 1, close, &mut calls);
            close + 1
        } else {
            j + 1
        };
        out.fns.push(FnItem { name: name.to_string(), is_pub, at, calls });
    }
    out
}
