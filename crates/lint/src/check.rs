//! Rule checking: the per-file passes (needle scan, `#[cfg(test)]` regions,
//! the `ddelint::allow` grammar, D3 alias resolution, the D6 doc-contract
//! rule) and the workspace-level orchestration that layers the cross-file
//! rules (D8 taint, D10 sans-IO, D11 dead public API) on top.
//!
//! A [`FileCheck`] holds one file's lexed mask, parsed items, allows, and
//! accumulated raw violations. [`check_workspace`] builds one per file,
//! runs the per-file passes, hands the set to the graph-based passes, and
//! only then applies allows — so a `ddelint::allow(det-taint, ...)` works
//! exactly like an allow for a needle rule, and a stale one still trips A1.

use crate::graph::SymbolGraph;
use crate::lexer::{lex, Lexed};
use crate::parse::{in_regions, parse, test_regions, ParsedFile};
use crate::policy;
use crate::rules::{Boundary, RuleId, NEEDLES};
use crate::{dead, proto, taint};

use std::collections::BTreeSet;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// Which rule fired.
    pub rule: RuleId,
    /// What went wrong.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}] {} — `{}`",
            self.path,
            self.line,
            self.col,
            self.rule.code(),
            self.rule.name(),
            self.message,
            self.snippet
        )
    }
}

/// A parsed `ddelint::allow(rule, reason)` escape.
#[derive(Debug)]
struct Allow {
    rule: RuleId,
    /// Lines this allow covers: its own line, plus the next code-bearing
    /// line when the allow stands alone on its line.
    lines: Vec<usize>,
    /// Where the allow itself sits (for A1 reporting).
    line: usize,
    col: usize,
    at: usize,
    used: bool,
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts the trimmed source line containing `byte`, capped for display.
pub(crate) fn snippet_at(src: &str, lexed: &Lexed, byte: usize) -> String {
    let (line, _) = lexed.pos(byte);
    let (start, end) = lexed.line_span(line);
    let text = src[start..end].trim();
    if text.len() > 90 {
        let mut cut = 87;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &text[..cut])
    } else {
        text.to_string()
    }
}

/// Parses every `ddelint::allow(rule, reason)` escape in the file's
/// comments. Malformed escapes become `A0` violations immediately.
fn parse_allows(src: &str, lexed: &Lexed, path: &str, out: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in &lexed.comments {
        // Escapes live in plain comments only; doc comments are prose and may
        // quote the allow grammar without being parsed as escapes.
        if comment.text.starts_with("///")
            || comment.text.starts_with("//!")
            || comment.text.starts_with("/**")
            || comment.text.starts_with("/*!")
        {
            continue;
        }
        let mut search = 0;
        while let Some(rel) = comment.text[search..].find("ddelint::allow") {
            let key = search + rel;
            let at = comment.start + key;
            let (line, col) = lexed.pos(at);
            let after = &comment.text[key + "ddelint::allow".len()..];
            search = key + "ddelint::allow".len();
            let mut bad = |msg: String| {
                out.push(Violation {
                    path: path.to_string(),
                    line,
                    col,
                    rule: RuleId::A0,
                    message: msg,
                    snippet: snippet_at(src, lexed, at),
                });
            };
            let Some(body) = after.strip_prefix('(').and_then(|rest| {
                // Find the matching close paren, tolerating parens in the
                // reason text.
                let mut depth = 1usize;
                for (i, c) in rest.char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(&rest[..i]);
                            }
                        }
                        _ => {}
                    }
                }
                None
            }) else {
                bad("allow must be written `ddelint::allow(rule, reason)`".to_string());
                continue;
            };
            let Some((rule_txt, reason)) = body.split_once(',') else {
                bad(format!(
                    "allow `({})` is missing a reason — every escape must say why",
                    body.trim()
                ));
                continue;
            };
            let rule_txt = rule_txt.trim();
            let Some(rule) = RuleId::parse(rule_txt) else {
                bad(format!("unknown rule `{rule_txt}` in allow"));
                continue;
            };
            if !rule.allowable() {
                bad(format!("rule {} cannot be allowed away", rule.code()));
                continue;
            }
            let reason = reason.trim().trim_matches('"').trim();
            if reason.is_empty() {
                bad(format!("allow for {} has an empty reason", rule.code()));
                continue;
            }
            // Coverage: the allow's own line, plus — when nothing but the
            // comment occupies that line — the next line carrying code.
            let mut lines = vec![line];
            let (ls, le) = lexed.line_span(line);
            let own_line_code = lexed.mask[ls..le].trim();
            if own_line_code.is_empty() {
                let mut next = line + 1;
                while next <= lexed.line_count() {
                    let (ns, ne) = lexed.line_span(next);
                    if !lexed.mask[ns..ne].trim().is_empty() {
                        lines.push(next);
                        break;
                    }
                    next += 1;
                }
            }
            allows.push(Allow { rule, lines, line, col, at, used: false });
        }
    }
    allows
}

/// One file mid-lint: lexed, parsed, allows collected, raw violations
/// accumulating. The workspace passes append to `raw` via [`FileCheck::push`];
/// [`FileCheck::finish`] applies allows and reports stale ones.
pub struct FileCheck {
    /// Workspace-relative path (rule scoping is path-driven).
    pub path: String,
    /// Original source text.
    pub src: String,
    /// Lexed mask and comment list.
    pub lexed: Lexed,
    /// Parsed items (fns, uses).
    pub parsed: ParsedFile,
    regions: Vec<(usize, usize)>,
    allows: Vec<Allow>,
    raw: Vec<Violation>,
}

impl FileCheck {
    /// Lexes, parses, and runs all per-file passes on one file.
    pub fn new(path: &str, src: &str) -> Self {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let regions = test_regions(&lexed.mask);
        let mut raw = Vec::new();
        let allows = parse_allows(src, &lexed, path, &mut raw);
        let mut fc = Self {
            path: path.to_string(),
            src: src.to_string(),
            lexed,
            parsed,
            regions,
            allows,
            raw,
        };
        fc.scan_needles();
        fc.check_d3_aliases();
        fc.check_d6();
        fc
    }

    /// Whether `byte` sits inside a `#[cfg(test)]` region.
    pub fn in_test_region(&self, byte: usize) -> bool {
        in_regions(&self.regions, byte)
    }

    /// Lines covered by an allow for `rule` (for taint-source defusing).
    pub fn allowed_lines(&self, rule: RuleId) -> BTreeSet<usize> {
        self.allows
            .iter()
            .filter(|a| a.rule == rule)
            .flat_map(|a| a.lines.iter().copied())
            .collect()
    }

    /// Appends a raw violation (allows are applied at [`FileCheck::finish`]).
    pub fn push(&mut self, v: Violation) {
        self.raw.push(v);
    }

    /// Scans the code mask for the textual needles (D1–D5).
    fn scan_needles(&mut self) {
        let mask = self.lexed.mask.as_bytes();
        for needle in NEEDLES {
            if !policy::applies(needle.rule, &self.path) {
                continue;
            }
            let pat = needle.text.as_bytes();
            let mut from = 0;
            while let Some(rel) = self.lexed.mask[from..].find(needle.text) {
                let at = from + rel;
                from = at + 1;
                let head_ok = match needle.boundary {
                    Boundary::Ident => at == 0 || !is_ident_byte(mask[at - 1]),
                    Boundary::Exact => true,
                };
                let end = at + pat.len();
                let tail_ok = match needle.boundary {
                    Boundary::Ident => end >= mask.len() || !is_ident_byte(mask[end]),
                    Boundary::Exact => true,
                };
                if !head_ok || !tail_ok {
                    continue;
                }
                if policy::test_exempt(needle.rule) && in_regions(&self.regions, at) {
                    continue;
                }
                let (line, col) = self.lexed.pos(at);
                self.raw.push(Violation {
                    path: self.path.clone(),
                    line,
                    col,
                    rule: needle.rule,
                    message: format!("`{}` — {}", needle.text, needle.rule.describe()),
                    snippet: snippet_at(&self.src, &self.lexed, at),
                });
            }
        }
    }

    /// D3 through the symbol table: a `use ... as Alias` whose target is an
    /// unordered map is flagged at every *usage* of the alias, not just at
    /// the declaration the needle scan already catches — so allowing the
    /// declaration line cannot quietly bless a whole file of `Map::new()`.
    fn check_d3_aliases(&mut self) {
        if !policy::applies(RuleId::D3, &self.path) {
            return;
        }
        let mask = self.lexed.mask.as_bytes();
        for alias in &self.parsed.uses {
            let Some(target) = alias.segments.last() else { continue };
            if target != "HashMap" && target != "HashSet" {
                continue;
            }
            if alias.name == *target {
                continue; // Unaliased import: usages carry the needle name.
            }
            let decl_line = self.lexed.line_of(alias.at);
            let mut from = 0;
            while let Some(rel) = self.lexed.mask[from..].find(alias.name.as_str()) {
                let at = from + rel;
                from = at + 1;
                let end = at + alias.name.len();
                let head_ok = at == 0 || !is_ident_byte(mask[at - 1]);
                let tail_ok = end >= mask.len() || !is_ident_byte(mask[end]);
                if !head_ok || !tail_ok {
                    continue;
                }
                if self.lexed.line_of(at) == decl_line {
                    continue; // The declaration itself is the needle's catch.
                }
                let (line, col) = self.lexed.pos(at);
                self.raw.push(Violation {
                    path: self.path.clone(),
                    line,
                    col,
                    rule: RuleId::D3,
                    message: format!(
                        "`{}` is `{}` under an alias — {}",
                        alias.name,
                        alias.segments.join("::"),
                        RuleId::D3.describe()
                    ),
                    snippet: snippet_at(&self.src, &self.lexed, at),
                });
            }
        }
    }

    /// D6: every `pub fn` in an estimator module carries a doc comment
    /// naming its determinism contract (any doc line mentioning
    /// "determinis…").
    fn check_d6(&mut self) {
        if !policy::applies(RuleId::D6, &self.path) {
            return;
        }
        let mask = self.lexed.mask.as_bytes();
        let mut from = 0;
        while let Some(rel) = self.lexed.mask[from..].find("pub fn") {
            let at = from + rel;
            from = at + 1;
            let head_ok = at == 0 || !is_ident_byte(mask[at - 1]);
            let end = at + "pub fn".len();
            let tail_ok = end < mask.len() && mask[end] == b' ';
            if !head_ok || !tail_ok || in_regions(&self.regions, at) {
                continue;
            }
            let (line, col) = self.lexed.pos(at);
            // Walk upward over the item's contiguous header: doc comments and
            // attributes directly above the `pub fn` line.
            let mut docs = String::new();
            let mut up = line;
            while up > 1 {
                up -= 1;
                let (ls, le) = self.lexed.line_span(up);
                let code = self.lexed.mask[ls..le].trim();
                let text = self.src[ls..le].trim();
                if text.starts_with("///") {
                    docs.push_str(text);
                    docs.push('\n');
                } else if code.starts_with("#[") || (code.is_empty() && text.starts_with("//")) {
                    // Attribute or an ordinary comment inside the header —
                    // keep climbing (allow comments live here too).
                } else {
                    break;
                }
            }
            let lower = docs.to_lowercase();
            let message = if docs.is_empty() {
                Some("pub fn has no doc comment; document its determinism contract")
            } else if !lower.contains("determinis") {
                Some("doc comment does not name the fn's determinism contract")
            } else {
                None
            };
            if let Some(message) = message {
                self.raw.push(Violation {
                    path: self.path.clone(),
                    line,
                    col,
                    rule: RuleId::D6,
                    message: message.to_string(),
                    snippet: snippet_at(&self.src, &self.lexed, at),
                });
            }
        }
    }

    /// Applies allows, reports stale ones (A1), and returns this file's
    /// violations sorted by position.
    pub fn finish(mut self) -> Vec<Violation> {
        let allows = &mut self.allows;
        let mut kept: Vec<Violation> = self
            .raw
            .into_iter()
            .filter(|v| {
                if matches!(v.rule, RuleId::A0 | RuleId::A1) {
                    return true;
                }
                for allow in allows.iter_mut() {
                    if allow.rule == v.rule && allow.lines.contains(&v.line) {
                        allow.used = true;
                        return false;
                    }
                }
                true
            })
            .collect();

        for allow in allows.iter() {
            if !allow.used {
                kept.push(Violation {
                    path: self.path.clone(),
                    line: allow.line,
                    col: allow.col,
                    rule: RuleId::A1,
                    message: format!(
                        "allow for {}[{}] suppressed nothing — remove the stale escape",
                        allow.rule.code(),
                        allow.rule.name()
                    ),
                    snippet: snippet_at(&self.src, &self.lexed, allow.at),
                });
            }
        }

        kept.sort_by_key(|a| (a.line, a.col, a.rule));
        kept
    }
}

/// Checks one file in isolation (per-file rules only), returning its
/// violations sorted by position.
///
/// `path` must be workspace-relative with `/` separators — rule scoping is
/// path-driven, so the same contents lint differently under different paths
/// (which is what the fixture tests exploit). The cross-file rules (D8,
/// D10, D11) need the whole corpus; use [`check_workspace`] for those.
pub fn check_source(path: &str, src: &str) -> Vec<Violation> {
    FileCheck::new(path, src).finish()
}

/// Checks a whole corpus of files: per-file rules, then the symbol-graph
/// passes (D8 taint, D10 sans-IO, D11 dead-pub), then
/// allow application. Violations come back grouped per file in input order, each
/// file's sorted by position — deterministic in the input.
pub fn check_workspace(inputs: &[(String, String)]) -> Vec<Violation> {
    let mut files: Vec<FileCheck> =
        inputs.iter().map(|(path, src)| FileCheck::new(path, src)).collect();
    let graph = SymbolGraph::build(&files);
    taint::check_d8(&mut files, &graph);
    proto::check_d10(&mut files);
    dead::check_d11(&mut files);
    files.into_iter().flat_map(FileCheck::finish).collect()
}
