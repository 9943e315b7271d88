//! A comment/string/raw-string-aware Rust tokenizer.
//!
//! `ddelint` must never report `Instant::now` inside a doc example, a string
//! literal, or a commented-out line, and must never mistake `"http://x"` for
//! a comment. Instead of a full parser (no `syn`: the workspace builds
//! offline and the linter has to stay dependency-free), [`lex`] performs one
//! byte-exact pass that classifies every byte of the source as *code*,
//! *comment*, or *literal* and produces:
//!
//! - a **code mask**: a same-length copy of the source in which every comment
//!   and every literal *interior* is blanked to spaces (newlines preserved),
//!   so byte offsets, line numbers, and columns in the mask are identical to
//!   the original file and substring search on the mask can never match text
//!   that the compiler treats as data;
//! - the list of **comments** with their byte offsets, for the
//!   `ddelint::allow(...)` grammar and the D6 doc-comment rule.
//!
//! Handled Rust lexical edge cases (each pinned by a unit test in
//! `crates/lint/tests/tokenizer.rs`): nested block comments, `//` inside
//! string literals, raw strings with arbitrary `#` fences (including fences
//! that contain shorter quote-hash runs), byte strings and byte chars,
//! escaped quotes, and the char-literal/lifetime ambiguity (`'a'` vs `'a`).

/// Where a comment sits in the file and what it says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Byte offset of the first character (`/` of `//` or `/*`).
    pub start: usize,
    /// Full comment text including the delimiters.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug)]
pub struct Lexed {
    /// The code mask: same byte length as the input, comments and literal
    /// interiors blanked to spaces (string delimiters are kept so `expect("")`
    /// stays distinguishable from `expect("reason")`), newlines preserved.
    pub mask: String,
    /// All comments, in file order.
    pub comments: Vec<Comment>,
    /// Byte offset of the start of each line (line 0 starts at 0).
    line_starts: Vec<usize>,
}

impl Lexed {
    /// Maps a byte offset to a 1-based `(line, column)` pair.
    pub fn pos(&self, byte: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&byte) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, byte - self.line_starts[line] + 1)
    }

    /// Byte range of 1-based line `line` in the mask/source (excludes `\n`).
    pub fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self.line_starts.get(line).map_or(self.mask.len(), |next| next.saturating_sub(1));
        (start, end)
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` into a code mask plus comment list. See the module docs.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let n = b.len();
    let mut mask = b.to_vec();
    let mut comments = Vec::new();
    // Blank `mask[from..to]` to spaces, preserving newlines (and CR).
    let blank = |mask: &mut Vec<u8>, from: usize, to: usize| {
        for m in &mut mask[from..to] {
            if *m != b'\n' && *m != b'\r' {
                *m = b' ';
            }
        }
    };

    let mut i = 0;
    // The previous unblanked code byte, for the raw-string prefix heuristic:
    // in `r"..."` the `r` starts a literal only when not ending an identifier.
    let mut prev_code: u8 = 0;
    while i < n {
        let c = b[i];
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            // Line comment (incl. /// and //! doc forms): to end of line.
            let mut j = i + 2;
            while j < n && b[j] != b'\n' {
                j += 1;
            }
            comments.push(Comment { start: i, text: src[i..j].to_string() });
            blank(&mut mask, i, j);
            i = j;
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            // Block comment; Rust block comments nest.
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            comments.push(Comment { start: i, text: src[i..j].to_string() });
            blank(&mut mask, i, j);
            i = j;
        } else if c == b'"' {
            // Ordinary string literal: blank the interior, keep the quotes.
            let mut j = i + 1;
            while j < n && b[j] != b'"' {
                j += if b[j] == b'\\' { 2 } else { 1 };
            }
            blank(&mut mask, i + 1, j.min(n));
            i = (j + 1).min(n);
            prev_code = b'"';
        } else if (c == b'r' || c == b'b') && !is_ident(prev_code) && prev_code != b'"' {
            // Possible raw/byte literal prefix: r"…", r#"…"#, b"…", br#"…"#,
            // b'…'. When the lookahead does not form a literal, fall through
            // and treat the byte as ordinary code (an identifier head).
            let mut j = i;
            if b[j] == b'b' {
                j += 1;
            }
            let mut hashes = 0usize;
            let raw = j < n && b[j] == b'r';
            if raw {
                j += 1;
                while j < n && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
            }
            if j < n && b[j] == b'"' && (raw || b[i] == b'b') {
                let body = j + 1;
                let close = if raw {
                    // Scan for `"` followed by exactly the fence's hash count.
                    let mut k = body;
                    loop {
                        if k >= n {
                            break n;
                        }
                        if b[k] == b'"'
                            && k + hashes < n + 1
                            && b[k + 1..].len() >= hashes
                            && b[k + 1..k + 1 + hashes].iter().all(|&h| h == b'#')
                        {
                            break k;
                        }
                        k += 1;
                    }
                } else {
                    // b"…": escapes as in ordinary strings.
                    let mut k = body;
                    while k < n && b[k] != b'"' {
                        k += if b[k] == b'\\' { 2 } else { 1 };
                    }
                    k
                };
                blank(&mut mask, body, close.min(n));
                i = (close + 1 + hashes).min(n);
                prev_code = b'"';
            } else if b[i] == b'b' && i + 1 < n && b[i + 1] == b'\'' {
                // Byte char b'x' / b'\n'.
                let mut k = i + 2;
                while k < n && b[k] != b'\'' {
                    k += if b[k] == b'\\' { 2 } else { 1 };
                }
                blank(&mut mask, i + 2, k.min(n));
                i = (k + 1).min(n);
                prev_code = b'\'';
            } else {
                prev_code = c;
                i += 1;
            }
        } else if c == b'\'' {
            // Char literal or lifetime. `'\…'` and `'x'` are literals;
            // anything else (`'a` in `&'a str`, `'static`) is a lifetime and
            // stays code.
            if i + 1 < n && b[i + 1] == b'\\' {
                let mut k = i + 2;
                while k < n && b[k] != b'\'' {
                    k += if b[k] == b'\\' { 2 } else { 1 };
                }
                blank(&mut mask, i + 1, k.min(n));
                i = (k + 1).min(n);
                prev_code = b'\'';
            } else if i + 2 < n && b[i + 1] != b'\'' && b[i + 2] == b'\'' {
                blank(&mut mask, i + 1, i + 2);
                i += 3;
                prev_code = b'\'';
            } else if i + 1 < n && !b[i + 1].is_ascii() {
                // Multibyte char literal like '∞'.
                let ch_len = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                let close = i + 1 + ch_len;
                if close < n && b[close] == b'\'' {
                    blank(&mut mask, i + 1, close);
                    i = close + 1;
                    prev_code = b'\'';
                } else {
                    i += 1;
                }
            } else {
                prev_code = c;
                i += 1;
            }
        } else {
            if !c.is_ascii_whitespace() {
                prev_code = c;
            }
            i += 1;
        }
    }

    let mut line_starts = vec![0usize];
    for (off, &byte) in b.iter().enumerate() {
        if byte == b'\n' {
            line_starts.push(off + 1);
        }
    }
    Lexed {
        mask: String::from_utf8(mask).unwrap_or_else(|_| src.to_string()),
        comments,
        line_starts,
    }
}
