//! The `ddelint` rule set: ids, names, needles, and messages.
//!
//! D2, D4 and D5 are lexical — each one is a set of *needles* searched in
//! the code mask produced by [`crate::lexer::lex`] (so comments and string
//! literals can never match), plus a path scope decided by
//! [`crate::policy`]. D6 (doc-determinism) is structural, with its logic in
//! [`crate::check`]; D10 and D11 read the parsed items of every file
//! ([`crate::proto`], [`crate::dead`]). The rules clippy can state with
//! resolved paths are clippy's: ambient entropy and unordered maps in the
//! root `clippy.toml`, and `.unwrap()` as `clippy::unwrap_used`.

/// Identifier of one lint rule. `A0`/`A1` police the allow grammar itself so
/// that escapes stay honest (no blanket allows, no stale allows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No wall-clock reads (`Instant::now` / `SystemTime`) in deterministic
    /// paths without a site-level allow proving the value never feeds results.
    D2,
    /// No `unsafe` anywhere without an allow carrying a reason.
    D4,
    /// No empty `expect("")` in library-crate non-test code: a panic must
    /// say which invariant broke.
    D5,
    /// Every `pub fn` in the core/stats estimator modules documents its
    /// determinism contract.
    D6,
    /// Sans-IO boundary: estimator/probe/routing-policy modules may call
    /// the `Network` only through the probe/read/billing whitelist
    /// (`policy::NETWORK_READ_WHITELIST`; its probe exchanges include a
    /// whole round as one `probe_wave`) — drivers own mutation, and the
    /// ground truth estimates are scored against stays out of the
    /// estimator's reach.
    D10,
    /// Dead public API: a bare-`pub` fn in library src that no other file
    /// names — delete it, or drop the `pub` and let rustc's `dead_code`
    /// guard it.
    D11,
    /// Malformed `ddelint::allow` (unknown rule id or missing/empty reason).
    A0,
    /// An allow that suppressed nothing — stale escapes must be removed.
    A1,
}

/// How a needle must sit in the code mask to count as a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Both ends must not touch identifier characters (`unsafe`, and path
    /// needles like `Instant::now` — `my_Instant::now` cannot match because
    /// `Instant` would sit against the `_`, while a leading `::` as in
    /// `std::time::Instant::now` still matches).
    Ident,
    /// Exact substring (`.expect("")` — already self-delimited).
    Exact,
}

/// One searchable pattern belonging to a rule.
#[derive(Debug, Clone, Copy)]
pub struct Needle {
    /// The rule this needle reports as.
    pub rule: RuleId,
    /// Substring searched in the code mask.
    pub text: &'static str,
    /// Boundary discipline for the match.
    pub boundary: Boundary,
}

impl RuleId {
    /// Every rule, in declaration order: the rule table of `ddelint rules`
    /// and of the SARIF log, and the names an allow may use. Retired rule
    /// numbers (D1, D3, D7, D8, D9) are not reused.
    pub const ALL: [RuleId; 8] =
        [Self::D2, Self::D4, Self::D5, Self::D6, Self::D10, Self::D11, Self::A0, Self::A1];

    /// Short mnemonic accepted (alongside the `Dn` form) in allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Self::D2 => "wallclock",
            Self::D4 => "unsafe",
            Self::D5 => "unwrap",
            Self::D6 => "doc-determinism",
            Self::D10 => "sans-io",
            Self::D11 => "dead-pub",
            Self::A0 => "bad-allow",
            Self::A1 => "unused-allow",
        }
    }

    /// The `Dn`/`An` code.
    pub fn code(self) -> &'static str {
        match self {
            Self::D2 => "D2",
            Self::D4 => "D4",
            Self::D5 => "D5",
            Self::D6 => "D6",
            Self::D10 => "D10",
            Self::D11 => "D11",
            Self::A0 => "A0",
            Self::A1 => "A1",
        }
    }

    /// One-line human description, shown by `ddelint rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Self::D2 => "wall-clock read (Instant::now/SystemTime) in a deterministic path",
            Self::D4 => "unsafe code without an allow carrying a reason",
            Self::D5 => "empty expect(\"\") in library-crate non-test code",
            Self::D6 => "pub fn in an estimator module lacking a determinism-contract doc comment",
            Self::D10 => "Network call outside the probe/read/billing whitelist (mutation or ground-truth read) in a sans-IO module",
            Self::D11 => "pub fn in library src that no other file names (delete it or drop the pub)",
            Self::A0 => "malformed ddelint::allow (unknown rule or missing/empty reason)",
            Self::A1 => "ddelint::allow that suppressed no violation",
        }
    }

    /// Parses either the `Dn` code or the mnemonic name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|r| r.code() == s || r.name() == s)
    }

    /// All rules that can be targeted by an allow comment. `A0`/`A1` cannot
    /// be allowed away — escapes for the escape mechanism would defeat it.
    pub fn allowable(self) -> bool {
        !matches!(self, Self::A0 | Self::A1)
    }
}

/// The needle table for the textual rules D2, D4 and D5. D6 has no
/// needles; it is driven by doc-comment structure in [`crate::check`].
pub const NEEDLES: &[Needle] = &[
    Needle { rule: RuleId::D2, text: "Instant::now", boundary: Boundary::Ident },
    Needle { rule: RuleId::D2, text: "SystemTime", boundary: Boundary::Ident },
    Needle { rule: RuleId::D4, text: "unsafe", boundary: Boundary::Ident },
    Needle { rule: RuleId::D5, text: ".expect(\"\")", boundary: Boundary::Exact },
];
