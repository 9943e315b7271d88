//! The `ddelint` rule set: ids, names, needles, and messages.
//!
//! Rules are lexical by design — each one is a set of *needles* searched in
//! the code mask produced by [`crate::lexer::lex`] (so comments and string
//! literals can never match), plus a path scope decided by
//! [`crate::policy`]. D6 (doc-determinism) is the one structural rule; its
//! logic lives in [`crate::check`].

/// Identifier of one lint rule. `A0`/`A1` police the allow grammar itself so
/// that escapes stay honest (no blanket allows, no stale allows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No ambient entropy: `thread_rng` / `from_entropy` / `rand::random`
    /// outside `stats::rng`.
    D1,
    /// No wall-clock reads (`Instant::now` / `SystemTime`) in deterministic
    /// paths without a site-level allow proving the value never feeds results.
    D2,
    /// No `HashMap`/`HashSet` in deterministic crates: iteration order is
    /// randomized per process, which breaks byte-identical replay.
    D3,
    /// No `unsafe` anywhere without an allow carrying a reason.
    D4,
    /// No bare `unwrap()` / empty `expect("")` in library-crate non-test
    /// code.
    D5,
    /// Every `pub fn` in the core/stats estimator modules documents its
    /// determinism contract.
    D6,
    /// Determinism taint: no fn in a deterministic path may *transitively*
    /// reach a D1/D2 entropy or wall-clock source through the call graph,
    /// unless it threads an explicit seed/RNG parameter or the flow carries
    /// a reasoned allow. Catches helpers that launder `thread_rng()` two
    /// calls deep.
    D8,
    /// Sans-IO boundary: estimator/probe/routing-policy modules may call
    /// the `Network` only through the probe/read/billing whitelist — drivers
    /// own mutation, and the ground truth estimates are scored against stays
    /// out of the estimator's reach.
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
    /// Both ends must not touch identifier characters (`unsafe`, `HashMap`,
    /// and path needles like `Instant::now` — `my_rand::random` cannot match
    /// because `rand` would sit against the `_`, while a leading `::` as in
    /// `std::time::Instant::now` still matches).
    Ident,
    /// Exact substring (`.unwrap()`, `.expect("")` — already self-delimited).
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
    /// and of the SARIF log, and the names an allow may use.
    pub const ALL: [RuleId; 11] = [
        Self::D1,
        Self::D2,
        Self::D3,
        Self::D4,
        Self::D5,
        Self::D6,
        Self::D8,
        Self::D10,
        Self::D11,
        Self::A0,
        Self::A1,
    ];

    /// Short mnemonic accepted (alongside the `Dn` form) in allow comments.
    pub fn name(self) -> &'static str {
        match self {
            Self::D1 => "ambient-rng",
            Self::D2 => "wallclock",
            Self::D3 => "unordered-map",
            Self::D4 => "unsafe",
            Self::D5 => "unwrap",
            Self::D6 => "doc-determinism",
            Self::D8 => "det-taint",
            Self::D10 => "sans-io",
            Self::D11 => "dead-pub",
            Self::A0 => "bad-allow",
            Self::A1 => "unused-allow",
        }
    }

    /// The `Dn`/`An` code.
    pub fn code(self) -> &'static str {
        match self {
            Self::D1 => "D1",
            Self::D2 => "D2",
            Self::D3 => "D3",
            Self::D4 => "D4",
            Self::D5 => "D5",
            Self::D6 => "D6",
            Self::D8 => "D8",
            Self::D10 => "D10",
            Self::D11 => "D11",
            Self::A0 => "A0",
            Self::A1 => "A1",
        }
    }

    /// One-line human description, shown by `ddelint rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Self::D1 => "ambient entropy (thread_rng/from_entropy/rand::random) outside stats::rng",
            Self::D2 => "wall-clock read (Instant::now/SystemTime) in a deterministic path",
            Self::D3 => "HashMap/HashSet in a deterministic crate (BTree or sorted-vec only)",
            Self::D4 => "unsafe code without an allow carrying a reason",
            Self::D5 => "bare unwrap()/expect(\"\") in library-crate non-test code",
            Self::D6 => "pub fn in an estimator module lacking a determinism-contract doc comment",
            Self::D8 => "fn transitively reaches ambient entropy/wall-clock without threading a seed parameter",
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

/// The needle table for the textual rules D1–D5. D6 has no needles;
/// it is driven by doc-comment structure in [`crate::check`].
pub const NEEDLES: &[Needle] = &[
    Needle { rule: RuleId::D1, text: "thread_rng", boundary: Boundary::Ident },
    Needle { rule: RuleId::D1, text: "from_entropy", boundary: Boundary::Ident },
    Needle { rule: RuleId::D1, text: "rand::random", boundary: Boundary::Ident },
    Needle { rule: RuleId::D2, text: "Instant::now", boundary: Boundary::Ident },
    Needle { rule: RuleId::D2, text: "SystemTime", boundary: Boundary::Ident },
    Needle { rule: RuleId::D3, text: "HashMap", boundary: Boundary::Ident },
    Needle { rule: RuleId::D3, text: "HashSet", boundary: Boundary::Ident },
    Needle { rule: RuleId::D4, text: "unsafe", boundary: Boundary::Ident },
    Needle { rule: RuleId::D5, text: ".unwrap()", boundary: Boundary::Exact },
    Needle { rule: RuleId::D5, text: ".expect(\"\")", boundary: Boundary::Exact },
];
