//! D10 (sans-IO boundary) — the structural protocol-conformance rule.
//!
//! Estimator/probe/routing-policy modules ([`policy::d10_file`]) must stay
//! sans-IO: they may probe the `Network`, read what a peer could see, and
//! bill stats, but direct topology/data mutation (`net.insert(...)`,
//! `net.build(...)`, `net.join(...)`) is left to the simulation layer, and
//! so is the ground truth estimates are scored against
//! (`net.total_items()`, `net.true_owner(...)`). Method calls on a `net` /
//! `network` receiver (and `Network::` paths) outside
//! [`policy::NETWORK_READ_WHITELIST`] are violations — the static
//! pre-enforcement of a `(incoming message, state) → outgoing messages`
//! discipline.

use crate::check::{snippet_at, FileCheck, Violation};
use crate::policy;
use crate::rules::RuleId;

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
