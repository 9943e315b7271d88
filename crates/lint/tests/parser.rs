//! Unit coverage for the item parser and symbol graph underneath the
//! cross-file rules: use-alias expansion, call-site extraction, impl/mod
//! context, and the DOT dump.

use lint::check::FileCheck;
use lint::graph::SymbolGraph;
use lint::parse::{parse, ParsedFile};

fn parsed(src: &str) -> ParsedFile {
    parse(&lint::lexer::lex(src))
}

#[test]
fn use_groups_and_aliases_expand() {
    let p = parsed(
        "use std::collections::{BTreeMap, HashMap as Map};\n\
         use crate::estimator::{self, DfDde};\n\
         use super::*;\n",
    );
    let names: Vec<(&str, String)> =
        p.uses.iter().map(|u| (u.name.as_str(), u.segments.join("::"))).collect();
    assert_eq!(
        names,
        vec![
            ("BTreeMap", "std::collections::BTreeMap".to_string()),
            ("Map", "std::collections::HashMap".to_string()),
            ("estimator", "crate::estimator".to_string()),
            ("DfDde", "crate::estimator::DfDde".to_string()),
        ],
        "glob imports are skipped; `self` binds the module"
    );
}

#[test]
fn fns_capture_impl_and_module_context() {
    let p = parsed(
        "impl Network {\n    pub fn probe(&self) -> u64 { helper() }\n}\n\
         mod tests {\n    fn case() {}\n}\n\
         fn helper() -> u64 { 7 }\n",
    );
    assert_eq!(p.fns.len(), 3);
    assert_eq!(p.fns[0].name, "probe");
    assert_eq!(p.fns[0].impl_type.as_deref(), Some("Network"));
    assert!(p.fns[0].is_pub);
    assert!(p.fns[0].sig.contains("&self"), "{}", p.fns[0].sig);
    assert_eq!(p.fns[1].name, "case");
    assert_eq!(p.fns[1].modules, vec!["tests".to_string()]);
    assert_eq!(p.fns[2].impl_type, None);
}

#[test]
fn calls_distinguish_paths_and_method_sugar() {
    let p = parsed(
        "fn f(net: &Network) {\n    \
           rand::thread_rng();\n    \
           net.probe(3);\n    \
           Self::inner();\n    \
           bare();\n\
         }\n",
    );
    let calls = &p.fns[0].calls;
    let rendered: Vec<(String, bool, Option<&str>)> =
        calls.iter().map(|c| (c.segments.join("::"), c.is_method, c.receiver.as_deref())).collect();
    assert_eq!(
        rendered,
        vec![
            ("rand::thread_rng".to_string(), false, None),
            ("probe".to_string(), true, Some("net")),
            ("Self::inner".to_string(), false, None),
            ("bare".to_string(), false, None),
        ]
    );
}

#[test]
fn graph_resolves_qualified_calls_across_files_and_dumps_dot() {
    let files = vec![
        FileCheck::new("crates/stats/src/rng.rs", "pub fn jitter() -> u64 { 4 }\n"),
        FileCheck::new("crates/stats/src/ecdf.rs", "fn blend() -> u64 { crate::rng::jitter() }\n"),
    ];
    let graph = SymbolGraph::build(&files);
    assert_eq!(graph.nodes.len(), 2);
    let jitter = graph.named("jitter")[0];
    let callers: Vec<_> = graph.callers_of(jitter).collect();
    assert_eq!(callers.len(), 1, "crate::rng::jitter resolves to the rng file");
    let dot = graph.to_dot(&files);
    assert!(dot.starts_with("digraph ddelint"), "{dot}");
    assert!(dot.contains("jitter") && dot.contains("blend"), "{dot}");
    assert!(dot.contains("->"), "the call edge is drawn: {dot}");
}
