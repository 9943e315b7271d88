//! Unit coverage for the item parser underneath the cross-file rules: fns
//! inside `impl` and `mod` blocks, and call-site extraction.

use lint::parse::{parse, ParsedFile};

fn parsed(src: &str) -> ParsedFile {
    parse(&lint::lexer::lex(src))
}

#[test]
fn fns_capture_impl_and_module_context() {
    let p = parsed(
        "impl Network {\n    pub fn probe(&self) -> u64 { helper() }\n}\n\
         mod tests {\n    fn case() {}\n}\n\
         fn helper() -> u64 { 7 }\n",
    );
    let fns: Vec<(&str, bool)> = p.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
    assert_eq!(fns, vec![("probe", true), ("case", false), ("helper", false)]);
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
