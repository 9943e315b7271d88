//! Tokenizer edge-case pins: the lexer must classify comments and literals
//! byte-exactly, or every rule built on the code mask inherits the bug.

use lint::lexer::lex;

/// The mask must be byte-length-identical so positions map 1:1.
fn mask_of(src: &str) -> String {
    let lexed = lex(src);
    assert_eq!(lexed.mask.len(), src.len(), "mask must preserve byte length");
    lexed.mask
}

#[test]
fn line_comment_is_blanked_and_collected() {
    let src = "let x = 1; // thread_rng() here is prose\nlet y = 2;\n";
    let lexed = lex(src);
    assert!(!lexed.mask.contains("thread_rng"));
    assert!(lexed.mask.contains("let y = 2;"));
    assert_eq!(lexed.comments.len(), 1);
    assert!(lexed.comments[0].text.contains("thread_rng"));
}

#[test]
fn double_slash_inside_string_is_not_a_comment() {
    let src = "let url = \"http://example.org // not a comment\";\nlet z = 3;\n";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty(), "no comment should be found: {:?}", lexed.comments);
    assert!(lexed.mask.contains("let z = 3;"));
    assert!(!lexed.mask.contains("example.org"));
}

#[test]
fn nested_block_comments_blank_to_the_outer_close() {
    let src = "a /* outer /* inner */ still comment */ b";
    let mask = mask_of(src);
    assert_eq!(mask.trim(), "a                                       b".trim());
    assert!(!mask.contains("inner"));
    assert!(!mask.contains("still"));
}

#[test]
fn raw_string_with_comment_markers_and_quotes_is_blanked() {
    let src = "let s = r#\"thread_rng() // \"quoted\" inside\"#; unsafe_marker();";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty());
    assert!(!lexed.mask.contains("thread_rng"));
    // Code after the raw string must survive unblanked.
    assert!(lexed.mask.contains("unsafe_marker();"));
}

#[test]
fn raw_string_fence_ignores_shorter_hash_runs() {
    // The body contains `"#` which must NOT close an `r##` string.
    let src = "let s = r##\"contains \"# inside\"##; let tail = 9;";
    let lexed = lex(src);
    assert!(!lexed.mask.contains("inside"));
    assert!(lexed.mask.contains("let tail = 9;"));
}

#[test]
fn byte_string_and_byte_char_are_literals() {
    let src = "let b = b\"bytes // not comment\"; let c = b'x'; let after = 1;";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty());
    assert!(!lexed.mask.contains("bytes"));
    assert!(lexed.mask.contains("let after = 1;"));
}

#[test]
fn quote_char_literal_does_not_open_a_string() {
    // `'"'` is a char literal; the following code must remain code.
    let src = "let q = '\"'; let live = thread_rng_marker;";
    let lexed = lex(src);
    assert!(lexed.mask.contains("let live = thread_rng_marker;"));
}

#[test]
fn escaped_quote_does_not_close_the_string() {
    let src = "let s = \"a\\\"b // x\"; let post = 2;";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty());
    assert!(!lexed.mask.contains("// x"));
    assert!(lexed.mask.contains("let post = 2;"));
}

#[test]
fn lifetimes_stay_code() {
    let src = "fn first<'a>(v: &'a [u64]) -> &'a u64 { &v[0] }";
    let mask = mask_of(src);
    assert_eq!(mask, src, "no literal in this source; mask must be identical");
}

#[test]
fn char_literals_are_blanked_but_delimited() {
    let src = "let c = 'x'; let esc = '\\n'; let post = 4;";
    let lexed = lex(src);
    assert!(!lexed.mask.contains('x'), "char interior must be blanked");
    assert!(lexed.mask.contains("let post = 4;"));
}

#[test]
fn identifier_ending_in_r_before_string_is_not_raw() {
    // `for` ends in `r`; the string after it is an ordinary literal and the
    // loop keyword must stay code.
    let src = "for s in list { take(\"// data\") }";
    let lexed = lex(src);
    assert!(lexed.comments.is_empty());
    assert!(lexed.mask.contains("for s in list"));
    assert!(!lexed.mask.contains("data"));
}

#[test]
fn positions_are_one_based_line_and_column() {
    let src = "line one\nlet rng = thread_rng();\n";
    let lexed = lex(src);
    let at = src.find("thread_rng").unwrap();
    assert_eq!(lexed.pos(at), (2, 11));
}
