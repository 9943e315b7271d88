//! The `ring-dde` binary turns bad argument values into a named error on
//! stderr and exit status 1 — never a panic.

use std::process::Command;

fn run(args: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ring-dde"))
        .args(args.split_whitespace())
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn bad_values_exit_1_with_a_named_error() {
    for (args, needle) in [
        ("estimate --peers 0", "must be at least 1"),
        ("aggregate --items 0", "must be at least 1"),
        ("churn --peers 0", "must be at least 1"),
        ("topology --items 0", "must be at least 1"),
        ("query --peers 16 --items 100 --lo NaN", "must be finite"),
        ("query --peers 16 --items 100 --hi inf", "must be finite"),
        ("estimate --peers 16 --items 100 --loss 1.5", "must be in [0, 1]"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(stderr.contains(needle), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
}
