//! The `ring-dde` binary turns bad argument values into a named error on
//! stderr and exit status 1 — never a panic — and treats a closed stdout
//! as the end of the run.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
        ("estimate --peers 0", "is outside 1..="),
        ("aggregate --items 0", "is outside 1..="),
        ("churn --peers 0", "is outside 1..="),
        ("topology --items 0", "is outside 1..="),
        ("estimate --peers 18446744073709551615", "is outside 1..="),
        ("query --peers 16 --items 100 --lo NaN", "must be finite"),
        ("query --peers 16 --items 100 --hi inf", "must be finite"),
        ("estimate --peers 16 --items 100 --loss 1.5", "must be in [0, 1]"),
        ("estimate --buckets 0", "--buckets must be at least 1"),
        ("churn --rate -1 --duration 1", "--rate must be positive and finite"),
        ("churn --rate nan", "--rate must be positive and finite"),
        ("churn --duration 0", "--duration must be positive and finite"),
        ("workload --rate inf", "--rate must be positive and finite"),
        ("workload --refresh nan", "--refresh must be positive and finite"),
        ("churn --rate 1e9 --duration 1", "above 200000"),
        ("churn --rate 1e-9 --duration 1e7", "above 200000"),
        ("workload --rate 1e12 --duration 10", "above 200000"),
        ("workload --refresh 1e-9", "above 200000"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(1), "{args}: {stderr}");
        assert!(stderr.contains(needle), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_with_status_0() {
    // Closed after one line, the pipe meets the later lines; closed at
    // once, it meets the first.
    for (args, read) in
        [("topology --peers 64 --items 1000", 1), ("estimate --peers 64 --items 1000", 0)]
    {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ring-dde"))
            .args(args.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        for _ in 0..read {
            let mut line = String::new();
            stdout.read_line(&mut line).expect("stdout reads");
            assert!(!line.is_empty(), "{args}: no output");
        }
        drop(stdout);
        let out = child.wait_with_output().expect("binary exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
}
