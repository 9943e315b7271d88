//! Runs the built `ring-dde` binary for the exit-rule tests
//! (`exit_codes.rs`, `stdout_errors.rs`).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

pub fn ring_dde(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ring-dde"));
    command.args(args);
    command
}

/// Runs `args`, reads `read` lines of its stdout, closes the pipe and
/// returns the exit status with stderr.
pub fn closed_after(args: &[&str], read: usize) -> (Option<i32>, String) {
    let mut child =
        ring_dde(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    for _ in 0..read {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("stdout reads");
        assert!(!line.is_empty(), "{args:?}: no output");
    }
    drop(stdout);
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} after {read} lines: {stderr}");
    (out.status.code(), stderr)
}
