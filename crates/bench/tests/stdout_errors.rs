//! `expts` treats stdout as `ring-dde` does: a closed stdout means the
//! reader has all it wants, so the run ends with status 0; any other write
//! error ends it with status 1 and a named error. Neither is a panic. A DST
//! violation is the exception: its exit status is the verdict, so it exits
//! 1 whatever becomes of its report.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn expts() -> Command {
    Command::new(env!("CARGO_BIN_EXE_expts"))
}

/// Runs `expts args`, reads `read` lines of its stdout, closes the pipe and
/// returns the exit status with stderr.
fn closed_after(args: &[&str], read: usize) -> (Option<i32>, String) {
    let mut child = expts()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("expts runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    for _ in 0..read {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("stdout reads");
        assert!(!line.is_empty(), "{args:?}: no output");
    }
    drop(stdout);
    let out = child.wait_with_output().expect("expts exits");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} after {read} lines: {stderr}");
    (out.status.code(), stderr)
}

#[test]
fn a_closed_stdout_ends_the_run_with_status_0() {
    // Closed at once, the pipe meets the header; closed after one line, it
    // meets the table.
    for read in [0, 1] {
        let (code, stderr) = closed_after(&["t1"], read);
        assert_eq!(code, Some(0), "after {read} lines: {stderr}");
    }
}

#[test]
fn a_dst_violation_exits_1_on_a_closed_stdout() {
    let (_, _, name) = dde_sim::dst::InjectedBug::NAMES[0];
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("closed-{name}.ron"));
    let repro = path.to_str().expect("temp path is UTF-8");
    // The fuzz runs a while before it reports, so a pipe closed at once is
    // closed before the report meets it.
    for read in [0, 1] {
        let (code, stderr) = closed_after(&["dst", "--bug", name, "--out", repro], read);
        assert_eq!(code, Some(1), "--bug {name} after {read} lines: {stderr}");
    }
    let (code, stderr) = closed_after(&["dst", "--replay", repro], 0);
    assert_eq!(code, Some(1), "--replay {repro}: {stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_exits_1_with_a_named_error() {
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("/dev/full opens");
    let out = expts().arg("t1").stdout(full).output().expect("expts runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: writing stdout: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
