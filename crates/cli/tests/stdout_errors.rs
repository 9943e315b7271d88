//! `ring-dde expts` and `ring-dde dst` treat stdout as every subcommand
//! does: a closed stdout means the reader has all it wants, so the run ends
//! with status 0; any other write error ends it with status 1 and a named
//! error. Neither is a panic. A DST violation is the exception: its exit
//! status is the verdict, so it exits 1 whatever becomes of its report.

mod support;

use support::{closed_after, ring_dde};

#[test]
fn a_closed_stdout_ends_the_run_with_status_0() {
    // Closed at once, the pipe meets the header; closed after one line, it
    // meets the table.
    for read in [0, 1] {
        let (code, stderr) = closed_after(&["expts", "t1"], read);
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
    for args in [&["expts", "t1"][..], &["topology", "--peers", "64", "--items", "1000"]] {
        let full = std::fs::File::options().write(true).open("/dev/full").expect("/dev/full opens");
        let out = ring_dde(args).stdout(full).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error: writing stdout: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
