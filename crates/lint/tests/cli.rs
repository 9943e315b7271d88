//! The `ddelint` binary's exit rule, driven through the built executable:
//! 0 for a clean tree or the rule table, 1 for violations or a tree that
//! cannot be read, 2 for a refused command line (with empty stdout, since
//! nothing is linted).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ddelint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ddelint")).args(args).output().expect("ddelint runs")
}

fn workspace_root() -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .canonicalize()
        .expect("workspace root resolves")
}

#[test]
fn refused_command_lines_exit_2_with_empty_stdout() {
    for (args, says) in [
        (&[][..], "no command given"),
        (&["graph", "--dot"][..], "unknown command `graph`"),
        (&["check", "--bogus"][..], "unknown argument `--bogus`"),
        (&["rules", "extra"][..], "unknown argument `extra`"),
        (&["check", "--root"][..], "--root needs a value"),
        (&["check", "--out"][..], "--out needs a value"),
        (&["check", "--format"][..], "--format needs a value"),
        (&["check", "--root", "--format", "json"][..], "--root needs a value"),
        (&["check", "--format", "xml"][..], "--format must be text, json, or sarif"),
    ] {
        let out = ddelint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote stdout");
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?} prints the usage text: {stderr}");
    }
}

#[test]
fn rules_prints_the_rule_table() {
    let out = ddelint(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let codes: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(codes, ["D2", "D4", "D5", "D6", "D10", "D11", "A0", "A1"]);
}

#[test]
fn check_exits_0_on_the_workspace_and_1_on_violations_or_an_unreadable_root() {
    let root = workspace_root();
    let out = ddelint(&["check", "--root", root.to_str().expect("utf-8 root")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(String::from_utf8_lossy(&out.stdout), "ddelint: clean\n");

    let tree = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ddelint-cli");
    let src = tree.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("temp tree");
    std::fs::write(src.join("lib.rs"), "fn stamp() {\n    Instant::now();\n}\n")
        .expect("temp file");
    let out = ddelint(&["check", "--root", tree.to_str().expect("utf-8 temp dir")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("crates/core/src/lib.rs:2:5: D2[wallclock]"), "{stdout}");

    let missing = tree.join("no-such-dir");
    let out = ddelint(&["check", "--root", missing.to_str().expect("utf-8 temp dir")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("I/O error"));
}
