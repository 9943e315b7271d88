//! `ring-dde dst` end to end, through the built binary: every injected-bug
//! drill in `InjectedBug::NAMES` is caught, shrinks to a 2-event repro file,
//! and replays to the same failure report; bad arguments exit 2 with a named
//! error.

use dde_sim::dst::{self, InjectedBug};
use dde_sim::scenario::MAX_PEERS;
use std::process::{Command, Output};

fn run_dst(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ring-dde")).arg("dst").args(args).output().expect("dst runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn every_bug_drill_is_caught_shrunk_and_replayed() {
    for (bug, _, name) in InjectedBug::NAMES {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.ron"));
        let out = path.to_str().expect("temp path is UTF-8");
        let fuzz = run_dst(&["--bug", name, "--out", out]);
        assert_eq!(fuzz.status.code(), Some(1), "{name}: {}", text(&fuzz.stderr));
        let repro = std::fs::read_to_string(out).expect("the drill writes its repro");
        let schedule = dst::parse_repro(&repro).expect("the repro parses");
        assert_eq!(schedule.bug, Some(bug), "{repro}");
        assert_eq!(schedule.events.len(), 2, "{name} must shrink to 2 events:\n{repro}");

        let replay = run_dst(&["--replay", out]);
        assert_eq!(replay.status.code(), Some(1), "{name}: {}", text(&replay.stderr));
        let report = text(&replay.stdout);
        assert!(report.starts_with("invariant violation after event 1: "), "{report}");
        // The replay prints the shrunk failure byte for byte as the fuzz run
        // reported it, and again on every replay.
        let fuzz_report = text(&fuzz.stdout);
        assert!(fuzz_report.contains(&format!("):\n{report}repro written to ")), "{fuzz_report}");
        assert_eq!(run_dst(&["--replay", out]).stdout, replay.stdout);
    }
}

#[test]
fn an_unknown_bug_exits_2_and_lists_the_known_names() {
    let run = run_dst(&["--bug", "no-such-bug"]);
    assert_eq!(run.status.code(), Some(2));
    let err = text(&run.stderr);
    assert!(err.contains("unknown bug 'no-such-bug'"), "{err}");
    for (.., name) in InjectedBug::NAMES {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn sizes_outside_the_caps_exit_2_with_a_named_error() {
    let too_many = (MAX_PEERS + 1).to_string();
    for (flag, value) in [("--peers", "0"), ("--items", "0"), ("--peers", too_many.as_str())] {
        let run = run_dst(&[flag, value]);
        assert_eq!(run.status.code(), Some(2), "{flag} {value}");
        let err = text(&run.stderr);
        assert!(err.contains(&format!("{}: {value} is outside", &flag[2..])), "{err}");
    }
}
