//! Every `ring-dde` subcommand follows one exit rule, checked here through
//! the built binary: status 0 for success or a closed stdout, 1 for a failed
//! run, 2 for a refused command line. None is a panic. `stdout_errors.rs`
//! checks the closed and full stdout of `expts` and `dst`.

mod support;

use support::{closed_after, ring_dde};

/// Runs `args` to the end and returns its status, stdout and stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = ring_dde(args).output().expect("binary runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn bad_values_exit_2_with_a_named_error() {
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
        // Refused by the check, which comes before the build.
        ("estimate --peers 100000 --method nope", "unknown method 'nope'"),
        ("estimate --peers 100000 --fault-seed x", "invalid value for --fault-seed"),
        ("estimate --peers 100000 --probes 1", "--probes must be at least 2, got 1"),
        ("estimate --probes 0", "--probes must be at least 2, got 0"),
        ("aggregate --peers 100000 --probes 1", "--probes must be at least 2, got 1"),
        ("query --peers 100000 --probes 0", "--probes must be at least 2, got 0"),
        ("estimate --method uniform-peer --probes 0", "--probes must be at least 1, got 0"),
        ("workload --peers 100000 --probes 1", "--probes must be at least 2, got 1"),
        ("workload --probes 0", "--probes must be at least 2, got 0"),
        ("estimate --probes 200001", "--probes must be at most 200000, got 200001"),
        (
            "estimate --probes 18446744073709551615 --peers 16 --items 200",
            "--probes must be at most 200000",
        ),
        (
            "estimate --method uniform-peer --probes 18446744073709551615",
            "--probes must be at most 200000",
        ),
        ("aggregate --probes 18446744073709551615", "--probes must be at most 200000"),
        ("query --probes 18446744073709551615", "--probes must be at most 200000"),
        ("workload --probes 200001", "--probes must be at most 200000"),
        ("churn --replication 9", "replication: 9 is outside 0..=8"),
        ("dst --replication 9", "replication: 9 is outside 0..=8"),
        ("frobnicate", "unknown command 'frobnicate'"),
        ("estimate --rate 5", "estimate takes no option --rate"),
        ("estimate --peers 16 --items 200 --json extra", "takes no argument 'extra'"),
        ("expts t1 nope", "unknown experiment id 'nope'"),
        ("expts t1 --bogus", "expts takes no option --bogus"),
        ("expts t1 --jobs 100000", "--jobs must be at most 256"),
        ("dst --bug no-such-bug", "unknown bug 'no-such-bug'"),
        ("dst --events 18446744073709551615", "above 200000"),
        ("dst --schedules 18446744073709551615 --events 1", "above 200000"),
        ("dst --schedules 200001 --events 0", "above 200000"),
        ("dst --jobs 257", "--jobs must be at most 256"),
        ("dst --replay no-such-repro.ron", "cannot read no-such-repro.ron"),
    ] {
        let (code, stdout, stderr) = run(&args.split_whitespace().collect::<Vec<_>>());
        assert_eq!(code, Some(2), "{args}: {stderr}");
        assert!(stderr.contains(needle), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
        assert_eq!(stdout, "", "{args}: refused after it printed");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_with_status_0() {
    let (code, stdout, stderr) = run(&["topology", "--peers", "64", "--items", "1000"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("mean hops"), "{stdout}");
    // Closed after one line, the pipe meets the later lines; closed at
    // once, it meets the first.
    for (args, read) in
        [("topology --peers 64 --items 1000", 1), ("estimate --peers 64 --items 1000", 0)]
    {
        let (code, stderr) = closed_after(&args.split_whitespace().collect::<Vec<_>>(), read);
        assert_eq!(code, Some(0), "{args} after {read} lines: {stderr}");
    }
}

#[test]
fn a_failed_run_exits_1_with_a_named_error() {
    // With every request lost, the range query finds no route.
    let (code, _, stderr) = run(&["query", "--peers", "16", "--items", "200", "--loss", "1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("no route to target"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    if cfg!(target_os = "linux") {
        let (code, _, stderr) = run(&["expts", "t1", "--csv", "/dev/null/csv"]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains("cannot create /dev/null/csv"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
