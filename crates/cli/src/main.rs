//! `ring-dde` — command-line playground for the ring-DDE library.
//!
//! ```text
//! ring-dde estimate  [--peers P] [--items N] [--dist D] [--probes K]
//!                    [--buckets B] [--seed S] [--placement range|hashed]
//!                    [--loss L] [--fault-seed S]
//!                    [--method df-dde|exact|uniform-peer|gossip] [--json]
//! ring-dde aggregate [--peers P] [--items N] [--dist D] [--probes K] [--seed S]
//! ring-dde query     [--peers P] [--items N] [--dist D] [--lo X] [--hi Y] [--seed S]
//! ring-dde churn     [--peers P] [--items N] [--rate R] [--duration T]
//!                    [--replication REPL] [--seed S]
//! ring-dde workload  [--peers P] [--items N] [--dist D] [--seed S] [--rate R]
//!                    [--duration T] [--insert-pm M] [--lookup-pm M]
//!                    [--probes K] [--refresh T] [--no-batch] [--no-piggyback]
//!                    [--loss L] [--json]
//! ring-dde topology  [--peers P] [--items N] [--dist D] [--seed S]
//! ```
//!
//! Distributions: uniform, normal, exponential, pareto, zipf, bimodal,
//! trimodal, lognormal.

/// `println!` through [`emit`], the one writer for stdout.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

mod args;
mod commands;
mod json;

/// Writes one line to stdout. A closed stdout means the reader (say,
/// `head`) has all it wants, so the run ends there with status 0; any other
/// write error ends it with status 1.
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match writeln!(std::io::stdout().lock(), "{line}") {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

use args::Args;

fn main() {
    // Typo guard: warn about options no command reads.
    const KNOWN: &[&str] = &[
        "peers",
        "items",
        "dist",
        "seed",
        "probes",
        "buckets",
        "placement",
        "method",
        "json",
        "lo",
        "hi",
        "rate",
        "duration",
        "replication",
        "loss",
        "fault-seed",
        "insert-pm",
        "lookup-pm",
        "refresh",
        "no-batch",
        "no-piggyback",
    ];

    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let Some(command) = parsed.command.clone() else {
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    };
    for key in parsed.unknown_keys(KNOWN) {
        eprintln!("warning: ignoring unknown option --{key}");
    }
    let result = match command.as_str() {
        "estimate" => commands::estimate(&parsed),
        "aggregate" => commands::aggregate(&parsed),
        "query" => commands::query(&parsed),
        "churn" => commands::churn(&parsed),
        "workload" => commands::workload(&parsed),
        "topology" => commands::topology(&parsed),
        "help" | "--help" | "-h" => {
            outln!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", commands::USAGE)),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
