//! `ring-dde` — the command line of the ring-DDE reproduction. It drives
//! the library (`estimate`, `aggregate`, `query`, `churn`, `workload`,
//! `topology`), regenerates the evaluation (`expts`) and runs the
//! deterministic simulation tester (`dst`). `ring-dde help` lists every
//! command's options and the exit rule they all follow.

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::emit(format_args!("{}\n", format_args!($($arg)*)), 0)
    };
}

mod args;
mod commands;
mod json;

/// Writes `text` to stdout; every byte `ring-dde` prints there goes through
/// here. A write error ends the run. A closed stdout means the reader (say,
/// `head`) has all it wants, so the run ends with status `closed`: 0, or 1
/// when `text` reports a failed run, whose status is the verdict. Any other
/// write error ends it with status 1.
fn emit(text: std::fmt::Arguments<'_>, closed: i32) {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(closed),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if matches!(argv.peek().map(String::as_str), Some("help" | "--help" | "-h")) {
        outln!("{}", commands::USAGE);
        return;
    }
    let run = commands::check(argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n(`ring-dde help` lists the commands and their options)");
        std::process::exit(2);
    });
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
