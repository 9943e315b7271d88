//! The `ddelint` binary: `cargo run -p lint -- check`.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::emit;
use lint::RuleId;

const USAGE: &str = "\
ddelint — workspace determinism/hygiene linter

USAGE:
    ddelint check [--root PATH] [--format text|json|sarif] [--out PATH]
                                  lint every .rs file
    ddelint rules                 print the rule table

EXIT STATUS:
    0  the tree lints clean, or the rule table was printed
    1  violations were found, the tree could not be read, or the output
       could not be written (a closed stdout, as in `| head`, is no error)
    2  the command line was refused: an unknown command or argument, a
       flag without its value, or a bad --format (nothing is linted)
";

/// The `check` command line, parsed in full before anything is read.
struct Check {
    root: Option<PathBuf>,
    format: String,
    out: Option<PathBuf>,
}

impl Check {
    /// Parses the arguments after `check`; the error names what was refused.
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = args.peekable();
        let mut check = Self { root: None, format: String::from("text"), out: None };
        while let Some(flag) = args.next() {
            if !matches!(flag.as_str(), "--root" | "--format" | "--out") {
                return Err(format!("unknown argument `{flag}`"));
            }
            let Some(value) = args.next_if(|next| !next.starts_with("--")) else {
                return Err(format!("{flag} needs a value"));
            };
            match flag.as_str() {
                "--root" => check.root = Some(PathBuf::from(value)),
                "--out" => check.out = Some(PathBuf::from(value)),
                _ if matches!(value.as_str(), "text" | "json" | "sarif") => check.format = value,
                _ => return Err(format!("--format must be text, json, or sarif, got `{value}`")),
            }
        }
        Ok(check)
    }

    /// Lints the tree and delivers the report: 0 when clean, 1 on
    /// violations or an I/O failure.
    fn run(self) -> ExitCode {
        let Some(root) = workspace_root(self.root) else {
            eprintln!("ddelint: no workspace root found (pass --root PATH)");
            return ExitCode::FAILURE;
        };
        let violations = match lint::check_tree(&root) {
            Ok(v) => v,
            Err(err) => {
                eprintln!("ddelint: I/O error: {err}");
                return ExitCode::FAILURE;
            }
        };
        let report = match self.format.as_str() {
            "json" => emit::to_json(&violations),
            "sarif" => emit::to_sarif(&violations),
            _ => {
                let mut text = String::new();
                for v in &violations {
                    text.push_str(&format!("{v}\n"));
                }
                if violations.is_empty() {
                    text.push_str("ddelint: clean\n");
                } else {
                    text.push_str(&format!("ddelint: {} violation(s)\n", violations.len()));
                }
                text
            }
        };
        let delivered = match &self.out {
            Some(path) => std::fs::write(path, report),
            None => to_stdout(&report),
        };
        if let Err(err) = delivered {
            eprintln!("ddelint: write error: {err}");
            return ExitCode::FAILURE;
        }
        if violations.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn workspace_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return Some(root);
    }
    // Ascend from the current directory to the first Cargo.toml declaring a
    // [workspace]; `cargo run -p lint` starts in the invocation directory,
    // which may be a crate subdirectory.
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Writes `text` to stdout, treating a closed pipe (`... | head`) as done.
fn to_stdout(text: &str) -> std::io::Result<()> {
    use std::io::Write;
    match std::io::stdout().write_all(text.as_bytes()) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

/// Refuses the command line: the reason, then the usage text, on stderr.
fn refuse(reason: &str) -> ExitCode {
    eprint!("ddelint: {reason}\n\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("rules") => {
            if let Some(arg) = args.next() {
                return refuse(&format!("unknown argument `{arg}`"));
            }
            let table: String = RuleId::ALL
                .iter()
                .map(|rule| format!("{} [{}] — {}\n", rule.code(), rule.name(), rule.describe()))
                .collect();
            if let Err(err) = to_stdout(&table) {
                eprintln!("ddelint: write error: {err}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some("check") => match Check::parse(args) {
            Ok(check) => check.run(),
            Err(reason) => refuse(&reason),
        },
        Some(other) => refuse(&format!("unknown command `{other}`")),
        None => refuse("no command given"),
    }
}
