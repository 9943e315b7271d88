//! The `ddelint` binary: `cargo run -p lint -- check`.

use std::path::PathBuf;
use std::process::ExitCode;

use lint::emit;
use lint::RuleId;

const USAGE: &str = "\
ddelint — workspace determinism/hygiene linter

USAGE:
    ddelint check [--root PATH] [--format text|json|sarif] [--out PATH]
                                  lint every .rs file, exit 1 on violations
    ddelint graph [--root PATH] --dot
                                  dump the workspace symbol graph as DOT
    ddelint rules                 print the rule table
";

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

/// Writes `text` to `out` (or stdout when `None`).
fn deliver(out: Option<&PathBuf>, text: &str) -> std::io::Result<()> {
    match out {
        Some(path) => std::fs::write(path, text),
        None => to_stdout(text),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    match command.as_deref() {
        Some("rules") => {
            for rule in RuleId::ALL {
                println!("{} [{}] — {}", rule.code(), rule.name(), rule.describe());
            }
            ExitCode::SUCCESS
        }
        Some("graph") => {
            let mut root = None;
            let mut dot = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = args.next().map(PathBuf::from),
                    "--dot" => dot = true,
                    other => {
                        eprintln!("unknown argument `{other}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if !dot {
                eprintln!("ddelint graph: pass --dot (the only supported dump)\n{USAGE}");
                return ExitCode::FAILURE;
            }
            let Some(root) = workspace_root(root) else {
                eprintln!("ddelint: no workspace root found (pass --root PATH)");
                return ExitCode::FAILURE;
            };
            match lint::graph_dot(&root).and_then(|dot| to_stdout(&dot)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("ddelint: I/O error: {err}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check") => {
            let mut root = None;
            let mut format = String::from("text");
            let mut out: Option<PathBuf> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => root = args.next().map(PathBuf::from),
                    "--format" => {
                        format = args.next().unwrap_or_default();
                        if !matches!(format.as_str(), "text" | "json" | "sarif") {
                            eprintln!("--format must be text, json, or sarif\n{USAGE}");
                            return ExitCode::FAILURE;
                        }
                    }
                    "--out" => out = args.next().map(PathBuf::from),
                    other => {
                        eprintln!("unknown argument `{other}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let Some(root) = workspace_root(root) else {
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
            let delivered = match format.as_str() {
                "json" => deliver(out.as_ref(), &emit::to_json(&violations)),
                "sarif" => deliver(out.as_ref(), &emit::to_sarif(&violations)),
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
                    deliver(out.as_ref(), &text)
                }
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
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
