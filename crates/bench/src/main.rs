//! `expts` — regenerates the evaluation's tables and figures.
//!
//! ```text
//! expts [IDS...] [--full] [--csv DIR] [--jobs N]
//!
//!   IDS      experiment ids to run (t1 f1 f2 f3 f4 f5 f5b f6 f7 f8 t2 t3);
//!            default: all of them
//!   --full   paper-scale sweeps (minutes) instead of quick ones (seconds)
//!   --csv D  additionally write each table as CSV into directory D
//!   --jobs N experiment-cell worker threads (default: all cores; output is
//!            byte-identical for every N — see EXPERIMENTS.md "Runner")
//!
//! expts dst [--schedules N] [--events N] [--seed S] [--peers N] [--items N]
//!           [--replication N] [--bug [NAME]] [--out FILE] [--jobs N]
//! expts dst --replay FILE
//!
//!   --bug takes an optional drill name: `skip-successor-on-heal` (default,
//!   the crash-heal membership race) or `drop-capacity-fifo-guard` (the
//!   capacity axis's per-link FIFO clamp dropped); `InjectedBug::NAMES`
//!   lists them. --peers and --items must lie within `scenario::check_size`'s
//!   caps.
//!
//!   Deterministic simulation testing (see TESTING.md). The fuzz form runs N
//!   seeded schedules against the invariant oracle; on failure it shrinks to
//!   a minimal reproducer, writes it to FILE (default dst-repro.ron), and
//!   exits 1. The replay form re-runs a repro file and exits 1 iff the
//!   failure reproduces, printing the byte-identical failure report.
//! ```
//!
//! Tables go to **stdout**; progress and timing lines go to **stderr**, so
//! `expts ... > out.txt` produces the same bytes regardless of `--jobs` —
//! the property CI's determinism job diffs.

use dde_sim::dst::{self, DstConfig, InjectedBug};
use dde_sim::experiments::{run_by_id, Scale, ALL_IDS};
use dde_sim::{exec, scenario};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("dst") {
        raw.remove(0);
        dst_main(raw);
        return;
    }

    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut csv_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--csv" => {
                let Some(dir) = args.next() else {
                    eprintln!("--csv needs a directory argument");
                    std::process::exit(2);
                };
                csv_dir = Some(PathBuf::from(dir));
            }
            "--jobs" => {
                let jobs = args.next().and_then(|n| n.parse::<usize>().ok());
                let Some(jobs) = jobs else {
                    eprintln!("--jobs needs a worker count (0 = all cores)");
                    std::process::exit(2);
                };
                exec::set_jobs(jobs);
            }
            "--help" | "-h" => {
                eprintln!("usage: expts [IDS...] [--full] [--csv DIR] [--jobs N]");
                eprintln!("known ids: {}", ALL_IDS.join(" "));
                return;
            }
            id => ids.push(id.to_string()),
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(std::string::ToString::to_string).collect();
    }

    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }

    let label = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    println!("ring-dde experiment suite ({label} scale)\n");

    let jobs = exec::jobs();
    // ddelint::allow(wallclock, "timing-only: suite wall-clock goes to the stderr summary, never into a table")
    let suite_start = Instant::now();
    let mut total_cells = 0u64;
    let mut total_cpu = Duration::ZERO;
    let mut total_build = Duration::ZERO;
    let _ = exec::take_stats(); // start the counters from zero

    for id in &ids {
        // ddelint::allow(wallclock, "timing-only: per-experiment wall-clock goes to the stderr progress line, never into a table")
        let start = Instant::now();
        let Some(tables) = run_by_id(id, scale) else {
            eprintln!("unknown experiment id '{id}' (known: {})", ALL_IDS.join(" "));
            std::process::exit(2);
        };
        let wall = start.elapsed();
        let stats = exec::take_stats();
        total_cells += stats.cells;
        total_cpu += stats.cpu;
        total_build += stats.build;
        eprintln!(
            "[{id}] {} cells in {:.2}s wall, {:.2}s cell time ({:.2}s build) (jobs={jobs})",
            stats.cells,
            wall.as_secs_f64(),
            stats.cpu.as_secs_f64(),
            stats.build.as_secs_f64(),
        );
        for (i, table) in tables.iter().enumerate() {
            println!("{}", table.to_text());
            if let Some(dir) = &csv_dir {
                let file = dir.join(format!("{id}_{i}.csv"));
                if let Err(e) = std::fs::write(&file, table.to_csv()) {
                    eprintln!("cannot write {}: {e}", file.display());
                    std::process::exit(1);
                }
            }
        }
    }
    eprintln!(
        "suite: {} experiments, {} cells, {:.2}s wall, {:.2}s cell time ({:.2}s build), jobs={jobs}",
        ids.len(),
        total_cells,
        suite_start.elapsed().as_secs_f64(),
        total_cpu.as_secs_f64(),
        total_build.as_secs_f64(),
    );
}

/// `expts dst ...`: fuzz schedules against the invariant oracle, or replay a
/// repro file. Exits 1 when a violation is found (fuzz) or reproduced
/// (replay), 2 on usage errors.
fn dst_main(raw: Vec<String>) {
    let mut cfg = DstConfig::default();
    let mut schedules = 16usize;
    let mut replay: Option<PathBuf> = None;
    let mut out = PathBuf::from("dst-repro.ron");

    let mut args = raw.into_iter().peekable();
    while let Some(arg) = args.next() {
        let num = |flag: &str, args: &mut dyn Iterator<Item = String>| -> u64 {
            match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => n,
                None => {
                    eprintln!("{flag} needs a numeric argument");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--schedules" => schedules = num("--schedules", &mut args) as usize,
            "--events" => cfg.events = num("--events", &mut args) as usize,
            "--seed" => cfg.seed = num("--seed", &mut args),
            "--peers" => cfg.peers = num("--peers", &mut args) as usize,
            "--items" => cfg.items = num("--items", &mut args) as usize,
            "--replication" => cfg.replication = num("--replication", &mut args) as usize,
            "--jobs" => exec::set_jobs(num("--jobs", &mut args) as usize),
            "--bug" => {
                // The drill name is optional (bare --bug keeps the original
                // membership drill); only consume the next token when it
                // names a bug rather than starting the next flag.
                let Some(named) = args.next_if(|a| !a.starts_with("--")) else {
                    cfg.bug = Some(InjectedBug::SkipSuccessorOnHeal);
                    continue;
                };
                let Some(&(bug, ..)) = InjectedBug::NAMES.iter().find(|(.., n)| *n == named) else {
                    let known: Vec<&str> = InjectedBug::NAMES.iter().map(|(.., n)| *n).collect();
                    eprintln!("unknown bug '{named}' (known: {})", known.join(", "));
                    std::process::exit(2);
                };
                cfg.bug = Some(bug);
            }
            "--replay" => {
                let Some(file) = args.next() else {
                    eprintln!("--replay needs a file argument");
                    std::process::exit(2);
                };
                replay = Some(PathBuf::from(file));
            }
            "--out" => {
                let Some(file) = args.next() else {
                    eprintln!("--out needs a file argument");
                    std::process::exit(2);
                };
                out = PathBuf::from(file);
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: expts dst [--schedules N] [--events N] [--seed S] [--peers N] \
                     [--items N] [--replication N] [--bug [NAME]] [--out FILE] [--jobs N]"
                );
                eprintln!("       expts dst --replay FILE");
                return;
            }
            other => {
                eprintln!("unknown dst argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    if let Some(file) = replay {
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", file.display());
                std::process::exit(2);
            }
        };
        let schedule = match dst::parse_repro(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot parse {}: {e}", file.display());
                std::process::exit(2);
            }
        };
        eprintln!(
            "replaying {} ({} events, seed {})",
            file.display(),
            schedule.events.len(),
            schedule.seed
        );
        match dst::run_schedule(&schedule) {
            Ok(report) => {
                println!(
                    "repro did NOT reproduce: {} events ran clean ({} peers, {} items at end)",
                    report.events, report.final_peers, report.final_items
                );
            }
            Err(failure) => {
                print!("{failure}");
                std::process::exit(1);
            }
        }
        return;
    }

    if let Err(e) = scenario::check_size(cfg.peers, cfg.items) {
        eprintln!("bad dst size: {e}");
        std::process::exit(2);
    }
    // ddelint::allow(wallclock, "timing-only: fuzz wall-clock goes to the stderr summary; schedules derive from the seed alone")
    let start = Instant::now();
    eprintln!(
        "dst fuzz: {schedules} schedules x {} events (seed {}, peers {}, items {}, \
         replication {}, bug {:?}, jobs {})",
        cfg.events,
        cfg.seed,
        cfg.peers,
        cfg.items,
        cfg.replication,
        cfg.bug,
        exec::jobs(),
    );
    let outcome = dst::fuzz(&cfg, schedules);
    eprintln!("dst fuzz: {} schedules in {:.2}s", outcome.schedules, start.elapsed().as_secs_f64());
    match outcome.failure {
        None => println!("dst: {} schedules, no invariant violations", outcome.schedules),
        Some(found) => {
            println!(
                "dst: schedule {} (seed {}) violated an invariant",
                found.schedule_index, found.schedule.seed
            );
            print!("{}", found.failure);
            println!(
                "shrunk to {} events (from {}):",
                found.shrunk.events.len(),
                found.schedule.events.len()
            );
            print!("{}", found.shrunk_failure);
            let repro = dst::to_repro(&found.shrunk);
            if let Err(e) = std::fs::write(&out, &repro) {
                eprintln!("cannot write {}: {e}", out.display());
            } else {
                println!(
                    "repro written to {} (replay: expts dst --replay {})",
                    out.display(),
                    out.display()
                );
            }
            std::process::exit(1);
        }
    }
}
