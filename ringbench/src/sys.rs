//! The wall clock, process memory, and the machine provenance every report
//! carries.

use std::time::Instant;

/// The benchmark's only wall-clock read: every timing goes through here.
pub fn now() -> Instant {
    // ddelint::allow(wallclock, "timing-only: benchmark timings are reported, never fed back into a workload's inputs")
    Instant::now()
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), if `/proc` has it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_kb(&status, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// The value of a `Key:   123 kB` line in a `/proc` file.
fn proc_kb(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// One JSON object naming the run set and the machine it ran on: seed, rep
/// count, git revision, core count, CPU model, memory, and wall time.
pub fn provenance(seed: u64, reps: usize, wall_s: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_mb = proc_kb(&meminfo, "MemTotal:").map_or(0, |kb| kb / 1024);
    format!(
        "{{\"seed\": {seed}, \"reps\": {reps}, \"git\": {}, \"cores\": {cores}, \"cpu\": {}, \
         \"mem_total_mb\": {mem_mb}, \"wall_s\": {wall_s:.3}}}",
        crate::json::quote(&git_revision()),
        crate::json::quote(cpu),
    )
}

/// `HEAD`'s commit, read from `.git` in the working directory (no `git`
/// process), or `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_lines_parse_to_kilobytes() {
        let text = "Name:\tringbench\nVmHWM:\t  20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(proc_kb(text, "VmHWM:"), Some(20480));
        assert_eq!(proc_kb(text, "VmSwap:"), None);
    }
}
