//! The span recorder of the traced run.
//!
//! A span brackets one call from the benchmark into a layer's public
//! function. It records the span's name, its parent, the step (op id) it
//! belongs to, its start and end in nanoseconds since the recorder started,
//! the heap allocations made inside it, the messages and bytes the network
//! charged inside it, and how many operations it covered (a span around a
//! loop of 64 lookups covers 64). Spans stay in memory and are written as
//! JSON lines when the run ends. A span's self time is its duration minus
//! the time its child spans cover.
//!
//! A disabled recorder takes no clock reads and stores nothing, so the
//! untraced run pays one branch per call site. A traced run switches
//! recording off for every other step, so the same run also times the loop
//! untraced and the tracing overhead is measured, not modelled.

use crate::sys;
use dde_ring::Network;
use dde_stats::alloc::thread_allocations;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Messages and bytes charged to a network's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    pub msgs: u64,
    pub bytes: u64,
}

impl Cost {
    /// The network's running totals.
    pub fn of(net: &Network) -> Self {
        Self { msgs: net.stats().total_messages(), bytes: net.stats().total_bytes() }
    }

    /// What was charged since `earlier` was read from the same network.
    pub fn since(self, earlier: Cost) -> Self {
        Self { msgs: self.msgs - earlier.msgs, bytes: self.bytes - earlier.bytes }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub cost: Cost,
    pub ops: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span opened by [`Tracer::enter`]; close it with [`Tracer::exit`].
#[must_use]
pub struct Open(Option<(usize, u64)>);

/// Everything recorded under one span name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: u64,
    pub durs_ns: Vec<u64>,
    pub self_ns: u64,
    pub allocs: u64,
    pub cost: Cost,
    pub ops: u64,
}

impl Agg {
    pub fn total_ns(&self) -> u64 {
        self.durs_ns.iter().sum()
    }

    pub fn mean_ns(&self) -> f64 {
        self.total_ns() as f64 / self.count.max(1) as f64
    }

    /// Nanoseconds per covered operation.
    pub fn ns_per_op(&self) -> f64 {
        self.total_ns() as f64 / self.ops.max(1) as f64
    }

    pub fn p50_ns(&self) -> f64 {
        let durs: Vec<f64> = self.durs_ns.iter().map(|&d| d as f64).collect();
        crate::summary::median(&durs)
    }
}

/// The recorder.
pub struct Tracer {
    traced: bool,
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            on: traced,
            origin: sys::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            counters: BTreeMap::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Whether spans and counts are being recorded now.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records from now on if `yes` and this is a traced run.
    pub fn record(&mut self, yes: bool) {
        self.on = self.traced && yes;
    }

    /// Tags later spans with step `op` (`None` outside the step loop).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op: self.op,
            start_ns: self.ns(),
            end_ns: 0,
            allocs: 0,
            cost: Cost::default(),
            ops: 0,
        });
        self.open.push(idx);
        Open(Some((idx, thread_allocations())))
    }

    /// Closes `open`, covering `ops` operations that charged `cost`.
    pub fn exit(&mut self, open: Open, ops: u64, cost: Cost) {
        let Some((idx, allocs_before)) = open.0 else { return };
        let allocs = thread_allocations() - allocs_before;
        let end = self.ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close in reverse order");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.allocs = allocs;
        span.cost = cost;
        span.ops = ops;
    }

    /// Adds `n` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counters.entry(name).or_insert(0) += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Spans aggregated by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.durs_ns.push(s.dur_ns());
            a.self_ns += self_ns;
            a.allocs += s.allocs;
            a.cost.msgs += s.cost.msgs;
            a.cost.bytes += s.cost.bytes;
            a.ops += s.ops;
        }
        out
    }

    /// Writes the provenance line, then one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path, provenance: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"provenance\": {provenance}}}")?;
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {}, \"op\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"allocs\": {}, \"msgs\": {}, \"bytes\": {}, \"ops\": {}}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
                s.start_ns,
                s.end_ns,
                s.allocs,
                s.cost.msgs,
                s.cost.bytes,
                s.ops,
            )?;
        }
        out.flush()
    }

    fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates_by_name() {
        let mut t = Tracer::new(true);
        t.set_op(Some(7));
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner, 3, Cost { msgs: 4, bytes: 40 });
        t.exit(outer, 1, Cost { msgs: 4, bytes: 40 });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        let agg = t.by_name();
        assert_eq!(agg["inner"].ops, 3);
        assert_eq!(agg["inner"].cost.msgs, 4);
        assert!(agg["inner"].self_ns >= 2_000_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("x");
        t.exit(s, 1, Cost::default());
        t.count("c", 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.counter("c"), 0);
    }

    #[test]
    fn recording_pauses_only_in_a_traced_run() {
        let mut t = Tracer::new(true);
        t.record(false);
        let s = t.enter("skipped");
        t.exit(s, 1, Cost::default());
        t.count("c", 5);
        t.record(true);
        let s = t.enter("kept");
        t.exit(s, 1, Cost::default());
        assert_eq!(t.spans().iter().map(|s| s.name).collect::<Vec<_>>(), ["kept"]);
        assert_eq!(t.counter("c"), 0);
        let mut plain = Tracer::new(false);
        plain.record(true);
        assert!(!plain.on() && !plain.traced());
    }
}
