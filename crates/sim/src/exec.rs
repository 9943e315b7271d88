//! Deterministic parallel execution of experiment cells.
//!
//! An [`ExecPlan`] decomposes an experiment into independent **cells** —
//! typically one `(scenario build, estimator, repeat block)` each — and
//! executes them across `N` worker threads while reassembling results in
//! **submission order**. Because every cell derives all of its randomness
//! from `(scenario.seed, Component, run_index)` and owns a freshly built
//! [`crate::BuiltScenario`] (no shared mutable network state), the output is
//! byte-identical for every worker count: `jobs = N` replays `jobs = 1`
//! exactly. `crates/sim/tests/determinism.rs` holds that contract.
//!
//! Workers steal cells from a shared queue (std `thread::scope`; the
//! workspace is offline, so no rayon), which keeps all workers busy even
//! when cell costs are wildly uneven (an `exact-walk` cell costs ~`O(P)`
//! messages, a `k = 8` probe cell a few dozen).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The configured worker count: 0 means "auto" (available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Cells completed since the last [`take_stats`] call.
static CELLS_DONE: AtomicU64 = AtomicU64::new(0);

/// Aggregate cell CPU time (nanoseconds) since the last [`take_stats`] call.
static CELL_NANOS: AtomicU64 = AtomicU64::new(0);

/// Portion of [`CELL_NANOS`] spent inside scenario builds (the build-vs-run
/// split; see [`note_build`]).
static BUILD_NANOS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations made inside cells since the last [`take_stats`] call
/// (stays 0 unless the binary installed [`dde_stats::alloc::CountingAlloc`]
/// as its global allocator, as the `ringbench` harness does).
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Build nanoseconds accrued on this thread (monotone; cells measure a
    /// before/after delta around themselves).
    static TL_BUILD: Cell<u64> = const { Cell::new(0) };
}

/// Credits `d` to the current thread's scenario-build time. Called by
/// [`crate::build()`]; the surrounding cell (if any) attributes the delta to
/// its own build-vs-run split.
pub fn note_build(d: Duration) {
    // `try_with`: fine to drop the credit during thread teardown. Saturating
    // throughout: a u64 nanosecond counter caps out at ~584 years, so pegging
    // at the max beats wrapping to a nonsense small number on week-long runs.
    let _ = TL_BUILD.try_with(|c| c.set(c.get().saturating_add(nanos_u64(d))));
}

/// A `Duration` as saturating u64 nanoseconds (`as_nanos` returns u128; the
/// raw `as u64` cast would silently truncate past ~584 years).
fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The worker count plans run with by default: the last [`set_jobs`] value,
/// or the machine's available parallelism when unset (or set to 0).
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Sets the default worker count for subsequent plans (`0` = auto).
///
/// Determinism does **not** depend on this value — it only controls how many
/// threads execute the cells, never what they compute.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Execution counters accumulated since the previous call (then reset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Cells executed.
    pub cells: u64,
    /// Summed per-cell wall-clock (= CPU time modulo scheduler noise).
    pub cpu: Duration,
    /// Portion of `cpu` spent building scenarios (snapshot-cache misses are
    /// expensive, hits nearly free — this is the number the cache shrinks).
    pub build: Duration,
    /// Heap allocations made inside cells (0 without the counting allocator).
    pub allocs: u64,
}

/// Drains the global cell counters, for progress/summary reporting.
pub fn take_stats() -> ExecStats {
    ExecStats {
        cells: CELLS_DONE.swap(0, Ordering::Relaxed),
        cpu: Duration::from_nanos(CELL_NANOS.swap(0, Ordering::Relaxed)),
        build: Duration::from_nanos(BUILD_NANOS.swap(0, Ordering::Relaxed)),
        allocs: ALLOC_COUNT.swap(0, Ordering::Relaxed),
    }
}

/// One executed cell: its value plus how long it took on its worker.
#[derive(Debug, Clone)]
pub struct CellResult<T> {
    /// What the cell computed.
    pub value: T,
    /// The cell's wall-clock on its worker thread.
    pub elapsed: Duration,
    /// Portion of `elapsed` spent in scenario builds (see [`note_build`]).
    pub build: Duration,
    /// Heap allocations the cell made (0 without the counting allocator).
    pub allocs: u64,
}

type CellFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// An ordered list of independent experiment cells.
///
/// Push cells in the order their results should come back; [`ExecPlan::run`]
/// returns exactly that order regardless of which worker finished what when.
#[derive(Default)]
pub struct ExecPlan<'a, T> {
    cells: Vec<CellFn<'a, T>>,
}

impl<'a, T: Send> ExecPlan<'a, T> {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self { cells: Vec::new() }
    }

    /// Appends a cell. Cells must be self-contained: everything they need is
    /// captured by value (or by shared reference), nothing is mutated across
    /// cells.
    pub fn push(&mut self, cell: impl FnOnce() -> T + Send + 'a) {
        self.cells.push(Box::new(cell));
    }

    /// Number of cells queued.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs with the ambient worker count (see [`jobs`]).
    pub fn run(self) -> Vec<CellResult<T>> {
        let n = jobs();
        self.run_with(n)
    }

    /// Runs the plan on `jobs` workers, returning results in push order.
    ///
    /// `jobs <= 1` executes inline (no threads); either path produces the
    /// same values because cells share no state.
    fn run_with(self, jobs: usize) -> Vec<CellResult<T>> {
        let n = self.cells.len();
        let jobs = jobs.max(1).min(n.max(1));
        if jobs <= 1 {
            return self.cells.into_iter().map(execute).collect();
        }

        let queue: Mutex<VecDeque<(usize, CellFn<'a, T>)>> =
            Mutex::new(self.cells.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<CellResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    // Steal the next unclaimed cell; exit when the queue runs dry.
                    let Some((index, cell)) = queue
                        .lock()
                        .expect("invariant: cells never panic, so the queue lock is never poisoned")
                        .pop_front()
                    else {
                        break;
                    };
                    let result = execute(cell);
                    *slots[index]
                        .lock()
                        .expect("invariant: result slots are poisoned only if a cell panicked") =
                        Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("invariant: scope joined all workers, so no lock is held or poisoned")
                    .expect("every queued cell executes")
            })
            .collect()
    }
}

/// Runs one cell on the current thread, measuring its wall-clock, its
/// build-time share, and its allocation count, then books the counters.
fn execute<T>(cell: CellFn<'_, T>) -> CellResult<T> {
    let build0 = TL_BUILD.with(Cell::get);
    let allocs0 = dde_stats::alloc::thread_allocations();
    // ddelint::allow(wallclock, "timing-only: elapsed feeds CellResult.elapsed and the stderr progress line, never an experiment value — this site-level review also stops D8 taint here")
    let start = Instant::now();
    let value = cell();
    let elapsed = start.elapsed();
    let build = Duration::from_nanos(TL_BUILD.with(Cell::get).saturating_sub(build0));
    let allocs = dde_stats::alloc::thread_allocations().saturating_sub(allocs0);
    finish(CellResult { value, elapsed, build, allocs })
}

/// Books a completed cell into the global counters.
fn finish<T>(result: CellResult<T>) -> CellResult<T> {
    CELLS_DONE.fetch_add(1, Ordering::Relaxed);
    CELL_NANOS.fetch_add(nanos_u64(result.elapsed), Ordering::Relaxed);
    BUILD_NANOS.fetch_add(nanos_u64(result.build), Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(result.allocs, Ordering::Relaxed);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_plan(n: usize) -> ExecPlan<'static, usize> {
        let mut plan = ExecPlan::new();
        for i in 0..n {
            plan.push(move || i * i);
        }
        plan
    }

    #[test]
    fn results_come_back_in_push_order() {
        for jobs in [1, 2, 4, 8] {
            let out = square_plan(23).run_with(jobs);
            let values: Vec<usize> = out.iter().map(|r| r.value).collect();
            assert_eq!(values, (0..23).map(|i| i * i).collect::<Vec<_>>(), "jobs = {jobs}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = square_plan(50).run_with(1);
        let parallel = square_plan(50).run_with(4);
        let a: Vec<usize> = serial.iter().map(|r| r.value).collect();
        let b: Vec<usize> = parallel.iter().map(|r| r.value).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn uneven_cells_all_complete() {
        let mut plan = ExecPlan::new();
        for i in 0..12usize {
            plan.push(move || {
                // Wildly uneven cell costs exercise the stealing path.
                let mut acc = 0u64;
                for x in 0..(i as u64 * 50_000) {
                    acc = acc.wrapping_add(x ^ acc.rotate_left(7));
                }
                (i, acc)
            });
        }
        let out = plan.run_with(3);
        assert_eq!(out.len(), 12);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.value.0, i);
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let out: Vec<CellResult<u8>> = ExecPlan::new().run_with(4);
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_from_the_enclosing_scope() {
        let inputs = [3usize, 1, 4, 1, 5];
        let mut plan = ExecPlan::new();
        for v in &inputs {
            plan.push(move || v + 1);
        }
        let out = plan.run_with(2);
        let values: Vec<usize> = out.iter().map(|r| r.value).collect();
        assert_eq!(values, vec![4, 2, 5, 2, 6]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let _ = take_stats();
        let _ = square_plan(5).run_with(2);
        let stats = take_stats();
        // Other tests may run plans concurrently in this binary, so only a
        // lower bound is safe to assert.
        assert!(stats.cells >= 5, "cells = {}", stats.cells);
    }

    #[test]
    fn build_time_is_attributed_to_the_cell() {
        let mut plan = ExecPlan::new();
        plan.push(|| {
            note_build(Duration::from_millis(5));
            note_build(Duration::from_millis(2));
            1u8
        });
        let out = plan.run_with(1);
        assert!(out[0].build >= Duration::from_millis(7), "build = {:?}", out[0].build);
        assert!(out[0].build <= out[0].elapsed.max(Duration::from_millis(7)));
        // The global split sees it too (lower bound only: parallel tests).
        let stats = take_stats();
        assert!(stats.build >= Duration::from_millis(7), "build = {:?}", stats.build);
    }

    #[test]
    fn nanosecond_counters_saturate_instead_of_wrapping() {
        assert_eq!(nanos_u64(Duration::MAX), u64::MAX);
        assert_eq!(nanos_u64(Duration::from_nanos(7)), 7);
        // Booking past the cap pegs the thread-local instead of wrapping (the
        // raw `+` would panic in debug and wrap in release).
        note_build(Duration::MAX);
        note_build(Duration::from_secs(1));
        assert_eq!(TL_BUILD.with(Cell::get), u64::MAX);
        // Each test runs on its own thread, so no reset needed for siblings.
    }

    #[test]
    fn jobs_setting_round_trips() {
        let before = JOBS.load(Ordering::Relaxed);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
        JOBS.store(before, Ordering::Relaxed);
    }
}
