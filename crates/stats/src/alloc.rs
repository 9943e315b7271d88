//! A counting global allocator for allocation-regression tests and the
//! allocation counts of the `ringbench` harness.
//!
//! [`CountingAlloc`] delegates every operation to the [`System`] allocator
//! and additionally bumps a per-thread counter per *allocation*, read by
//! [`thread_allocations`] (deallocations are not counted — the interesting
//! regression signal is "how many times did this hot path hit the heap", and
//! frees mirror allocs). The count is per thread so that the per-cell
//! allocation accounting in `dde-sim` is not polluted by concurrently
//! running cells.
//!
//! The counter is a const-initialized thread-local, so the hook itself never
//! allocates (no reentrancy) and costs one uncontended write per allocation.
//!
//! Registering it is the binary's choice:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dde_stats::alloc::CountingAlloc = dde_stats::alloc::CountingAlloc;
//! ```
//!
//! When no binary registers it, the counter-reading functions simply return
//! zero-deltas, so code that *reports* allocation counts can run unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's number of allocations since it started. Const-init so
    /// first access from inside the allocator itself cannot allocate.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_alloc() {
    // `try_with`: the thread-local may already be torn down during thread
    // exit while late frees/allocs still happen; those just go uncounted.
    let _ = THREAD.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the *calling thread* so far (0 unless a binary
/// installed [`CountingAlloc`]). Take a before/after difference around a
/// region to count its allocations.
pub fn thread_allocations() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}

/// A `#[global_allocator]` that counts allocations and otherwise behaves
/// exactly like [`System`].
///
/// `realloc` and `alloc_zeroed` use the [`GlobalAlloc`] defaults, which
/// route through [`GlobalAlloc::alloc`], so a growing `Vec` is counted once
/// per actual heap request.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// ddelint::allow(unsafe, "delegating GlobalAlloc impl: forwards to System verbatim and only adds counter bumps")
unsafe impl GlobalAlloc for CountingAlloc {
    // ddelint::allow(unsafe, "signature required by GlobalAlloc::alloc; body only counts and delegates")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    // ddelint::allow(unsafe, "signature required by GlobalAlloc::dealloc; body only delegates")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_bump_both_counters() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        let thread_before = thread_allocations();
        // ddelint::allow(unsafe, "test drives the allocator hooks directly with a valid layout")
        let p = unsafe { CountingAlloc.alloc(layout) };
        assert!(!p.is_null());
        // ddelint::allow(unsafe, "pointer and layout come from the paired alloc above")
        unsafe { CountingAlloc.dealloc(p, layout) };
        assert_eq!(thread_allocations(), thread_before + 1, "alloc counted once on this thread");
    }

    #[test]
    fn dealloc_is_not_counted() {
        let layout = Layout::from_size_align(16, 8).unwrap();
        // ddelint::allow(unsafe, "test drives the allocator hooks directly with a valid layout")
        let p = unsafe { CountingAlloc.alloc(layout) };
        let after_alloc = thread_allocations();
        // ddelint::allow(unsafe, "pointer and layout come from the paired alloc above")
        unsafe { CountingAlloc.dealloc(p, layout) };
        assert_eq!(thread_allocations(), after_alloc, "frees leave the counter alone");
    }
}
