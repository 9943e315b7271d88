//! A counting global allocator for allocation-regression tests and the
//! allocation counts of the `ringbench` harness.
//!
//! [`CountingAlloc`] delegates every operation to the [`System`] allocator
//! and additionally bumps a per-thread counter per *allocation* call —
//! `alloc`, `alloc_zeroed` and `realloc` count once each — read by
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
/// Every hook forwards to the same hook of [`System`], so a growing `Vec`
/// grows its block the way `System` does (in place where it can) instead
/// of through [`GlobalAlloc`]'s default `realloc`, which allocates a new
/// block, copies the old one whole and frees it. `alloc`, `alloc_zeroed`
/// and `realloc` each count once per call, so a growing `Vec` is counted
/// once per heap request.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// ddelint::allow(unsafe, "delegating GlobalAlloc impl: forwards to System verbatim and only adds counter bumps")
unsafe impl GlobalAlloc for CountingAlloc {
    // ddelint::allow(unsafe, "signature required by GlobalAlloc::alloc; body only counts and delegates")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    // ddelint::allow(unsafe, "signature required by GlobalAlloc::alloc_zeroed; body only counts and delegates")
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    // ddelint::allow(unsafe, "signature required by GlobalAlloc::dealloc; body only delegates")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    // ddelint::allow(unsafe, "signature required by GlobalAlloc::realloc; body only counts and delegates, so System grows or shrinks the block")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
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

    /// `realloc` keeps the bytes through a grow and a shrink, zeroed memory
    /// reads zero, and each call counts once.
    #[test]
    fn realloc_and_alloc_zeroed_keep_bytes_and_count_once() {
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = thread_allocations();
        // ddelint::allow(unsafe, "test drives the allocator hooks directly with a valid layout")
        let p = unsafe { CountingAlloc.alloc_zeroed(layout) };
        assert!(!p.is_null());
        assert_eq!(thread_allocations(), before + 1, "alloc_zeroed counted once");
        // ddelint::allow(unsafe, "p holds 64 initialized bytes from alloc_zeroed")
        let zeroed = unsafe { std::slice::from_raw_parts(p, 64) };
        assert!(zeroed.iter().all(|&b| b == 0), "alloc_zeroed hands out zeroes");
        let pattern: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5A).collect();
        // ddelint::allow(unsafe, "p is valid for 64 writable bytes")
        unsafe { std::ptr::copy_nonoverlapping(pattern.as_ptr(), p, 64) };

        let after_pattern = thread_allocations();
        // ddelint::allow(unsafe, "p and layout come from the alloc_zeroed above; the new size is nonzero")
        let grown = unsafe { CountingAlloc.realloc(p, layout, 4096) };
        assert!(!grown.is_null());
        assert_eq!(thread_allocations(), after_pattern + 1, "a grow counted once");
        // ddelint::allow(unsafe, "realloc keeps the first 64 bytes initialized")
        assert_eq!(unsafe { std::slice::from_raw_parts(grown, 64) }, &pattern[..]);

        let grown_layout = Layout::from_size_align(4096, 8).unwrap();
        // ddelint::allow(unsafe, "grown and its layout come from the realloc above; the new size is nonzero")
        let shrunk = unsafe { CountingAlloc.realloc(grown, grown_layout, 16) };
        assert!(!shrunk.is_null());
        assert_eq!(thread_allocations(), after_pattern + 2, "a shrink counted once");
        // ddelint::allow(unsafe, "realloc keeps the first 16 bytes initialized")
        assert_eq!(unsafe { std::slice::from_raw_parts(shrunk, 16) }, &pattern[..16]);
        // ddelint::allow(unsafe, "shrunk holds 16 bytes at align 8, from the realloc above")
        unsafe { CountingAlloc.dealloc(shrunk, Layout::from_size_align(16, 8).unwrap()) };
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
