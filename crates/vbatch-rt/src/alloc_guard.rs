//! A counting global allocator for *proving* zero-allocation claims in
//! tests.
//!
//! The workspace pipeline promises that after warm-up a preconditioned
//! Krylov iteration performs no heap allocations. Inspection cannot
//! prove that — an innocent `entry().or_default()` or buffer
//! move-assign hides an alloc/free pair — so the zero-alloc tests
//! install [`CountingAlloc`] as their `#[global_allocator]` and assert
//! the counter delta across the measured region is exactly zero:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = ALLOC.snapshot();
//! hot_loop();
//! assert_eq!(ALLOC.snapshot().allocs_since(&before), 0);
//! ```
//!
//! The counters are relaxed atomics over [`std::alloc::System`]; the
//! overhead is a handful of nanoseconds per allocation, fine for a
//! test binary and deliberately not installed anywhere else.
//!
//! Besides the process-wide totals, a snapshot carries a *scoped*
//! count: allocations made by the snapshotting thread plus those made
//! on [`crate::par`] pool workers. That is every thread a call's work
//! runs on, and no other: a test harness spawning or reporting other
//! tests on its own threads cannot leak into a scoped window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // const-initialized and drop-free: reading them never allocates
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator and counts every allocation.
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes: AtomicU64,
    pool_allocs: AtomicU64,
    pool_bytes: AtomicU64,
}

/// A point-in-time reading of the allocation counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total allocations (including reallocs that moved).
    pub allocs: u64,
    /// Total deallocations.
    pub deallocs: u64,
    /// Total bytes ever requested.
    pub bytes: u64,
    /// Allocations by the snapshotting thread plus all pool workers.
    pub scoped_allocs: u64,
    /// Bytes requested by the snapshotting thread plus all pool workers.
    pub scoped_bytes: u64,
}

impl AllocSnapshot {
    /// Allocations performed since the earlier snapshot `start`.
    pub fn allocs_since(&self, start: &AllocSnapshot) -> u64 {
        self.allocs - start.allocs
    }

    /// Bytes requested since the earlier snapshot `start`.
    pub fn bytes_since(&self, start: &AllocSnapshot) -> u64 {
        self.bytes - start.bytes
    }

    /// Allocations made since `start` by this thread or a pool worker;
    /// both snapshots must come from the same thread.
    pub fn scoped_allocs_since(&self, start: &AllocSnapshot) -> u64 {
        self.scoped_allocs - start.scoped_allocs
    }

    /// Bytes requested since `start` by this thread or a pool worker;
    /// both snapshots must come from the same thread.
    pub fn scoped_bytes_since(&self, start: &AllocSnapshot) -> u64 {
        self.scoped_bytes - start.scoped_bytes
    }
}

impl CountingAlloc {
    /// A fresh counting allocator (all counters zero).
    pub const fn new() -> Self {
        CountingAlloc {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            pool_allocs: AtomicU64::new(0),
            pool_bytes: AtomicU64::new(0),
        }
    }

    /// Read the current counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            scoped_allocs: THREAD_ALLOCS.with(Cell::get) + self.pool_allocs.load(Ordering::Relaxed),
            scoped_bytes: THREAD_BYTES.with(Cell::get) + self.pool_bytes.load(Ordering::Relaxed),
        }
    }

    fn count_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        if crate::par::on_worker_thread() {
            self.pool_allocs.fetch_add(1, Ordering::Relaxed);
            self.pool_bytes.fetch_add(size as u64, Ordering::Relaxed);
        } else {
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: defers every operation to `System`; the counters are plain
// relaxed atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.deallocs.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // a grow-in-place still touches the heap; count it as one
        // allocation so "zero allocations" really means untouched
        self.count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as #[global_allocator] here (the test binary would
    // count every harness allocation); exercise the counters directly.
    #[test]
    fn counters_track_manual_calls() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        let before = a.snapshot();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        let after = a.snapshot();
        assert_eq!(after.allocs_since(&before), 1);
        assert_eq!(after.bytes_since(&before), 64);
        assert_eq!(after.scoped_allocs_since(&before), 1);
        assert_eq!(after.scoped_bytes_since(&before), 64);
        assert_eq!(after.deallocs - before.deallocs, 1);
    }

    #[test]
    fn snapshot_delta_is_zero_without_activity() {
        let a = CountingAlloc::new();
        let s1 = a.snapshot();
        let s2 = a.snapshot();
        assert_eq!(s2.allocs_since(&s1), 0);
        assert_eq!(s2.bytes_since(&s1), 0);
    }

    #[test]
    fn scoped_count_skips_other_threads() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(32, 8).unwrap();
        let before = a.snapshot();
        std::thread::scope(|s| {
            s.spawn(|| unsafe { a.dealloc(a.alloc(layout), layout) });
        });
        let after = a.snapshot();
        assert_eq!(after.allocs_since(&before), 1);
        assert_eq!(after.scoped_allocs_since(&before), 0);
    }
}
