//! Test support shared by the workspace's test suites.
//!
//! [`CountingAlloc`] is the one counting global allocator behind the
//! allocation-free tests. A test binary installs it itself:
//!
//! ```ignore
//! use qs_testkit::CountingAlloc;
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//! ```
//!
//! and reads [`CountingAlloc::calls`] around the code it measures. The
//! count is process-wide, so such a binary holds one test: a sibling test
//! thread would pollute it mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    /// Allocations and reallocations made so far by the whole process
    /// (meaningful once a test binary installed this allocator).
    pub fn calls() -> usize {
        ALLOC_CALLS.load(Ordering::SeqCst)
    }
}

// SAFETY: every call forwards to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
