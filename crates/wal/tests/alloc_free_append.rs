//! `LogManager::append(&LogRecord)` builds the frame in place in the log's
//! tail buffer: once that buffer has reached its high-water mark, an
//! append allocates nothing. Counted with a counting global allocator, in
//! the style of `crates/core/tests/alloc_free_commit.rs`.
//!
//! This file holds exactly one test so no sibling test thread can
//! pollute the process-wide allocation counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qs_storage::{MemDisk, StableMedia};
use qs_types::{Lsn, TxnId};
use qs_wal::{LogManager, LogRecord};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
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

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_append_of_a_commit_record_is_allocation_free() {
    const BATCH: usize = 64;
    let media = Arc::new(MemDisk::new(LogManager::required_bytes(1 << 20)));
    let log = LogManager::format(media as Arc<dyn StableMedia>, 1 << 20).unwrap();
    let commit = LogRecord::Commit { txn: TxnId(7), prev: Lsn(4242) };
    // One round: a batch of appends, counted, then the force that empties
    // the tail buffer (it copies the batch out — not the path under test).
    let round = || {
        let start = ALLOC_CALLS.load(Ordering::SeqCst);
        for _ in 0..BATCH {
            log.append(&commit).unwrap();
        }
        let allocs = ALLOC_CALLS.load(Ordering::SeqCst) - start;
        log.force(log.tail_lsn()).unwrap();
        log.truncate_to(log.durable_lsn()).unwrap();
        allocs
    };
    // Warmup: grows the tail buffer to a batch's size.
    round();
    // The libtest harness thread occasionally allocates; a genuine
    // regression allocates on every append and fails every attempt.
    let mut allocs = usize::MAX;
    for _ in 0..5 {
        allocs = (0..100).map(|_| round()).sum();
        if allocs == 0 {
            break;
        }
    }
    assert_eq!(allocs, 0, "{allocs} allocations over {} steady-state appends", 100 * BATCH);
}
