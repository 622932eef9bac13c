//! `LogManager::append(&LogRecord)` builds the frame in place in the log's
//! tail buffer: once that buffer has reached its high-water mark, an
//! append allocates nothing — and neither does the force that writes the
//! tail out: it detaches the buffer instead of copying it, and the buffer
//! it swaps in is the one the previous force emptied. Counted with a
//! counting global allocator, in the style of
//! `crates/core/tests/alloc_free_commit.rs`.
//!
//! This file holds exactly one test so no sibling test thread can
//! pollute the process-wide allocation counter mid-measurement.

use qs_testkit::CountingAlloc;
use std::sync::Arc;

use qs_storage::{MemDisk, StableMedia};
use qs_types::{Lsn, PageId, TxnId};
use qs_wal::{LogManager, LogRecord};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_append_of_a_commit_record_is_allocation_free() {
    const BATCH: usize = 64;
    let media = Arc::new(MemDisk::new(LogManager::required_bytes(1 << 20)));
    let log = LogManager::format(media as Arc<dyn StableMedia>, 1 << 20).unwrap();
    let commit = LogRecord::Commit { txn: TxnId(7), prev: Lsn(4242) };
    // One round: a batch of appends, counted, then the force that empties
    // the tail buffer (counted in the second half, below).
    let round = || {
        let start = CountingAlloc::calls();
        for _ in 0..BATCH {
            log.append(&commit).unwrap();
        }
        let allocs = CountingAlloc::calls() - start;
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
    steady_state_force_of_a_large_tail_is_allocation_free();
}

/// A commit that shipped 2 MB of log early (the repo benchmark's
/// `crash_restart` transaction): append it as 8 KB runs, force the tail.
/// Called from the one test above, after it.
fn steady_state_force_of_a_large_tail_is_allocation_free() {
    const RUNS: usize = 256;
    const BODY: usize = 4 << 20;
    let media = Arc::new(MemDisk::new(LogManager::required_bytes(BODY)));
    let log = LogManager::format(media as Arc<dyn StableMedia>, BODY).unwrap();
    let frame = LogRecord::Update {
        txn: TxnId(7),
        prev: Lsn::NULL,
        page: PageId(3),
        slot: 0,
        offset: 0,
        before: vec![0; 16],
        after: vec![1; 16],
    }
    .encode();
    let run = frame.repeat(8192 / frame.len());
    let round = || {
        let start = CountingAlloc::calls();
        let mut prev = Lsn::NULL;
        for _ in 0..RUNS {
            prev = log.append_rechained_run(&run, prev).unwrap().1;
        }
        assert!(log.force(log.tail_lsn()).unwrap().wrote);
        let allocs = CountingAlloc::calls() - start;
        log.truncate_to(log.durable_lsn()).unwrap();
        allocs
    };
    // Warmup: the tail buffer and the buffer a force swaps it for both
    // grow to a round's size, one per round.
    assert!(round() > 0 && round() > 0);
    let mut allocs = usize::MAX;
    for _ in 0..5 {
        allocs = (0..64).map(|_| round()).sum();
        if allocs == 0 {
            break;
        }
    }
    assert_eq!(allocs, 0, "{allocs} allocations over 64 rounds of append 2 MB + force");
}
