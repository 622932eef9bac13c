//! Proves that a no-steal transaction's deferred frames cost no allocation
//! each, with a counting global allocator: after warm-up, a transaction
//! that ships a full log page of `UpdateLogical` frames and commits —
//! verify, append, stash in the transaction's arena, force, sort the
//! arena's index by page, apply to the pool — allocates exactly as often
//! as one that ships a single frame for each of the same pages.
//!
//! This file holds exactly one test so no sibling test thread can
//! pollute the process-wide allocation counter mid-measurement.

use qs_esm::{RecoveryFlavor, Server, ServerConfig};
use qs_sim::Meter;
use qs_storage::Page;
use qs_testkit::CountingAlloc;
use qs_types::{Lsn, PageId, TxnId, PAGE_SIZE};
use qs_wal::RecordWriter;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAGES: usize = 8;
const OBJ: usize = 1024;
const AFTER: usize = 16;

/// One log page of `UpdateLogical` frames for `txn` (or, not `full`, one
/// frame per page), the pages taken round-robin in descending order so
/// every frame is a run of its own and the commit has to regroup them.
fn batch(txn: TxnId, pids: &[PageId], full: bool, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    let mut w = RecordWriter::new(buf);
    let mut frames = 0;
    loop {
        let pid = pids[pids.len() - 1 - frames % pids.len()];
        let offset = (frames * AFTER % OBJ) as u16;
        let len = w.update_logical(txn, Lsn::NULL, pid, 0, offset, &[frames as u8; AFTER]);
        frames += 1;
        if (!full && frames == pids.len()) || w.records() * len + len > PAGE_SIZE {
            return frames;
        }
    }
}

/// Allocations made by one transaction that ships `batch(.., full)` and
/// commits.
fn allocs_per_round(server: &Server, pids: &[PageId], full: bool, buf: &mut Vec<u8>) -> usize {
    let start = CountingAlloc::calls();
    let txn = server.begin();
    batch(txn, pids, full, buf);
    server.receive_log_bytes(txn, buf).unwrap();
    server.commit(txn).unwrap();
    CountingAlloc::calls() - start
}

#[test]
fn no_steal_frames_are_stashed_and_applied_without_allocating() {
    let cfg = ServerConfig::new(RecoveryFlavor::RedoLogical)
        .with_pool_mb(1.0)
        .with_volume_pages(64)
        .with_log_mb(16.0);
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(PAGES).unwrap();
    for &pid in &pids {
        let mut page = Page::new();
        page.insert(pid, &[0u8; OBJ]).unwrap();
        server.bulk_write(pid, &page).unwrap();
    }
    server.bulk_sync().unwrap();
    let mut buf = Vec::with_capacity(PAGE_SIZE);
    let frames = batch(TxnId(1), &pids, true, &mut buf);
    assert!(frames > 100, "a log page holds {frames} frames");

    // Warm-up: the pool faults every page in, the pending map, the arena,
    // the DPT and the log's tail buffers grow to a transaction's size.
    for _ in 0..4 {
        allocs_per_round(&server, &pids, true, &mut buf);
        allocs_per_round(&server, &pids, false, &mut buf);
    }
    // The libtest harness thread occasionally allocates, so the quietest of
    // a few rounds counts: a per-frame allocation shows in every one, as
    // a hundred or more.
    let quietest = |full: bool, buf: &mut Vec<u8>| {
        (0..8).map(|_| allocs_per_round(&server, &pids, full, buf)).min().unwrap()
    };
    let one = quietest(false, &mut buf);
    let page = quietest(true, &mut buf);
    assert_eq!(
        page, one,
        "a transaction of {frames} no-steal frames on {PAGES} pages allocated {page} times, \
         one of a frame per page {one}"
    );

    // The frames did land.
    for &pid in &pids {
        let page = server.read_page_for_test(pid).unwrap();
        assert_ne!(page.object(pid, 0).unwrap(), &[0u8; OBJ][..], "{pid}");
    }
}
