//! Proves the acceptance criterion "zero heap allocations per update
//! record on the steady-state commit path" with a counting global
//! allocator: after one warmup pass sizes the scratch buffers, the
//! diff → combine → RecordWriter pipeline must not allocate at all.
//!
//! The same counter then watches a whole `Store`: a transaction whose
//! write set overflows a 4-page recovery buffer on every write fault
//! generates its log records early — victim list, diff, encode, queue,
//! ship, server receive and log append — without allocating either. And
//! whole transactions, from `begin` to the return of `commit`, allocate
//! nothing on either side: locks, transaction table, dirty-page table,
//! recovery buffer, shipped pages and the log force all reuse storage.
//!
//! This file holds exactly one test so no sibling test thread can
//! pollute the process-wide allocation counter mid-measurement.

use qs_testkit::CountingAlloc;
use std::sync::Arc;

use qs_esm::{ClientConn, Server, ServerConfig};
use qs_sim::Meter;
use qs_storage::Page;
use qs_types::{ClientId, Lsn, Oid, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};
use qs_wal::RecordWriter;
use quickstore::diff::{append_modified_runs, combine_regions_into, Region};
use quickstore::{Store, SystemConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One commit's worth of work: diff the page, combine runs under the
/// header threshold, and serialize one update record per region into
/// the shared batch buffer. Mirrors `store::flush_records_for`.
fn commit_pass(
    before: &[u8; PAGE_SIZE],
    after: &[u8; PAGE_SIZE],
    runs: &mut Vec<Region>,
    regions: &mut Vec<Region>,
    enc: &mut Vec<u8>,
) -> usize {
    runs.clear();
    regions.clear();
    enc.clear();
    append_modified_runs(before, after, 0, runs);
    combine_regions_into(runs, LOG_HEADER_SIZE, regions);
    let mut w = RecordWriter::new(enc);
    for r in regions.iter() {
        w.update(
            TxnId(7),
            Lsn::NULL,
            PageId(3),
            0,
            r.start as u16,
            &before[r.start..r.end],
            &after[r.start..r.end],
        );
    }
    w.records()
}

#[test]
fn steady_state_commit_path_is_allocation_free() {
    let before = [0u8; PAGE_SIZE];
    let mut after = before;
    // Four 8-byte writes separated by >LOG_HEADER_SIZE/2-byte gaps, so the
    // combine rule keeps them as four distinct update records.
    for base in [0usize, 40, 80, 120] {
        for b in &mut after[base..base + 8] {
            *b = 0xA5;
        }
    }

    let mut runs = Vec::new();
    let mut regions = Vec::new();
    let mut enc = Vec::new();

    // Warmup: grows the scratch vectors to their high-water mark.
    let records = commit_pass(&before, &after, &mut runs, &mut regions, &mut enc);
    assert_eq!(records, 4, "gaps >25 bytes must stay separate records");

    // Measured phase: no allocator traffic at all, regardless of how many
    // records are produced per pass. The counter is process-wide and the
    // libtest harness thread occasionally allocates (timers, output), so
    // retry a few times: a genuine regression allocates on *every* pass
    // (1000+ counts) and fails all attempts; harness noise (a handful of
    // counts) vanishes on a retry.
    let mut allocs = usize::MAX;
    for _ in 0..5 {
        let start = CountingAlloc::calls();
        let mut total_records = 0usize;
        for _ in 0..1_000 {
            total_records += commit_pass(&before, &after, &mut runs, &mut regions, &mut enc);
        }
        allocs = CountingAlloc::calls() - start;
        assert_eq!(total_records, 4_000);
        if allocs == 0 {
            break;
        }
    }
    assert_eq!(allocs, 0, "steady-state commit path allocated {allocs} times over 1000 passes");
    recovery_buffer_overflows_are_allocation_free();
    whole_transactions_are_allocation_free();
}

/// A PD-ESM store over a freshly formatted server holding `pages` pages of
/// one 64-byte object each. Returns the store and the objects.
fn loaded_store(cfg: SystemConfig, pages: usize) -> (Store, Vec<Oid>) {
    let meter = Meter::new();
    let server_cfg =
        ServerConfig::new(cfg.flavor).with_pool_mb(2.0).with_volume_pages(256).with_log_mb(16.0);
    let server = Arc::new(Server::format(server_cfg, Arc::clone(&meter)).unwrap());
    let mut oids = Vec::new();
    for pid in server.bulk_allocate(pages).unwrap() {
        let mut p = Page::new();
        oids.push(Oid::new(pid, p.insert(pid, &[0u8; 64]).unwrap()));
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), meter);
    (Store::new(client, cfg).unwrap(), oids)
}

/// Allocations made by one transaction, `begin` through the return of
/// `commit`, that writes `data` at offset `lane` of each object in `oids`.
fn txn_allocs(store: &mut Store, oids: &[Oid], lane: usize, data: &[u8]) -> usize {
    let start = CountingAlloc::calls();
    store.begin().unwrap();
    for &oid in oids {
        store.modify(oid, lane, data).unwrap();
    }
    store.commit().unwrap();
    CountingAlloc::calls() - start
}

/// Two PD-ESM transaction shapes, each after two warm-up transactions:
///
/// * the repo benchmark's short transaction — four 8-byte writes on four
///   of 64 cached pages: per page an S lock (locks are not cached across
///   transactions), the write fault's X upgrade and before-image; at commit
///   four diffs, the log page shipped, four pages shipped, the force and
///   the lock release;
/// * a 104-page transaction that ships every page it writes.
///
/// Every measured transaction must allocate nothing. The libtest harness
/// thread occasionally allocates, so the quietest of five counts: a
/// genuine regression allocates in every one.
fn whole_transactions_are_allocation_free() {
    let (mut store, oids) = loaded_store(SystemConfig::pd_esm().with_memory(2.0, 0.5), 64);
    // Warm-up: the first transaction caches all 64 pages and enters each
    // in the server's dirty-page table; the second is a short one.
    txn_allocs(&mut store, &oids, 0, &[1; 8]);
    txn_allocs(&mut store, &oids[..4], 8, &[2; 8]);
    let before = store.meter().snapshot();
    let mut quietest = usize::MAX;
    for round in 0..5u8 {
        let four: Vec<Oid> =
            (0..4).map(|k| oids[(17 * usize::from(round) + 13 * k) % 64]).collect();
        quietest = quietest.min(txn_allocs(&mut store, &four, 16, &[3 + round; 8]));
    }
    let after = store.meter().snapshot();
    let per_txn = |a: u64, b: u64| (a - b) / 5;
    assert_eq!(per_txn(after.locks_acquired, before.locks_acquired), 8, "4 S locks, 4 upgrades");
    assert_eq!(per_txn(after.dirty_pages_shipped, before.dirty_pages_shipped), 4);
    assert_eq!(per_txn(after.log_record_pages_shipped, before.log_record_pages_shipped), 1);
    assert_eq!(quietest, 0, "a short transaction made {quietest} allocations");

    const PAGES: usize = 104;
    let (mut store, oids) = loaded_store(SystemConfig::pd_esm().with_memory(4.0, 1.0), PAGES);
    for warm in 0..2u8 {
        txn_allocs(&mut store, &oids, 0, &[1 + warm; 8]);
    }
    let shipped = store.meter().snapshot().dirty_pages_shipped;
    let mut quietest = usize::MAX;
    for round in 0..5u8 {
        quietest = quietest.min(txn_allocs(&mut store, &oids, 0, &[3 + round; 8]));
    }
    let shipped = store.meter().snapshot().dirty_pages_shipped - shipped;
    assert_eq!(shipped, 5 * PAGES as u64, "every page written is shipped");
    assert_eq!(store.recovery_buffer_overflows(), 0, "the recovery buffer holds the write set");
    assert_eq!(quietest, 0, "a {PAGES}-page transaction made {quietest} allocations");
}

/// PD-ESM, 104 pages written round after round within one transaction
/// against a 4-page recovery buffer. After the first round every page holds
/// its X lock and has been flushed once, so each later write faults,
/// overflows the buffer (one FIFO victim: diffed, its record shipped) and
/// takes a fresh copy — `Store::make_rbuf_room` and everything under it, with
/// no lock-manager call in the way. Two warm-up transactions grow every
/// buffer on the path (client log buffer, both of the server log's tail
/// buffers) to a transaction's size; the third is measured round by round.
/// Called from the one test above, after it.
fn recovery_buffer_overflows_are_allocation_free() {
    const PAGES: usize = 104;
    const ROUNDS: u8 = 7;
    let (mut store, oids) =
        loaded_store(SystemConfig::pd_esm().with_memory(2.0, 4.0 / 128.0), PAGES);

    let mut quietest = usize::MAX;
    for txn in 0..3u8 {
        store.begin().unwrap();
        for round in 0..ROUNDS {
            let overflows = store.recovery_buffer_overflows();
            let start = CountingAlloc::calls();
            for &oid in &oids {
                store.modify(oid, 0, &[1 + txn * ROUNDS + round; 8]).unwrap();
            }
            let allocs = CountingAlloc::calls() - start;
            let overflows = store.recovery_buffer_overflows() - overflows;
            if round > 0 {
                assert_eq!(overflows, PAGES as u64, "every write of a later round overflows");
            }
            // Round 0 takes the locks, round 1 is the first to flush the
            // last four pages; from round 2 on nothing is new. The libtest
            // harness thread occasionally allocates, so the quietest round
            // counts: a genuine regression allocates in every one.
            if txn == 2 && round >= 2 {
                quietest = quietest.min(allocs);
            }
        }
        store.commit().unwrap();
    }
    assert_eq!(quietest, 0, "{quietest} allocations over {PAGES} recovery-buffer overflows");
}
