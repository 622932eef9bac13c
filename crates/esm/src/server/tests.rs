use super::*;
use crate::lock::{LockMode, Resource};
use crate::stash::{Laid, Stashed};
use qs_types::{Lsn, QsError, TxnId};
use qs_wal::{LogRecord, SchemeCode};

fn small_cfg(flavor: RecoveryFlavor) -> ServerConfig {
    ServerConfig {
        flavor,
        pool_pages: 64,
        volume_pages: 256,
        log_bytes: 4 * 1024 * 1024,
        log_high_watermark: 0.6,
        log_low_watermark: 0.3,
        pool_shards: 1,
        group_commit: false,
        restart: RestartConfig::default(),
    }
}

fn loaded_server(flavor: RecoveryFlavor) -> (Server, Vec<PageId>) {
    let server = Server::format(small_cfg(flavor), Meter::new()).unwrap();
    let pids = server.bulk_allocate(8).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    (server, pids)
}

fn updated_page(server: &Server, txn: TxnId, pid: PageId, val: u8) -> Page {
    let mut page = server.fetch_page(txn, pid).unwrap();
    let obj = page.object_mut(pid, 0).unwrap();
    obj.fill(val);
    page
}

/// Run one committed update through the ESM flavor and crash.
fn esm_commit_crash(flavor: RecoveryFlavor) -> (StableParts, ServerConfig, PageId) {
    let (server, pids) = loaded_server(flavor);
    let pid = pids[0];
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X).unwrap();
    let page = updated_page(&server, txn, pid, 7);
    match flavor {
        RecoveryFlavor::Wpl => {
            server.receive_dirty_page(txn, pid, page).unwrap();
        }
        RecoveryFlavor::RedoLogical => {
            let rec = LogRecord::UpdateLogical {
                txn,
                prev: Lsn::NULL,
                page: pid,
                slot: 0,
                offset: 0,
                after: vec![7u8; 64],
            };
            server.receive_log_records(txn, vec![rec]).unwrap();
        }
        _ => {
            let rec = LogRecord::Update {
                txn,
                prev: Lsn::NULL,
                page: pid,
                slot: 0,
                offset: 0,
                before: vec![0u8; 64],
                after: vec![7u8; 64],
            };
            server.receive_log_records(txn, vec![rec]).unwrap();
            if flavor == RecoveryFlavor::EsmAries {
                server.receive_dirty_page(txn, pid, page).unwrap();
            }
        }
    }
    server.commit(txn).unwrap();
    let cfg = server.config().clone();
    (server.crash(), cfg, pid)
}

#[test]
fn force_stats_metered_on_both_paths() {
    use qs_wal::log::ForceStats;
    let meter = Meter::new();
    let server = Server::format(small_cfg(RecoveryFlavor::EsmAries), Arc::clone(&meter)).unwrap();
    server.meter_force(ForceStats { pages_written: 2, wrote: true });
    server.meter_force(ForceStats { pages_written: 0, wrote: false });
    let s = meter.snapshot();
    assert_eq!(s.log_forces, 1, "only the real force counts as a force");
    assert_eq!(s.log_pages_written, 2);
    assert_eq!(s.log_forces_noop, 1, "the no-op force is counted separately");
}

#[test]
fn traced_restart_reports_phases_and_flight() {
    let cfg = small_cfg(RecoveryFlavor::EsmAries);
    let meter = Meter::new();
    let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 32);
    let server = Server::format_traced(cfg.clone(), Arc::clone(&meter), tracer).unwrap();
    let pids = server.bulk_allocate(2).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let txn = server.begin();
    server.lock_page(txn, pids[0], LockMode::X).unwrap();
    let page = updated_page(&server, txn, pids[0], 7);
    let rec = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pids[0],
        slot: 0,
        offset: 0,
        before: vec![0u8; 64],
        after: vec![7u8; 64],
    };
    server.receive_log_records(txn, vec![rec]).unwrap();
    server.receive_dirty_page(txn, pids[0], page).unwrap();
    server.commit(txn).unwrap();
    let parts = server.crash();
    assert!(parts.flight.as_ref().is_some_and(|f| !f.is_empty()), "crash snapshots the ring");
    let meter2 = Meter::new();
    let tracer2 = Tracer::flight(Arc::clone(&meter2), HardwareModel::paper_1995(), 32);
    let server2 = Server::restart_traced(parts, cfg, meter2, tracer2).unwrap();
    let report = server2.restart_report().expect("restart produces a report");
    assert_eq!(report.flavor, "ESM");
    assert_eq!(report.phases.len(), 3, "analysis / redo / undo");
    assert!(report.total_records() > 0, "the commit left records to analyze");
    assert!(report.total_sim_s() > 0.0);
    assert!(!report.flight.is_empty(), "the crashed server's flight rode along");
    assert!(server2.restart_report().is_some(), "report is clonable out repeatedly");
}

#[test]
fn committed_update_survives_crash_esm() {
    let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::EsmAries);
    let server = Server::restart(parts, cfg, Meter::new()).unwrap();
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
}

#[test]
fn committed_update_survives_crash_redo() {
    let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::RedoAtServer);
    let server = Server::restart(parts, cfg, Meter::new()).unwrap();
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
}

#[test]
fn committed_update_survives_crash_rlog_without_undo_phase() {
    let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::RedoLogical);
    let server = Server::restart(parts, cfg, Meter::new()).unwrap();
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
    let report = server.restart_report().unwrap();
    assert_eq!(report.flavor, "RLOG");
    assert_eq!(report.phases.len(), 2, "analysis / redo — no undo under no-steal");
    assert!(report.phases.iter().all(|p| p.name != "undo"));
    assert!(report.phases.iter().any(|p| p.name == "redo" && p.records > 0));
}

#[test]
fn committed_update_survives_crash_wpl() {
    let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::Wpl);
    let server = Server::restart(parts, cfg, Meter::new()).unwrap();
    assert_eq!(server.wpl_table_len(), 1, "WPL table reconstructed");
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
    // And after draining the table the permanent location is correct.
    server.quiesce().unwrap();
    assert_eq!(server.wpl_table_len(), 0);
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
}

#[test]
fn uncommitted_update_rolled_back_on_restart() {
    for flavor in [
        RecoveryFlavor::EsmAries,
        RecoveryFlavor::RedoAtServer,
        RecoveryFlavor::RedoLogical,
        RecoveryFlavor::Wpl,
    ] {
        let (server, pids) = loaded_server(flavor);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, 9);
        match flavor {
            RecoveryFlavor::Wpl => server.receive_dirty_page(txn, pid, page).unwrap(),
            RecoveryFlavor::RedoLogical => {
                let rec = LogRecord::UpdateLogical {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    after: vec![9u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
            }
            _ => {
                let rec = LogRecord::Update {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    before: vec![0u8; 64],
                    after: vec![9u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
                if flavor == RecoveryFlavor::EsmAries {
                    server.receive_dirty_page(txn, pid, page).unwrap();
                }
            }
        }
        // Crash before commit.
        let cfg = server.config().clone();
        let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
        let page = server2.read_page_for_test(pid).unwrap();
        assert_eq!(
            page.object(pid, 0).unwrap(),
            &[0u8; 64][..],
            "{flavor:?}: uncommitted update must not survive"
        );
        assert_eq!(server2.active_txns(), 0);
    }
}

/// Restart undo reads its chain through the log-page cache, and the
/// report's `pages_read` counts *distinct* log pages fetched — not one
/// page per record undone (100 undone records here span only a few
/// 8 KB log pages).
#[test]
fn undo_counts_distinct_log_pages_not_records() {
    let (server, pids) = loaded_server(RecoveryFlavor::EsmAries);
    let pid = pids[0];
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X).unwrap();
    let rec = |i: u8| LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before: vec![0u8; 64],
        after: vec![i; 64],
    };
    let rec_len = rec(0).encode().len() as u64;
    server.receive_log_records(txn, (0..100).map(|i| rec(i as u8)).collect()).unwrap();
    // Checkpoint: forces the records durable and records the loser in
    // the checkpoint's active-transaction table.
    server.checkpoint().unwrap();
    let cfg = server.config().clone();
    let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    let report = server2.restart_report().unwrap();
    let undo = &report.phases[2];
    assert_eq!(undo.name, "undo");
    assert_eq!(undo.records, 100, "all 100 updates undone");
    // The chain starts at the log origin (nothing logged before it);
    // its 100 records span exactly these log pages.
    let first = PAGE_SIZE as u64;
    let distinct: std::collections::HashSet<u64> =
        (0..100u64).map(|i| (first + i * rec_len) / PAGE_SIZE as u64).collect();
    assert!(distinct.len() < 10, "sanity: records pack many per page");
    assert_eq!(undo.pages_read, distinct.len() as u64, "distinct log pages, not records");
    // And the rollback took: the page shows its before-image.
    let page = server2.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[0u8; 64][..]);
}

#[test]
fn explicit_abort_restores_old_value() {
    for flavor in [
        RecoveryFlavor::EsmAries,
        RecoveryFlavor::RedoAtServer,
        RecoveryFlavor::RedoLogical,
        RecoveryFlavor::Wpl,
    ] {
        let (server, pids) = loaded_server(flavor);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, 5);
        match flavor {
            RecoveryFlavor::Wpl => server.receive_dirty_page(txn, pid, page).unwrap(),
            RecoveryFlavor::RedoLogical => {
                let rec = LogRecord::UpdateLogical {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    after: vec![5u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
            }
            _ => {
                let rec = LogRecord::Update {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    before: vec![0u8; 64],
                    after: vec![5u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
                if flavor == RecoveryFlavor::EsmAries {
                    server.receive_dirty_page(txn, pid, page).unwrap();
                }
            }
        }
        server.abort(txn).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[0u8; 64][..], "{flavor:?}");
    }
}

#[test]
fn log_before_page_rule_enforced() {
    let (server, pids) = loaded_server(RecoveryFlavor::EsmAries);
    let pid = pids[0];
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X).unwrap();
    let page = updated_page(&server, txn, pid, 3);
    assert!(matches!(
        server.receive_dirty_page(txn, pid, page),
        Err(QsError::LogBeforePageViolation(_))
    ));
}

#[test]
fn redo_flavor_rejects_dirty_pages_and_wpl_rejects_records() {
    let (server, pids) = loaded_server(RecoveryFlavor::RedoAtServer);
    let txn = server.begin();
    assert!(server.receive_dirty_page(txn, pids[0], Page::new()).is_err());
    let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
    let txn = server.begin();
    let rec = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pids[0],
        slot: 0,
        offset: 0,
        before: vec![0],
        after: vec![1],
    };
    assert!(server.receive_log_records(txn, vec![rec]).is_err());
}

#[test]
fn rlog_rejects_dirty_pages_and_physical_updates() {
    let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
    let txn = server.begin();
    server.lock_page(txn, pids[0], LockMode::X).unwrap();
    // No-steal: the server never accepts uncommitted frames.
    assert!(server.receive_dirty_page(txn, pids[0], Page::new()).is_err());
    // Logical flavor: before/after-image records are a protocol error.
    let rec = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pids[0],
        slot: 0,
        offset: 0,
        before: vec![0],
        after: vec![1],
    };
    assert!(server.receive_log_records(txn, vec![rec]).is_err());
    // The logical form is accepted, and is applied only at commit:
    // until then the server's copy of the page still shows old bytes.
    let rec = LogRecord::UpdateLogical {
        txn,
        prev: Lsn::NULL,
        page: pids[0],
        slot: 0,
        offset: 0,
        after: vec![4u8; 64],
    };
    server.receive_log_records(txn, vec![rec]).unwrap();
    let page = server.read_page_for_test(pids[0]).unwrap();
    assert_eq!(page.object(pids[0], 0).unwrap(), &[0u8; 64][..], "deferred until commit");
    // But the writing transaction sees its own pending ops overlaid.
    let own = server.fetch_page(txn, pids[0]).unwrap();
    assert_eq!(own.object(pids[0], 0).unwrap(), &[4u8; 64][..], "own writes visible");
    server.commit(txn).unwrap();
    let page = server.read_page_for_test(pids[0]).unwrap();
    assert_eq!(page.object(pids[0], 0).unwrap(), &[4u8; 64][..]);
}

#[test]
fn wpl_second_committed_version_wins_after_crash() {
    let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
    let pid = pids[0];
    for val in [1u8, 2u8] {
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, val);
        server.receive_dirty_page(txn, pid, page).unwrap();
        server.commit(txn).unwrap();
    }
    let cfg = server.config().clone();
    let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    let page = server2.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[2u8; 64][..]);
}

/// A checkpoint body can list two versions of a page: a committed image
/// under the image of a transaction still running. If that transaction
/// commits after the checkpoint, its image is the page. (Restart let the
/// first listed — the oldest — version claim the page.)
#[test]
fn wpl_image_listed_uncommitted_wins_once_its_commit_follows_the_checkpoint() {
    let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
    let pid = pids[0];
    let ship = |val: u8| {
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, val);
        server.receive_dirty_page(txn, pid, page).unwrap();
        txn
    };
    server.commit(ship(1)).unwrap();
    let second = ship(2);
    server.checkpoint().unwrap();
    server.commit(second).unwrap();
    let cfg = server.config().clone();
    let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[2u8; 64][..]);
}

/// A checkpoint between a WPL transaction's commit record and
/// `commit_finish` finds its images still marked uncommitted in the WPL
/// table, and its commit record lies below the anchor, where restart does
/// not scan. The body must list the images as committed.
#[test]
fn a_checkpoint_inside_a_wpl_commit_lists_its_images_committed() {
    let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
    let pid = pids[0];
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X).unwrap();
    let page = updated_page(&server, txn, pid, 3);
    server.receive_dirty_page(txn, pid, page).unwrap();
    let lsn = server.commit_append(txn).unwrap();
    server.checkpoint().unwrap();
    server.commit_force(lsn).unwrap();
    server.commit_finish(txn).unwrap();
    let cfg = server.config().clone();
    let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[3u8; 64][..]);
}

#[test]
fn wpl_reclaim_keeps_log_bounded() {
    let mut cfg = small_cfg(RecoveryFlavor::Wpl);
    cfg.log_bytes = 64 * PAGE_SIZE; // tiny log: forces reclaim
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(4).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    // Many transactions re-dirtying the same pages: without reclaim the
    // 64-page log would overflow after ~60 ships.
    for round in 0..100u8 {
        let txn = server.begin();
        for &pid in &pids {
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let page = updated_page(&server, txn, pid, round);
            server.receive_dirty_page(txn, pid, page).unwrap();
        }
        server.commit(txn).unwrap();
    }
    assert!(server.wpl_images_reclaimed() > 0);
    let page = server.read_page_for_test(pids[0]).unwrap();
    assert_eq!(page.object(pids[0], 0).unwrap(), &[99u8; 64][..]);
}

/// Restart rebuilds the WPL table the crashed server had, less its
/// uncommitted images. A seeded run commits and aborts transactions, some
/// shipping a page twice, with a reclaim pass and then a checkpoint in
/// mid-run: one transaction open across the checkpoint commits or aborts
/// after it, another is still in flight at the crash, and four pages are
/// not shipped after it, so only its body speaks for them. Every
/// maintenance pass has finished when the server crashes. Restarts at 1,
/// 2 and 4 workers, inline and pipelined, rebuild the same table.
#[test]
fn a_restarted_wpl_table_is_the_live_one_less_its_uncommitted_images() {
    for seed in 0..4u64 {
        let mut rng = qs_prng::Prng::seed_from_u64(seed);
        let mut cfg = small_cfg(RecoveryFlavor::Wpl);
        // No watermark is crossed: the passes below are the only ones.
        (cfg.log_bytes, cfg.log_high_watermark, cfg.log_low_watermark) = (8 << 20, 0.9, 0.05);
        let server = Server::format(cfg.clone(), Meter::new()).unwrap();
        let pids = server.bulk_allocate(20).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 64]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        let ship = |txn: TxnId, pid: PageId, val: u8| {
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let page = updated_page(&server, txn, pid, val);
            server.receive_dirty_page(txn, pid, page).unwrap();
        };
        // The two long transactions lock pages of their own.
        let (pages, held) = pids.split_at(16);
        let (straddler, in_flight) = (server.begin(), server.begin());
        for round in 0..160 {
            match round {
                30 => {
                    server.maintain_now().unwrap();
                    assert!(server.wpl_images_reclaimed() > 0, "seed {seed}: nothing reclaimed");
                }
                60 => {
                    ship(straddler, held[0], 1);
                    ship(straddler, held[1], 1);
                    ship(in_flight, held[2], 2);
                    server.checkpoint().unwrap();
                }
                80 if rng.gen_bool(0.5) => {
                    server.commit(straddler).unwrap();
                }
                80 => server.abort(straddler).unwrap(),
                _ => {}
            }
            let txn = server.begin();
            let pages = if round < 60 { pages } else { &pages[..12] };
            for _ in 0..rng.gen_range(1..4) {
                let pid = pages[rng.gen_range(0..pages.len())];
                ship(txn, pid, rng.next_u32() as u8);
                if rng.gen_bool(0.25) {
                    ship(txn, pid, rng.next_u32() as u8);
                }
            }
            if rng.gen_bool(0.2) {
                server.abort(txn).unwrap();
            } else {
                server.commit(txn).unwrap();
            }
        }
        ship(in_flight, held[2], 3);
        ship(in_flight, pages[0], 3);
        let live = server.wpl.lock(&server.tracer).checkpoint_entries();
        assert!(live.iter().any(|e| !e.committed), "seed {seed}: nothing in flight");
        let want: Vec<_> = live.into_iter().filter(|e| e.committed).collect();
        let anchor = server.log.wal().checkpoint_lsn();
        assert!(want.iter().any(|e| e.lsn < anchor), "seed {seed}: no entry below the anchor");
        let crashed = server.crash();
        for workers in [1, 2, 4] {
            for pipelined in [false, true] {
                let mut cfg = cfg.clone().with_redo_workers(workers);
                if pipelined {
                    cfg.restart.chunk_bytes = 2 * PAGE_SIZE;
                }
                let parts = StableParts {
                    data_media: copied(&*crashed.data_media),
                    log_media: copied(&*crashed.log_media),
                    flight: None,
                };
                let what = format!("seed {seed}, {workers} workers, pipelined {pipelined}");
                let server = Server::restart(parts, cfg, Meter::new()).unwrap();
                let scan = &server.restart_report().unwrap().wall.scans[0];
                assert_eq!(scan.workers.len(), if pipelined { workers } else { 1 }, "{what}");
                let got = server.wpl.lock(&server.tracer).checkpoint_entries();
                assert_eq!(got, want, "{what}");
            }
        }
    }
}

#[test]
fn checkpoint_allows_esm_log_truncation() {
    let mut cfg = small_cfg(RecoveryFlavor::EsmAries);
    cfg.log_bytes = 256 * PAGE_SIZE;
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(2).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 1024]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    for round in 0..2000u32 {
        let txn = server.begin();
        let pid = pids[(round % 2) as usize];
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let rec = LogRecord::Update {
            txn,
            prev: Lsn::NULL,
            page: pid,
            slot: 0,
            offset: 0,
            before: vec![(round % 251) as u8; 1024],
            after: vec![((round + 1) % 251) as u8; 1024],
        };
        server.receive_log_records(txn, vec![rec]).unwrap();
        let page = updated_page(&server, txn, pid, ((round + 1) % 251) as u8);
        server.receive_dirty_page(txn, pid, page).unwrap();
        server.commit(txn).unwrap();
    }
    assert!(server.checkpoints_taken() > 0, "watermark maintenance ran");
}

#[test]
fn transactional_page_allocation_survives_crash() {
    let (server, _) = loaded_server(RecoveryFlavor::EsmAries);
    let txn = server.begin();
    let pid = server.allocate_page(txn).unwrap();
    let mut page = Page::new();
    page.insert(pid, b"fresh object").unwrap();
    // New pages are whole-page logged by ESM (§3.6).
    let rec =
        LogRecord::WholePage { txn, prev: Lsn::NULL, page: pid, image: page.bytes().to_vec() };
    server.receive_log_records(txn, vec![rec]).unwrap();
    server.receive_dirty_page(txn, pid, page).unwrap();
    server.commit(txn).unwrap();
    let cfg = server.config().clone();
    let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    let page = server2.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), b"fresh object");
}

/// Everything on the log disk, header included.
fn log_image(server: &Server) -> Vec<u8> {
    let media = server.stable_parts().log_media;
    let mut bytes = vec![0u8; media.len()];
    media.read_at(0, &mut bytes).unwrap();
    bytes
}

/// `receive_log_records` is encode-and-delegate over `receive_log_bytes`:
/// for every tag a client can ship (1, 2, 3, 8, 11) the two entry points
/// leave byte-identical WALs, and they reject the same inputs with the
/// same errors.
#[test]
fn record_and_byte_receive_paths_agree() {
    use qs_wal::SchemeCode;
    const PREV: Lsn = Lsn::NULL;
    fn update(txn: TxnId, page: PageId) -> LogRecord {
        let (before, after) = (vec![0u8; 64], vec![7u8; 64]);
        LogRecord::Update { txn, prev: PREV, page, slot: 0, offset: 0, before, after }
    }
    fn logical(txn: TxnId, page: PageId) -> LogRecord {
        LogRecord::UpdateLogical { txn, prev: PREV, page, slot: 0, offset: 8, after: vec![9u8; 16] }
    }
    fn whole(txn: TxnId, page: PageId) -> LogRecord {
        let mut p = Page::new();
        p.insert(page, &[3u8; 64]).unwrap();
        LogRecord::WholePage { txn, prev: PREV, page, image: p.bytes().to_vec() }
    }
    fn alloc(txn: TxnId, page: PageId) -> LogRecord {
        LogRecord::PageAlloc { txn, prev: PREV, page }
    }
    fn mark(txn: TxnId, scheme: SchemeCode) -> LogRecord {
        LogRecord::TxnScheme { txn, prev: PREV, scheme }
    }
    // Ship `batch` through both entry points of two identical servers and
    // compare the outcome and (after a commit forces the tail) the WAL.
    let both = |flavor: RecoveryFlavor, batch: &dyn Fn(TxnId, &[PageId]) -> Vec<LogRecord>| {
        let (by_record, pids) = loaded_server(flavor);
        let (by_bytes, _) = loaded_server(flavor);
        let (ta, tb) = (by_record.begin(), by_bytes.begin());
        assert_eq!(ta, tb);
        let records = batch(ta, &pids);
        let bytes: Vec<u8> = records.iter().flat_map(|r| r.encode()).collect();
        let a = by_record.receive_log_records(ta, records);
        let b = by_bytes.receive_log_bytes(tb, &bytes);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{flavor:?}: same outcome");
        by_record.commit(ta).unwrap();
        by_bytes.commit(tb).unwrap();
        assert!(log_image(&by_record) == log_image(&by_bytes), "{flavor:?}: WAL bytes differ");
        a
    };

    use RecoveryFlavor::*;
    both(EsmAries, &|t, p| vec![update(t, p[0]), whole(t, p[1]), alloc(t, p[2])]).unwrap();
    both(RedoAtServer, &|t, p| vec![update(t, p[0]), whole(t, p[1]), alloc(t, p[2])]).unwrap();
    both(RedoLogical, &|t, p| vec![logical(t, p[0]), whole(t, p[1]), alloc(t, p[2])]).unwrap();
    both(Adaptive, &|t, p| vec![mark(t, SchemeCode::Sd), update(t, p[0]), alloc(t, p[2])]).unwrap();
    both(Adaptive, &|t, p| vec![mark(t, SchemeCode::Rlog), logical(t, p[0]), whole(t, p[1])])
        .unwrap();
    both(Adaptive, &|t, p| vec![mark(t, SchemeCode::Wpl), whole(t, p[0])]).unwrap();
    // An unmarked adaptive transaction runs the steal protocol.
    both(Adaptive, &|t, p| vec![update(t, p[0])]).unwrap();

    // Rejected inputs: a legal record first, so the partial append is
    // compared too.
    let rejected = |flavor, batch: &dyn Fn(TxnId, &[PageId]) -> Vec<LogRecord>| {
        assert!(matches!(both(flavor, batch), Err(QsError::Protocol { .. })), "{flavor:?}");
    };
    rejected(RedoLogical, &|t, p| vec![logical(t, p[0]), update(t, p[0])]);
    for flavor in [EsmAries, RedoAtServer, RedoLogical] {
        rejected(flavor, &|t, p| vec![alloc(t, p[0]), mark(t, SchemeCode::Pd)]);
    }
    for flavor in [EsmAries, RedoAtServer, RedoLogical, Adaptive] {
        rejected(flavor, &|t, p| vec![alloc(t, p[0]), alloc(TxnId(t.0 + 40), p[1])]);
    }
    for rec in [update, logical, whole, alloc] as [fn(TxnId, PageId) -> LogRecord; 4] {
        rejected(Wpl, &|t, p| vec![rec(t, p[0])]);
    }
    rejected(Wpl, &|t, _| vec![mark(t, SchemeCode::Wpl)]);
}

/// The server re-seals every frame it re-chains, so it must not take a
/// frame's bytes on trust: one damaged between client and server would
/// get a valid checksum and become durable.
#[test]
fn a_frame_damaged_on_the_way_in_is_refused_and_never_logged() {
    let (server, pids) = loaded_server(RecoveryFlavor::EsmAries);
    let txn = server.begin();
    let frames: Vec<Vec<u8>> = (0..3u8)
        .map(|i| {
            let (before, after) = (vec![0u8; 64], vec![0x10 + i; 64]);
            let page = pids[i as usize];
            LogRecord::Update { txn, prev: Lsn::NULL, page, slot: 0, offset: 0, before, after }
                .encode()
        })
        .collect();
    let mut batch = frames.concat();
    // One bit of the second frame's after-image: lengths and tag intact.
    let hit = frames[0].len() + frames[1].len() - 20;
    assert_eq!(batch[hit], 0x11);
    batch[hit] ^= 0x04;
    let wal = server.log.wal();
    let tail = wal.tail_lsn();
    let err = server.receive_log_bytes(txn, &batch).unwrap_err();
    assert!(matches!(err, QsError::LogCorrupt { .. }), "{err}");
    // The batch is verified whole before any of it is appended (the frames
    // of a run go in under one lock hold, so there is no "up to the damaged
    // one" to stop at): nothing is logged, not even the sound frame ahead.
    assert_eq!(wal.tail_lsn(), tail);
    assert_eq!(wal.scan_forward(tail).count(), 0);
    let state_of = |txn| {
        let txns = server.txns.lock(&server.tracer);
        let t = txns.get(txn).unwrap();
        (t.first_lsn, t.last_lsn, t.log_shipped.len())
    };
    assert_eq!(state_of(txn), (Lsn::NULL, Lsn::NULL, 0));
    assert!(server.dpt.lock(&server.tracer).snapshot().is_empty());
    server.abort(txn).unwrap();
}

/// Everything `receive_log_bytes` leaves behind: the log byte for byte (so
/// LSNs, the `prev` chain and the re-sealed checksums), the decoded scan,
/// the DPT, the transaction's chain ends, protocol and shipped set, its
/// deferred ops, and every pooled page with its dirty bit.
#[derive(Debug, PartialEq)]
struct Received {
    log: Vec<u8>,
    scan: Vec<(Lsn, LogRecord)>,
    dpt: Vec<(PageId, Lsn, Lsn)>,
    chain: Option<(Lsn, Lsn, Protocol, Vec<PageId>)>,
    pending: Vec<(PageId, Vec<u8>, Lsn)>,
    pool: Vec<Option<(Vec<u8>, bool)>>,
}

fn received(server: &Server, txn: TxnId, pids: &[PageId]) -> Received {
    let wal = server.log.wal();
    let mut log = vec![0u8; (wal.tail_lsn().0 - wal.start_lsn().0) as usize];
    wal.read_bytes(wal.start_lsn(), &mut log).unwrap();
    let chain = server.txns.lock(&server.tracer).get(txn).ok().map(|t| {
        let mut shipped: Vec<PageId> = t.log_shipped.iter().copied().collect();
        shipped.sort();
        (t.first_lsn, t.last_lsn, t.protocol, shipped)
    });
    let pending = server.pending.lock(&server.tracer).get(txn).map_or_else(Vec::new, |stashed| {
        let bytes = |op| match op {
            Stashed::Frame(frame) => frame.to_vec(),
            Stashed::Image(image) => image.bytes().to_vec(),
        };
        stashed.frames().map(|(page, op, lsn)| (page, bytes(op), lsn)).collect()
    });
    let pool = pids
        .iter()
        .map(|&pid| {
            let pool = server.pool.lock(pid, &server.tracer);
            pool.peek(pid).map(|p| (p.bytes().to_vec(), pool.is_dirty(pid)))
        })
        .collect();
    Received {
        log,
        scan: wal.scan_forward(wal.start_lsn()).map(|r| r.unwrap()).collect(),
        dpt: server.dpt.lock(&server.tracer).spans(),
        chain,
        pending,
        pool,
    }
}

/// A seeded batch as a client of `flavor` (having elected `scheme`, under
/// ADAPT) could ship it: 1–40 frames of every tag admissible there, over
/// 1–6 pages, consecutive frames naming the same page more often than not.
fn client_batch(
    rng: &mut qs_prng::Prng,
    txn: TxnId,
    pids: &[PageId],
    flavor: RecoveryFlavor,
    scheme: Option<SchemeCode>,
) -> Vec<Vec<u8>> {
    use qs_wal::record::tag::{PAGE_ALLOC, UPDATE, UPDATE_LOGICAL, WHOLE_PAGE};
    let tags: &[u8] = match (flavor, scheme) {
        (RecoveryFlavor::RedoLogical, _) | (_, Some(SchemeCode::Rlog)) => {
            &[UPDATE_LOGICAL, WHOLE_PAGE, PAGE_ALLOC]
        }
        (_, Some(SchemeCode::Wpl)) => &[WHOLE_PAGE, PAGE_ALLOC],
        (_, Some(_)) => &[UPDATE, WHOLE_PAGE, PAGE_ALLOC],
        _ => &[UPDATE, UPDATE_LOGICAL, WHOLE_PAGE, PAGE_ALLOC],
    };
    let pages = &pids[..rng.gen_range(1..7)];
    let mut page = pages[0];
    let mut frames: Vec<Vec<u8>> = scheme
        .map(|scheme| LogRecord::TxnScheme { txn, prev: Lsn::NULL, scheme }.encode())
        .into_iter()
        .collect();
    for _ in 0..rng.gen_range(1..41) {
        if rng.gen_bool(0.4) {
            page = pages[rng.gen_range(0..pages.len())];
        }
        let (offset, len) = (rng.gen_range(0..32) as u16, rng.gen_range(1..33));
        let prev = Lsn::NULL;
        let rec = match tags[rng.gen_range(0..tags.len())] {
            UPDATE => {
                let (before, after) = (vec![0; len], rng.bytes(len));
                LogRecord::Update { txn, prev, page, slot: 0, offset, before, after }
            }
            UPDATE_LOGICAL => {
                LogRecord::UpdateLogical { txn, prev, page, slot: 0, offset, after: rng.bytes(len) }
            }
            WHOLE_PAGE => {
                let mut image = Page::new();
                image.insert(page, &rng.bytes(64)).unwrap();
                LogRecord::WholePage { txn, prev, page, image: image.bytes().to_vec() }
            }
            _ => LogRecord::PageAlloc { txn, prev, page },
        };
        frames.push(rec.encode());
    }
    frames
}

/// A batch received in one call — run by run — leaves exactly what the same
/// frames leave received one per call, which is the parent's frame-by-frame
/// loop: under every flavor, and under ADAPT for every scheme a transaction
/// can elect, before and after the commit.
#[test]
fn a_batch_received_by_runs_is_the_batch_received_frame_by_frame() {
    use RecoveryFlavor::*;
    let schemes = [SchemeCode::Pd, SchemeCode::Sd, SchemeCode::Wpl, SchemeCode::Rlog];
    let rows = [EsmAries, RedoAtServer, Wpl, RedoLogical]
        .map(|f| (f, None))
        .into_iter()
        .chain(schemes.map(|s| (Adaptive, Some(s))));
    for (flavor, scheme) in rows {
        for seed in 0..24u64 {
            let what = format!("{} {scheme:?} seed {seed}", flavor.name());
            let (whole, pids) = loaded_server(flavor);
            let (single, _) = loaded_server(flavor);
            let txn = whole.begin();
            assert_eq!(single.begin(), txn);
            let mut rng = qs_prng::Prng::seed_from_u64(seed);
            let frames = client_batch(&mut rng, txn, &pids, flavor, scheme);

            let got = whole.receive_log_bytes(txn, &frames.concat());
            let one_by_one = frames.iter().try_for_each(|f| single.receive_log_bytes(txn, f));
            if flavor == Wpl {
                assert!(got.is_err() && one_by_one.is_err(), "{what}: WPL ships no records");
            } else {
                got.unwrap_or_else(|e| panic!("{what}: {e}"));
                one_by_one.unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(whole.log.wal().tail_lsn() > whole.log.wal().start_lsn());
            }
            assert_eq!(received(&whole, txn, &pids), received(&single, txn, &pids), "{what}");
            if flavor != Wpl {
                whole.commit(txn).unwrap();
                single.commit(txn).unwrap();
            }
            assert_eq!(
                received(&whole, txn, &pids),
                received(&single, txn, &pids),
                "{what}, committed"
            );
        }
    }
}

/// A run goes into the log whole or not at all: one that does not fit
/// fails `LogFull` and leaves the tail, the transaction's chain and the
/// DPT exactly as they were before the call.
#[test]
fn a_run_that_does_not_fit_is_refused_whole() {
    let cfg = ServerConfig { log_bytes: 32 * 1024, ..small_cfg(RecoveryFlavor::EsmAries) };
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(2).unwrap();
    let txn = server.begin();
    let update = |page, val| {
        let (before, after) = (vec![0u8; 64], vec![val; 64]);
        LogRecord::Update { txn, prev: Lsn::NULL, page, slot: 0, offset: 0, before, after }.encode()
    };
    server.receive_log_bytes(txn, &[update(pids[0], 1), update(pids[1], 2)].concat()).unwrap();
    let before = received(&server, txn, &pids);
    // 300 frames naming one page: one run, ~50 KB, of which most would fit.
    let run: Vec<u8> = (0..300).flat_map(|i| update(pids[0], i as u8)).collect();
    let err = server.receive_log_bytes(txn, &run).unwrap_err();
    assert!(matches!(err, QsError::LogFull { need, .. } if need == run.len()), "{err}");
    assert_eq!(received(&server, txn, &pids), before);
    // The transaction is still whole: it can log what does fit, and commit.
    server.receive_log_bytes(txn, &run[..run.len() / 300 * 20]).unwrap();
    server.commit(txn).unwrap();
}

/// Counts the maintenance passes that failed with nobody to tell.
#[derive(Default)]
struct MaintenanceErrors(AtomicU64);

impl qs_trace::TraceSink for MaintenanceErrors {
    fn record(&self, ev: &qs_trace::TraceEvent) {
        if ev.cat == TraceCat::Checkpoint && ev.label == "maintain_error" {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A commit whose record is forced is committed, whatever the watermark
/// maintenance that rides on it does. Small log; one long-running
/// transaction pins its tail so no checkpoint can free space; 256 idle
/// transactions make every checkpoint body ~4 KB, so the checkpoint record
/// stops fitting (`LogFull`) long before a ~90-byte transaction does.
/// Short transactions keep committing through that: none may be told it
/// failed, and crash + restart must bring back exactly the acknowledged
/// ones. (RLOG, so the restart has nothing to undo and needs no log space
/// for the idle transactions or the pinning loser.)
#[test]
fn commit_is_acknowledged_when_its_maintenance_fails() {
    let mut cfg = small_cfg(RecoveryFlavor::RedoLogical);
    cfg.log_bytes = 32 * PAGE_SIZE;
    let sink = Arc::new(MaintenanceErrors::default());
    let tracer = Tracer::with_sink(Arc::clone(&sink) as Arc<dyn qs_trace::TraceSink>, None);
    let server = Server::format_traced(cfg.clone(), Meter::new(), tracer).unwrap();
    let pids = server.bulk_allocate(8).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let stamp = |txn, page, value: u64| LogRecord::UpdateLogical {
        txn,
        prev: Lsn::NULL,
        page,
        slot: 0,
        offset: 0,
        after: value.to_le_bytes().to_vec(),
    };

    for _ in 0..256 {
        server.begin();
    }
    let pin = server.begin();
    server.lock_page(pin, pids[0], LockMode::X).unwrap();
    server.receive_log_records(pin, vec![stamp(pin, pids[0], u64::MAX)]).unwrap();

    // Value each page must show after restart: its last acknowledged stamp.
    let mut acknowledged = [0u64; 8];
    let mut refused = None;
    let mut after_first_failure = 0;
    for i in 1..10_000u64 {
        let slot = 1 + (i % 7) as usize;
        let txn = server.begin();
        server.lock_page(txn, pids[slot], LockMode::X).unwrap();
        server.receive_log_records(txn, vec![stamp(txn, pids[slot], i)]).unwrap();
        match server.commit(txn) {
            Ok(_) => acknowledged[slot] = i,
            Err(e) => {
                refused = Some((i, e));
                break;
            }
        }
        if sink.0.load(Ordering::Relaxed) > 0 {
            after_first_failure += 1;
            if after_first_failure == 5 {
                break;
            }
        }
    }
    assert!(
        refused.is_some() || after_first_failure == 5,
        "the log never filled far enough for maintenance to fail: retune the test"
    );

    let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    for (slot, &pid) in pids.iter().enumerate() {
        let page = server.read_page_for_test(pid).unwrap();
        let shown = u64::from_le_bytes(page.object(pid, 0).unwrap()[..8].try_into().unwrap());
        assert_eq!(
            shown, acknowledged[slot],
            "page {slot}: restart shows stamp {shown}, the last acknowledged commit wrote \
             {}; refused commit: {refused:?}",
            acknowledged[slot]
        );
    }
    assert!(refused.is_none(), "a durable commit was reported as failed: {refused:?}");
}

fn logical(txn: TxnId, page: PageId, slot: u16, val: u8) -> LogRecord {
    LogRecord::UpdateLogical { txn, prev: Lsn::NULL, page, slot, offset: 0, after: vec![val; 64] }
}

/// A no-steal commit is append → force → apply, and its records are the
/// only copy of its updates until the apply. A checkpoint that lands after
/// the commit record — the transaction is `Committed`, no longer `Active`
/// — and before the apply must not truncate them away. (It did: the log
/// start moved up to the checkpoint, and after a crash the acknowledged
/// commit was gone.) Second row: the same under ADAPT for a transaction
/// that elected RLOG.
#[test]
fn a_checkpoint_inside_a_no_steal_commit_keeps_its_records() {
    for flavor in [RecoveryFlavor::RedoLogical, RecoveryFlavor::Adaptive] {
        let (server, pids) = loaded_server(flavor);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        if flavor == RecoveryFlavor::Adaptive {
            let mark = LogRecord::TxnScheme { txn, prev: Lsn::NULL, scheme: SchemeCode::Rlog };
            server.receive_log_records(txn, vec![mark]).unwrap();
        }
        server.receive_log_records(txn, vec![logical(txn, pid, 0, 9)]).unwrap();

        let lsn = server.commit_append(txn).unwrap();
        server.checkpoint().unwrap();
        server.commit_force(lsn).unwrap();
        server.commit_finish(txn).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[9u8; 64][..], "{flavor:?}: applied at commit");

        let cfg = server.config().clone();
        let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[9u8; 64][..], "{flavor:?}: lost in the crash");
    }
}

/// Two no-steal transactions under record locks on page `pid`, each with
/// one op logged — `first`'s, on slot 0 (value 1), before `second`'s, on
/// the returned slot (value 2) — and neither committed.
fn two_no_steal_txns_on_one_page(server: &Server, pid: PageId) -> (TxnId, TxnId, u16) {
    // A second object, so the two transactions touch distinct records.
    let seed = server.begin();
    server.lock_page(seed, pid, LockMode::X).unwrap();
    let mut image = server.fetch_page(seed, pid).unwrap();
    let slot = image.insert(pid, &[0u8; 64]).unwrap();
    let whole = LogRecord::WholePage {
        txn: seed,
        prev: Lsn::NULL,
        page: pid,
        image: image.bytes().to_vec(),
    };
    server.receive_log_records(seed, vec![whole]).unwrap();
    server.commit(seed).unwrap();

    let (first, second) = (server.begin(), server.begin());
    server.lock_resource(first, Resource::Record(pid, 0), LockMode::X).unwrap();
    server.lock_resource(second, Resource::Record(pid, slot), LockMode::X).unwrap();
    server.receive_log_records(first, vec![logical(first, pid, 0, 1)]).unwrap();
    server.receive_log_records(second, vec![logical(second, pid, slot, 2)]).unwrap();
    (first, second, slot)
}

fn assert_both_ops(server: &Server, pid: PageId, slot: u16, when: &str) {
    let page = server.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[1u8; 64][..], "{when}");
    assert_eq!(page.object(pid, slot).unwrap(), &[2u8; 64][..], "{when}");
}

/// Logged in one order and committed in the other: the later-logged op is
/// applied first. The page's pageLSN must not move back when the earlier
/// one follows, or no flush of the page ever covers the last LSN the
/// dirty-page table holds for it and the entry pins the log for good.
#[test]
fn no_steal_commits_out_of_log_order_on_one_page_do_not_pin_the_log() {
    let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
    let pid = pids[0];
    let (first, second, slot) = two_no_steal_txns_on_one_page(&server, pid);
    server.commit(second).unwrap();
    server.commit(first).unwrap();

    server.quiesce().unwrap();
    assert_both_ops(&server, pid, slot, "after quiesce");
    // Everything is home: the log holds the closing checkpoint record and
    // nothing older.
    assert!(
        server.log_used_bytes() < 1024,
        "{} log bytes still pinned after quiesce",
        server.log_used_bytes()
    );
}

/// The same pair against a drain in flight: the page is claimed (snapshot
/// taken) holding only the later-logged op, the earlier-logged one is
/// applied before the snapshot is written and confirmed — and leaves the
/// pageLSN where it was. The confirm step must still see that the page
/// changed. (It compared pageLSNs, marked the page clean and retired its
/// entry: the acknowledged op lived only in a clean pool page, and the
/// log was free to truncate it away.)
#[test]
fn a_deferred_op_applied_under_a_drain_in_flight_keeps_the_page_dirty() {
    let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
    let pid = pids[0];
    let (first, second, slot) = two_no_steal_txns_on_one_page(&server, pid);
    server.commit(second).unwrap();
    let lsn_before = server.read_page_for_test(pid).unwrap().lsn();

    let shard = server.pool.shard_of(pid);
    let claimed = server.drain_claim(shard, &[pid], &mut Vec::new());
    server.commit(first).unwrap();
    assert_eq!(server.read_page_for_test(pid).unwrap().lsn(), lsn_before, "the scenario");
    assert_eq!(server.drain_write_home(claimed, &mut Vec::new()).unwrap(), 1);

    assert!(server.pool.lock(pid, &server.tracer).is_dirty(pid), "changed since the claim");
    let listed = server.dpt.lock(&server.tracer).snapshot();
    assert!(listed.iter().any(|&(p, _)| p == pid), "still listed: {listed:?}");

    // And so the next checkpoints write it home before the log lets go.
    server.quiesce().unwrap();
    assert!(server.log_used_bytes() < 1024, "{} log bytes pinned", server.log_used_bytes());
    let cfg = server.config().clone();
    let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
    assert_both_ops(&server, pid, slot, "after the crash");
}

/// A flush can also finish between a late op's listing and its apply, and
/// retire the entry on an image without the op. The apply lists the op
/// again under the shard lock.
#[test]
fn an_op_applied_below_the_page_lsn_is_listed_again() {
    let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
    let pid = pids[0];
    let (first, second, _) = two_no_steal_txns_on_one_page(&server, pid);
    server.commit(second).unwrap();
    server.quiesce().unwrap();
    assert!(server.dpt.lock(&server.tracer).snapshot().is_empty(), "flushed and retired");
    let page_lsn = server.read_page_for_test(pid).unwrap().lsn();

    let late = Lsn(page_lsn.0 - 1);
    let frame = logical(first, pid, 0, 1).encode();
    server.redo_onto_pool(pid, |page| Laid::frames(page, pid, [(&frame[..], late)])).unwrap();
    assert_eq!(server.dpt.lock(&server.tracer).snapshot(), [(pid, late)]);
    assert_eq!(server.read_page_for_test(pid).unwrap().lsn(), page_lsn, "no move back");
}

/// The same pair committed out of log order, then a crash with nothing
/// flushed: after `second`'s commit only, and after both. Restart lays
/// `first`'s op at its commit under `second`'s later pageLSN, which must
/// neither skip it (redo skips only what the page held on the volume) nor
/// move back for it. Exactly the committed ops come back, and the pageLSN
/// is the later op's, at every pool size and at chunks that split the
/// frames from their commits (256 bytes: still one inline scan).
#[test]
fn no_steal_commits_out_of_log_order_on_one_page_survive_a_crash() {
    for both in [false, true] {
        for workers in [1, 2, 4] {
            for chunk_bytes in [RestartConfig::default().chunk_bytes, 256, 29] {
                let what = format!("both={both} workers={workers} chunk={chunk_bytes}");
                let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
                let pid = pids[0];
                let (first, second, slot) = two_no_steal_txns_on_one_page(&server, pid);
                let later = server.txns.lock(&server.tracer).get(second).unwrap().last_lsn;
                server.commit(second).unwrap();
                if both {
                    server.commit(first).unwrap();
                }
                let mut cfg = server.config().clone().with_redo_workers(workers);
                cfg.restart.chunk_bytes = chunk_bytes;
                let server = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
                let page = server.read_page_for_test(pid).unwrap();
                let first_op = if both { [1u8; 64] } else { [0u8; 64] };
                assert_eq!(page.object(pid, 0).unwrap(), &first_op[..], "{what}");
                assert_eq!(page.object(pid, slot).unwrap(), &[2u8; 64][..], "{what}");
                assert_eq!(page.lsn(), later, "{what}");
            }
        }
    }
}

/// A no-steal commit regroups the frames it stashed in shipping order:
/// pages are applied in ascending page-id order, each page's frames in log
/// order (of two frames on the same bytes, the later wins). With room for
/// two pages in the pool, the first page applied is the one the third
/// pushes out.
#[test]
fn a_no_steal_commit_applies_pages_in_ascending_order_and_frames_in_log_order() {
    let cfg = ServerConfig { pool_pages: 2, ..small_cfg(RecoveryFlavor::RedoLogical) };
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(3).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let txn = server.begin();
    let shipped = [(2, 1), (0, 1), (1, 1), (0, 3), (2, 2)];
    let records = shipped.iter().map(|&(k, val)| logical(txn, pids[k], 0, val)).collect();
    server.receive_log_records(txn, records).unwrap();
    server.commit(txn).unwrap();

    let resident: Vec<bool> =
        pids.iter().map(|&pid| server.pool.lock(pid, &server.tracer).contains(pid)).collect();
    assert_eq!(resident, [false, true, true], "{:?} applied last", &pids[1..]);
    for (pid, val) in pids.into_iter().zip([3u8, 1, 2]) {
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[val; 64][..], "{pid}");
    }
}

/// Undo walks past a created page's records: no CLR, so no image of the
/// page is ever stamped at or above them. Their dirty-page-table entry
/// must not wait for one. Two rows: the page never reached the server; an
/// earlier image of it did, and sits dirty in the pool below the record.
#[test]
fn an_aborted_whole_page_record_does_not_pin_the_log() {
    for shipped_before in [false, true] {
        let (server, _) = loaded_server(RecoveryFlavor::EsmAries);
        let txn = server.begin();
        let pid = server.allocate_page(txn).unwrap();
        let mut image = Page::new();
        image.insert(pid, &[7u8; 64]).unwrap();
        let whole = |image: &Page| LogRecord::WholePage {
            txn,
            prev: Lsn::NULL,
            page: pid,
            image: image.bytes().to_vec(),
        };
        if shipped_before {
            server.receive_log_records(txn, vec![whole(&image)]).unwrap();
            server.receive_dirty_page(txn, pid, image.clone()).unwrap();
            image.object_mut(pid, 0).unwrap().fill(8);
        }
        server.receive_log_records(txn, vec![whole(&image)]).unwrap();
        server.abort(txn).unwrap();

        server.quiesce().unwrap();
        assert!(
            server.log_used_bytes() < 1024,
            "shipped_before={shipped_before}: {} log bytes still pinned after quiesce",
            server.log_used_bytes()
        );
    }
}

/// Nothing stops during a checkpoint, so every client that commits past
/// the watermark meanwhile ends up waiting for the maintenance lock. The
/// pass it waited for has usually done its work too: it must look at the
/// watermark again instead of running a pass of its own. (Each did: 47
/// checkpoints where 13 fall due in `ckpt_bench`'s inline row.)
#[test]
fn a_client_that_waited_out_a_maintenance_pass_does_not_run_its_own() {
    let mut cfg = small_cfg(RecoveryFlavor::RedoAtServer);
    cfg.log_high_watermark = 2048.0 / cfg.log_bytes as f64;
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut page = Page::new();
    page.insert(pid, &[0u8; 64]).unwrap();
    server.bulk_write(pid, &page).unwrap();
    server.bulk_sync().unwrap();

    // Past the watermark, by a commit that ran no maintenance itself.
    let txn = server.begin();
    server.lock_page(txn, pid, LockMode::X).unwrap();
    let update = |val: u8| LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before: vec![0u8; 64],
        after: vec![val; 64],
    };
    server.receive_log_records(txn, (0..16).map(update).collect()).unwrap();
    let lsn = server.commit_append(txn).unwrap();
    server.commit_force(lsn).unwrap();
    server.commit_finish(txn).unwrap();
    assert!(server.past_high_watermark(), "retune: {} bytes logged", server.log_used_bytes());

    let serial = server.ckpt_serial.lock();
    std::thread::scope(|s| {
        let waiter = s.spawn(|| server.maybe_maintain().unwrap());
        // Long enough for the waiter to be queued on the lock (if it is
        // not, it sees the log already drained: the assertion still holds).
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.checkpoint_serialized().unwrap();
        assert!(!server.past_high_watermark(), "{} bytes still logged", server.log_used_bytes());
        drop(serial);
        waiter.join().unwrap();
    });
    assert_eq!(server.checkpoints_taken(), 1, "the waiter ran a pass of its own");
}

/// A server whose log disk loses what it has not synced at a crash
/// ([`qs_storage::CrashDisk`]) and whose data disk keeps every write the
/// moment it is made (a `MemDisk`: the worst case for write-ahead logging).
/// One empty commit has synced the log's first header.
fn crash_disk_server(cfg: ServerConfig) -> (Server, Arc<qs_storage::CrashDisk>, Vec<PageId>) {
    let log = Arc::new(qs_storage::CrashDisk::new(LogManager::required_bytes(cfg.log_bytes)));
    let parts = StableParts {
        data_media: Arc::new(MemDisk::new(Volume::required_bytes(cfg.volume_pages))),
        log_media: Arc::clone(&log) as Arc<dyn StableMedia>,
        flight: None,
    };
    let server = Server::format_on(parts, cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(8).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    server.commit(server.begin()).unwrap();
    (server, log, pids)
}

/// A copy of `media` as it is now.
fn copied(media: &dyn StableMedia) -> Arc<dyn StableMedia> {
    let mut bytes = vec![0u8; media.len()];
    media.read_at(0, &mut bytes).unwrap();
    let copy = MemDisk::new(bytes.len());
    copy.write_at(0, &bytes).unwrap();
    Arc::new(copy)
}

/// What a power cut now leaves of `server`'s disks: the data disk as it
/// is, the log disk as it was last synced.
fn power_cut(server: &Server, log: &qs_storage::CrashDisk) -> StableParts {
    let data_media = copied(&*server.stable_parts().data_media);
    StableParts { data_media, log_media: Arc::new(log.crash()), flight: None }
}

/// Whether `done` turns true within `patience`.
fn within(patience: std::time::Duration, done: impl Fn() -> bool) -> bool {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < patience {
        if done() {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    done()
}

fn update_record(txn: TxnId, pid: PageId, val: u8) -> LogRecord {
    LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before: vec![0u8; 64],
        after: vec![val; 64],
    }
}

/// A group-commit follower whose commit record the leader's force wrote
/// returns only once the leader's sync has: its record is not durable
/// before. (It returned as soon as the leader had *written* the force, so
/// a crash during the sync lost an acknowledged commit.)
#[test]
fn a_group_commit_follower_waits_for_the_leaders_sync() {
    let cfg = ServerConfig { group_commit: true, ..small_cfg(RecoveryFlavor::EsmAries) };
    let (server, log, pids) = crash_disk_server(cfg.clone());
    let follower = server.begin();
    server.lock_page(follower, pids[0], LockMode::X).unwrap();
    server.receive_log_records(follower, vec![update_record(follower, pids[0], 7)]).unwrap();
    let follower_lsn = server.commit_append(follower).unwrap();
    let leader = server.begin();
    let leader_lsn = server.commit_append(leader).unwrap();

    log.hold_syncs();
    let (acknowledged, crashed) = std::thread::scope(|s| {
        let leading = s.spawn(|| server.commit_force(leader_lsn).unwrap());
        log.await_parked_sync();
        // The leader's force wrote both commit records; its sync is parked.
        let following = s.spawn(|| {
            server.commit_force(follower_lsn).unwrap();
            server.commit_finish(follower).unwrap();
        });
        let acknowledged =
            within(std::time::Duration::from_millis(200), || following.is_finished());
        let crashed = power_cut(&server, &log);
        log.release_syncs();
        leading.join().unwrap();
        following.join().unwrap();
        (acknowledged, crashed)
    });

    let restarted = Server::restart(crashed, cfg, Meter::new()).unwrap();
    let page = restarted.read_page_for_test(pids[0]).unwrap();
    if acknowledged {
        assert_eq!(page.object(pids[0], 0).unwrap(), &[7u8; 64][..], "an acknowledged commit lost");
    }
    assert!(!acknowledged, "a follower returned while its record's sync was parked");
}

/// A checkpoint drain must force the log through a `Steal` page's pageLSN
/// unless that LSN is *synced*: a commit's force that has written the
/// page's record but not yet synced it does not count. (The drain skipped
/// its force on the written LSN and wrote the page home; a crash during the
/// sync then left an uncommitted update on the volume with no log record
/// to undo it.)
#[test]
fn a_drain_does_not_write_a_steal_page_home_before_its_log_is_synced() {
    let cfg = small_cfg(RecoveryFlavor::EsmAries);
    let (server, log, pids) = crash_disk_server(cfg.clone());
    let pid = pids[0];
    // The loser: its record in the unforced tail, its page dirty in the pool.
    let loser = server.begin();
    server.lock_page(loser, pid, LockMode::X).unwrap();
    let page = updated_page(&server, loser, pid, 9);
    server.receive_log_records(loser, vec![update_record(loser, pid, 9)]).unwrap();
    server.receive_dirty_page(loser, pid, page).unwrap();
    let committer = server.begin();

    log.hold_syncs();
    let (written_home, crashed) = std::thread::scope(|s| {
        // The commit's force covers the loser's record; its sync parks.
        let committing = s.spawn(|| server.commit(committer).unwrap());
        log.await_parked_sync();
        let claimed = server.drain_claim(server.pool.shard_of(pid), &[pid], &mut Vec::new());
        let draining = s.spawn(|| server.drain_write_home(claimed, &mut Vec::new()).unwrap());
        let written_home = within(std::time::Duration::from_millis(200), || draining.is_finished());
        let crashed = power_cut(&server, &log);
        log.release_syncs();
        committing.join().unwrap();
        draining.join().unwrap();
        (written_home, crashed)
    });

    let restarted = Server::restart(crashed, cfg, Meter::new()).unwrap();
    let page = restarted.read_page_for_test(pid).unwrap();
    assert_eq!(page.object(pid, 0).unwrap(), &[0u8; 64][..], "an uncommitted update survived");
    assert!(!written_home, "the page went home while its record's sync was parked");
}
