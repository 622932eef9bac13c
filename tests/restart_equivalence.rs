//! Restart correctness and determinism: for every recovery scheme, crash
//! the same server mid-burst, then restart the same media image with
//! `redo_workers` ∈ {1, 2, 4, 8} (and pathological chunk sizes).
//!
//! The oracle is not another restart implementation: the recovered object
//! values must equal a model the test computes from the writes the
//! scenario itself committed (loser and in-flight bytes absent), and each
//! scheme's restart-report phase counts are pinned as literals — recorded
//! from the serial restart routines this engine replaced, on the commit
//! before they were deleted. Across worker counts and chunk sizes the
//! recovered volume, the log, the report and every post-restart read must
//! be byte-identical: the pool size is never an observable.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig, ShardedPool, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, StableMedia};
use qs_repro::types::{ClientId, Lsn, Oid, QsError, PAGE_SIZE};
use qs_repro::wal::{LogManager, LogRecord};
use std::sync::Arc;

fn server_cfg(cfg: &SystemConfig) -> ServerConfig {
    ServerConfig::new(cfg.flavor).with_pool_mb(1.0).with_volume_pages(256).with_log_mb(8.0)
}

/// Byte image of a stable medium.
fn image(media: &Arc<dyn StableMedia>) -> Vec<u8> {
    let mut buf = vec![0u8; media.len()];
    media.read_at(0, &mut buf).unwrap();
    buf
}

/// A fresh medium holding the given image.
fn disk_from(bytes: &[u8]) -> Arc<dyn StableMedia> {
    let d = MemDisk::new(bytes.len());
    d.write_at(0, bytes).unwrap();
    Arc::new(d)
}

fn value_at(server: &Server, oid: Oid) -> Vec<u8> {
    server.read_page_for_test(oid.page).unwrap().object(oid.page, oid.slot).unwrap().to_vec()
}

/// `(phase, records, log pages read, data reads, data writes)`.
type PhaseCounts = (&'static str, u64, u64, u64, u64);

/// One write of a transaction that commits: through the store, and into
/// the model of what recovery must bring back.
fn put(store: &mut Store, model: &mut [Vec<u8>], oids: &[Oid], i: usize, off: usize, bytes: &[u8]) {
    store.modify(oids[i], off, bytes).unwrap();
    model[i][off..off + bytes.len()].copy_from_slice(bytes);
}

/// Build a server with 10 pages × 4 objects and run a crash scenario with
/// work in every restart phase: a committed burst, an *uncommitted* loser
/// made durable by a checkpoint, a second committed burst after the
/// checkpoint (analysis + redo work), and an in-flight transaction at
/// crash time. Returns the crashed media images, all object ids, and the
/// committed value of every object.
fn crashed_images(cfg: &SystemConfig) -> (Vec<u8>, Vec<u8>, Vec<Oid>, Vec<Vec<u8>>) {
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(cfg), Arc::clone(&meter)).unwrap());
    let pids = server.bulk_allocate(10).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        for _ in 0..4 {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let mut model = vec![vec![0u8; 100]; oids.len()];

    // Burst A: committed work before the checkpoint.
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 1..=6u8 {
        store.begin().unwrap();
        put(&mut store, &mut model, &oids, round as usize, 0, &[round; 32]);
        put(&mut store, &mut model, &oids, 0, 40, &[round; 32]);
        store.commit().unwrap();
    }
    drop(store);

    // The loser: an uncommitted transaction on pages the bursts avoid
    // (pages 6..9 — bursts touch only oids on pages 0..5), shipped to the
    // server and made durable by the checkpoint below. Restart must undo
    // it (ARIES) or skip its uncommitted images (WPL).
    let loser = server.begin();
    for &pid in &pids[6..9] {
        server.lock_page(loser, pid, qs_repro::esm::LockMode::X).unwrap();
    }
    match cfg.flavor {
        RecoveryFlavor::Wpl => {
            for &pid in &pids[6..9] {
                let mut p = server.read_page_for_test(pid).unwrap();
                p.object_mut(pid, 0).unwrap()[..16].copy_from_slice(&[0xEE; 16]);
                server.receive_dirty_page(loser, pid, p).unwrap();
            }
        }
        RecoveryFlavor::RedoLogical => {
            // RLOG losers ship logical (after-only) records; restart must
            // drop them in analysis rather than undo them.
            let recs: Vec<LogRecord> = pids[6..9]
                .iter()
                .flat_map(|&pid| {
                    (0..10u8).map(move |i| LogRecord::UpdateLogical {
                        txn: loser,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: (i % 4) as u16,
                        offset: (i as u16 % 3) * 20,
                        after: vec![0xE0 + i; 20],
                    })
                })
                .collect();
            server.receive_log_records(loser, recs).unwrap();
        }
        _ => {
            let recs: Vec<LogRecord> = pids[6..9]
                .iter()
                .flat_map(|&pid| {
                    (0..10u8).map(move |i| LogRecord::Update {
                        txn: loser,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: (i % 4) as u16,
                        offset: (i as u16 % 3) * 20,
                        before: vec![0u8; 20],
                        after: vec![0xE0 + i; 20],
                    })
                })
                .collect();
            server.receive_log_records(loser, recs).unwrap();
        }
    }
    // Checkpoint: forces the loser's records durable and seeds the
    // checkpoint's transaction table / WPL table snapshot with them.
    server.checkpoint().unwrap();

    // Burst B: committed work *after* the checkpoint — this is what
    // analysis scans and redo repeats.
    let client =
        ClientConn::new(ClientId(1), Arc::clone(&server), cfg.client_pool_pages(), Meter::new());
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 7..=12u8 {
        store.begin().unwrap();
        put(&mut store, &mut model, &oids, (round as usize) % 20, 0, &[round; 32]);
        put(&mut store, &mut model, &oids, (round as usize) % 20 + 1, 36, &[round; 24]);
        store.commit().unwrap();
    }
    // In flight at crash time (its unforced tail is lost with the crash):
    // not in the model.
    store.begin().unwrap();
    store.modify(oids[2], 0, &[0xDD; 16]).unwrap();

    drop(store);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids, model)
}

/// Everything observable about one restart, for comparison across
/// worker counts.
#[derive(PartialEq, Debug)]
struct Observed {
    phases: Vec<PhaseCounts>,
    values: Vec<Vec<u8>>,
    active_txns: usize,
    wpl_entries: usize,
    data_image: Vec<u8>,
    log_image: Vec<u8>,
}

fn restart_observed(
    data: &[u8],
    log: &[u8],
    oids: &[Oid],
    mut scfg: ServerConfig,
    workers: usize,
    chunk_bytes: Option<usize>,
) -> Observed {
    scfg = scfg.with_redo_workers(workers);
    if let Some(cb) = chunk_bytes {
        scfg.restart.chunk_bytes = cb;
    }
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let report = server.restart_report().unwrap();
    let phases = report
        .phases
        .iter()
        .map(|p| (p.name, p.records, p.pages_read, p.data_reads, p.data_writes))
        .collect();
    let values = oids.iter().map(|&o| value_at(&server, o)).collect();
    let active_txns = server.active_txns();
    let wpl_entries = server.wpl_table_len();
    // Quiesce drains the WPL table to permanent locations (and flushes
    // ARIES dirty pages), so the media comparison covers the restored
    // table state too.
    server.quiesce().unwrap();
    let parts = server.crash();
    Observed {
        phases,
        values,
        active_txns,
        wpl_entries,
        data_image: image(&parts.data_media),
        log_image: image(&parts.log_media),
    }
}

#[test]
fn restart_recovers_the_committed_model_at_every_worker_count() {
    // Under PD-ESM the loser shipped its 30 records but never its three
    // pages, so the checkpoint's drain has no image to write for them and
    // its body keeps them in the dirty-page table: redo starts at their
    // recLSN, reads them and repeats the loser's history (12 + 30 records,
    // 3 + 3 pages) before undo rolls it back. The stop-the-world body
    // these counts were first pinned against (12 records, 3 pages) cleared
    // the table instead — with the loser's pages unflushed, which is the
    // lost-update bug; the recovered values are the same either way only
    // because this loser never commits. PD-REDO applied the records to
    // its own copies on receipt, so the drain wrote them and its counts
    // did not move.
    for (cfg, pinned) in [
        (
            SystemConfig::pd_esm(),
            &[("analysis", 19, 1, 0, 0), ("redo", 42, 1, 6, 0), ("undo", 30, 1, 0, 0)][..],
        ),
        (
            SystemConfig::pd_redo(),
            &[("analysis", 19, 1, 0, 0), ("redo", 12, 1, 3, 0), ("undo", 30, 1, 0, 0)],
        ),
        // REDO-only: the loser is dropped in analysis, no undo phase.
        (SystemConfig::pd_rlog(), &[("analysis", 67, 1, 0, 0), ("redo", 24, 1, 4, 0)]),
        (SystemConfig::wpl(), &[("backward_scan", 15, 9, 0, 0), ("table_rebuild", 5, 0, 0, 0)]),
    ] {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();
        let (data, log, oids, model) = crashed_images(&cfg);
        let scfg = server_cfg(&cfg);
        let baseline = restart_observed(&data, &log, &oids, scfg.clone(), 1, None);

        // Exactly the committed bytes: the loser's 0xE0../0xEE and the
        // in-flight 0xDD writes are absent, every committed write present.
        assert_eq!(baseline.values, model, "{name}: recovered values diverge from the model");
        assert_eq!(baseline.phases, pinned, "{name}: restart work counts moved");
        assert_eq!(baseline.active_txns, 0, "{name}: loser still active");
        if cfg.flavor == RecoveryFlavor::Wpl {
            assert_eq!(baseline.wpl_entries, 4, "{name}: WPL entries restored");
        }

        for (workers, chunk) in [(2, None), (4, None), (8, None), (4, Some(8192)), (3, Some(29))] {
            let got = restart_observed(&data, &log, &oids, scfg.clone(), workers, chunk);
            assert_eq!(
                got, baseline,
                "{name}: workers={workers} chunk={chunk:?} diverged from one worker"
            );
        }
    }
}

/// Crash injected after a checkpoint's record is durable but *before* the
/// log header names it, for all six schemes: the header only advances
/// once the record is forced, so restart must anchor on the previous
/// checkpoint and recover exactly the committed model — which is also what
/// a run without the unnamed record recovers — at every worker count.
/// (This was the begin/end-pair fallback test; the pair is gone, the
/// window between "record durable" and "header names it" is what is left
/// of it.)
#[test]
fn crash_before_the_header_names_the_checkpoint_falls_back() {
    // Restart work on the orphaned media; the unnamed checkpoint record
    // is one more analysis / scan record than the run without it. (Pinned
    // anew with the pair gone: the anchor is one record, not two, and the
    // interrupted checkpoint had already drained, so redo reads the pages
    // it would have redone and finds them current.)
    const ARIES: &[PhaseCounts] =
        &[("analysis", 12, 1, 0, 0), ("redo", 0, 1, 3, 0), ("undo", 0, 0, 0, 0)];
    let pinned = |name: &str| -> &'static [PhaseCounts] {
        match name {
            "PD-ESM" | "SD-ESM" | "PD-REDO" => ARIES,
            "SL-ESM" => &[("analysis", 15, 1, 0, 0), ("redo", 0, 1, 3, 0), ("undo", 0, 0, 0, 0)],
            "PD-RLOG" => &[("analysis", 20, 1, 0, 0), ("redo", 4, 1, 5, 0)],
            "WPL" => &[("backward_scan", 12, 6, 0, 0), ("table_rebuild", 3, 0, 0, 0)],
            other => panic!("no pinned restart counts for scheme {other}"),
        }
    };
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();

        // Two runs of the same committed workload; `orphan` leaves a
        // checkpoint record the header does not name just before the crash.
        let run = |orphan: bool| -> (Vec<u8>, Vec<u8>, Vec<Oid>, Vec<Vec<u8>>) {
            let meter = Meter::new();
            let server = Arc::new(Server::format(server_cfg(&cfg), Arc::clone(&meter)).unwrap());
            let pids = server.bulk_allocate(8).unwrap();
            let mut oids = Vec::new();
            for &pid in &pids {
                let mut p = Page::new();
                for _ in 0..2 {
                    oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
                }
                server.bulk_write(pid, &p).unwrap();
            }
            server.bulk_sync().unwrap();
            let mut model = vec![vec![0u8; 100]; oids.len()];
            let client =
                ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
            let mut store = Store::new(client, cfg.clone()).unwrap();
            for round in 1..=4u8 {
                store.begin().unwrap();
                put(&mut store, &mut model, &oids, round as usize, 0, &[round; 32]);
                store.commit().unwrap();
            }
            drop(store);
            // The previous checkpoint — the anchor restart must fall back to.
            server.checkpoint().unwrap();
            let client = ClientConn::new(
                ClientId(1),
                Arc::clone(&server),
                cfg.client_pool_pages(),
                Meter::new(),
            );
            let mut store = Store::new(client, cfg.clone()).unwrap();
            for round in 5..=9u8 {
                store.begin().unwrap();
                put(&mut store, &mut model, &oids, round as usize, 0, &[round; 32]);
                store.commit().unwrap();
            }
            drop(store);
            if orphan {
                // Drained, record appended and forced; header still on the
                // previous checkpoint.
                server.checkpoint_stopping_before_the_header_for_test().unwrap();
            }
            let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
            (image(&parts.data_media), image(&parts.log_media), oids, model)
        };

        let (bdata, blog, boids, model) = run(false);
        let scfg = server_cfg(&cfg);
        let baseline = restart_observed(&bdata, &blog, &boids, scfg.clone(), 1, None);
        assert_eq!(baseline.values, model, "{name}: recovered values diverge from the model");

        let (odata, olog, ooids, omodel) = run(true);
        assert_eq!((&boids, &model), (&ooids, &omodel), "{name}: scenario divergence");
        let orphaned = restart_observed(&odata, &olog, &ooids, scfg.clone(), 1, None);

        // Every committed value intact, nothing left active, and the
        // fallback anchor costs exactly the pinned work.
        assert_eq!(
            orphaned.values, model,
            "{name}: the unnamed checkpoint record changed recovered values"
        );
        assert_eq!(orphaned.active_txns, 0, "{name}: phantom txn after fallback");
        assert_eq!(orphaned.phases, pinned(&name), "{name}: restart work counts moved");

        // And the orphaned media itself restarts bit-identically at every
        // worker count (anchor selection must agree).
        for workers in [2, 4] {
            let got = restart_observed(&odata, &olog, &ooids, scfg.clone(), workers, None);
            assert_eq!(got, orphaned, "{name}: workers={workers} diverged on orphaned media");
        }
    }
}

/// A crash with *no* checkpoint and with whole-page records in the ARIES
/// log (freshly allocated pages): eight committed transactions, each
/// rewriting every object (one per page, `pages` of them) and allocating
/// one more.
fn crashed_without_checkpoint(
    cfg: &SystemConfig,
    pages: usize,
) -> (Vec<u8>, Vec<u8>, Vec<Oid>, Vec<Vec<u8>>) {
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(cfg), Arc::clone(&meter)).unwrap());
    let pids = server.bulk_allocate(pages).unwrap();
    let mut oids = Vec::new();
    for &pid in &pids {
        let mut p = Page::new();
        oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let mut model = vec![vec![0u8; 100]; oids.len()];
    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 1..=8u8 {
        store.begin().unwrap();
        for i in 0..oids.len() {
            put(&mut store, &mut model, &oids, i, 0, &[round; 48]);
        }
        // Allocating objects touches fresh pages → whole-page /
        // page-alloc records in the log.
        store.allocate(&[round; 64]).unwrap();
        store.commit().unwrap();
    }
    drop(store);
    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids, model)
}

/// Same checks as the checkpointed scenario, covering the null-checkpoint
/// scan window and whole-page redo routing.
#[test]
fn restart_without_checkpoint_recovers_the_committed_model() {
    for (cfg, pinned) in [
        (
            SystemConfig::pd_esm(),
            &[("analysis", 56, 9, 0, 0), ("redo", 48, 9, 12, 0), ("undo", 0, 0, 0, 0)][..],
        ),
        (SystemConfig::pd_rlog(), &[("analysis", 56, 9, 0, 0), ("redo", 48, 9, 12, 0)]),
        (SystemConfig::wpl(), &[("backward_scan", 56, 41, 0, 0), ("table_rebuild", 0, 0, 0, 0)]),
    ] {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();
        let (data, log, oids, model) = crashed_without_checkpoint(&cfg, 4);

        let scfg = server_cfg(&cfg);
        let baseline = restart_observed(&data, &log, &oids, scfg.clone(), 1, None);
        assert_eq!(baseline.values, model, "{name}: recovered values diverge from the model");
        assert_eq!(baseline.phases, pinned, "{name}: restart work counts moved");
        for workers in [2, 4, 8] {
            let got = restart_observed(&data, &log, &oids, scfg.clone(), workers, None);
            assert_eq!(got, baseline, "{name}: workers={workers} diverged from one worker");
        }
    }
}

/// Restart the given crashed media with `workers` workers and require
/// that it fails with `LogCorrupt` — not a panic, not a recovery.
fn assert_restart_reports_corruption(
    data: &[u8],
    log: &[u8],
    scfg: ServerConfig,
    workers: usize,
    what: &str,
) {
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    match Server::restart(parts, scfg.with_redo_workers(workers), Meter::new()) {
        Err(QsError::LogCorrupt { .. }) => {}
        Err(e) => panic!("{what}, workers={workers}: wrong error {e:?}"),
        Ok(_) => panic!("{what}, workers={workers}: corruption went unnoticed"),
    }
}

/// Media offset of byte `at(frame length)` of the last frame of `log`
/// that `want` accepts: its physical position in the circular log body
/// behind the header page.
fn byte_of_last(
    log: &[u8],
    want: impl Fn(&LogRecord) -> bool,
    at: impl Fn(usize) -> usize,
) -> usize {
    let lm = LogManager::open(disk_from(log)).unwrap();
    let (lsn, rec) = lm
        .scan_forward(lm.start_lsn())
        .map(|item| item.unwrap())
        .filter(|(_, rec)| want(rec))
        .last()
        .expect("scenario logs such a frame");
    PAGE_SIZE + (lsn.0 as usize + at(rec.encode().len())) % lm.body_capacity()
}

/// Offset of the tag byte within a frame (after the length prefix and
/// the checksum).
const TAG_AT: usize = 8;

/// Verify-once is the only checksum policy, so it must hold at every
/// worker count and for every thread that verifies: a frame restart
/// *uses* is checksummed before its result is used. Corrupt one byte of
/// (a) a small `Update` frame in the analysis window, (b) one owned by the
/// *last* analysis worker, whose error has to come back through the join,
/// (c) a whole-page frame that redo applies, (d) the WPL image that wins
/// its page, (e, f) a `Commit` frame and a `TxnScheme` mark, which only
/// the analysis router reads, (g) the tag of a `Commit` frame so that the
/// page-less record poses as a page-bearing one (a CLR) and is routed to
/// a worker — restart must fail with `LogCorrupt`, never recover silently.
#[test]
fn corrupt_frame_fails_restart_loudly() {
    type Want = fn(&LogRecord, usize) -> bool;
    #[derive(Clone, Copy)]
    enum Hit {
        /// A mid-frame byte, under the checksum.
        Middle,
        /// Bit 1 of the tag byte: Commit (4) becomes CLR (6).
        Tag,
    }
    // The workers partition pages with the sharded pool's hash.
    let on_last_worker: Want = |r, workers| {
        matches!(r, LogRecord::Update { page, .. }
            if ShardedPool::new(workers, workers).shard_of(*page) == workers - 1)
    };
    let is_update: Want = |r, _| matches!(r, LogRecord::Update { .. });
    let is_image: Want = |r, _| matches!(r, LogRecord::WholePage { .. });
    let is_commit: Want = |r, _| matches!(r, LogRecord::Commit { .. });
    let is_mark: Want = |r, _| matches!(r, LogRecord::TxnScheme { .. });
    for (cfg, what, want, hit) in [
        (SystemConfig::pd_esm(), "Update frame", is_update, Hit::Middle),
        (SystemConfig::pd_esm(), "Update frame of the last worker", on_last_worker, Hit::Middle),
        (SystemConfig::pd_esm(), "redone whole-page frame", is_image, Hit::Middle),
        // Every transaction committed, so the log's last image is the
        // newest committed image of its page.
        (SystemConfig::wpl(), "winning WPL image", is_image, Hit::Middle),
        // A commit frame has no body: its middle is the header's txn id.
        (SystemConfig::adaptive(), "Commit frame", is_commit, Hit::Middle),
        (SystemConfig::adaptive(), "TxnScheme mark", is_mark, Hit::Middle),
        (SystemConfig::pd_esm(), "Commit tag posing as a CLR", is_commit, Hit::Tag),
    ] {
        let cfg = cfg.with_memory(1.0, 0.25);
        // Twelve pages: every worker of four owns some `Update` frame.
        let (data, log, _, _) = crashed_without_checkpoint(&cfg, 12);
        for workers in [1, 2, 4] {
            let (at, flip): (fn(usize) -> usize, u8) = match hit {
                Hit::Middle => (|len| len / 2, 0x40),
                Hit::Tag => (|_| TAG_AT, 0x02),
            };
            let mut bad = log.clone();
            bad[byte_of_last(&log, |r| want(r, workers), at)] ^= flip;
            assert_restart_reports_corruption(&data, &bad, server_cfg(&cfg), workers, what);
        }
    }
}

/// The verify-once hole below the anchor. Analysis verifies
/// `[anchor, end)` only, but a checkpoint's body lists the recLSN of a
/// page whose records were shipped early — before the checkpoint — while
/// the page itself was still at the client, so the drain could not flush
/// it and redo starts *below* the anchor. The transaction then
/// ships the page and commits, so nothing but redo ever reads those early
/// `Update` frames: redo must verify them itself before applying them.
#[test]
fn corrupt_update_frame_below_the_anchor_fails_restart_loudly() {
    let cfg = SystemConfig::pd_esm().with_memory(1.0, 0.25);
    let scfg = server_cfg(&cfg);
    let server = Server::format(scfg.clone(), Meter::new()).unwrap();
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut page = Page::new();
    let slot = page.insert(pid, &[0u8; 100]).unwrap();
    server.bulk_write(pid, &page).unwrap();
    server.bulk_sync().unwrap();

    let txn = server.begin();
    server.lock_page(txn, pid, qs_repro::esm::LockMode::X).unwrap();
    let early = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot,
        offset: 0,
        before: vec![0u8; 20],
        after: vec![0xA5; 20],
    };
    server.receive_log_records(txn, vec![early]).unwrap();
    // A checkpoint: its body carries the page's recLSN, its drain finds
    // no page to flush.
    server.checkpoint().unwrap();
    page.object_mut(pid, slot).unwrap()[..20].copy_from_slice(&[0xA5; 20]);
    server.receive_dirty_page(txn, pid, page).unwrap();
    server.commit(txn).unwrap();
    let parts = server.crash();
    let (data, log) = (image(&parts.data_media), image(&parts.log_media));

    // The scenario is the one described: the anchor is above the frame,
    // and an intact log redoes it.
    let lm = LogManager::open(disk_from(&log)).unwrap();
    let (early_lsn, _) = lm
        .scan_forward(lm.start_lsn())
        .map(|item| item.unwrap())
        .find(|(_, r)| matches!(r, LogRecord::Update { .. }))
        .unwrap();
    assert!(early_lsn < lm.checkpoint_lsn(), "the Update frame must precede the anchor");
    let intact = restart_observed(&data, &log, &[Oid::new(pid, slot)], scfg.clone(), 1, None);
    assert_eq!(intact.values[0][..20], [0xA5; 20], "redo applies the early frame");
    assert_eq!(intact.phases[1], ("redo", 1, 1, 1, 0));

    let mut log = log;
    let at = byte_of_last(&log, |r| matches!(r, LogRecord::Update { .. }), |len| len - 10);
    log[at] ^= 0x40;
    for workers in [1, 2] {
        assert_restart_reports_corruption(
            &data,
            &log,
            scfg.clone(),
            workers,
            "Update frame below the anchor",
        );
    }
}
