//! The checkpoint taken mid-transaction: `checkpoint()` drains
//! incrementally and then writes one record, without stopping the server
//! — here with an uncommitted loser active and shipped. For every one of
//! the six schemes, a crash after such a checkpoint must recover exactly
//! the model the test itself committed (every committed write present,
//! the loser undone or skipped), and the media must restart
//! bit-identically across redo worker counts.
//!
//! The oracle used to be a second run under the stop-the-world checkpoint
//! body. That body is deleted (there is one checkpoint procedure now), and
//! as an oracle it was wrong under concurrency: it dropped dirty-page
//! table entries whose pages it had not flushed.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, StableMedia};
use qs_repro::types::{ClientId, Lsn, Oid};
use qs_repro::wal::LogRecord;
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

/// `store.modify`, mirrored into the committed model.
fn put(store: &mut Store, model: &mut [Vec<u8>], oids: &[Oid], i: usize, off: usize, bytes: &[u8]) {
    store.modify(oids[i], off, bytes).unwrap();
    model[i][off..off + bytes.len()].copy_from_slice(bytes);
}

/// The restart_equivalence crash scenario: a committed burst, an
/// uncommitted loser shipped to the server, a checkpoint taken *while the
/// loser is active*, a second committed burst, an in-flight transaction,
/// crash. Returns the crashed media, the object ids and the committed
/// value of every object.
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

    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 1..=6u8 {
        store.begin().unwrap();
        put(&mut store, &mut model, &oids, round as usize, 0, &[round; 32]);
        put(&mut store, &mut model, &oids, 0, 40, &[round; 32]);
        store.commit().unwrap();
    }
    drop(store);

    // The loser: uncommitted, on pages the bursts avoid (6..9), shipped
    // and made durable by the checkpoint below.
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
    // Mid-transaction checkpoint: it must carry the loser in its
    // transaction-table snapshot, and keep the pages the loser logged but
    // never shipped in its dirty-page table.
    server.checkpoint().unwrap();

    // Burst B: committed work after the checkpoint, then one in-flight
    // transaction whose unforced tail dies with the crash.
    let client =
        ClientConn::new(ClientId(1), Arc::clone(&server), cfg.client_pool_pages(), Meter::new());
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 7..=12u8 {
        store.begin().unwrap();
        put(&mut store, &mut model, &oids, (round as usize) % 20, 0, &[round; 32]);
        put(&mut store, &mut model, &oids, (round as usize) % 20 + 1, 36, &[round; 24]);
        store.commit().unwrap();
    }
    store.begin().unwrap();
    store.modify(oids[2], 0, &[0xDD; 16]).unwrap();
    drop(store);

    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids, model)
}

/// Everything observable about one restart.
#[derive(PartialEq, Debug)]
struct Observed {
    values: Vec<Vec<u8>>,
    active_txns: usize,
    data_image: Vec<u8>,
    log_image: Vec<u8>,
}

fn restart_observed(
    data: &[u8],
    log: &[u8],
    oids: &[Oid],
    scfg: ServerConfig,
    workers: usize,
) -> Observed {
    let scfg = scfg.with_redo_workers(workers);
    let parts =
        StableParts { data_media: disk_from(data), log_media: disk_from(log), flight: None };
    let server = Server::restart(parts, scfg, Meter::new()).unwrap();
    let values = oids.iter().map(|&o| value_at(&server, o)).collect();
    let active_txns = server.active_txns();
    server.quiesce().unwrap();
    let parts = server.crash();
    Observed {
        values,
        active_txns,
        data_image: image(&parts.data_media),
        log_image: image(&parts.log_media),
    }
}

/// For every scheme: the crash after a mid-transaction checkpoint
/// recovers exactly the committed model (loser gone), and the media
/// restart identically across worker counts.
#[test]
fn mid_transaction_checkpoint_recovers_the_committed_model() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();

        let (data, log, oids, model) = crashed_images(&cfg);
        let one = restart_observed(&data, &log, &oids, server_cfg(&cfg), 1);
        assert_eq!(one.values, model, "{name}: recovery diverged from the committed model");
        assert_eq!(one.active_txns, 0, "{name}: loser survived recovery");

        // Restarts of the same media must be bit-identical across worker
        // counts, anchoring included.
        for workers in [2, 4, 8] {
            let got = restart_observed(&data, &log, &oids, server_cfg(&cfg), workers);
            assert_eq!(got, one, "{name}: workers={workers} diverged");
        }
    }
}

/// The checkpoint's drain must actually write data pages: the pages the
/// dirty-page table lists are on disk before the record is appended, so a
/// crash *immediately* after a checkpoint replays only the log tail.
/// Sanity-checks the elevator batches really ran for the page-shipping
/// schemes (WPL drains via reclaim, not the checkpoint). ("Fuzzy": the
/// drain runs with transactions running; there is no other kind now.)
#[test]
fn fuzzy_drain_flushes_claimed_pages() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        if cfg.flavor == RecoveryFlavor::Wpl || cfg.flavor == RecoveryFlavor::RedoLogical {
            // WPL claims nothing; RLOG's aged claim is empty on the first
            // checkpoint (nothing predates a null previous checkpoint).
            continue;
        }
        let name = cfg.name();
        let meter = Meter::new();
        let server = Arc::new(Server::format(server_cfg(&cfg), Arc::clone(&meter)).unwrap());
        let pids = server.bulk_allocate(8).unwrap();
        let mut oids = Vec::new();
        for &pid in &pids {
            let mut p = Page::new();
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 100]).unwrap()));
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        let client =
            ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
        let mut store = Store::new(client, cfg.clone()).unwrap();
        for (i, &oid) in oids.iter().enumerate() {
            store.begin().unwrap();
            store.modify(oid, 0, &[i as u8 + 1; 32]).unwrap();
            store.commit().unwrap();
        }
        drop(store);
        server.checkpoint().unwrap();
        let (batches, pages) = server.drain_stats();
        assert!(batches > 0, "{name}: the checkpoint drained no batches");
        assert!(pages >= 8, "{name}: the checkpoint drained {pages} pages, expected >= 8");
        drop(Arc::try_unwrap(server).ok().expect("sole owner").crash());
    }
}

/// A one-page server of `cfg`'s flavor, and the page's one 100-byte object.
fn one_page_server(cfg: &SystemConfig) -> (Server, Oid, Page) {
    let server = Server::format(server_cfg(cfg), Meter::new()).unwrap();
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut page = Page::new();
    let oid = Oid::new(pid, page.insert(pid, &[0u8; 100]).unwrap());
    server.bulk_write(pid, &page).unwrap();
    server.bulk_sync().unwrap();
    (server, oid, page)
}

/// Begin a transaction that may ship physical records (under ADAPT it
/// elects PD) and X-lock `oid`'s page.
fn begin_physical(server: &Server, oid: Oid) -> qs_repro::types::TxnId {
    let txn = server.begin();
    server.lock_page(txn, oid.page, qs_repro::esm::LockMode::X).unwrap();
    if server.flavor() == RecoveryFlavor::Adaptive {
        let scheme = qs_repro::wal::SchemeCode::Pd;
        let mark = LogRecord::TxnScheme { txn, prev: Lsn::NULL, scheme };
        server.receive_log_records(txn, vec![mark]).unwrap();
    }
    txn
}

/// Ship the log page of "fill `page`'s object bytes `[0, 20)` with `val`".
fn ship_log_page(server: &Server, txn: qs_repro::types::TxnId, oid: Oid, page: &mut Page, val: u8) {
    let object = page.object_mut(oid.page, oid.slot).unwrap();
    let update = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: oid.page,
        slot: oid.slot,
        offset: 0,
        before: object[..20].to_vec(),
        after: vec![val; 20],
    };
    object[..20].fill(val);
    server.receive_log_records(txn, vec![update]).unwrap();
}

/// Ship the dirty page, under the flavors whose clients ship pages
/// (PD-REDO applied the record to its own copy on receipt), and commit.
fn ship_dirty_page_and_commit(server: &Server, txn: qs_repro::types::TxnId, oid: Oid, page: &Page) {
    if server.flavor().facts().ships_pages {
        server.receive_dirty_page(txn, oid.page, page.clone()).unwrap();
    }
    server.commit(txn).unwrap();
}

fn crash_restart_and_read(server: Server, cfg: &SystemConfig, oid: Oid) -> Vec<u8> {
    let restarted = Server::restart(server.crash(), server_cfg(cfg), Meter::new()).unwrap();
    value_at(&restarted, oid)
}

fn physical_schemes() -> [SystemConfig; 3] {
    [SystemConfig::pd_esm(), SystemConfig::pd_redo(), SystemConfig::adaptive()]
        .map(|cfg| cfg.with_memory(1.0, 0.25))
}

/// ESM ships a transaction's log page before the dirty page it describes,
/// and somebody else's commit can checkpoint in between. That checkpoint
/// finds the page in the dirty-page table with no image to flush; it must
/// keep the entry, or restart — anchored at it — never redoes the update
/// the acknowledged commit made. (The stop-the-world checkpoint cleared
/// the table: under PD-ESM the update was gone after the crash.)
#[test]
fn a_checkpoint_between_a_log_page_and_its_dirty_page_keeps_the_commit() {
    for cfg in physical_schemes() {
        let name = cfg.name();
        let (server, oid, mut page) = one_page_server(&cfg);
        let txn = begin_physical(&server, oid);
        ship_log_page(&server, txn, oid, &mut page, 0xA5);
        server.checkpoint().unwrap();
        ship_dirty_page_and_commit(&server, txn, oid, &page);
        let got = crash_restart_and_read(server, &cfg, oid);
        assert_eq!(got[..20], [0xA5; 20], "{name}: the acknowledged commit is gone");
    }
}

/// The same with an earlier committed image of the page dirty in the pool:
/// the first checkpoint has something to flush, but that image is older
/// than the record the table lists the page for, so writing it retires
/// nothing — and the second checkpoint's body still lists the page. (The
/// two-phase checkpoint's drain dropped the entry after flushing the
/// older image: under PD-ESM the update was gone after the second.)
#[test]
fn two_checkpoints_over_an_older_dirty_image_keep_the_commit() {
    for cfg in physical_schemes() {
        let name = cfg.name();
        let (server, oid, mut page) = one_page_server(&cfg);
        let earlier = begin_physical(&server, oid);
        ship_log_page(&server, earlier, oid, &mut page, 0x11);
        ship_dirty_page_and_commit(&server, earlier, oid, &page);

        let txn = begin_physical(&server, oid);
        ship_log_page(&server, txn, oid, &mut page, 0xA5);
        server.checkpoint().unwrap();
        server.checkpoint().unwrap();
        ship_dirty_page_and_commit(&server, txn, oid, &page);
        let got = crash_restart_and_read(server, &cfg, oid);
        assert_eq!(got[..20], [0xA5; 20], "{name}: the acknowledged commit is gone");
    }
}

/// An ADAPT transaction that elected a logical scheme and aborted wrote no
/// CLR: nothing of it ever reached a page. A checkpoint taken while an
/// older physical transaction is active truncates the log between the
/// aborted one's `TxnScheme` mark and its update. Restart took the
/// unmarked transaction for a physical one and redid its update onto the
/// page (ROADMAP item 2); an unmarked abort without a CLR is logical.
#[test]
fn an_aborted_logical_transaction_whose_mark_was_truncated_stays_aborted() {
    let cfg = SystemConfig::adaptive().with_memory(1.0, 0.25);
    let (server, oid, mut page) = one_page_server(&cfg);
    let logical = server.begin();
    let scheme = qs_repro::wal::SchemeCode::Rlog;
    let mark = LogRecord::TxnScheme { txn: logical, prev: Lsn::NULL, scheme };
    server.receive_log_records(logical, vec![mark]).unwrap();
    let txn = begin_physical(&server, oid);
    ship_log_page(&server, txn, oid, &mut page, 0xA5);
    let update = LogRecord::UpdateLogical {
        txn: logical,
        prev: Lsn::NULL,
        page: oid.page,
        slot: oid.slot,
        offset: 40,
        after: vec![0x5A; 20],
    };
    server.receive_log_records(logical, vec![update]).unwrap();
    server.abort(logical).unwrap();
    server.checkpoint().unwrap();
    ship_dirty_page_and_commit(&server, txn, oid, &page);
    let got = crash_restart_and_read(server, &cfg, oid);
    assert_eq!(got[..20], [0xA5; 20], "the acknowledged commit is gone");
    assert_eq!(got[40..60], [0; 20], "the aborted transaction's update was redone");
}
