//! Two-phase fuzzy checkpoint equivalence: with the background-flusher
//! knob on, `checkpoint()` becomes begin record → incremental drain →
//! end record, taken *without* quiescing — including mid-transaction,
//! with an uncommitted loser active and shipped. For every one of the
//! six schemes, a crash after fuzzy checkpoints must recover exactly
//! the state the quiesced-checkpoint oracle recovers: same committed
//! values, same undone/skipped losers, and the fuzzy media must restart
//! bit-identically across redo worker counts.

use qs_repro::core::{Store, SystemConfig};
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::Meter;
use qs_repro::storage::{MemDisk, Page, StableMedia};
use qs_repro::types::{ClientId, Lsn, Oid};
use qs_repro::wal::LogRecord;
use std::sync::Arc;

fn server_cfg(cfg: &SystemConfig, fuzzy: bool) -> ServerConfig {
    ServerConfig::new(cfg.flavor)
        .with_pool_mb(1.0)
        .with_volume_pages(256)
        .with_log_mb(8.0)
        .with_background_flusher(fuzzy)
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

/// The restart_equivalence crash scenario, parameterized on the
/// checkpoint protocol: a committed burst, an uncommitted loser shipped
/// to the server, a checkpoint taken *while the loser is active* (the
/// mid-transaction case the fuzzy protocol must get right), a second
/// committed burst, an in-flight transaction, crash.
fn crashed_images(cfg: &SystemConfig, fuzzy: bool) -> (Vec<u8>, Vec<u8>, Vec<Oid>) {
    let meter = Meter::new();
    let server = Arc::new(Server::format(server_cfg(cfg, fuzzy), Arc::clone(&meter)).unwrap());
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

    let client = ClientConn::new(ClientId(0), Arc::clone(&server), cfg.client_pool_pages(), meter);
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 1..=6u8 {
        store.begin().unwrap();
        store.modify(oids[round as usize], 0, &[round; 32]).unwrap();
        store.modify(oids[0], 40, &[round; 32]).unwrap();
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
    // Mid-transaction checkpoint: quiesced sharp/aged under the oracle
    // config, two-phase fuzzy (begin → drain → end, no quiesce) under
    // the flusher config. Either way it must carry the loser in its
    // transaction-table snapshot.
    server.checkpoint().unwrap();

    // Burst B: committed work after the checkpoint, then one in-flight
    // transaction whose unforced tail dies with the crash.
    let client =
        ClientConn::new(ClientId(1), Arc::clone(&server), cfg.client_pool_pages(), Meter::new());
    let mut store = Store::new(client, cfg.clone()).unwrap();
    for round in 7..=12u8 {
        store.begin().unwrap();
        store.modify(oids[(round as usize) % 20], 0, &[round; 32]).unwrap();
        store.modify(oids[(round as usize) % 20 + 1], 36, &[round; 24]).unwrap();
        store.commit().unwrap();
    }
    store.begin().unwrap();
    store.modify(oids[2], 0, &[0xDD; 16]).unwrap();
    drop(store);

    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    (image(&parts.data_media), image(&parts.log_media), oids)
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

/// For every scheme: the fuzzy-checkpoint crash recovers the same logical
/// state as the quiesced-checkpoint oracle (committed values identical,
/// loser gone), and the fuzzy media restart identically across worker
/// counts. The media images themselves differ between the two
/// protocols (different checkpoint records), so the comparison is on
/// recovered state, not raw bytes.
#[test]
fn fuzzy_checkpoint_recovers_like_the_quiesced_oracle() {
    for (cfg, _) in SystemConfig::all_schemes() {
        let cfg = cfg.with_memory(1.0, 0.25);
        let name = cfg.name();

        let (odata, olog, oids) = crashed_images(&cfg, false);
        let oracle = restart_observed(&odata, &olog, &oids, server_cfg(&cfg, false), 1);

        let (fdata, flog, foids) = crashed_images(&cfg, true);
        assert_eq!(oids, foids, "{name}: scenario divergence");
        let fuzzy = restart_observed(&fdata, &flog, &foids, server_cfg(&cfg, true), 1);

        assert_eq!(
            fuzzy.values, oracle.values,
            "{name}: fuzzy-checkpoint recovery diverged from the quiesced oracle"
        );
        assert_eq!(fuzzy.active_txns, 0, "{name}: loser survived fuzzy recovery");

        // Restarts of the *same* fuzzy media must be bit-identical across
        // worker counts, begin/end anchoring included.
        for workers in [2, 4, 8] {
            let got = restart_observed(&fdata, &flog, &foids, server_cfg(&cfg, true), workers);
            assert_eq!(got, fuzzy, "{name}: workers={workers} diverged on fuzzy media");
        }
    }
}

/// The fuzzy drain must actually write data pages outside any quiesce:
/// dirty pages claimed at begin are on disk before the end record, so a
/// crash *immediately* after a fuzzy checkpoint replays only the log
/// tail. Sanity-checks the elevator batches really ran for the
/// page-shipping schemes (WPL drains via reclaim, not the checkpoint).
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
        let server = Arc::new(Server::format(server_cfg(&cfg, true), Arc::clone(&meter)).unwrap());
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
        let (batches, pages) = server.flusher_stats();
        assert!(batches > 0, "{name}: fuzzy checkpoint drained no batches");
        assert!(pages >= 8, "{name}: fuzzy checkpoint drained {pages} pages, expected >= 8");
        drop(Arc::try_unwrap(server).ok().expect("sole owner").crash());
    }
}
