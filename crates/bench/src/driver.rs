//! Shared transaction-driving harness for the wall-clock scale and
//! checkpoint benches.
//!
//! Every client is one OS thread making direct server calls (the
//! thread-per-connection shape the paper's testbed had), measuring *real*
//! elapsed time (not simulated 1995 time). Each transaction runs the same
//! protocol — begin, then per page: X-lock + fetch, mutate, ship log
//! record, ship dirty page, then commit.

use qs_esm::{LockMode, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_sim::Meter;
use qs_storage::{MemDisk, Page, Volume};
use qs_trace::Tracer;
use qs_types::sync::Mutex;
use qs_types::{Lsn, PageId, TxnId};
use qs_wal::{LogManager, LogRecord};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Object bytes written per page per transaction (pages are loaded with
/// one object of this size).
pub const OBJECT_BYTES: usize = 64;

/// Shape of one scale-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleWorkload {
    pub clients: usize,
    pub txns_per_client: usize,
    pub pages_per_client: usize,
    /// Real latency of one log-disk sync — what makes serialization on
    /// the commit path expensive, as in life.
    pub sync_latency: Duration,
}

impl ScaleWorkload {
    pub fn total_txns(&self) -> usize {
        self.clients * self.txns_per_client
    }
}

/// Build a formatted ESM server with a sync-latency log disk and a
/// bulk-loaded working set: one page set per client, one `OBJECT_BYTES`
/// object per page.
pub fn build_scale_server(
    cfg: ServerConfig,
    w: &ScaleWorkload,
    tracer: Arc<Tracer>,
) -> (Arc<Server>, Vec<Vec<PageId>>) {
    assert_eq!(cfg.flavor, RecoveryFlavor::EsmAries, "scale bench drives the ESM flavor");
    let parts = StableParts {
        data_media: Arc::new(MemDisk::new(Volume::required_bytes(cfg.volume_pages))),
        log_media: Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(cfg.log_bytes),
            w.sync_latency,
        )),
        flight: None,
    };
    let server = Arc::new(Server::format_on_traced(parts, cfg, Meter::new(), tracer).unwrap());
    let pids = server.bulk_allocate(w.clients * w.pages_per_client).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; OBJECT_BYTES]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let sets = pids.chunks(w.pages_per_client).map(|c| c.to_vec()).collect();
    (server, sets)
}

/// [`build_scale_server`], except the *data* disk also charges
/// `data_write_latency` per page write — the device time of a checkpoint's
/// drain, which the committing client pays when maintenance runs inline
/// and the flusher thread overlaps with commits when it is started.
pub fn build_ckpt_server(
    cfg: ServerConfig,
    w: &ScaleWorkload,
    data_write_latency: Duration,
    tracer: Arc<Tracer>,
) -> (Arc<Server>, Vec<Vec<PageId>>) {
    assert_eq!(cfg.flavor, RecoveryFlavor::EsmAries, "ckpt bench drives the ESM flavor");
    let parts = StableParts {
        data_media: Arc::new(MemDisk::with_latencies(
            Volume::required_bytes(cfg.volume_pages),
            Duration::ZERO,
            data_write_latency,
        )),
        log_media: Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(cfg.log_bytes),
            w.sync_latency,
        )),
        flight: None,
    };
    let server = Arc::new(Server::format_on_traced(parts, cfg, Meter::new(), tracer).unwrap());
    let pids = server.bulk_allocate(w.clients * w.pages_per_client).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; OBJECT_BYTES]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let sets = pids.chunks(w.pages_per_client).map(|c| c.to_vec()).collect();
    (server, sets)
}

/// The deterministic per-transaction fill value for client `i`'s `t`-th
/// transaction.
fn txn_val(i: usize, t: usize) -> u8 {
    ((i * 31 + t) % 251 + 1) as u8
}

fn update_record(txn: TxnId, pid: PageId, val: u8) -> LogRecord {
    LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before: vec![0u8; OBJECT_BYTES],
        after: vec![val; OBJECT_BYTES],
    }
}

/// One update transaction over `set` via direct server calls.
fn one_txn_direct(server: &Server, set: &[PageId], val: u8) {
    let txn = server.begin();
    for &pid in set {
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let mut page = server.fetch_page(txn, pid).unwrap();
        page.object_mut(pid, 0).unwrap().fill(val);
        let rec = update_record(txn, pid, val);
        server.receive_log_records(txn, vec![rec]).unwrap();
        server.receive_dirty_page(txn, pid, page).unwrap();
    }
    server.commit(txn).unwrap();
}

/// Thread-per-client driver: every client is an OS thread making direct
/// server calls. Returns the wall clock for the whole run.
pub fn drive_threads(
    server: &Arc<Server>,
    sets: &[Vec<PageId>],
    txns_per_client: usize,
) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, set) in sets.iter().enumerate() {
            let server = Arc::clone(server);
            let set = set.clone();
            s.spawn(move || {
                for t in 0..txns_per_client {
                    one_txn_direct(&server, &set, txn_val(i, t));
                }
            });
        }
    });
    t0.elapsed()
}

/// Thread-per-client driver that times every `commit()` call. Same
/// protocol as [`drive_threads`], but each client records how long its
/// commit waited — the latency a checkpoint inflates when it rides on the
/// committing client, and must not when the flusher thread runs it. Returns
/// all commit latencies in nanoseconds, unordered.
pub fn drive_threads_commit_latency(
    server: &Arc<Server>,
    sets: &[Vec<PageId>],
    txns_per_client: usize,
) -> Vec<u64> {
    let lats = Mutex::new(Vec::with_capacity(sets.len() * txns_per_client));
    std::thread::scope(|s| {
        for (i, set) in sets.iter().enumerate() {
            let server = Arc::clone(server);
            let set = set.clone();
            let lats = &lats;
            s.spawn(move || {
                let mut mine = Vec::with_capacity(txns_per_client);
                for t in 0..txns_per_client {
                    let val = txn_val(i, t);
                    let txn = server.begin();
                    for &pid in &set {
                        server.lock_page(txn, pid, LockMode::X).unwrap();
                        let mut page = server.fetch_page(txn, pid).unwrap();
                        page.object_mut(pid, 0).unwrap().fill(val);
                        let rec = update_record(txn, pid, val);
                        server.receive_log_records(txn, vec![rec]).unwrap();
                        server.receive_dirty_page(txn, pid, page).unwrap();
                    }
                    let t0 = Instant::now();
                    server.commit(txn).unwrap();
                    mine.push(t0.elapsed().as_nanos() as u64);
                }
                lats.lock().extend(mine);
            });
        }
    });
    lats.into_inner()
}

/// Read back every workload page and assert the last committed value is
/// in place.
pub fn assert_workload_applied(server: &Server, sets: &[Vec<PageId>], txns_per_client: usize) {
    if txns_per_client == 0 {
        return;
    }
    for (i, set) in sets.iter().enumerate() {
        let want = txn_val(i, txns_per_client - 1);
        for &pid in set {
            let page = server.read_page_for_test(pid).unwrap();
            assert_eq!(
                page.object(pid, 0).unwrap(),
                &vec![want; OBJECT_BYTES][..],
                "client {i} page {pid} missing its final committed update"
            );
        }
    }
}
