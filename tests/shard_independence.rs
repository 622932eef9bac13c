//! Buffer-pool shard independence: two clients whose working sets live in
//! different shards never block on each other's shard lock, and an abort
//! on one shard does not stop a client on another. Asserted via the
//! lock-hold/lock-wait trace histograms (`Tracer::set_lock_stats`) and by
//! counting the data-disk accesses made under the txn-table lock.

use qs_repro::esm::{LockMode, RecoveryFlavor, Server, ServerConfig, StableParts};
use qs_repro::sim::{HardwareModel, Meter};
use qs_repro::storage::{MemDisk, Page, StableMedia, Volume};
use qs_repro::trace::{held_by_this_thread, TraceCat, Tracer};
use qs_repro::types::{Lsn, PageId, QsResult, TxnId};
use qs_repro::wal::{LogManager, LogRecord};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn disjoint_working_sets_never_contend_on_buffer_shards() {
    let cfg = ServerConfig::new(RecoveryFlavor::EsmAries)
        .with_pool_mb(1.0)
        .with_volume_pages(256)
        .with_log_mb(8.0)
        .with_pool_shards(8);
    let meter = Meter::new();
    let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 256);
    tracer.set_lock_stats(true);
    let server =
        Arc::new(Server::format_traced(cfg, Arc::clone(&meter), Arc::clone(&tracer)).unwrap());

    let pids = server.bulk_allocate(32).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; 64]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();

    // Partition the pages by owning shard and give each thread a working
    // set confined to one shard — disjoint by construction.
    let mut by_shard: BTreeMap<usize, Vec<PageId>> = BTreeMap::new();
    for &pid in &pids {
        by_shard.entry(server.shard_of(pid)).or_default().push(pid);
    }
    let mut groups: Vec<Vec<PageId>> = by_shard.into_values().collect();
    assert!(groups.len() >= 2, "32 pages hash into at least two of 8 shards");
    let set_b = groups.pop().unwrap();
    let set_a = groups.pop().unwrap();

    std::thread::scope(|s| {
        for set in [set_a, set_b] {
            let server = Arc::clone(&server);
            s.spawn(move || {
                let txn = server.begin();
                for &pid in &set {
                    server.lock_page(txn, pid, LockMode::S).unwrap();
                }
                for _ in 0..300 {
                    for &pid in &set {
                        server.fetch_page(txn, pid).unwrap();
                    }
                }
                server.commit(txn).unwrap();
            });
        }
    });

    let sums = tracer.summaries();
    let holds = sums
        .iter()
        .find(|(n, _)| n.as_str() == "lock_hold:pool_shard")
        .map(|(_, s)| s.count)
        .unwrap_or(0);
    assert!(holds > 0, "shard lock holds were traced ({holds})");
    assert!(
        !sums.iter().any(|(n, _)| n.as_str() == "lock_wait:pool_shard"),
        "threads with shard-disjoint working sets never waited on a buffer shard"
    );
}

/// Log an update of `pid`'s one object — bytes `[0, 8)` to `val` — and
/// ship the page it describes.
fn update_and_ship(server: &Server, txn: TxnId, pid: PageId, page: &mut Page, val: u8) {
    let object = page.object_mut(pid, 0).unwrap();
    let before = object[..8].to_vec();
    object[..8].fill(val);
    let update = LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before,
        after: vec![val; 8],
    };
    server.receive_log_records(txn, vec![update]).unwrap();
    server.receive_dirty_page(txn, pid, page.clone()).unwrap();
}

/// A data disk that counts the writes and syncs made by a thread holding
/// the txn-table lock (`held_by_this_thread`, which counts while the
/// server's tracer measures locks).
struct UnderTxnsProbe {
    disk: MemDisk,
    under_txns: AtomicU64,
}

impl UnderTxnsProbe {
    fn note(&self) {
        if held_by_this_thread("txns") > 0 {
            self.under_txns.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl StableMedia for UnderTxnsProbe {
    fn len(&self) -> usize {
        self.disk.len()
    }

    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()> {
        self.disk.read_at(off, buf)
    }

    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()> {
        self.note();
        self.disk.write_at(off, buf)
    }

    fn sync(&self) -> QsResult<()> {
        self.note();
        self.disk.sync()
    }
}

/// A `Steal` transaction over every page of one shard — more than 200, in
/// a 64-page pool — aborts while a second client commits in a loop on
/// pages of the other shard. Undo faults each page back in and steals a
/// dirty victim for it, each write taking `WRITE_LATENCY` on the data
/// disk. The abort holds one shard at a time and never the txn-table lock
/// across a disk access — counted, not timed — so the second client keeps
/// committing. (Stopping the whole server for the abort, it committed
/// nothing until the abort was over, and the txn-table lock was held for
/// all of it.)
#[test]
fn an_abort_on_one_shard_stops_no_commit_on_another() {
    const WRITE_LATENCY: Duration = Duration::from_millis(1);
    // A log the committer cannot fill past the watermark: a checkpoint
    // syncs the volume header under the txn-table lock.
    let mut cfg = ServerConfig::new(RecoveryFlavor::EsmAries)
        .with_volume_pages(480)
        .with_log_mb(64.0)
        .with_pool_shards(2);
    cfg.pool_pages = 64;
    let meter = Meter::new();
    let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 256);
    tracer.set_lock_stats(true);
    let probe = Arc::new(UnderTxnsProbe {
        disk: MemDisk::with_latencies(
            Volume::required_bytes(cfg.volume_pages),
            Duration::ZERO,
            WRITE_LATENCY,
        ),
        under_txns: AtomicU64::new(0),
    });
    let data_media: Arc<dyn StableMedia> = Arc::clone(&probe) as Arc<dyn StableMedia>;
    let log_media: Arc<dyn StableMedia> =
        Arc::new(MemDisk::new(LogManager::required_bytes(cfg.log_bytes)));
    let parts = StableParts { data_media, log_media, flight: None };
    let server = Server::format_on_traced(parts, cfg, meter, Arc::clone(&tracer)).unwrap();

    let pids = server.bulk_allocate(480).unwrap();
    let blank = |pid: PageId| {
        let mut page = Page::new();
        page.insert(pid, &[0u8; 64]).unwrap();
        page
    };
    for &pid in &pids {
        server.bulk_write(pid, &blank(pid)).unwrap();
    }
    server.bulk_sync().unwrap();
    let (big, other): (Vec<PageId>, Vec<PageId>) =
        pids.iter().partition(|&&pid| server.shard_of(pid) == server.shard_of(pids[0]));
    assert!(big.len() >= 200, "{} pages in the aborting transaction's shard", big.len());

    let loser = server.begin();
    for &pid in &big {
        server.lock_page(loser, pid, LockMode::X).unwrap();
        update_and_ship(&server, loser, pid, &mut blank(pid), 0xEE);
    }

    let in_flight = AtomicBool::new(true);
    let (window, commits) = std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let mut pages: Vec<(PageId, Page)> =
                other[..4].iter().map(|&p| (p, blank(p))).collect();
            let mut commits: Vec<(Instant, Instant)> = Vec::new();
            for round in 0u64.. {
                if !in_flight.load(Ordering::Acquire) {
                    break;
                }
                let started = Instant::now();
                let txn = server.begin();
                for (pid, page) in &mut pages {
                    server.lock_page(txn, *pid, LockMode::X).unwrap();
                    update_and_ship(&server, txn, *pid, page, round as u8);
                }
                server.commit(txn).unwrap();
                commits.push((started, Instant::now()));
            }
            commits
        });
        // Let the committer warm up (its pages resident) first.
        while server.meter().snapshot().commits < 2 {
            std::thread::yield_now();
        }
        let started = Instant::now();
        server.abort(loser).unwrap();
        let window = (started, Instant::now());
        in_flight.store(false, Ordering::Release);
        (window, committer.join().unwrap())
    });

    let during = commits.iter().filter(|&&(s, e)| s >= window.0 && e <= window.1).count();
    let abort_ns = (window.1 - window.0).as_nanos() as u64;
    let holds = tracer.histogram("lock_hold:txns").expect("lock stats are on");
    let under_txns = probe.under_txns.load(Ordering::Relaxed);
    println!(
        "contended abort: {} pages undone in {:.1} ms; {during} commits on the other shard \
         completed inside it; txn-table holds p50 {:.3} ms, p99 {:.3} ms, longest {:.3} ms; \
         {under_txns} data-disk writes or syncs under it",
        big.len(),
        abort_ns as f64 / 1e6,
        holds.percentile(50.0) as f64 / 1e6,
        holds.percentile(99.0) as f64 / 1e6,
        holds.max() as f64 / 1e6,
    );
    let failed = during == 0 || holds.max() >= abort_ns / 4 || under_txns > 0;
    if failed {
        for e in tracer.flight_snapshot(256).iter().filter(|e| e.cat == TraceCat::LockHold) {
            println!("  {}", e.render());
        }
    }
    assert!(during >= 1, "no commit completed while the abort was in flight");
    assert!(holds.max() < abort_ns / 4, "the txn-table lock was held across the abort");
    assert_eq!(under_txns, 0, "data-disk writes or syncs under the txn-table lock");
}
