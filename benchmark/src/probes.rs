//! Per-layer probes of the traced run: the direct-call pass over the
//! server's transaction verbs, and five kernel probes. Each probe calls
//! one public function of one layer in batches, records a span per batch,
//! and reports the floor of the per-call time. They run only with
//! `--trace 1`; nothing here feeds an end-to-end metric.

use crate::harness::Media;
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::floor;
use crate::workloads::load_page_set;
use qs_esm::{LockMode, Server, ServerConfig};
use qs_prng::Prng;
use qs_sim::Meter;
use qs_storage::{MemDisk, StableMedia};
use qs_types::{Lsn, PageId, QsResult, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};
use qs_wal::{stream_chunks, LogManager, LogRecord, RecordWriter};
use quickstore::diff::{append_modified_runs, combine_regions_into, Region};
use quickstore::SystemConfig;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Samples (batches) per kernel probe.
const SAMPLES: usize = 1000;

/// Floor of the per-call time of the spans named `name`, each covering
/// `batch` calls.
fn floor_per_call(rec: &Recorder, name: &str, batch: usize) -> f64 {
    floor(&mut rec.durations(name)) as f64 / batch as f64
}

/// The direct-call pass: the short transaction's protocol made by hand
/// against a default-knob server — begin, then per page X-lock, fetch,
/// ship one update record, ship the page, then commit — one span per
/// call.
pub fn server_direct_calls(report: &mut Report, rec: &mut Recorder) -> QsResult<()> {
    const TXNS: usize = 1000;
    const PAGES_PER_TXN: usize = 4;
    let cfg =
        ServerConfig::new(SystemConfig::pd_esm().flavor).with_volume_pages(1024).with_log_mb(64.0);
    let media = Media::new(&cfg, Duration::ZERO);
    let server = Server::format_on(media.parts(), cfg, Meter::new())?;
    let set = load_page_set(&server)?;

    let mut frame = Vec::with_capacity(256);
    let mut one_txn = |i: usize, rec: &mut Recorder| -> QsResult<()> {
        let txn = rec.call("esm.server.begin", i as u64, || server.begin());
        for k in 0..PAGES_PER_TXN {
            let pid = set[(i * PAGES_PER_TXN + k) % set.len()][0].page;
            rec.call("esm.server.lock_page", txn.0, || server.lock_page(txn, pid, LockMode::X))?;
            let mut page =
                rec.call("esm.server.fetch_page", txn.0, || server.fetch_page(txn, pid))?;
            let slot = (i % 16) as u16;
            let mut before = [0u8; 16];
            before.copy_from_slice(&page.object(pid, slot)?[..16]);
            let after = [(i % 251) as u8 + 1; 16];
            page.object_mut(pid, slot)?[..16].copy_from_slice(&after);
            frame.clear();
            RecordWriter::new(&mut frame).update(txn, Lsn::NULL, pid, slot, 0, &before, &after);
            rec.call("esm.server.receive_log_bytes", txn.0, || {
                server.receive_log_bytes(txn, &frame)
            })?;
            rec.call("esm.server.receive_dirty_page", txn.0, || {
                server.receive_dirty_page(txn, pid, page)
            })?;
        }
        rec.call("esm.server.commit", txn.0, || server.commit(txn))?;
        Ok(())
    };
    // Warm the pool and the log buffer with the recorder off.
    let mut off = Recorder::off();
    for i in 0..TXNS / 4 {
        one_txn(i, &mut off)?;
    }
    rec.section(|rec| (TXNS / 4..TXNS / 4 + TXNS).try_for_each(|i| one_txn(i, rec)))?;

    report.set("esm.server.begin_ns", floor_per_call(rec, "esm.server.begin", 1));
    report.set("esm.server.lock_x_ns", floor_per_call(rec, "esm.server.lock_page", 1));
    report.set("esm.server.fetch_hit_ns", floor_per_call(rec, "esm.server.fetch_page", 1));
    report.set("esm.server.recv_log_ns", floor_per_call(rec, "esm.server.receive_log_bytes", 1));
    report.set("esm.server.recv_page_ns", floor_per_call(rec, "esm.server.receive_dirty_page", 1));
    report.set("esm.server.commit_us", floor_per_call(rec, "esm.server.commit", 1) / 1e3);
    Ok(())
}

/// A page pair for the diff probe: `after` differs from `before` in
/// `stripe` bytes every `period` (no difference when `stripe` is 0).
fn page_pair(prng: &mut Prng, stripe: usize, period: usize) -> (Vec<u8>, Vec<u8>) {
    let before = prng.bytes(PAGE_SIZE);
    let mut after = before.clone();
    if stripe > 0 {
        for start in (64..PAGE_SIZE - stripe).step_by(period) {
            for b in &mut after[start..start + stripe] {
                *b = !*b;
            }
        }
    }
    (before, after)
}

/// The kernel probes that need no workload state: `core.diff` on clean,
/// T2A-like sparse and striped dense page pairs; `wal.writer.update`;
/// `wal.log` append and one-page force on a zero-latency `MemDisk`;
/// `storage.memdisk` page write and read.
pub fn kernels(report: &mut Report, rec: &mut Recorder, seed: u64) -> QsResult<()> {
    let mut prng = Prng::seed_from_u64(seed);
    rec.section(|rec| -> QsResult<()> {
        // core.diff: the commit path's two kernels, runs then regions.
        const DIFF_BATCH: usize = 16;
        let mut runs: Vec<Region> = Vec::with_capacity(PAGE_SIZE);
        let mut regions: Vec<Region> = Vec::with_capacity(PAGE_SIZE);
        // Sparse: an 8-byte (x, y) update in each of four 80-byte parts,
        // as T2A leaves on a page; dense: the striped manual edit.
        for (span, metric, stripe, period) in [
            ("core.diff.clean_page", "core.diff.clean_page_ns", 0, 1),
            ("core.diff.sparse_page", "core.diff.sparse_page_ns", 8, 2048),
            ("core.diff.dense_page", "core.diff.dense_page_ns", 160, 512),
        ] {
            let (before, after) = page_pair(&mut prng, stripe, period);
            for _ in 0..SAMPLES {
                rec.call(span, 0, || {
                    for _ in 0..DIFF_BATCH {
                        runs.clear();
                        append_modified_runs(black_box(&before), black_box(&after), 0, &mut runs);
                        combine_regions_into(&runs, LOG_HEADER_SIZE, &mut regions);
                        black_box(&regions);
                    }
                });
            }
            report.set(metric, floor_per_call(rec, span, DIFF_BATCH));
        }

        // wal.writer: serialize a 16+16-byte update into a reused buffer.
        const WRITER_BATCH: usize = 64;
        let (before, after) = ([1u8; 16], [2u8; 16]);
        let mut frames = Vec::with_capacity(WRITER_BATCH * 128);
        for _ in 0..SAMPLES {
            rec.call("wal.writer.update", 0, || {
                frames.clear();
                let mut w = RecordWriter::new(&mut frames);
                for k in 0..WRITER_BATCH {
                    w.update(TxnId(7), Lsn::NULL, PageId(k as u32), 3, 16, &before, &after);
                }
                black_box(&frames);
            });
        }
        report.set("wal.writer.update_ns", floor_per_call(rec, "wal.writer.update", WRITER_BATCH));

        // wal.log: a batch of appends (under one page in total), then the
        // force that writes that one page.
        const APPEND_BATCH: usize = 32;
        let disk: Arc<dyn StableMedia> =
            Arc::new(MemDisk::new(LogManager::required_bytes(16 << 20)));
        let log = LogManager::format(disk, 16 << 20)?;
        let record = LogRecord::Update {
            txn: TxnId(7),
            prev: Lsn::NULL,
            page: PageId(1),
            slot: 3,
            offset: 16,
            before: before.to_vec(),
            after: after.to_vec(),
        };
        for _ in 0..SAMPLES {
            let last = rec.call("wal.log.append", 0, || -> QsResult<Lsn> {
                let mut last = Lsn::NULL;
                for _ in 0..APPEND_BATCH {
                    last = log.append(&record)?;
                }
                Ok(last)
            })?;
            let stats = rec.call("wal.log.force", 0, || log.force(last))?;
            assert_eq!(stats.pages_written, 1, "the force probe is sized to one page");
        }
        report.set("wal.log.append_ns", floor_per_call(rec, "wal.log.append", APPEND_BATCH));
        report.set("wal.log.force_page_us", floor_per_call(rec, "wal.log.force", 1) / 1e3);

        // storage.memdisk: page-sized writes and reads over 8 MB.
        const DISK_BATCH: usize = 64;
        const DISK_PAGES: usize = 1024;
        let disk = MemDisk::new(DISK_PAGES * PAGE_SIZE);
        let mut page = prng.bytes(PAGE_SIZE);
        for s in 0..SAMPLES {
            rec.call("storage.memdisk.write_page", 0, || -> QsResult<()> {
                for k in 0..DISK_BATCH {
                    disk.write_at((s * DISK_BATCH + k) % DISK_PAGES * PAGE_SIZE, &page)?;
                }
                Ok(())
            })?;
        }
        for s in 0..SAMPLES {
            rec.call("storage.memdisk.read_page", 0, || -> QsResult<()> {
                for k in 0..DISK_BATCH {
                    disk.read_at((s * DISK_BATCH + k) % DISK_PAGES * PAGE_SIZE, &mut page)?;
                }
                Ok(())
            })?;
            black_box(&page);
        }
        report.set(
            "storage.memdisk.write_page_ns",
            floor_per_call(rec, "storage.memdisk.write_page", DISK_BATCH),
        );
        report.set(
            "storage.memdisk.read_page_ns",
            floor_per_call(rec, "storage.memdisk.read_page", DISK_BATCH),
        );
        Ok(())
    })
}

/// `wal.stream`: scan the crash log held by `log_media` start to durable
/// end through the restart pipeline's reader stage, `SCANS` times.
/// Returns the floor scan time in ns (for `esm.restart.scan_share`).
pub fn log_scan(
    report: &mut Report,
    rec: &mut Recorder,
    log_media: Arc<dyn StableMedia>,
) -> QsResult<u64> {
    const SCANS: usize = 5;
    let log = LogManager::open(log_media)?;
    let (from, end) = (log.start_lsn(), log.tail_lsn());
    let mut bytes = 0u64;
    rec.section(|rec| -> QsResult<()> {
        for _ in 0..SCANS {
            bytes = rec.call("wal.stream.scan", 0, || -> QsResult<u64> {
                std::thread::scope(|s| {
                    let mut seen = 0u64;
                    for chunk in stream_chunks(s, &log, from, end, 64 * PAGE_SIZE, 4) {
                        seen += chunk?.frames.iter().map(|f| f.len as u64).sum::<u64>();
                    }
                    Ok(seen)
                })
            })?;
        }
        Ok(())
    })?;
    assert_eq!(bytes, end.0 - from.0, "the scan must cover the whole durable log");
    let ns = floor(&mut rec.durations("wal.stream.scan"));
    report.set("wal.stream.scan_mb_per_s", bytes as f64 / (1 << 20) as f64 / (ns as f64 / 1e9));
    Ok(ns)
}
