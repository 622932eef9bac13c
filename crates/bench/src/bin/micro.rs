//! Micro-benchmarks for the core mechanisms the paper's analysis hinges
//! on: the region-combining diff, the AVL descriptor index, buffer-pool
//! replacement, log append/force, restart's per-frame worker step, lock
//! acquisition, and the per-update cost of hardware vs software detection.
//!
//! A plain timing harness (`cargo run --release --bin micro`), replacing
//! the former Criterion bench so the perf trajectory can be tracked with
//! zero external crates: each benchmark runs a warmup, then N measured
//! batches, and reports the median, minimum, and maximum per-iteration
//! wall-clock time. Results are also written to `BENCH_micro.json`
//! (see EXPERIMENTS.md for the format).
//!
//! Flags:
//!   --smoke            cut batch counts and iteration counts for a fast
//!                      CI pass (numbers are not meaningful, only the
//!                      harness and JSON output are exercised)
//!   --validate <path>  parse a previously written BENCH_micro.json and
//!                      assert it covers every expected benchmark name;
//!                      exits non-zero on malformed or incomplete files

use qs_bench::{disk_from, image};
use qs_esm::{BufferPool, ClientConn, LockManager, LockMode, Server, ServerConfig, StableParts};
use qs_oo7::{generate, t1, Oo7Params};
use qs_sim::{JsonWriter, Meter};
use qs_storage::{MemDisk, Page, StableMedia};
use qs_types::{ClientId, Lsn, Oid, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};
use qs_wal::{LogManager, LogRecord, RecordWriter};
use quickstore::avl::AvlMap;
use quickstore::diff::{self, Region};
use quickstore::{Store, SystemConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every benchmark the harness runs, in output order. `--validate` checks
/// a result file against this list, so keep it in sync with the `bench`
/// calls below.
const EXPECTED_NAMES: &[&str] = &[
    "kernel/diff_clean_page",
    "kernel/diff_clean_page_scalar",
    "kernel/diff_sparse_oo7",
    "kernel/diff_rewritten_page",
    "kernel/diff_striped_page",
    "kernel/commit_log_generation",
    "diff/page/1_regions",
    "diff/page/16_regions",
    "diff/page/128_regions",
    "avl/floor_lookup_4096_frames",
    "avl/insert_remove_cycle",
    "buffer_pool/hit_get",
    "buffer_pool/miss_insert_evict",
    "store/read_hit",
    "store/view_hit",
    "store/write_hit",
    "store/view_two_pages",
    "oo7/t1_visit",
    "wal/append_update_record",
    "wal/encode_decode_round_trip",
    "wal/checksum_64B",
    "wal/checksum_8KB",
    "wal/frame_verify_update",
    "wal/force_2mb",
    "server/recv_log_page",
    "esm/receive_dirty_page",
    "restart/worker_frame/sparse",
    "restart/worker_frame/runs",
    "lock_manager/uncontended_x_lock_release",
    "lock/grant_upgrade_release",
    "update_path/txn_64pages_2048_updates/PD-ESM",
    "update_path/txn_64pages_2048_updates/SD-ESM",
    "update_path/txn_64pages_2048_updates/WPL",
];

struct BenchResult {
    name: String,
    median_ns: f64,
    min_ns: f64,
    max_ns: f64,
}

/// Timing harness: per-benchmark warmup, then `batches` measured batches.
struct Harness {
    batches: usize,
    /// Divisor applied to each benchmark's iteration count (`--smoke`).
    iter_shrink: u64,
    results: Vec<BenchResult>,
}

impl Harness {
    fn new(smoke: bool) -> Harness {
        Harness {
            batches: if smoke { 3 } else { 15 },
            iter_shrink: if smoke { 200 } else { 1 },
            results: Vec::new(),
        }
    }

    /// Run `f` `iters_per_batch` times per batch, `self.batches` batches,
    /// after one warmup batch; record and print median/min/max ns per
    /// iteration.
    fn bench<F: FnMut()>(&mut self, name: &str, iters_per_batch: u64, f: F) {
        self.bench_units(name, iters_per_batch, 1, f);
    }

    /// Like [`Harness::bench`] for an `f` that does `units` units of work
    /// per call (a whole traversal, say): times are reported per unit.
    fn bench_units<F: FnMut()>(&mut self, name: &str, iters_per_batch: u64, units: u64, f: F) {
        self.bench_staged(name, iters_per_batch, units, || {}, f);
    }

    /// Like [`Harness::bench_units`] with a `stage` step run, untimed,
    /// ahead of the warmup and of every batch: what `f` consumes (log to
    /// force) or what bounds it (a commit, so the log does not grow
    /// without end).
    fn bench_staged<S: FnMut(), F: FnMut()>(
        &mut self,
        name: &str,
        iters_per_batch: u64,
        units: u64,
        mut stage: S,
        mut f: F,
    ) {
        let iters = (iters_per_batch / self.iter_shrink).max(1);
        stage();
        for _ in 0..iters {
            f(); // warmup
        }
        let per_iter_ns: Vec<f64> = (0..self.batches)
            .map(|_| {
                stage();
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / (iters * units) as f64
            })
            .collect();
        self.record(name, per_iter_ns);
    }

    /// Record and print median/min/max of per-unit times a benchmark
    /// measured itself, one per batch.
    fn record(&mut self, name: &str, mut per_iter_ns: Vec<f64>) {
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = per_iter_ns[per_iter_ns.len() / 2];
        let min = per_iter_ns[0];
        let max = per_iter_ns[per_iter_ns.len() - 1];
        println!("{name:<48} median {:>12}  min {:>12}  max {:>12}", ns(median), ns(min), ns(max));
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns: median,
            min_ns: min,
            max_ns: max,
        });
    }
}

fn ns(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.3} s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.3} ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.3} µs", v / 1e3)
    } else {
        format!("{v:.1} ns")
    }
}

/// The commit-path kernels the word-parallel diff PR targets: clean-page
/// scan (the dominant cost when few pages actually changed), the scalar
/// oracle on the same input (the pre-PR baseline, kept for an honest
/// same-binary speedup ratio), a sparse OO7-style object diff, and the
/// whole diff → combine → serialize pipeline.
fn bench_kernels(h: &mut Harness) {
    println!("-- commit hot-path kernels --");

    // Clean page: before == after, the all-equal fast path.
    let clean = vec![0xC3u8; PAGE_SIZE];
    let mut runs: Vec<Region> = Vec::with_capacity(64);
    h.bench("kernel/diff_clean_page", 20_000, || {
        runs.clear();
        diff::append_modified_runs(black_box(&clean), black_box(&clean), 0, &mut runs);
        black_box(runs.len());
    });
    h.bench("kernel/diff_clean_page_scalar", 2_000, || {
        black_box(diff::raw_modified_runs_scalar(black_box(&clean), black_box(&clean)));
    });

    // Sparse OO7-style update: 64 objects of 128 bytes on a page, 4 of
    // them with one 8-byte field rewritten — the shape of an OO7 T2a
    // traversal touching a fraction of the AtomicParts on a page.
    const OBJ: usize = 128;
    let before = vec![0x5Au8; PAGE_SIZE];
    let mut after = before.clone();
    for k in 0..4usize {
        let at = k * 16 * OBJ + 24; // every 16th object, one field
        after[at..at + 8].fill(0xEE);
    }
    h.bench("kernel/diff_sparse_oo7", 20_000, || {
        runs.clear();
        for o in 0..PAGE_SIZE / OBJ {
            let s = o * OBJ;
            diff::append_modified_runs(
                black_box(&before[s..s + OBJ]),
                black_box(&after[s..s + OBJ]),
                s,
                &mut runs,
            );
        }
        black_box(runs.len());
    });

    // Dense pages, as ADAPT's pricing pass meets them on `oo7_mixed_adapt`:
    // every byte rewritten (the bulk manual rewrite), and 160 of every 512
    // bytes rewritten (the striped manual edit).
    let rewritten: Vec<u8> = before.iter().map(|b| !b).collect();
    let mut striped = before.clone();
    for s in (64..PAGE_SIZE - 160).step_by(512) {
        striped[s..s + 160].fill(!0x5A);
    }
    for (name, after) in
        [("kernel/diff_rewritten_page", &rewritten), ("kernel/diff_striped_page", &striped)]
    {
        h.bench(name, 20_000, || {
            runs.clear();
            diff::append_modified_runs(black_box(&before), black_box(after), 0, &mut runs);
            black_box(runs.len());
        });
    }

    // Full log generation for one dirty page: diff, combine under the
    // header threshold, serialize one update record per region into a
    // reused batch buffer — `store::flush_records_for` in miniature.
    let mut regions: Vec<Region> = Vec::with_capacity(64);
    let mut enc: Vec<u8> = Vec::with_capacity(PAGE_SIZE);
    h.bench("kernel/commit_log_generation", 10_000, || {
        runs.clear();
        regions.clear();
        enc.clear();
        diff::append_modified_runs(black_box(&before), black_box(&after), 0, &mut runs);
        diff::combine_regions_into(&runs, LOG_HEADER_SIZE, &mut regions);
        let mut w = RecordWriter::new(&mut enc);
        for r in &regions {
            w.update(
                TxnId(1),
                Lsn::NULL,
                PageId(9),
                0,
                r.start as u16,
                &before[r.start..r.end],
                &after[r.start..r.end],
            );
        }
        black_box(w.records());
    });
}

fn bench_diff(h: &mut Harness) {
    println!("-- diff (8 KB page) --");
    for density in [1usize, 16, 128] {
        let before = vec![0u8; PAGE_SIZE];
        let mut after = before.clone();
        for i in 0..density {
            let at = (i * PAGE_SIZE / density.max(1)) % (PAGE_SIZE - 8);
            after[at..at + 8].fill(7);
        }
        h.bench(&format!("diff/page/{density}_regions"), 2_000, || {
            black_box(diff::diff_object(black_box(&before), black_box(&after)));
        });
    }
}

fn bench_avl(h: &mut Harness) {
    println!("-- avl descriptor index --");
    let mut map: AvlMap<u64, u32> = AvlMap::new();
    for i in 0..4096u64 {
        map.insert(i * PAGE_SIZE as u64, i as u32);
    }
    let mut addr = 0u64;
    h.bench("avl/floor_lookup_4096_frames", 200_000, || {
        addr = (addr + 123_457) % (4096 * PAGE_SIZE as u64);
        black_box(map.floor(black_box(&addr)));
    });
    let mut k = 1u64 << 40;
    h.bench("avl/insert_remove_cycle", 200_000, || {
        k += PAGE_SIZE as u64;
        map.insert(k, 1);
        map.remove(&k);
    });
}

fn bench_buffer_pool(h: &mut Harness) {
    println!("-- buffer pool --");
    let mut bp = BufferPool::new(1024);
    for i in 0..1024u32 {
        bp.insert(PageId(i), Page::new(), false).unwrap();
    }
    let mut i = 0u32;
    h.bench("buffer_pool/hit_get", 200_000, || {
        i = (i + 7) % 1024;
        black_box(bp.get(PageId(i)).is_some());
    });
    let mut bp = BufferPool::new(256);
    let mut j = 0u32;
    h.bench("buffer_pool/miss_insert_evict", 100_000, || {
        j += 1;
        black_box(bp.insert(PageId(j), Page::new(), false).unwrap());
    });
}

/// Bulk-load 64 pages of 32 zeroed 128-byte objects; returns their ids.
fn bulk_load_objects(server: &Server) -> Vec<Oid> {
    let mut oids = Vec::new();
    for pid in server.bulk_allocate(64).unwrap() {
        let mut p = Page::new();
        for _ in 0..32 {
            oids.push(Oid::new(pid, p.insert(pid, &[0u8; 128]).unwrap()));
        }
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    oids
}

/// The client access path on a warm cache (DESIGN.md "client access
/// path"): what one object access that does not fault costs through
/// `Store` — a copying read, an in-place view, an in-place write to an
/// already write-enabled page — and what one OO7 T1 object visit costs
/// end to end (meter tick, translation, reference extraction, visited set).
fn bench_access_path(h: &mut Harness) {
    println!("-- client access path (warm cache, no faults) --");
    let cfg = SystemConfig::pd_esm().with_memory(2.0, 0.5);
    let meter = Meter::new();
    let server_cfg =
        ServerConfig::new(cfg.flavor).with_pool_mb(4.0).with_volume_pages(2048).with_log_mb(64.0);
    let server = Arc::new(Server::format(server_cfg, Arc::clone(&meter)).unwrap());
    let oids = bulk_load_objects(&server);
    let db = generate(&server, &Oo7Params::tiny(), 11).unwrap();
    let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), Arc::clone(&meter));
    let mut store = Store::new(client, cfg).unwrap();

    // One open transaction that has already read-faulted and write-faulted
    // every page, so the timed accesses take no fault.
    store.begin().unwrap();
    for &oid in &oids {
        store.write(oid, 0, &[1u8; 8]).unwrap();
    }
    let (mut i, n) = (0usize, oids.len());
    let mut next = move || {
        i = (i + 7) % n;
        i
    };
    h.bench("store/read_hit", 200_000, || {
        black_box(store.read(oids[next()]).unwrap());
    });
    h.bench("store/view_hit", 200_000, || {
        black_box(store.with_object(oids[next()], |b| b[0]).unwrap());
    });
    h.bench("store/write_hit", 200_000, || {
        let k = next();
        store.write(oids[k], 8, &[k as u8; 8]).unwrap();
    });
    // Views that alternate between two pages: the shape of an OO7 visit
    // (an atomic part, then its connections), which the access path's
    // two-entry translation memo serves without a lookup.
    let two = [oids[0], oids[32]];
    let mut k = 0usize;
    h.bench("store/view_two_pages", 200_000, || {
        k ^= 1;
        black_box(store.with_object(two[k], |b| b[0]).unwrap());
    });
    store.commit().unwrap();

    store.begin().unwrap();
    let before = meter.snapshot().visits;
    t1(&mut store, &db.modules[0]).unwrap(); // faults the module in
    let visits = meter.snapshot().visits - before;
    h.bench_units("oo7/t1_visit", 2_000, visits, || {
        black_box(t1(&mut store, &db.modules[0]).unwrap());
    });
    store.commit().unwrap();
}

fn bench_log(h: &mut Harness) {
    println!("-- wal --");
    let media: Arc<dyn StableMedia> = Arc::new(MemDisk::new(LogManager::required_bytes(64 << 20)));
    let log = LogManager::format(media, 64 << 20).unwrap();
    let rec = LogRecord::Update {
        txn: TxnId(1),
        prev: Lsn::NULL,
        page: PageId(1),
        slot: 0,
        offset: 0,
        before: vec![0u8; 16],
        after: vec![1u8; 16],
    };
    let mut since_truncate = 0u32;
    h.bench("wal/append_update_record", 50_000, || {
        black_box(log.append(&rec).unwrap());
        // Keep the circular window bounded: drain every ~50k records
        // (≈6 MB of the 64 MB body).
        since_truncate += 1;
        if since_truncate == 50_000 {
            since_truncate = 0;
            log.force(log.tail_lsn()).unwrap();
            log.truncate_to(log.durable_lsn()).unwrap();
        }
    });
    h.bench("wal/encode_decode_round_trip", 100_000, || {
        let e = rec.encode();
        black_box(LogRecord::decode(&e).unwrap());
    });
    // The frame checksum kernel at the two sizes restart meets — a small
    // update frame's covered bytes, a whole-page frame's — per byte, so
    // the reciprocal is GB/s.
    let bytes: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    for (name, len, iters) in
        [("wal/checksum_64B", 64, 1_000_000), ("wal/checksum_8KB", PAGE_SIZE, 20_000)]
    {
        h.bench_units(name, iters, len as u64, || {
            black_box(qs_wal::record::checksum(black_box(&bytes[..len])));
        });
        let per_byte = h.results.last().expect("just benched").median_ns;
        println!("{:<48} {:.2} GB/s", "", 1.0 / per_byte);
    }
    let frame = rec.encode();
    h.bench("wal/frame_verify_update", 1_000_000, || {
        qs_wal::record::frame_verify(black_box(&frame)).unwrap();
    });

    // The commit force of a transaction that shipped 2 MB of log early
    // (the repo benchmark's `crash_restart`): staged as 256 runs of one
    // 8 KB log page, then one force of the whole tail, timed alone. An
    // 8 MB body, gone round before timing: no first touch of the medium.
    let media: Arc<dyn StableMedia> = Arc::new(MemDisk::new(LogManager::required_bytes(8 << 20)));
    let log = LogManager::format(media, 8 << 20).unwrap();
    let page = frame.repeat(PAGE_SIZE / frame.len());
    let stage_2mb = || {
        let mut prev = Lsn::NULL;
        for _ in 0..256 {
            prev = log.append_rechained_run(&page, prev).unwrap().1;
        }
    };
    let force_tail = || {
        black_box(log.force(log.tail_lsn()).unwrap());
        log.truncate_to(log.durable_lsn()).unwrap();
    };
    for _ in 0..6 {
        stage_2mb();
        force_tail();
    }
    h.bench_staged("wal/force_2mb", 1, 1, stage_2mb, force_tail);
}

/// What the server does with one shipped log page: a full 8 KB of 16 + 16
/// byte updates, an eighth of it naming each of 8 pages, through
/// `receive_log_bytes` under PD-ESM — verify, re-chain, append, list in
/// the DPT. Per record. The commit that bounds the log is staged, untimed.
fn bench_receive(h: &mut Harness) {
    println!("-- server --");
    let cfg = ServerConfig::new(SystemConfig::pd_esm().flavor)
        .with_pool_mb(4.0)
        .with_volume_pages(512)
        .with_log_mb(64.0);
    let server = Server::format(cfg, Meter::new()).unwrap();
    let pids = server.bulk_allocate(8).unwrap();
    let txn = std::cell::Cell::new(server.begin());
    let frame_len = {
        let mut one = Vec::new();
        RecordWriter::new(&mut one).update(txn.get(), Lsn::NULL, pids[0], 0, 0, &[0; 16], &[1; 16])
    };
    let records = PAGE_SIZE / frame_len;
    let page = std::cell::RefCell::new(Vec::with_capacity(PAGE_SIZE));
    let stage = || {
        server.commit(txn.get()).unwrap();
        txn.set(server.begin());
        let mut page = page.borrow_mut();
        page.clear();
        let mut w = RecordWriter::new(&mut page);
        for i in 0..records {
            let pid = pids[i * pids.len() / records];
            w.update(txn.get(), Lsn::NULL, pid, 0, (i % 4 * 16) as u16, &[0; 16], &[i as u8; 16]);
        }
    };
    h.bench_staged("server/recv_log_page", 400, records as u64, stage, || {
        server.receive_log_bytes(txn.get(), black_box(&page.borrow())).unwrap();
    });

    // One dirty page shipped to a server that has it resident, its log
    // records declared: what `ClientConn::ship_cached_dirty_page` costs
    // past the network, the server's copy into its frame included.
    let txn = txn.get();
    let (pid, mut image) = (pids[0], Page::new());
    image.insert(pid, &[7u8; 64]).unwrap();
    server.note_page_logged(txn, pid).unwrap();
    h.bench("esm/receive_dirty_page", 20_000, || {
        server.receive_dirty_page(txn, pid, black_box(&image)).unwrap();
    });
}

/// Restart's worker step, in ns per frame: the busy time restart's own
/// stage clock gives the one worker of an inline scan (no reading, no
/// routing), over a PD-ESM log of 39 424 `Update` frames on 256 pages and
/// no checkpoint — every frame is analyzed and redone. `sparse`: 154
/// transactions each write one frame per page in page order, so every
/// frame starts a page run (the benchmark's `oo7_t2a`, `short_txn`);
/// `runs`: two transactions write 77-frame runs per page (`crash_restart`
/// comes in runs). One restart per batch, from fresh copies of the same
/// crashed media.
fn bench_restart_worker(h: &mut Harness) {
    println!("-- restart --");
    const PAGES: usize = 256;
    for (shape, txns, run) in [("sparse", 154, 1), ("runs", 2, 77)] {
        let cfg = ServerConfig::new(SystemConfig::pd_esm().flavor)
            .with_pool_mb(4.0)
            .with_volume_pages(2 * PAGES)
            .with_log_mb(16.0);
        let server = Server::format(cfg.clone(), Meter::new()).unwrap();
        for pid in server.bulk_allocate(PAGES).unwrap() {
            let mut page = Page::new();
            page.insert(pid, &[0u8; 64]).unwrap();
            server.bulk_write(pid, &page).unwrap();
        }
        server.bulk_sync().unwrap();
        let mut batch = Vec::with_capacity(PAGE_SIZE);
        for _ in 0..txns {
            let txn = server.begin();
            for pid in 0..PAGES as u32 {
                batch.clear();
                let mut w = RecordWriter::new(&mut batch);
                for i in 0..run {
                    let at = (i % 7 * 8) as u16;
                    w.update(txn, Lsn::NULL, PageId(pid), 0, at, &[0; 8], &[txn.0 as u8; 8]);
                }
                server.receive_log_bytes(txn, &batch).unwrap();
            }
            server.commit(txn).unwrap();
        }
        let frames = (txns * PAGES * run) as u64;
        let crashed = server.crash();
        let (data, log) = (image(&crashed.data_media), image(&crashed.log_media));
        let worker_ns_per_frame = || {
            let parts = StableParts {
                data_media: disk_from(&data),
                log_media: disk_from(&log),
                flight: None,
            };
            let server = Server::restart(parts, cfg.clone(), Meter::new()).unwrap();
            let report = server.restart_report().expect("restart leaves a report");
            let redo = report.phases.iter().find(|p| p.name == "redo").expect("a redo phase");
            assert_eq!(redo.records, frames, "every frame redone");
            let [scan] = &report.wall.scans[..] else { panic!("one scan") };
            let [worker] = &scan.workers[..] else { panic!("an inline scan") };
            worker.busy_ns as f64 / frames as f64
        };
        worker_ns_per_frame(); // warmup
        let samples = (0..h.batches).map(|_| worker_ns_per_frame()).collect();
        h.record(&format!("restart/worker_frame/{shape}"), samples);
    }
}

fn bench_locks(h: &mut Harness) {
    println!("-- lock manager --");
    let lm = LockManager::new();
    let mut i = 0u32;
    h.bench("lock_manager/uncontended_x_lock_release", 100_000, || {
        i += 1;
        lm.lock(TxnId(1), PageId(i % 512).into(), LockMode::X).unwrap();
        if i.is_multiple_of(512) {
            lm.release_all(TxnId(1));
        }
    });
    // A short transaction's lock work: S on four pages, the write faults'
    // upgrades to X, then the commit's release.
    let lm = LockManager::new();
    let mut txn = 0u64;
    h.bench("lock/grant_upgrade_release", 100_000, || {
        txn += 1;
        for pid in 0..4 {
            lm.lock(TxnId(txn), PageId(pid).into(), LockMode::S).unwrap();
        }
        for pid in 0..4 {
            lm.lock(TxnId(txn), PageId(pid).into(), LockMode::X).unwrap();
        }
        lm.release_all(TxnId(txn));
    });
}

/// End-to-end update cost per scheme: hardware (fault-driven) vs software
/// (update-function) detection — the §3.2-vs-§3.3 tradeoff.
fn bench_update_paths(h: &mut Harness) {
    println!("-- update path (txn: 64 pages, 2048 updates) --");
    for cfg in [
        SystemConfig::pd_esm().with_memory(2.0, 0.5),
        SystemConfig::sd_esm().with_memory(2.0, 0.5),
        SystemConfig::wpl().with_memory(2.0, 0.0),
    ] {
        let name = cfg.name();
        let meter = Meter::new();
        let server = Arc::new(
            Server::format(
                ServerConfig::new(cfg.flavor)
                    .with_pool_mb(4.0)
                    .with_volume_pages(512)
                    .with_log_mb(64.0),
                Arc::clone(&meter),
            )
            .unwrap(),
        );
        let oids = bulk_load_objects(&server);
        let client = ClientConn::new(ClientId(0), server, cfg.client_pool_pages(), meter);
        let mut store = Store::new(client, cfg).unwrap();
        h.bench(&format!("update_path/txn_64pages_2048_updates/{name}"), 3, || {
            store.begin().unwrap();
            for (i, &oid) in oids.iter().enumerate() {
                store.modify(oid, (i % 16) * 8, &[i as u8; 8]).unwrap();
            }
            store.commit().unwrap();
        });
    }
}

/// Render the collected results as the BENCH_micro.json document.
fn render_json(results: &[BenchResult], smoke: bool) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("benchmark", "micro")
        .field_str("build", if cfg!(debug_assertions) { "debug" } else { "release" })
        .key("smoke")
        .bool(smoke)
        .key("results")
        .begin_array();
    for r in results {
        w.begin_object()
            .field_str("name", &r.name)
            .field_f64("median_ns", r.median_ns)
            .field_f64("min_ns", r.min_ns)
            .field_f64("max_ns", r.max_ns)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

// ---------------------------------------------------------------------------
// `--validate`: JSON well-formedness (shared checker in
// `qs_bench::jsoncheck`) plus coverage of EXPECTED_NAMES.

fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    qs_bench::jsoncheck::check_json(&text)
        .map_err(|at| format!("{path}: malformed JSON at byte {at}"))?;
    let mut missing = Vec::new();
    for name in EXPECTED_NAMES {
        // The writer escapes nothing in these names (no quotes/backslashes),
        // so an exact field match is a faithful containment test.
        if !text.contains(&format!("\"name\":\"{name}\"")) {
            missing.push(*name);
        }
    }
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("{path}: missing benchmark results: {missing:?}"))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("usage: micro --validate <BENCH_micro.json>");
            std::process::exit(2);
        };
        match validate(path) {
            Ok(()) => {
                println!("{path}: ok ({} benchmarks covered)", EXPECTED_NAMES.len());
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    println!(
        "micro: warmup + median of {} batches per benchmark (build: {}{})",
        if smoke { 3 } else { 15 },
        if cfg!(debug_assertions) { "DEBUG — use --release for real numbers" } else { "release" },
        if smoke { ", SMOKE — numbers not meaningful" } else { "" }
    );
    let mut h = Harness::new(smoke);
    bench_kernels(&mut h);
    bench_diff(&mut h);
    bench_avl(&mut h);
    bench_buffer_pool(&mut h);
    bench_access_path(&mut h);
    bench_log(&mut h);
    bench_receive(&mut h);
    bench_restart_worker(&mut h);
    bench_locks(&mut h);
    bench_update_paths(&mut h);
    let json = render_json(&h.results, smoke);
    std::fs::write("BENCH_micro.json", &json).expect("write BENCH_micro.json");
    println!("wrote BENCH_micro.json ({} results)", h.results.len());
}
