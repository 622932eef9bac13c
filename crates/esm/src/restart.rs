//! Restart recovery: one streamed, page-partitioned engine for every
//! flavor. `RestartConfig::redo_workers` only sizes the worker pool (of
//! the analysis scan as much as of redo) — one worker runs the same
//! reader → router → worker pipeline as eight.
//!
//! The log-replaying flavors share analysis → redo → undo ([Frank92]'s
//! client-server adaptation of ARIES [Mohan92]); what differs per flavor
//! is only which transaction *protocols* its log can hold ([`Holds`]):
//! physical transactions steal pages and are undone with CLRs, logical
//! ones are deferred-apply / no-steal and are either replayed whole (if
//! committed) or dropped. A log without `TxnScheme` marks is a log in
//! which every transaction "elected" the flavor's one protocol. Because
//! the diffing schemes log *after-images*, redo is idempotent; the
//! pageLSN test merely avoids wasted work. WPL rebuilds its table from
//! the whole-page images of committed writers instead (§3.4.3).
//!
//! Per-page work is partitioned by page id with the buffer pool's
//! Fibonacci hash: every record touching a page goes to exactly one
//! worker, which sees that page's records in log order — all after-image
//! redo needs, since records for *different* pages commute (DESIGN.md §6c).
//! Every scan — analysis, redo, the WPL image scan — runs through one
//! pipeline ([`fan_out`]) of three stages over bounded channels:
//!
//! 1. a reader thread streams the log in large aligned chunks
//!    ([`qs_wal::stream_chunks_timed`]) — one media pass per chunk;
//! 2. the router (the restart thread) walks each chunk's frames with the
//!    cheap frame accessors — no decoding — keeps the bookkeeping that is
//!    sequential by nature (analysis: the transaction table) and fans
//!    page-bearing frames out to workers;
//! 3. the workers do the per-page work straight out of the shared chunk
//!    buffer — analysis: checksum and dirty-page table shard; redo: apply
//!    to privately-owned page images — with no `LogRecord`
//!    materialization and no per-record allocation.
//!
//! Verify-once is the checksum policy: every frame restart *uses* is
//! checksummed exactly once before its result is used — page-bearing
//! small frames by the page's worker during analysis (or by the redo
//! worker when they lie below the analysis scan start), page-less frames
//! by the analysis router, whole-page frames where redo applies them or
//! where a WPL image wins its page — and every frame it merely walks has
//! its framing checked.
//!
//! Workers return their results in worker-index order and pages are
//! installed page-sorted, so the recovered volume, the restart report and
//! everything downstream are byte-identical for any worker count and any
//! chunk size (`tests/restart_equivalence.rs`).

use crate::protocol::Holds;
use crate::server::pages::apply_after_image;
use crate::server::{InnerView, RestartConfig, Server};
use crate::shard::shard_index;
use crate::txn::TxnTable;
use qs_storage::{Page, Volume};
use qs_trace::{PhaseStat, RestartWall, ScanWall, StageClock};
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use qs_wal::{
    stream_chunks_timed, CheckpointBody, FrameChunk, FrameRef, LogManager, LogReadCache, LogRecord,
    SchemeCode,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Bounded depth of the chunk and per-worker channels: deep enough to
/// overlap reading, routing, and applying; shallow enough to cap memory
/// at a few chunks per stage.
const DEPTH: usize = 4;

/// Run restart recovery on a freshly opened volume and log. Returns raw
/// (unpriced) per-phase work counts for the restart report, and where
/// the host's wall-clock time went.
pub(crate) fn run(server: &Server) -> QsResult<(Vec<PhaseStat>, RestartWall)> {
    let mut wall = RestartWall::default();
    let Some(holds) = server.facts().restart else {
        return Ok((wpl_restart(server, &mut wall)?, wall));
    };
    let cfg = server.config().restart;
    let mut ph_analysis = phase("analysis");
    let mut ph_redo = phase("redo");
    let a = server.with_quiesced(|view| -> QsResult<Analysis> {
        let a = analyze(view.log, holds, cfg, &mut ph_analysis, &mut wall)?;
        view.volume.ensure_allocated(a.max_alloc as usize)?;
        Ok(a)
    })?;
    server.with_quiesced(|view| redo(view, &a, cfg, &mut ph_redo, &mut wall))?;
    let ph_undo = undo_and_finish(server, a.att, a.max_txn, &mut wall)?;
    let mut phases = vec![ph_analysis, ph_redo];
    if holds.physical {
        phases.push(ph_undo);
    }
    Ok((phases, wall))
}

fn phase(name: &'static str) -> PhaseStat {
    PhaseStat { name, ..PhaseStat::default() }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn log_pages(from: Lsn, end: Lsn) -> u64 {
    end.0.saturating_sub(from.0).div_ceil(PAGE_SIZE as u64)
}

fn note_txn(max_txn: &mut TxnId, txn: TxnId) {
    if txn != TxnId::INVALID && (*max_txn == TxnId::INVALID || txn.0 > max_txn.0) {
        *max_txn = txn;
    }
}

/// The body of a sharp `Checkpoint` or fuzzy `BeginCheckpoint` frame.
fn checkpoint_body(bytes: &[u8]) -> QsResult<CheckpointBody> {
    match LogRecord::decode(bytes)? {
        LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => Ok(body),
        _ => Err(QsError::RecoveryFailed { detail: "not a checkpoint record".into() }),
    }
}

/// Which protocol each transaction ran. A transaction's `TxnScheme` mark
/// — always the first record of its chain — says which it elected;
/// unmarked transactions follow the flavor default. Truncation keeps
/// every *active* transaction's chain whole, mark included, so in an
/// `Adaptive` log a transaction whose mark is missing (truncated) is
/// provably committed, and treating it as physical (DPT path) is correct
/// for committed work: redo replays `UpdateLogical` records too, and the
/// pageLSN test skips whatever the pre-crash apply already flushed.
struct Marks {
    /// Protocol of an unmarked transaction.
    default_logical: bool,
    /// Elected scheme per transaction, from `TxnScheme` records.
    elected: HashMap<TxnId, SchemeCode>,
}

impl Marks {
    fn new(default_logical: bool) -> Marks {
        Marks { default_logical, elected: HashMap::new() }
    }

    fn note(&mut self, bytes: &[u8]) {
        if let Some(s) = record::frame_scheme(bytes) {
            self.elected.insert(record::frame_txn(bytes), s);
        }
    }

    /// Did `txn` run the logical (deferred-apply, no-steal) protocol?
    /// Mark-free logs answer from the flavor default without a lookup.
    fn is_logical(&self, txn: TxnId) -> bool {
        if self.elected.is_empty() {
            return self.default_logical;
        }
        self.elected.get(&txn).map_or(self.default_logical, |s| s.is_logical())
    }
}

/// What analysis learned from the log: the router's transaction half
/// plus the workers' merged page half.
struct Analysis {
    marks: Marks,
    /// Physical loser candidates: txn → last LSN seen (undo starts there).
    /// Logical losers are not tracked — dropping them *is* their rollback.
    att: HashMap<TxnId, Lsn>,
    /// Logical transactions whose commit record was seen.
    committed: HashSet<TxnId>,
    /// Dirty-page table: page → recovery LSN.
    dpt: HashMap<PageId, Lsn>,
    /// Highest transaction id seen (id assignment resumes above it).
    max_txn: TxnId,
    /// Highest page id + 1 implied by the log.
    max_alloc: u64,
    /// Where the analysis scan (and with it frame verification) started.
    scan_from: Lsn,
    /// The run of consecutive records of one transaction the router is
    /// in: the transaction and, if it is a physical one, its latest LSN —
    /// written to `att` when the run ends, not once per record.
    run: (TxnId, Option<Lsn>),
}

impl Analysis {
    /// Must redo skip `txn`'s records? Only logical losers: their deferred
    /// ops never reached any page, and replaying them (via a shared page's
    /// DPT entry from another transaction) would install uncommitted data
    /// that nothing can undo.
    fn redo_skips(&self, txn: TxnId) -> bool {
        self.marks.is_logical(txn) && !self.committed.contains(&txn)
    }

    /// A record of `txn` that is neither mark, commit nor abort: extend
    /// the current run or start a new one.
    fn touch(&mut self, txn: TxnId, lsn: Lsn) {
        if txn == self.run.0 {
            if let Some(last) = &mut self.run.1 {
                *last = lsn;
            }
            return;
        }
        self.end_run();
        note_txn(&mut self.max_txn, txn);
        let physical = txn != TxnId::INVALID && !self.marks.is_logical(txn);
        self.run = (txn, physical.then_some(lsn));
    }

    fn end_run(&mut self) {
        if let (txn, Some(last)) = std::mem::replace(&mut self.run, (TxnId::INVALID, None)) {
            self.att.insert(txn, last);
        }
    }

    /// The router's half of the forward analysis scan: track transactions
    /// (a mark precedes its transaction's page records, so forward order
    /// classifies every record correctly at first sight), verify the
    /// page-less frames — nobody else reads them — and say which worker(s)
    /// need the frame for the page half. `broadcast`: the log can hold
    /// logical transactions, so the workers need marks, commits and aborts.
    fn route(&mut self, lsn: Lsn, bytes: &[u8], broadcast: bool) -> QsResult<Route> {
        let txn = record::frame_txn(bytes);
        if let Some(page) = record::frame_page(bytes) {
            self.touch(txn, lsn);
            return Ok(Route::Page(page));
        }
        record::frame_verify(bytes)?;
        match record::frame_tag(bytes) {
            tag::CHECKPOINT | tag::BEGIN_CHECKPOINT => {
                self.max_alloc = self.max_alloc.max(checkpoint_body(bytes)?.allocated_pages);
                return Ok(Route::Nowhere);
            }
            tag::TXN_SCHEME => {
                self.end_run();
                self.marks.note(bytes);
                if !self.marks.is_logical(txn) {
                    self.att.insert(txn, lsn);
                }
            }
            tag::COMMIT => {
                self.end_run();
                self.att.remove(&txn);
                if self.marks.is_logical(txn) {
                    self.committed.insert(txn);
                }
            }
            tag::ABORT => {
                self.end_run();
                self.att.remove(&txn);
            }
            _ => {
                self.touch(txn, lsn);
                return Ok(Route::Nowhere);
            }
        }
        note_txn(&mut self.max_txn, txn);
        Ok(if broadcast { Route::All } else { Route::Nowhere })
    }
}

/// Fold page → first-LSN entries into a dirty-page table: the earliest
/// LSN per page is its recLSN.
fn merge_min(dpt: &mut HashMap<PageId, Lsn>, pages: HashMap<PageId, Lsn>) {
    for (page, lsn) in pages {
        let rec_lsn = dpt.entry(page).or_insert(lsn);
        *rec_lsn = lsn.min(*rec_lsn);
    }
}

/// One analysis worker's half: the dirty-page table of the pages that
/// hash to it.
struct PageShard {
    dpt: HashMap<PageId, Lsn>,
    /// Highest page id + 1 among this shard's frames.
    max_alloc: u64,
}

/// One analysis worker: verify this shard's page-bearing small frames
/// (whole-page frames — 8 KB bodies — skip the checksum here; redo
/// verifies the ones it applies) and build the shard's DPT. Physical
/// records enter the DPT directly, keyed by page; a logical transaction's
/// page → first-LSN map is parked and merged in only when its commit
/// record shows up. Marks, commits and aborts arrive by broadcast, already
/// verified by the router, in log order with the shard's own frames.
fn analysis_worker(inbox: &mut Batches, default_logical: bool) -> QsResult<PageShard> {
    let mut marks = Marks::new(default_logical);
    let mut shard = PageShard { dpt: HashMap::new(), max_alloc: 0 };
    let mut pending: HashMap<TxnId, HashMap<PageId, Lsn>> = HashMap::new();
    // The last page-bearing frame's (transaction, page): a repeat changes
    // no table, so it costs no lookup.
    let mut run: Option<(TxnId, PageId)> = None;
    for batch in inbox {
        for r in &batch.frames {
            let bytes = batch.frame(r);
            let t = record::frame_tag(bytes);
            let txn = record::frame_txn(bytes);
            let Some(page) = record::frame_page(bytes) else {
                run = None;
                match t {
                    tag::TXN_SCHEME => marks.note(bytes),
                    tag::COMMIT => {
                        merge_min(&mut shard.dpt, pending.remove(&txn).unwrap_or_default());
                    }
                    tag::ABORT => {
                        pending.remove(&txn);
                    }
                    _ => {}
                }
                continue;
            };
            if t != tag::WHOLE_PAGE {
                record::frame_verify(bytes)?;
            }
            if run == Some((txn, page)) {
                continue;
            }
            run = Some((txn, page));
            shard.max_alloc = shard.max_alloc.max(page.0 as u64 + 1);
            if marks.is_logical(txn) {
                pending.entry(txn).or_default().entry(page).or_insert(r.lsn);
            } else {
                shard.dpt.entry(page).or_insert(r.lsn);
            }
        }
    }
    Ok(shard)
}

/// Forward analysis as a [`fan_out`] scan: the router keeps the
/// transaction half ([`Analysis::route`]), each worker the page half of
/// its pages ([`analysis_worker`]), and the DPT shards — disjoint by
/// page — are merged over the checkpoint body's seed after the join.
fn analyze(
    log: &LogManager,
    holds: Holds,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    wall: &mut RestartWall,
) -> QsResult<Analysis> {
    let default_logical = !holds.physical;
    let mut a = Analysis {
        marks: Marks::new(default_logical),
        att: HashMap::new(),
        committed: HashSet::new(),
        dpt: HashMap::new(),
        max_txn: TxnId::INVALID,
        max_alloc: 0,
        scan_from: log.start_lsn(),
        run: (TxnId::INVALID, None),
    };
    let ck = log.checkpoint_lsn();
    if !(holds.logical || ck.is_null()) {
        // Physical-only log: everything older than the anchor is on disk
        // or listed in its body. The anchor is a sharp `Checkpoint` or the
        // `BeginCheckpoint` of a completed fuzzy pair — the header only
        // advances once the matching end record is durable, so an
        // orphaned begin is never the anchor.
        let body = match log.read_record(ck)?.0 {
            LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => body,
            _ => {
                return Err(QsError::RecoveryFailed {
                    detail: format!("no checkpoint record at {ck}"),
                });
            }
        };
        a.att.extend(body.active_txns);
        a.dpt.extend(body.dirty_pages);
        a.scan_from = ck;
    }
    let span = (a.scan_from, log.tail_lsn());
    ph.pages_read = log_pages(span.0, span.1);

    let route = |lsn: Lsn, bytes: &[u8]| {
        ph.records += 1;
        a.route(lsn, bytes, holds.logical)
    };
    let (shards, mut scan) = fan_out("analysis", log, span, cfg, route, |inbox| {
        analysis_worker(inbox, default_logical)
    })?;
    let merge = Instant::now();
    a.end_run();
    for shard in shards {
        a.max_alloc = a.max_alloc.max(shard.max_alloc);
        merge_min(&mut a.dpt, shard.dpt);
    }
    scan.end_merge(merge);
    wall.scans.push(scan);
    Ok(a)
}

/// Where the router sends one frame.
enum Route {
    Nowhere,
    /// To the worker that owns this page.
    Page(PageId),
    /// To every worker.
    All,
}

/// A worker's inbox: yields its batches, charging each wait to the
/// stage's blocked time and everything between waits to its busy time.
struct Batches {
    rx: Receiver<FrameChunk>,
    clock: StageClock,
}

impl Iterator for Batches {
    type Item = FrameChunk;

    fn next(&mut self) -> Option<FrameChunk> {
        self.clock.busy();
        let batch = self.rx.recv().ok();
        self.clock.blocked();
        batch
    }
}

/// The reader → router → workers → join scaffold every scan shares.
/// Streams `[from, end)`; `route` sees every frame on the calling thread
/// (so it needs no synchronization) and says which workers should get it;
/// each worker runs `work` over its batches (its share of each chunk's
/// frames, sharing the chunk's buffer). Returns the workers' results in
/// worker-index order, and the stages' wall-clock accounting. A worker
/// that fails hangs up its channel, which stops the router; the worker's
/// error is reported by the join.
fn fan_out<T: Send>(
    name: &'static str,
    log: &LogManager,
    (from, end): (Lsn, Lsn),
    cfg: RestartConfig,
    mut route: impl FnMut(Lsn, &[u8]) -> QsResult<Route>,
    work: impl Fn(&mut Batches) -> QsResult<T> + Sync,
) -> QsResult<(Vec<T>, ScanWall)> {
    let workers = cfg.redo_workers.max(1);
    let started = Instant::now();
    let mut clock = StageClock::start();
    std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel::<FrameChunk>(DEPTH);
            txs.push(tx);
            let work = &work;
            handles.push(s.spawn(move || {
                let mut inbox = Batches { rx, clock: StageClock::start() };
                let out = work(&mut inbox);
                inbox.clock.busy();
                (out, inbox.clock.wall())
            }));
        }
        let (chunks, reader) = stream_chunks_timed(s, log, from, end, cfg.chunk_bytes, DEPTH);
        let mut routed: Vec<Vec<FrameRef>> = vec![Vec::new(); workers];
        let route_all = || -> QsResult<()> {
            for chunk in chunks {
                clock.blocked();
                let chunk = chunk?;
                for r in &chunk.frames {
                    match route(r.lsn, chunk.frame(r))? {
                        Route::Nowhere => {}
                        Route::Page(pid) => routed[shard_index(pid, workers)].push(*r),
                        Route::All => routed.iter_mut().for_each(|refs| refs.push(*r)),
                    }
                }
                clock.busy();
                for (tx, refs) in txs.iter().zip(&mut routed) {
                    if refs.is_empty() {
                        continue;
                    }
                    let batch =
                        FrameChunk { buf: Arc::clone(&chunk.buf), frames: std::mem::take(refs) };
                    if tx.send(batch).is_err() {
                        return Ok(());
                    }
                }
            }
            Ok(())
        };
        // Running the closure to its end drops the chunk receiver, which
        // is what lets a reader blocked on a full channel exit.
        let routed_all = route_all();
        drop(txs);
        let mut scan = ScanWall { name, ..ScanWall::default() };
        let mut outs = Vec::with_capacity(workers);
        for h in handles {
            let (out, stage) = h.join().expect("restart worker panicked");
            scan.workers.push(stage);
            outs.push(out);
        }
        scan.reader = reader.join().expect("log reader panicked");
        clock.blocked();
        scan.router = clock.wall();
        scan.wall_ns = ns_since(started);
        let outs = outs.into_iter().collect::<QsResult<Vec<T>>>()?;
        routed_all.map(|()| (outs, scan))
    })
}

/// Page-partitioned redo: route every page-bearing frame in
/// `[redo_from, tail)` that redo must not skip to its page's worker, let
/// each worker repeat history on its own pages, then install the merged
/// resident set into the pool as dirty so undo sees it and the closing
/// checkpoint flushes it.
fn redo(
    view: &mut InnerView<'_>,
    a: &Analysis,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    wall: &mut RestartWall,
) -> QsResult<()> {
    let Some(&redo_from) = a.dpt.values().min() else {
        return Ok(());
    };
    // A fuzzy begin-checkpoint body can carry recLSNs that predate the
    // truncated log start (their pages were flushed by the drain, which
    // is what allowed truncation); those updates are on disk and the
    // pageLSN test would skip them anyway, so clamp the scan.
    let redo_from = redo_from.max(view.log.start_lsn());
    let end = view.log.tail_lsn();
    ph.pages_read = log_pages(redo_from, end);

    let volume = view.volume;
    // One `redo_skips` answer per run of a transaction's records.
    let mut run = (TxnId::INVALID, a.redo_skips(TxnId::INVALID));
    let route = |_, bytes: &[u8]| {
        let Some(page) = record::frame_page(bytes) else {
            return Ok(Route::Nowhere);
        };
        let txn = record::frame_txn(bytes);
        if txn != run.0 {
            run = (txn, a.redo_skips(txn));
        }
        Ok(if run.1 { Route::Nowhere } else { Route::Page(page) })
    };
    let (outcomes, mut scan) = fan_out("redo", view.log, (redo_from, end), cfg, route, |inbox| {
        redo_worker(inbox, &a.dpt, a.scan_from, volume)
    })?;

    // Install page-sorted so pool state and eviction write-backs are
    // identical for every worker count.
    let merge = Instant::now();
    let mut resident: Vec<(PageId, Page)> = Vec::new();
    for (stats, pages) in outcomes {
        ph.absorb(&stats);
        resident.extend(pages);
    }
    resident.sort_by_key(|&(pid, _)| pid.0);
    for (pid, page) in resident {
        // Restart pools are sized like production pools; eviction during
        // redo writes through (WAL is satisfied: everything is in the
        // durable log already).
        if let Some(ev) = view.pool.shard(pid).insert(pid, page, true)? {
            if ev.dirty {
                view.volume.write_page(ev.page_id, &ev.page)?;
                ph.data_writes += 1;
            }
        }
        view.dpt.insert(pid, redo_from);
    }
    scan.end_merge(merge);
    wall.scans.push(scan);
    Ok(())
}

/// A run of consecutive frames for one page in a redo worker: what the
/// first frame looked up, reused by the rest.
struct PageRun {
    pid: PageId,
    /// The page's recLSN; `None` if it is not in the DPT.
    rec_lsn: Option<Lsn>,
    /// The page's slot in the worker's resident set, once read.
    slot: Option<usize>,
}

/// One redo worker: repeat history on this partition's pages under the
/// DPT / recLSN / pageLSN filters, applying after-images straight from
/// the shared chunk buffer. Small frames at or above `scan_from` were
/// checksum-verified by analysis; whole-page frames (which analysis
/// skips) and small frames below `scan_from` (a checkpoint body can seed
/// recLSNs under the anchor) are verified here, before they are applied.
/// Returns the worker's tallies and its redone pages.
fn redo_worker(
    inbox: &mut Batches,
    dpt: &HashMap<PageId, Lsn>,
    scan_from: Lsn,
    volume: &Volume,
) -> QsResult<(PhaseStat, Vec<(PageId, Page)>)> {
    let mut stats = phase("redo");
    let mut resident: Vec<(PageId, Page)> = Vec::new();
    let mut slot_of: HashMap<PageId, usize> = HashMap::new();
    let mut run: Option<PageRun> = None;
    for batch in inbox {
        for r in &batch.frames {
            let bytes = batch.frame(r);
            let pid = record::frame_page(bytes).expect("router only sends page-bearing frames");
            let run = match &mut run {
                Some(run) if run.pid == pid => run,
                stale => stale.insert(PageRun {
                    pid,
                    rec_lsn: dpt.get(&pid).copied(),
                    slot: slot_of.get(&pid).copied(),
                }),
            };
            if run.rec_lsn.is_none_or(|rec_lsn| r.lsn < rec_lsn) {
                continue;
            }
            let slot = match run.slot {
                Some(slot) => slot,
                None => {
                    let slot = resident.len();
                    stats.data_reads += 1;
                    resident.push((pid, volume.read_page(pid)?));
                    slot_of.insert(pid, slot);
                    run.slot = Some(slot);
                    slot
                }
            };
            let page = &mut resident[slot].1;
            if page.lsn() >= r.lsn {
                continue; // effect already on disk image
            }
            stats.records += 1;
            if record::frame_tag(bytes) == tag::WHOLE_PAGE || r.lsn < scan_from {
                record::frame_verify(bytes)?;
            }
            apply_after_image(page, pid, bytes, r.lsn)?;
        }
    }
    Ok((stats, resident))
}

/// Undo pass plus restart epilogue: roll back the physical losers with
/// CLRs (none for a log that holds no physical transactions), resume
/// txn-id assignment, make the recovered state durable and truncate the
/// log. Returns the undo phase's tallies.
fn undo_and_finish(
    server: &Server,
    att: HashMap<TxnId, Lsn>,
    max_txn: TxnId,
    wall: &mut RestartWall,
) -> QsResult<PhaseStat> {
    let mut ph = phase("undo");
    let undo = Instant::now();
    // Undo in reverse order of recency, mirroring ARIES' single backward
    // pass over all losers.
    let mut losers: Vec<(TxnId, Lsn)> = att.into_iter().collect();
    losers.sort_by_key(|&(_, lsn)| std::cmp::Reverse(lsn));
    server.with_quiesced(|view| {
        for &(txn, last) in &losers {
            view.txns.restore(txn, last);
        }
    });
    // One page cache across every loser chain: the random chain reads stop
    // re-hitting the log disk per record, and the report counts distinct
    // log pages actually fetched rather than one page per record undone.
    let mut cache = LogReadCache::new();
    for (txn, last) in losers {
        server.with_quiesced(|view| -> QsResult<()> {
            ph.records += server.undo_chain(view, txn, last, &mut cache)?;
            Server::append_abort(view, txn)?;
            view.txns.remove(txn);
            Ok(())
        })?;
    }
    ph.pages_read = cache.pages_fetched();
    wall.undo_ns = ns_since(undo);

    let checkpoint = Instant::now();
    server.with_quiesced(|view| *view.txns = TxnTable::resuming_after(max_txn));
    server.checkpoint()?;
    wall.checkpoint_ns = ns_since(checkpoint);
    Ok(ph)
}

/// One whole-page image sighting: where it is (a shared chunk buffer
/// keeps the frame bytes alive) and who wrote it. Checksum verification
/// is deferred until the candidate actually wins its page.
struct ImageCandidate {
    pid: PageId,
    txn: TxnId,
    buf: Arc<Vec<u8>>,
    frame: FrameRef,
}

/// WPL restart (§3.4.3): rebuild the WPL table from one forward streamed
/// pass over `[checkpoint, durable)`. The router collects the
/// committed-transactions list and the oldest in-range checkpoint body;
/// workers report image candidates; the merge keeps the newest committed
/// image per page — a transaction's commit record always follows its page
/// images, so the list is complete by merge time — and checksums only
/// those winners. The phase names keep the paper's backward-scan
/// vocabulary, which the report and `results/` are keyed on.
fn wpl_restart(server: &Server, wall: &mut RestartWall) -> QsResult<Vec<PhaseStat>> {
    let mut scan = phase("backward_scan");
    let mut rebuild = phase("table_rebuild");
    let cfg = server.config().restart;
    server.with_quiesced(|view| -> QsResult<()> {
        let end = view.log.durable_lsn();
        let ck = view.log.checkpoint_lsn();
        let stop = if ck.is_null() { view.log.start_lsn() } else { ck };
        scan.pages_read = log_pages(stop, end);

        let mut ctl: HashSet<TxnId> = HashSet::new();
        let mut max_txn = TxnId::INVALID;
        // The restart anchor is the *oldest* in-range checkpoint; an
        // orphaned begin (crash before its end record) sits later and is
        // ignored.
        let mut anchor: Option<CheckpointBody> = None;
        let route = |_, bytes: &[u8]| {
            scan.records += 1;
            let t = record::frame_tag(bytes);
            if t == tag::WHOLE_PAGE {
                return Ok(record::frame_page(bytes).map_or(Route::Nowhere, Route::Page));
            }
            record::frame_verify(bytes)?;
            let txn = record::frame_txn(bytes);
            note_txn(&mut max_txn, txn);
            if t == tag::COMMIT {
                ctl.insert(txn);
            } else if (t == tag::CHECKPOINT || t == tag::BEGIN_CHECKPOINT) && anchor.is_none() {
                anchor = Some(checkpoint_body(bytes)?);
            }
            Ok(Route::Nowhere)
        };
        let (outcomes, mut stages) =
            fan_out("backward_scan", view.log, (stop, end), cfg, route, image_worker)?;
        let merge = Instant::now();

        // The paper's backward scan reads each record with one random
        // log-page read; bill the meter the same total.
        server.meter().log_pages_read.fetch_add(scan.records, Ordering::Relaxed);

        let mut max_page = 0u32;
        let mut newest: HashMap<PageId, ImageCandidate> = HashMap::new();
        for cand in outcomes.into_iter().flatten() {
            note_txn(&mut max_txn, cand.txn);
            max_page = max_page.max(cand.pid.0 + 1);
            if !ctl.contains(&cand.txn) {
                continue;
            }
            match newest.entry(cand.pid) {
                Entry::Vacant(e) => {
                    e.insert(cand);
                }
                Entry::Occupied(mut e) => {
                    if cand.frame.lsn > e.get().frame.lsn {
                        e.insert(cand);
                    }
                }
            }
        }
        let mut restored: Vec<ImageCandidate> = newest.into_values().collect();
        restored.sort_by_key(|c| c.pid.0);
        let mut claimed: HashSet<PageId> = HashSet::new();
        for c in restored {
            let f = c.frame;
            record::frame_verify(&c.buf[f.offset as usize..(f.offset + f.len) as usize])?;
            claimed.insert(c.pid);
            view.wpl.insert_restored(c.pid, f.lsn, c.txn);
        }

        // A checkpoint record sits exactly at `stop`, inside the scan, so
        // the streamed pass normally found the anchor already.
        if !ck.is_null() && anchor.is_none() {
            if let LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } =
                view.log.read_record(ck)?.0
            {
                server.meter().log_pages_read.fetch_add(1, Ordering::Relaxed);
                rebuild.pages_read += 1;
                anchor = Some(body);
            }
        }
        if let Some(body) = anchor {
            for e in &body.wpl_entries {
                if (e.committed || ctl.contains(&e.txn)) && claimed.insert(e.page) {
                    view.wpl.insert_restored(e.page, e.lsn, e.txn);
                }
                rebuild.records += 1;
                max_page = max_page.max(e.page.0 + 1);
            }
            view.volume.ensure_allocated(body.allocated_pages as usize)?;
        }
        view.volume.ensure_allocated(max_page as usize)?;
        *view.txns = TxnTable::resuming_after(max_txn);
        stages.end_merge(merge);
        wall.scans.push(stages);
        Ok(())
    })?;
    Ok(vec![scan, rebuild])
}

/// One WPL image worker: check each routed whole-page frame's framing
/// (length prefix vs trailer echo — catches torn frames) and report it as
/// an [`ImageCandidate`] without materializing or checksumming the 8 KB
/// body; the merge verifies the winners. Restored pages are served
/// straight from the log by the WPL table, exactly as in normal running.
fn image_worker(inbox: &mut Batches) -> QsResult<Vec<ImageCandidate>> {
    let mut images = Vec::new();
    for batch in inbox {
        for &frame in &batch.frames {
            let bytes = batch.frame(&frame);
            if bytes[bytes.len() - 4..] != bytes[0..4] {
                return Err(QsError::LogCorrupt {
                    detail: "whole-page frame trailer mismatch".into(),
                });
            }
            images.push(ImageCandidate {
                pid: record::frame_page(bytes).expect("whole-page frame"),
                txn: record::frame_txn(bytes),
                buf: Arc::clone(&batch.buf),
                frame,
            });
        }
    }
    Ok(images)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::{MemDisk, StableMedia};
    use qs_wal::ChunkedScanner;

    const PHYSICAL: Holds = Holds { physical: true, logical: false };
    const LOGICAL: Holds = Holds { physical: false, logical: true };
    const MIXED: Holds = Holds { physical: true, logical: true };

    fn fresh_log() -> LogManager {
        let body = 1 << 20;
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
        LogManager::format(media as Arc<dyn StableMedia>, body).unwrap()
    }

    fn update(txn: u64, page: u32) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            prev: Lsn::NULL,
            page: PageId(page),
            slot: 0,
            offset: 0,
            before: vec![0; 8],
            after: vec![txn as u8; 8],
        }
    }

    fn logical(txn: u64, page: u32) -> LogRecord {
        LogRecord::UpdateLogical {
            txn: TxnId(txn),
            prev: Lsn::NULL,
            page: PageId(page),
            slot: 0,
            offset: 0,
            after: vec![txn as u8; 8],
        }
    }

    fn mark(txn: u64, scheme: SchemeCode) -> LogRecord {
        LogRecord::TxnScheme { txn: TxnId(txn), prev: Lsn::NULL, scheme }
    }

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(txn), prev: Lsn::NULL }
    }

    fn abort(txn: u64) -> LogRecord {
        LogRecord::Abort { txn: TxnId(txn), prev: Lsn::NULL }
    }

    /// Everything `analyze` hands on, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Learned {
        att: HashMap<TxnId, Lsn>,
        dpt: HashMap<PageId, Lsn>,
        committed: HashSet<TxnId>,
        max_txn: TxnId,
        max_alloc: u64,
        records: u64,
    }

    fn learned(log: &LogManager, holds: Holds, workers: usize, chunk_bytes: usize) -> Learned {
        let cfg = RestartConfig { redo_workers: workers, chunk_bytes };
        let mut ph = phase("analysis");
        let a = analyze(log, holds, cfg, &mut ph, &mut RestartWall::default()).unwrap();
        Learned {
            att: a.att,
            dpt: a.dpt,
            committed: a.committed,
            max_txn: a.max_txn,
            max_alloc: a.max_alloc,
            records: ph.records,
        }
    }

    /// The serial, decode-every-record analysis the sharded one replaced:
    /// one loop, one record at a time, every table updated per record.
    fn reference(log: &LogManager, holds: Holds) -> Learned {
        let default_logical = !holds.physical;
        let mut marks: HashMap<TxnId, SchemeCode> = HashMap::new();
        let mut pending: HashMap<TxnId, HashMap<PageId, Lsn>> = HashMap::new();
        let mut l = Learned {
            att: HashMap::new(),
            dpt: HashMap::new(),
            committed: HashSet::new(),
            max_txn: TxnId::INVALID,
            max_alloc: 0,
            records: 0,
        };
        let ck = log.checkpoint_lsn();
        let mut from = log.start_lsn();
        if !(holds.logical || ck.is_null()) {
            let (LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body }) =
                log.read_record(ck).unwrap().0
            else {
                panic!("anchor is not a checkpoint");
            };
            l.att.extend(body.active_txns);
            l.dpt.extend(body.dirty_pages);
            from = ck;
        }
        for item in log.scan_forward(from) {
            let (lsn, rec) = item.unwrap();
            l.records += 1;
            if let LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } = &rec {
                l.max_alloc = l.max_alloc.max(body.allocated_pages);
                continue;
            }
            let txn = rec.txn();
            note_txn(&mut l.max_txn, txn);
            if let LogRecord::TxnScheme { scheme, .. } = rec {
                marks.insert(txn, scheme);
            }
            let is_logical = marks.get(&txn).map_or(default_logical, |s| s.is_logical());
            match rec {
                LogRecord::TxnScheme { .. } => {
                    if !is_logical {
                        l.att.insert(txn, lsn);
                    }
                }
                LogRecord::Commit { .. } => {
                    l.att.remove(&txn);
                    if is_logical {
                        l.committed.insert(txn);
                        for (p, first) in pending.remove(&txn).unwrap_or_default() {
                            let e = l.dpt.entry(p).or_insert(first);
                            *e = first.min(*e);
                        }
                    }
                }
                LogRecord::Abort { .. } => {
                    l.att.remove(&txn);
                    pending.remove(&txn);
                }
                _ => {
                    if !is_logical && txn != TxnId::INVALID {
                        l.att.insert(txn, lsn);
                    }
                    if let Some(page) = rec.page() {
                        l.max_alloc = l.max_alloc.max(page.0 as u64 + 1);
                        if is_logical {
                            pending.entry(txn).or_default().entry(page).or_insert(lsn);
                        } else {
                            l.dpt.entry(page).or_insert(lsn);
                        }
                    }
                }
            }
        }
        l
    }

    /// `analyze` must learn exactly what the reference learns, whatever
    /// the pool and chunk size.
    fn assert_matches_reference(log: &LogManager, holds: Holds, what: &str) -> Learned {
        let want = reference(log, holds);
        for workers in [1, 2, 4, 8] {
            for chunk in [8192, 29] {
                let got = learned(log, holds, workers, chunk);
                assert_eq!(got, want, "{what}: workers={workers} chunk={chunk}");
            }
        }
        want
    }

    #[test]
    fn physical_log_seeded_from_a_checkpoint_body() {
        let log = fresh_log();
        // Below the anchor: only the body speaks for these.
        let early = log.append(&update(1, 3)).unwrap();
        log.append(&update(2, 40)).unwrap();
        log.append(&commit(2)).unwrap();
        let body = CheckpointBody {
            active_txns: vec![(TxnId(1), early), (TxnId(3), early)],
            dirty_pages: vec![(PageId(3), early), (PageId(90), early)],
            allocated_pages: 120,
            ..CheckpointBody::default()
        };
        let ck = log.append(&LogRecord::BeginCheckpoint { body }).unwrap();
        log.append(&LogRecord::EndCheckpoint { begin: ck }).unwrap();
        log.set_checkpoint(ck).unwrap();
        // Above it: runs of one transaction on one page, interleaved
        // transactions, every page-bearing tag, a committer, an aborter.
        for page in 0..24u32 {
            for _ in 0..3 {
                log.append(&update(4, page)).unwrap();
            }
            log.append(&update(5 + (page as u64 % 2), page + 100)).unwrap();
        }
        log.append(&LogRecord::PageAlloc { txn: TxnId(4), prev: Lsn::NULL, page: PageId(300) })
            .unwrap();
        log.append(&LogRecord::WholePage {
            txn: TxnId(4),
            prev: Lsn::NULL,
            page: PageId(300),
            image: vec![7; PAGE_SIZE],
        })
        .unwrap();
        log.append(&commit(4)).unwrap();
        log.append(&LogRecord::Clr {
            txn: TxnId(5),
            prev: Lsn::NULL,
            page: PageId(3),
            slot: 0,
            offset: 0,
            after: vec![0; 8],
            undo_next: Lsn::NULL,
        })
        .unwrap();
        log.append(&abort(5)).unwrap();
        log.append(&update(1, 7)).unwrap();

        let l = assert_matches_reference(&log, PHYSICAL, "physical");
        assert_eq!(l.dpt[&PageId(3)], early, "the body's recLSN survives the scan");
        assert_eq!(l.dpt[&PageId(90)], early, "a page only the body lists stays listed");
        assert!(l.att.contains_key(&TxnId(3)), "a transaction only the body lists is a loser");
        assert_eq!(l.att.keys().map(|t| t.0).max(), Some(6));
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(6), 301));
        assert!(l.committed.is_empty(), "physical commits are not tracked");
    }

    #[test]
    fn logical_log_with_committer_aborter_and_loser_sharing_pages() {
        let log = fresh_log();
        // Three transactions interleaved over the same 16 pages (which
        // spread over every shard at 2, 4 and 8 workers): only the
        // committer's pages may reach the DPT, at *its* first LSNs.
        let mut first_by_committer = HashMap::new();
        for round in 0..3 {
            for page in 0..16u32 {
                for txn in [2u64, 1, 3] {
                    let lsn = log.append(&logical(txn, page)).unwrap();
                    if txn == 1 && round == 0 {
                        first_by_committer.insert(PageId(page), lsn);
                    }
                }
            }
        }
        log.append(&abort(2)).unwrap();
        log.append(&commit(1)).unwrap();
        log.append(&logical(3, 500)).unwrap();

        let l = assert_matches_reference(&log, LOGICAL, "logical");
        assert_eq!(l.dpt, first_by_committer);
        assert_eq!(l.committed, HashSet::from([TxnId(1)]));
        assert!(l.att.is_empty(), "logical transactions are never undone");
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(3), 501));
    }

    #[test]
    fn adaptive_log_interleaving_both_protocols() {
        let log = fresh_log();
        log.append(&mark(1, SchemeCode::Pd)).unwrap();
        log.append(&mark(2, SchemeCode::Rlog)).unwrap();
        log.append(&mark(4, SchemeCode::Wpl)).unwrap();
        log.append(&mark(5, SchemeCode::Sd)).unwrap();
        for page in 0..12u32 {
            log.append(&update(1, page)).unwrap();
            log.append(&logical(2, page)).unwrap();
            log.append(&logical(2, page)).unwrap();
            // Unmarked: its mark was truncated, so it is physical.
            log.append(&update(3, page + 6)).unwrap();
            log.append(&LogRecord::WholePage {
                txn: TxnId(4),
                prev: Lsn::NULL,
                page: PageId(page + 20),
                image: vec![4; PAGE_SIZE],
            })
            .unwrap();
        }
        log.append(&commit(2)).unwrap();
        log.append(&commit(3)).unwrap();
        log.append(&abort(5)).unwrap();
        // A logical committer after a physical record on the same page:
        // the earlier LSN must win the merge.
        log.append(&mark(6, SchemeCode::Rlog)).unwrap();
        log.append(&logical(6, 0)).unwrap();
        log.append(&logical(6, 40)).unwrap();
        log.append(&commit(6)).unwrap();

        let l = assert_matches_reference(&log, MIXED, "adaptive");
        assert_eq!(l.att.keys().copied().collect::<Vec<_>>(), [TxnId(1)], "the physical loser");
        assert_eq!(l.committed, HashSet::from([TxnId(2), TxnId(6)]));
        assert!(!l.dpt.contains_key(&PageId(25)), "the logical loser's pages stay out");
        assert!(l.dpt[&PageId(0)] < l.dpt[&PageId(40)], "page 0 keeps txn 1's earlier LSN");
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(6), 41));
    }

    /// Run one worker function over every frame of `log`, as a one-worker
    /// `fan_out` would route them.
    fn run_worker<T>(log: &LogManager, work: impl FnOnce(&mut Batches) -> T) -> T {
        let (tx, rx) = sync_channel(DEPTH);
        let mut scanner = ChunkedScanner::new(log, log.start_lsn(), log.tail_lsn(), 8192);
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Some(chunk) = scanner.next_chunk().unwrap() {
                    tx.send(chunk).unwrap();
                }
            });
            work(&mut Batches { rx, clock: StageClock::start() })
        })
    }

    /// The trap a `(txn, page)`-keyed worker table falls into: a
    /// many-transaction log with one record per page and transaction
    /// must cost a worker one entry per *page*.
    #[test]
    fn worker_page_table_has_one_entry_per_distinct_page() {
        let log = fresh_log();
        for txn in 1..=60u64 {
            for page in 0..50u32 {
                log.append(&update(txn, page)).unwrap();
            }
        }
        let shard = run_worker(&log, |inbox| analysis_worker(inbox, false)).unwrap();
        assert_eq!(shard.dpt.len(), 50);
        assert_eq!(shard.max_alloc, 50);
    }
}
