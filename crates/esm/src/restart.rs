//! Restart recovery: one streamed, page-partitioned engine for every
//! flavor. `RestartConfig::redo_workers` only sizes the worker pool (of
//! the analysis scan as much as of redo) — one worker runs the same
//! reader → router → worker pipeline as eight, and a scan too short to
//! gain from a pipeline ([`PIPELINE_MIN_CHUNKS`]) runs the same three
//! roles on the restart thread.
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
//! Every scan runs through one scaffold ([`fan_out`]) of three roles:
//!
//! 1. the reader streams the log in large aligned chunks
//!    ([`qs_wal::ChunkedScanner`]) — one media pass per chunk;
//! 2. the router walks each chunk's frames with the cheap frame accessors
//!    — no decoding — keeps the bookkeeping that is sequential by nature
//!    (analysis: the transaction table) and fans page-bearing frames out
//!    to workers;
//! 3. the workers do the per-page work straight out of the shared chunk
//!    buffer — the analysis step (checksum, dirty-page table shard) and
//!    the redo step (apply to privately-owned page images) — with no
//!    `LogRecord` materialization and no per-record allocation.
//!
//! A long scan is [`pipelined`]: a reader thread, the restart thread as
//! the router and `redo_workers` worker threads over bounded channels. A
//! short one runs [`inline`]: the restart thread is the one worker and
//! reads and routes each chunk as it asks for its next batch — the same
//! `route` and `work` closures, no thread and no channel, and a restart
//! time that does not depend on where a scheduler puts three threads.
//!
//! A log that holds only physical transactions is read **once**
//! ([`analyze_and_redo`]): a page's recLSN is the anchor body's or its
//! first sighting at or above the anchor, and both are known by the time
//! a frame is visited, so one worker step ([`RedoShard::step`]) runs both
//! on the same frame, finding the page's recLSN and image with one probe
//! of the worker's page table per run of frames naming the page. A log
//! that can hold logical transactions keeps two scans ([`analyze`],
//! [`redo`]): whether a no-steal transaction's records are redone is
//! unknown until its commit record. The [`PhaseStat`]s price the paper's
//! two passes either way.
//!
//! Verify-once is the checksum policy: every frame restart *uses* is
//! checksummed exactly once before its result is used — page-bearing
//! small frames by the page's worker in the analysis step (or in the redo
//! step when they lie below the anchor), page-less frames by the analysis
//! router, whole-page frames where redo applies them or where a WPL image
//! wins its page — and every frame it merely walks has its framing
//! checked.
//!
//! Workers return their results in worker-index order and pages are
//! installed page-sorted, so the recovered volume, the restart report and
//! everything downstream are byte-identical for any worker count and any
//! chunk size (`tests/restart_equivalence.rs`).

use crate::protocol::Holds;
use crate::server::pages::apply_after_image;
use crate::server::{RestartConfig, Server};
use crate::shard::shard_index;
use crate::txn::TxnTable;
use qs_storage::{Page, Volume};
use qs_trace::{PhaseStat, RestartWall, ScanWall, StageClock, StageWall};
use qs_types::{IdMap, IdSet, Lsn, PageId, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use qs_wal::{
    stream_chunks_timed, CheckpointBody, ChunkedScanner, FrameChunk, FrameRef, LogManager,
    LogReadCache, SchemeCode,
};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Bounded depth of the chunk and per-worker channels: deep enough to
/// overlap reading, routing, and applying; shallow enough to cap memory
/// at a few chunks per stage.
const DEPTH: usize = 4;

/// A scan of fewer chunks than this (32 MB of log at the default chunk
/// size) runs on the calling thread instead of through the pipeline. All
/// the pipeline can hide is the reader's and the router's share of the
/// work, about a third, and only while the host runs its stages on
/// different CPUs; on a 2-CPU host only a 76 MB scan gained from it
/// (EXPERIMENTS.md, "Short scans run inline").
const PIPELINE_MIN_CHUNKS: u64 = 64;

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
    // The redo workers read the volume; nothing else runs yet.
    let volume = server.volume.lock(&server.tracer);
    let (a, redone) = replay(server.log.wal(), &volume, holds, cfg, &mut ph_analysis, &mut wall)?;
    drop(volume);
    let merge = Instant::now();
    install(server, &a, redone, &mut ph_redo)?;
    wall.scans.last_mut().expect("replay scans the log").end_merge(merge);
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

/// Which protocol each transaction ran. A transaction's `TxnScheme` mark
/// — always the first record of its chain — says which it elected;
/// unmarked transactions follow the flavor default. Truncation keeps
/// every *active* transaction's chain whole, mark included, so in an
/// `Adaptive` log a transaction whose mark is missing (truncated) had
/// finished before the crash: it committed or it aborted. Treating a
/// committed one as physical (DPT path) is correct: redo replays
/// `UpdateLogical` records too, and the pageLSN test skips whatever the
/// pre-crash apply already flushed. An aborted one is told apart by its
/// CLRs ([`Analysis::dropped`]).
#[derive(Default)]
struct Marks {
    /// Protocol of an unmarked transaction.
    default_logical: bool,
    /// Elected scheme per transaction, from `TxnScheme` records.
    elected: IdMap<TxnId, SchemeCode>,
}

impl Marks {
    fn new(default_logical: bool) -> Marks {
        Marks { default_logical, elected: IdMap::default() }
    }

    fn note(&mut self, bytes: &[u8]) -> QsResult<()> {
        if let Some(s) = record::frame_scheme(bytes)? {
            self.elected.insert(record::frame_txn(bytes)?, s);
        }
        Ok(())
    }

    /// Did `txn` run the logical (deferred-apply, no-steal) protocol?
    /// Mark-free logs answer from the flavor default without a lookup.
    fn is_logical(&self, txn: TxnId) -> bool {
        if self.elected.is_empty() {
            return self.default_logical;
        }
        self.elected.get(&txn).map_or(self.default_logical, |s| s.is_logical())
    }

    /// Is `txn` taken for physical only because it carries no mark?
    fn physical_by_default(&self, txn: TxnId) -> bool {
        !self.default_logical && !self.elected.contains_key(&txn)
    }
}

/// What analysis learned from the log: the router's transaction half
/// plus the workers' merged page half.
struct Analysis {
    marks: Marks,
    /// Physical loser candidates: txn → last LSN seen (undo starts there).
    /// Logical losers are not tracked — dropping them *is* their rollback.
    att: IdMap<TxnId, Lsn>,
    /// Logical transactions whose commit record was seen.
    committed: IdSet<TxnId>,
    /// Transactions with a CLR in the log and no `Abort` record yet.
    compensated: IdSet<TxnId>,
    /// Unmarked transactions of a log that can hold logical ones which
    /// ended in `Abort` without a CLR. A physical abort writes a CLR for
    /// every `Update` it logged, after it, so such a transaction was a
    /// logical one whose mark was truncated — its deferred ops never
    /// reached a page, and redo must not put them there — or a physical
    /// one whose only surviving records are of pages it created, which
    /// nothing references after the abort. Redo skips its records. The
    /// pages it named may still be listed in the DPT (the analysis step
    /// classifies a record at first sight), which can only move redo's
    /// start earlier.
    dropped: IdSet<TxnId>,
    /// Dirty-page table: page → recovery LSN. Empty until the workers'
    /// shards are absorbed.
    dpt: IdMap<PageId, Lsn>,
    /// Highest transaction id seen (id assignment resumes above it).
    max_txn: TxnId,
    /// Highest page id + 1 implied by the log.
    max_alloc: u64,
    /// The restart anchor: where analysis (and with it the analysis
    /// step's frame verification) starts.
    scan_from: Lsn,
    /// The run of consecutive records of one transaction the router is
    /// in: the transaction and, if it is a physical one, its latest LSN —
    /// written to `att` when the run ends, not once per record.
    run: (TxnId, Option<Lsn>),
}

impl Analysis {
    /// Nothing learned yet, analysis to start at `scan_from`.
    fn new(default_logical: bool, scan_from: Lsn) -> Analysis {
        Analysis {
            marks: Marks::new(default_logical),
            att: IdMap::default(),
            committed: IdSet::default(),
            compensated: IdSet::default(),
            dropped: IdSet::default(),
            dpt: IdMap::default(),
            max_txn: TxnId::INVALID,
            max_alloc: 0,
            scan_from,
            run: (TxnId::INVALID, None),
        }
    }

    /// Move the anchor of a physical-only log up to its checkpoint, if it
    /// has one: everything older is on disk or listed in the checkpoint's
    /// body, whose transactions enter the ATT here and whose dirty pages
    /// are returned as the DPT's seed. The anchor is the `Checkpoint`
    /// record the log header names: the header only advances once the
    /// record is durable, so a checkpoint the crash interrupted before
    /// that is never the anchor — it is one more record of the scan.
    fn seed_from_anchor(&mut self, log: &LogManager) -> QsResult<IdMap<PageId, Lsn>> {
        let ck = log.checkpoint_lsn();
        if ck.is_null() {
            return Ok(IdMap::default());
        }
        let body = record::frame_checkpoint_body(&log.read_frame(ck)?)?;
        self.att.extend(body.active_txns);
        self.scan_from = ck;
        // A body is snapshotted before its record is appended, under the
        // lock appends take, so a listed recLSN never exceeds the anchor;
        // holding it to that is what lets the single scan treat a listed
        // page's recLSN as final.
        Ok(body.dirty_pages.into_iter().map(|(page, rec_lsn)| (page, rec_lsn.min(ck))).collect())
    }

    /// Close the router's half and fold one worker's share of the DPT —
    /// disjoint by page from the others' — in.
    fn absorb(&mut self, dpt: impl IntoIterator<Item = (PageId, Lsn)>) {
        self.end_run();
        merge_min(&mut self.dpt, dpt);
    }

    /// Where a redo pass starts: the DPT's earliest recLSN, or `None` if
    /// no page is dirty. A checkpoint body can carry a recLSN that predates
    /// the truncated log start: the page was stolen and written home
    /// between the body's snapshot and the truncation that followed it,
    /// which is what allowed truncating past it. Those updates are on disk
    /// and the pageLSN test would skip them anyway, so clamp.
    fn redo_from(&self, log: &LogManager) -> Option<Lsn> {
        self.dpt.values().min().map(|&rec_lsn| rec_lsn.max(log.start_lsn()))
    }

    /// Must redo skip `txn`'s records? Only logical losers, and the
    /// aborted transactions analysis took for logical ones ([`dropped`]):
    /// their deferred ops never reached any page, and replaying them (via
    /// a shared page's DPT entry from another transaction) would install
    /// uncommitted data that nothing can undo.
    ///
    /// [`dropped`]: Analysis::dropped
    fn redo_skips(&self, txn: TxnId) -> bool {
        (self.marks.is_logical(txn) && !self.committed.contains(&txn))
            || self.dropped.contains(&txn)
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
    /// logical transactions, so the workers need marks, commits and aborts
    /// and an abort may be a logical one's ([`Analysis::dropped`]).
    fn route(&mut self, lsn: Lsn, bytes: &[u8], broadcast: bool) -> QsResult<Route> {
        let txn = record::frame_txn(bytes)?;
        if let Some(page) = record::frame_page(bytes)? {
            self.max_alloc = self.max_alloc.max(page.0 as u64 + 1);
            if broadcast && record::frame_tag(bytes)? == tag::CLR {
                self.compensated.insert(txn);
            }
            self.touch(txn, lsn);
            return Ok(Route::Page(page));
        }
        record::frame_verify(bytes)?;
        match record::frame_tag(bytes)? {
            tag::CHECKPOINT => {
                let body = record::frame_checkpoint_body(bytes)?;
                self.max_alloc = self.max_alloc.max(body.allocated_pages);
                return Ok(Route::Nowhere);
            }
            tag::TXN_SCHEME => {
                self.end_run();
                self.marks.note(bytes)?;
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
                if broadcast
                    && !self.compensated.remove(&txn)
                    && self.marks.physical_by_default(txn)
                {
                    self.dropped.insert(txn);
                }
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
fn merge_min(dpt: &mut IdMap<PageId, Lsn>, pages: impl IntoIterator<Item = (PageId, Lsn)>) {
    for (page, lsn) in pages {
        let rec_lsn = dpt.entry(page).or_insert(lsn);
        *rec_lsn = lsn.min(*rec_lsn);
    }
}

/// One worker's analysis half in the first of two scans: the dirty-page
/// table of the pages that hash to it.
#[derive(Default)]
struct PageShard {
    marks: Marks,
    dpt: IdMap<PageId, Lsn>,
    /// Logical transactions' page → first-LSN maps, parked until their
    /// commit record shows up.
    pending: IdMap<TxnId, IdMap<PageId, Lsn>>,
    /// The last page-bearing frame's (transaction, page): a repeat changes
    /// no table, so it costs no lookup.
    run: Option<(TxnId, PageId)>,
}

impl PageShard {
    fn new(default_logical: bool) -> PageShard {
        PageShard { marks: Marks::new(default_logical), ..PageShard::default() }
    }

    /// The analysis step for one frame: verify a page-bearing small frame
    /// (whole-page frames — 8 KB bodies — skip the checksum here; redo
    /// verifies the ones it applies) and note the page's first sighting.
    /// Physical records enter the DPT directly, keyed by page; a logical
    /// transaction's are parked and merged in at its commit. Marks,
    /// commits and aborts arrive by broadcast, already verified by the
    /// router, in log order with the shard's own frames.
    fn step(&mut self, lsn: Lsn, bytes: &[u8]) -> QsResult<()> {
        let t = record::frame_tag(bytes)?;
        let txn = record::frame_txn(bytes)?;
        let Some(page) = record::frame_page(bytes)? else {
            self.run = None;
            match t {
                tag::TXN_SCHEME => self.marks.note(bytes)?,
                tag::COMMIT => {
                    merge_min(&mut self.dpt, self.pending.remove(&txn).unwrap_or_default());
                }
                tag::ABORT => {
                    self.pending.remove(&txn);
                }
                _ => {}
            }
            return Ok(());
        };
        if t != tag::WHOLE_PAGE {
            record::frame_verify(bytes)?;
        }
        if self.run == Some((txn, page)) {
            return Ok(());
        }
        self.run = Some((txn, page));
        if self.marks.is_logical(txn) {
            self.pending.entry(txn).or_default().entry(page).or_insert(lsn);
        } else {
            self.dpt.entry(page).or_insert(lsn);
        }
        Ok(())
    }
}

/// Analysis and redo of `log` against the pages on `volume`: what the log
/// says about transactions and dirty pages, and every worker's redone
/// pages. One scan if the log holds only physical transactions, two if it
/// can hold logical ones (module docs).
fn replay(
    log: &LogManager,
    volume: &Volume,
    holds: Holds,
    cfg: RestartConfig,
    ph_analysis: &mut PhaseStat,
    wall: &mut RestartWall,
) -> QsResult<(Analysis, Vec<Redone>)> {
    // Logical work may precede any checkpoint (`Holds::logical`): such a
    // log is analyzed from its start, a physical-only one from its anchor.
    let mut a = Analysis::new(!holds.physical, log.start_lsn());
    let redone = if holds.logical {
        analyze(log, &mut a, cfg, ph_analysis, wall)?;
        redo(log, volume, &a, cfg, wall)?
    } else {
        analyze_and_redo(log, volume, &mut a, cfg, ph_analysis, wall)?
    };
    volume.ensure_allocated(a.max_alloc as usize)?;
    Ok((a, redone))
}

/// Forward analysis as a [`fan_out`] scan of a log that can hold logical
/// transactions: the router keeps the transaction half
/// ([`Analysis::route`]), each worker the page half of its pages
/// ([`PageShard::step`]).
fn analyze(
    log: &LogManager,
    a: &mut Analysis,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    wall: &mut RestartWall,
) -> QsResult<()> {
    let default_logical = a.marks.default_logical;
    let span = (a.scan_from, log.tail_lsn());
    ph.pages_read = log_pages(span.0, span.1);
    let route = |lsn: Lsn, bytes: &[u8]| {
        ph.records += 1;
        a.route(lsn, bytes, true)
    };
    let (shards, mut scan) = fan_out("analysis", log, span, cfg, route, |inbox| {
        let mut shard = PageShard::new(default_logical);
        inbox.each_frame(|lsn, bytes| shard.step(lsn, bytes))?;
        Ok(shard)
    })?;
    let merge = Instant::now();
    for shard in shards {
        a.absorb(shard.dpt);
    }
    scan.end_merge(merge);
    wall.scans.push(scan);
    Ok(())
}

/// Analysis and redo of a physical-only log in one [`fan_out`] scan of
/// `[min(seeded recLSNs, anchor), tail)`. Below the anchor only redo is
/// interested, and only in page-bearing frames; from the anchor on the
/// router runs [`Analysis::route`] and each worker the fused step
/// ([`RedoShard::step`]) on every frame it is sent. That is exact: a listed
/// page's recLSN is the seed's (≤ anchor), any other page's is its first
/// sighting at or above the anchor, which the step records before it
/// redoes the frame — and a frame below the anchor of a page the seed does
/// not list is below whatever recLSN the page may get.
fn analyze_and_redo(
    log: &LogManager,
    volume: &Volume,
    a: &mut Analysis,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    wall: &mut RestartWall,
) -> QsResult<Vec<Redone>> {
    let seed = a.seed_from_anchor(log)?;
    let anchor = a.scan_from;
    // The analysis pass is priced from the anchor, wherever the scan starts.
    ph.pages_read = log_pages(anchor, log.tail_lsn());
    let from = seed.values().copied().fold(anchor, Lsn::min);
    let route = |lsn: Lsn, bytes: &[u8]| {
        if lsn < anchor {
            return Ok(record::frame_page(bytes)?.map_or(Route::Nowhere, Route::Page));
        }
        ph.records += 1;
        a.route(lsn, bytes, false)
    };
    let work = |inbox: &mut Batches| {
        let mut shard = RedoShard::new(volume, Some(anchor));
        inbox.each_frame(|lsn, bytes| shard.step(lsn, bytes, |pid| seed.get(&pid).copied()))?;
        Ok(shard)
    };
    let (outs, mut scan) = fan_out("analysis+redo", log, (from, log.tail_lsn()), cfg, route, work)?;
    let merge = Instant::now();
    a.dpt = seed;
    let mut redone = Vec::with_capacity(outs.len());
    for shard in outs {
        a.absorb(shard.dpt());
        redone.push(shard.finish());
    }
    scan.end_merge(merge);
    wall.scans.push(scan);
    Ok(redone)
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
struct Batches<'a> {
    source: Source<'a>,
    clock: StageClock,
}

/// Where a worker's batches come from.
enum Source<'a> {
    /// The router's thread, in a pipelined scan.
    Channel(Receiver<FrameChunk>),
    /// The worker's own thread, in an inline scan: asking for the next
    /// batch reads and routes the next chunk.
    Inline(&'a mut dyn FnMut() -> Option<FrameChunk>),
}

impl Batches<'_> {
    /// Run `f` over every frame of every batch, in arrival order.
    fn each_frame(&mut self, mut f: impl FnMut(Lsn, &[u8]) -> QsResult<()>) -> QsResult<()> {
        for batch in self {
            for r in &batch.frames {
                f(r.lsn, batch.frame(r))?;
            }
        }
        Ok(())
    }
}

impl Iterator for Batches<'_> {
    type Item = FrameChunk;

    fn next(&mut self) -> Option<FrameChunk> {
        self.clock.busy();
        let batch = match &mut self.source {
            Source::Channel(rx) => rx.recv().ok(),
            Source::Inline(next) => next(),
        };
        self.clock.blocked();
        batch
    }
}

/// The scaffold every scan shares. Streams `[from, end)`; `route` sees
/// every frame on the calling thread (so it needs no synchronization) and
/// says which workers should get it; each worker runs `work` over its
/// batches (its share of each chunk's frames, sharing the chunk's buffer).
/// Returns the workers' results in worker-index order, and the stages'
/// wall-clock accounting. A scan of at least [`PIPELINE_MIN_CHUNKS`]
/// chunks is [`pipelined`] over `cfg.redo_workers` workers, a shorter one
/// runs [`inline`] as one worker.
fn fan_out<T: Send>(
    name: &'static str,
    log: &LogManager,
    (from, end): (Lsn, Lsn),
    cfg: RestartConfig,
    route: impl FnMut(Lsn, &[u8]) -> QsResult<Route>,
    work: impl Fn(&mut Batches) -> QsResult<T> + Sync,
) -> QsResult<(Vec<T>, ScanWall)> {
    let started = Instant::now();
    let span = end.0.saturating_sub(from.0.max(log.start_lsn().0));
    let (outs, mut scan) = if span < PIPELINE_MIN_CHUNKS * cfg.chunk_bytes as u64 {
        inline(log, (from, end), cfg, route, work)?
    } else {
        pipelined(log, (from, end), cfg, route, work)?
    };
    scan.name = name;
    scan.wall_ns = ns_since(started);
    Ok((outs, scan))
}

/// A scan on the calling thread: the one worker pulls each batch by
/// reading the next chunk and routing its frames itself. No thread, no
/// channel, and the bytes a frame is verified and applied from are the
/// ones this core has just read. The accounting reports the three roles'
/// busy time; nobody waits for anybody.
fn inline<T>(
    log: &LogManager,
    (from, end): (Lsn, Lsn),
    cfg: RestartConfig,
    mut route: impl FnMut(Lsn, &[u8]) -> QsResult<Route>,
    work: impl Fn(&mut Batches) -> QsResult<T>,
) -> QsResult<(Vec<T>, ScanWall)> {
    let mut scanner = ChunkedScanner::new(log, from, end, cfg.chunk_bytes);
    let mut scan = ScanWall::default();
    let mut failed = None;
    let mut next_batch = || loop {
        let reading = Instant::now();
        let chunk = match scanner.next_chunk() {
            Ok(Some(chunk)) => chunk,
            Ok(None) => return None,
            Err(e) => {
                failed = Some(e);
                return None;
            }
        };
        let routing = Instant::now();
        scan.reader.busy_ns += (routing - reading).as_nanos() as u64;
        let mut frames = Vec::with_capacity(chunk.frames.len());
        for r in &chunk.frames {
            match route(r.lsn, chunk.frame(r)) {
                Ok(Route::Nowhere) => {}
                Ok(Route::Page(_) | Route::All) => frames.push(*r),
                Err(e) => {
                    failed = Some(e);
                    return None;
                }
            }
        }
        scan.router.busy_ns += ns_since(routing);
        if !frames.is_empty() {
            return Some(FrameChunk { buf: chunk.buf, frames });
        }
    };
    let mut inbox = Batches { source: Source::Inline(&mut next_batch), clock: StageClock::start() };
    let out = work(&mut inbox);
    inbox.clock.busy();
    // What the inbox's clock calls blocked is the reading and routing above.
    let worked = inbox.clock.wall().busy_ns;
    scan.workers.push(StageWall { busy_ns: worked, blocked_ns: 0 });
    scan.log_bytes_read = scanner.bytes_read();
    // As in the pipeline, a worker's error is reported before the router's.
    let out = out?;
    failed.map_or(Ok((vec![out], scan)), Err)
}

/// A scan as a reader → router → workers → join pipeline over bounded
/// channels. A worker that fails hangs up its channel, which stops the
/// router; the worker's error is reported by the join.
fn pipelined<T: Send>(
    log: &LogManager,
    (from, end): (Lsn, Lsn),
    cfg: RestartConfig,
    mut route: impl FnMut(Lsn, &[u8]) -> QsResult<Route>,
    work: impl Fn(&mut Batches) -> QsResult<T> + Sync,
) -> QsResult<(Vec<T>, ScanWall)> {
    let workers = cfg.redo_workers.max(1);
    let mut clock = StageClock::start();
    std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel::<FrameChunk>(DEPTH);
            txs.push(tx);
            let work = &work;
            handles.push(s.spawn(move || {
                let mut inbox = Batches { source: Source::Channel(rx), clock: StageClock::start() };
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
                    // The next chunk's share is about as long as this one's.
                    let frames = std::mem::replace(refs, Vec::with_capacity(refs.len()));
                    let batch = FrameChunk { buf: Arc::clone(&chunk.buf), frames };
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
        let mut scan = ScanWall::default();
        let mut outs = Vec::with_capacity(workers);
        for h in handles {
            let (out, stage) = h.join().expect("restart worker panicked");
            scan.workers.push(stage);
            outs.push(out);
        }
        (scan.reader, scan.log_bytes_read) = reader.join().expect("log reader panicked");
        clock.blocked();
        scan.router = clock.wall();
        let outs = outs.into_iter().collect::<QsResult<Vec<T>>>()?;
        routed_all.map(|()| (outs, scan))
    })
}

/// Page-partitioned redo as a second [`fan_out`] scan: route every
/// page-bearing frame in `[redo_from, tail)` that redo must not skip to
/// its page's worker, which repeats history on it ([`RedoShard::step`]).
fn redo(
    log: &LogManager,
    volume: &Volume,
    a: &Analysis,
    cfg: RestartConfig,
    wall: &mut RestartWall,
) -> QsResult<Vec<Redone>> {
    let Some(redo_from) = a.redo_from(log) else {
        return Ok(Vec::new());
    };
    // One `redo_skips` answer per run of a transaction's records.
    let mut run = (TxnId::INVALID, a.redo_skips(TxnId::INVALID));
    let route = |_, bytes: &[u8]| {
        let Some(page) = record::frame_page(bytes)? else {
            return Ok(Route::Nowhere);
        };
        let txn = record::frame_txn(bytes)?;
        if txn != run.0 {
            run = (txn, a.redo_skips(txn));
        }
        Ok(if run.1 { Route::Nowhere } else { Route::Page(page) })
    };
    let (redone, scan) = fan_out("redo", log, (redo_from, log.tail_lsn()), cfg, route, |inbox| {
        let mut redo = RedoShard::new(volume, None);
        inbox.each_frame(|lsn, bytes| redo.step(lsn, bytes, |pid| a.dpt.get(&pid).copied()))?;
        Ok(redo.finish())
    })?;
    wall.scans.push(scan);
    Ok(redone)
}

/// Redo's epilogue: price the pass and install the workers' redone pages
/// into the pool as dirty, so undo sees them and the closing checkpoint
/// flushes them. One shard at a time, under shard → DPT → volume.
fn install(server: &Server, a: &Analysis, redone: Vec<Redone>, ph: &mut PhaseStat) -> QsResult<()> {
    let log = server.log.wal();
    let Some(redo_from) = a.redo_from(log) else {
        return Ok(());
    };
    // The paper's redo pass reads the log from the DPT's earliest recLSN;
    // that is the demand priced, whether or not this restart made it a
    // pass of its own.
    ph.pages_read = log_pages(redo_from, log.tail_lsn());
    // Install page-sorted within each shard so pool state and eviction
    // write-backs are identical for every worker count.
    let mut resident: Vec<(PageId, Page)> = Vec::new();
    for (stats, pages) in redone {
        ph.absorb(&stats);
        resident.extend(pages);
    }
    let (pool, tracer) = (&server.pool, &server.tracer);
    resident.sort_by_key(|&(pid, _)| (pool.shard_of(pid), pid.0));
    let mut resident = resident.into_iter().peekable();
    while let Some(&(first, _)) = resident.peek() {
        let shard = pool.shard_of(first);
        let mut pool_shard = pool.lock_shard(shard, tracer);
        let mut dpt = server.dpt.lock(tracer);
        let volume = server.volume.lock(tracer);
        while let Some((pid, page)) = resident.next_if(|&(pid, _)| pool.shard_of(pid) == shard) {
            // Restart pools are sized like production pools; eviction
            // during redo writes through (WAL is satisfied: everything is
            // in the durable log already).
            if let Some(ev) = pool_shard.insert(pid, page, true)? {
                if ev.dirty {
                    volume.write_page(ev.page_id, &ev.page)?;
                    ph.data_writes += 1;
                }
            }
            dpt.dirtied(pid, redo_from);
        }
    }
    Ok(())
}

/// What a worker knows of one of its pages. Both halves of the fused
/// step answer from it, so a frame that starts a page run costs one probe.
#[derive(Clone, Copy)]
struct PageEntry {
    /// The page's recLSN, or `Lsn::INVALID` while it has none (every frame
    /// is below that, so none is redone).
    rec_lsn: Lsn,
    /// The page's index in the worker's resident pages, once read.
    slot: Option<usize>,
}

/// One worker's tallies and its redone pages.
type Redone = (PhaseStat, Vec<(PageId, Page)>);

/// One worker's redo half — in a single scan its analysis half too: its
/// partition's pages, faulted from the volume on first use and owned
/// privately, and the page table that finds them.
struct RedoShard<'a> {
    volume: &'a Volume,
    /// A single scan's anchor, from which the shard runs the analysis step
    /// too; `None` in a second scan, whose frames the first one verified.
    anchor: Option<Lsn>,
    stats: PhaseStat,
    resident: Vec<(PageId, Page)>,
    /// One entry per page this worker has been sent a frame of.
    pages: IdMap<PageId, PageEntry>,
    /// The last frame's page and its entry: the rest of its run costs no
    /// lookup.
    run: Option<(PageId, PageEntry)>,
}

impl<'a> RedoShard<'a> {
    fn new(volume: &'a Volume, anchor: Option<Lsn>) -> RedoShard<'a> {
        RedoShard {
            volume,
            anchor,
            stats: phase("redo"),
            resident: Vec::new(),
            pages: IdMap::default(),
            run: None,
        }
    }

    /// The step for one page-bearing frame. From the anchor on, a single
    /// scan first runs the analysis step: verify a small frame (whole-page
    /// frames — 8 KB bodies — are verified only where redo applies them)
    /// and give a page without a recLSN its first sighting. Then redo:
    /// repeat history under the recLSN / pageLSN filters, applying the
    /// after-image straight from the shared chunk buffer; whole-page frames
    /// and small frames below the anchor (a checkpoint body can seed
    /// recLSNs under it) are verified before they are applied.
    /// `rec_lsn_of` is asked once per page, at its first frame: the
    /// checkpoint seed in a single scan, the absorbed DPT in a second one.
    fn step(
        &mut self,
        lsn: Lsn,
        bytes: &[u8],
        rec_lsn_of: impl FnOnce(PageId) -> Option<Lsn>,
    ) -> QsResult<()> {
        let t = record::frame_tag(bytes)?;
        let pid = record::frame_page(bytes)?.expect("router only sends page-bearing frames");
        let analyzed = self.anchor.is_some_and(|anchor| lsn >= anchor);
        if analyzed && t != tag::WHOLE_PAGE {
            record::frame_verify(bytes)?;
        }
        let entry = match &mut self.run {
            Some((run, entry)) if *run == pid => entry,
            stale => {
                let entry = *self.pages.entry(pid).or_insert_with(|| PageEntry {
                    rec_lsn: rec_lsn_of(pid).or(analyzed.then_some(lsn)).unwrap_or(Lsn::INVALID),
                    slot: None,
                });
                &mut stale.insert((pid, entry)).1
            }
        };
        if analyzed && entry.rec_lsn == Lsn::INVALID {
            // Seen below the anchor only, until this frame.
            entry.rec_lsn = lsn;
            self.pages.insert(pid, *entry);
        }
        if lsn < entry.rec_lsn {
            return Ok(());
        }
        let slot = match entry.slot {
            Some(slot) => slot,
            None => {
                let slot = self.resident.len();
                self.stats.data_reads += 1;
                self.resident.push((pid, self.volume.read_page(pid)?));
                entry.slot = Some(slot);
                self.pages.insert(pid, *entry);
                slot
            }
        };
        let page = &mut self.resident[slot].1;
        if page.lsn() >= lsn {
            return Ok(()); // effect already on disk image
        }
        self.stats.records += 1;
        if t == tag::WHOLE_PAGE || self.anchor.is_some_and(|anchor| lsn < anchor) {
            record::frame_verify(bytes)?;
        }
        apply_after_image(page, pid, t, bytes, lsn)
    }

    /// This worker's share of the DPT, read out of its page table.
    fn dpt(&self) -> impl Iterator<Item = (PageId, Lsn)> + '_ {
        let listed = self.pages.iter().filter(|(_, e)| e.rec_lsn != Lsn::INVALID);
        listed.map(|(&pid, e)| (pid, e.rec_lsn))
    }

    fn finish(self) -> Redone {
        (self.stats, self.resident)
    }
}

/// Undo pass plus restart epilogue: roll back the physical losers with
/// CLRs (none for a log that holds no physical transactions), resume
/// txn-id assignment, make the recovered state durable and truncate the
/// log. Returns the undo phase's tallies.
fn undo_and_finish(
    server: &Server,
    att: IdMap<TxnId, Lsn>,
    max_txn: TxnId,
    wall: &mut RestartWall,
) -> QsResult<PhaseStat> {
    let mut ph = phase("undo");
    let undo = Instant::now();
    // Undo in reverse order of recency, mirroring ARIES' single backward
    // pass over all losers.
    let mut losers: Vec<(TxnId, Lsn)> = att.into_iter().collect();
    losers.sort_by_key(|&(_, lsn)| std::cmp::Reverse(lsn));
    let mut txns = server.txns.lock(&server.tracer);
    for &(txn, last) in &losers {
        txns.restore(txn, last);
    }
    drop(txns);
    // One page cache across every loser chain: the random chain reads stop
    // re-hitting the log disk per record, and the report counts distinct
    // log pages actually fetched rather than one page per record undone.
    let mut cache = LogReadCache::new();
    for (txn, last) in losers {
        ph.records += server.undo_chain(txn, last, &mut cache)?;
        server.log_abort(txn)?;
    }
    ph.pages_read = cache.pages_fetched();
    wall.undo_ns = ns_since(undo);

    let checkpoint = Instant::now();
    *server.txns.lock(&server.tracer) = TxnTable::resuming_after(max_txn);
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
/// committed-transactions list and the body of the checkpoint the log
/// header names (the scan's first record); workers report image
/// candidates; the merge keeps the newest committed image per page — a
/// transaction's commit record always follows its page images, so the
/// list is complete by merge time — checksums only those winners, and
/// fills in from the body the pages the scan saw no committed image of.
/// The phase names keep the paper's backward-scan vocabulary, which the
/// report and `results/` are keyed on.
fn wpl_restart(server: &Server, wall: &mut RestartWall) -> QsResult<Vec<PhaseStat>> {
    let mut scan = phase("backward_scan");
    let mut rebuild = phase("table_rebuild");
    let cfg = server.config().restart;
    let log = server.log.wal();
    let end = log.durable_lsn();
    let ck = log.checkpoint_lsn();
    let stop = if ck.is_null() { log.start_lsn() } else { ck };
    scan.pages_read = log_pages(stop, end);

    let mut ctl: IdSet<TxnId> = IdSet::default();
    let mut max_txn = TxnId::INVALID;
    // The restart anchor is the checkpoint the header names, the first
    // record of the scan; one the crash interrupted before the header
    // named it sits later and is ignored.
    let mut anchor: Option<CheckpointBody> = None;
    let route = |lsn, bytes: &[u8]| {
        scan.records += 1;
        let t = record::frame_tag(bytes)?;
        if t == tag::WHOLE_PAGE {
            return Ok(record::frame_page(bytes)?.map_or(Route::Nowhere, Route::Page));
        }
        record::frame_verify(bytes)?;
        let txn = record::frame_txn(bytes)?;
        note_txn(&mut max_txn, txn);
        if t == tag::COMMIT {
            ctl.insert(txn);
        } else if t == tag::CHECKPOINT && lsn == ck {
            anchor = Some(record::frame_checkpoint_body(bytes)?);
        }
        Ok(Route::Nowhere)
    };
    let (outcomes, mut stages) =
        fan_out("backward_scan", log, (stop, end), cfg, route, image_worker)?;
    let merge = Instant::now();

    // The paper's backward scan reads each record with one random
    // log-page read; bill the meter the same total.
    server.meter().log_pages_read.fetch_add(scan.records, Ordering::Relaxed);

    let mut max_page = 0u32;
    let mut newest: IdMap<PageId, ImageCandidate> = IdMap::default();
    for cand in outcomes.into_iter().flatten() {
        note_txn(&mut max_txn, cand.txn);
        max_page = max_page.max(cand.pid.0 + 1);
        if ctl.contains(&cand.txn)
            && newest.get(&cand.pid).is_none_or(|best| cand.frame.lsn > best.frame.lsn)
        {
            newest.insert(cand.pid, cand);
        }
    }
    let mut restored: Vec<ImageCandidate> = newest.into_values().collect();
    restored.sort_by_key(|c| c.pid.0);
    let mut claimed: IdSet<PageId> = IdSet::default();
    let mut wpl = server.wpl.lock(&server.tracer);
    for c in restored {
        let f = c.frame;
        record::frame_verify(&c.buf[f.offset as usize..(f.offset + f.len) as usize])?;
        claimed.insert(c.pid);
        wpl.insert_restored(c.pid, f.lsn, c.txn);
    }

    // A checkpoint record sits exactly at `stop`, inside the scan, so
    // the streamed pass normally found the anchor already.
    if !ck.is_null() && anchor.is_none() {
        anchor = Some(record::frame_checkpoint_body(&log.read_frame(ck)?)?);
        server.meter().log_pages_read.fetch_add(1, Ordering::Relaxed);
        rebuild.pages_read += 1;
    }
    let volume = server.volume.lock(&server.tracer);
    if let Some(body) = anchor {
        for e in &body.wpl_entries {
            // A scanned image is newer than any listed one; among the
            // listed versions of a page `insert_restored` keeps the
            // newest (a committed one can sit under the image of a
            // transaction that committed after the checkpoint).
            if (e.committed || ctl.contains(&e.txn)) && !claimed.contains(&e.page) {
                wpl.insert_restored(e.page, e.lsn, e.txn);
            }
            rebuild.records += 1;
            max_page = max_page.max(e.page.0 + 1);
        }
        volume.ensure_allocated(body.allocated_pages as usize)?;
    }
    volume.ensure_allocated(max_page as usize)?;
    drop((wpl, volume));
    *server.txns.lock(&server.tracer) = TxnTable::resuming_after(max_txn);
    stages.end_merge(merge);
    wall.scans.push(stages);
    Ok(vec![scan, rebuild])
}

/// One WPL image worker: run each routed whole-page frame through the
/// boundary check (the trailer echo catches torn frames) and report it as
/// an [`ImageCandidate`] without materializing or checksumming the 8 KB
/// body; the merge verifies the winners. Restored pages are served
/// straight from the log by the WPL table, exactly as in normal running.
fn image_worker(inbox: &mut Batches) -> QsResult<Vec<ImageCandidate>> {
    let mut images = Vec::new();
    for batch in inbox {
        for &frame in &batch.frames {
            let bytes = batch.frame(&frame);
            images.push(ImageCandidate {
                pid: record::frame_page(bytes)?.expect("whole-page frame"),
                txn: record::frame_txn(bytes)?,
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
    use qs_types::QsError;
    use qs_wal::LogRecord;
    use std::collections::BTreeMap;

    const PHYSICAL: Holds = Holds { physical: true, logical: false };
    const LOGICAL: Holds = Holds { physical: false, logical: true };
    const MIXED: Holds = Holds { physical: true, logical: true };

    /// Pages on the test volume, each holding one 64-byte object.
    const PAGES: usize = 512;

    fn fresh_log() -> LogManager {
        let body = 1 << 20;
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
        LogManager::format(media as Arc<dyn StableMedia>, body).unwrap()
    }

    fn blank_page(pid: PageId) -> Page {
        let mut page = Page::new();
        page.insert(pid, &[0u8; 64]).unwrap();
        page
    }

    fn fresh_volume() -> Volume {
        let media = Arc::new(MemDisk::new(Volume::required_bytes(PAGES)));
        let volume = Volume::format(media as Arc<dyn StableMedia>, PAGES).unwrap();
        for _ in 0..PAGES {
            let pid = volume.allocate().unwrap();
            volume.write_page(pid, &blank_page(pid)).unwrap();
        }
        volume
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

    fn whole_page(txn: u64, page: u32) -> LogRecord {
        let mut image = blank_page(PageId(page));
        image.object_mut(PageId(page), 0).unwrap().fill(0xA0 + txn as u8);
        LogRecord::WholePage {
            txn: TxnId(txn),
            prev: Lsn::NULL,
            page: PageId(page),
            image: image.bytes().to_vec(),
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

    /// Append a checkpoint carrying `body` and make it the restart anchor.
    fn checkpoint(log: &LogManager, body: CheckpointBody) -> Lsn {
        let ck = log.append(&LogRecord::Checkpoint { body }).unwrap();
        log.set_checkpoint(ck).unwrap();
        ck
    }

    /// A redone page image; prints as its pageLSN, not as 8 KB.
    #[derive(PartialEq)]
    struct Image(Vec<u8>);

    impl std::fmt::Debug for Image {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "Image(pageLSN {})", Page::from_bytes(&self.0).unwrap().lsn())
        }
    }

    /// Everything `replay` hands on, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Learned {
        att: IdMap<TxnId, Lsn>,
        dpt: IdMap<PageId, Lsn>,
        committed: IdSet<TxnId>,
        max_txn: TxnId,
        max_alloc: u64,
        records: u64,
        /// Redo's `(records applied, data pages read)`.
        redo: (u64, u64),
        /// The redone pages, page-sorted.
        pages: Vec<(PageId, Image)>,
    }

    /// What `replay` learns and redoes, and how many scans it took.
    fn learned(
        log: &LogManager,
        volume: &Volume,
        holds: Holds,
        workers: usize,
        chunk_bytes: usize,
    ) -> (Learned, usize) {
        let cfg = RestartConfig { redo_workers: workers, chunk_bytes };
        let mut ph = phase("analysis");
        let mut wall = RestartWall::default();
        let (a, redone) = replay(log, volume, holds, cfg, &mut ph, &mut wall).unwrap();
        let mut redo = phase("redo");
        let mut pages = Vec::new();
        for (stats, resident) in redone {
            redo.absorb(&stats);
            pages.extend(resident.into_iter().map(|(pid, p)| (pid, Image(p.bytes().to_vec()))));
        }
        pages.sort_by_key(|&(pid, _)| pid.0);
        let l = Learned {
            att: a.att,
            dpt: a.dpt,
            committed: a.committed,
            max_txn: a.max_txn,
            max_alloc: a.max_alloc,
            records: ph.records,
            redo: (redo.records, redo.data_reads),
            pages,
        };
        (l, wall.scans.len())
    }

    /// The serial, decode-every-record restart the engine replaced: one
    /// analysis loop from the anchor, every table updated per record,
    /// then one redo loop from the DPT's minimum.
    fn reference(log: &LogManager, volume: &Volume, holds: Holds) -> Learned {
        let default_logical = !holds.physical;
        let mut marks: IdMap<TxnId, SchemeCode> = IdMap::default();
        let mut pending: IdMap<TxnId, IdMap<PageId, Lsn>> = IdMap::default();
        // Unmarked, aborted and never compensated: logical after all.
        let mut compensated: IdSet<TxnId> = IdSet::default();
        let mut dropped: IdSet<TxnId> = IdSet::default();
        let mut l = Learned {
            att: IdMap::default(),
            dpt: IdMap::default(),
            committed: IdSet::default(),
            max_txn: TxnId::INVALID,
            max_alloc: 0,
            records: 0,
            redo: (0, 0),
            pages: Vec::new(),
        };
        let ck = log.checkpoint_lsn();
        let mut from = log.start_lsn();
        if !(holds.logical || ck.is_null()) {
            let LogRecord::Checkpoint { body } = log.read_record(ck).unwrap().0 else {
                panic!("anchor is not a checkpoint");
            };
            l.att.extend(body.active_txns);
            l.dpt.extend(body.dirty_pages);
            from = ck;
        }
        for item in log.scan_forward(from) {
            let (lsn, rec) = item.unwrap();
            l.records += 1;
            if let LogRecord::Checkpoint { body } = &rec {
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
                    let unmarked = !marks.contains_key(&txn);
                    if holds.logical && !compensated.remove(&txn) && unmarked && !is_logical {
                        dropped.insert(txn);
                    }
                }
                _ => {
                    if matches!(rec, LogRecord::Clr { .. }) {
                        compensated.insert(txn);
                    }
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

        let Some(&redo_from) = l.dpt.values().min() else {
            return l;
        };
        let mut pages: BTreeMap<PageId, Page> = BTreeMap::new();
        for item in log.scan_forward(redo_from) {
            let (lsn, rec) = item.unwrap();
            let (Some(pid), txn) = (rec.page(), rec.txn()) else { continue };
            let is_logical = marks.get(&txn).map_or(default_logical, |s| s.is_logical());
            if (is_logical && !l.committed.contains(&txn)) || dropped.contains(&txn) {
                continue;
            }
            if l.dpt.get(&pid).is_none_or(|&rec_lsn| lsn < rec_lsn) {
                continue;
            }
            let page = pages.entry(pid).or_insert_with(|| {
                l.redo.1 += 1;
                volume.read_page(pid).unwrap()
            });
            if page.lsn() >= lsn {
                continue;
            }
            l.redo.0 += 1;
            match &rec {
                LogRecord::Update { slot, offset, after, .. }
                | LogRecord::Clr { slot, offset, after, .. }
                | LogRecord::UpdateLogical { slot, offset, after, .. } => {
                    let off = *offset as usize;
                    page.object_mut(pid, *slot).unwrap()[off..off + after.len()]
                        .copy_from_slice(after);
                }
                LogRecord::WholePage { image, .. } => *page = Page::from_bytes(image).unwrap(),
                _ => {}
            }
            page.set_lsn(lsn);
        }
        l.pages = pages.into_iter().map(|(pid, p)| (pid, Image(p.bytes().to_vec()))).collect();
        l
    }

    /// `replay` must learn and redo exactly what the reference does,
    /// whatever the pool and chunk size, in `scans` passes over the log.
    fn assert_matches_reference(
        log: &LogManager,
        volume: &Volume,
        holds: Holds,
        scans: usize,
        what: &str,
    ) -> Learned {
        let want = reference(log, volume, holds);
        for workers in [1, 2, 4, 8] {
            for chunk in [8192, 29] {
                let (got, took) = learned(log, volume, holds, workers, chunk);
                assert_eq!(got, want, "{what}: workers={workers} chunk={chunk}");
                assert_eq!(took, scans, "{what}: workers={workers} chunk={chunk}: scans");
            }
        }
        want
    }

    fn redone(l: &Learned, page: u32) -> Option<&Image> {
        l.pages.iter().find(|(pid, _)| *pid == PageId(page)).map(|(_, image)| image)
    }

    #[test]
    fn physical_log_seeded_from_a_checkpoint_body_is_read_once() {
        let (log, volume) = (fresh_log(), fresh_volume());
        // Below the anchor. Page 3: listed by the body, records on both
        // sides of the anchor. Page 40: not listed (it was flushed), so
        // its early record must not be redone — and its next record is
        // the first thing its worker sees above the anchor, in the same
        // run. Page 90: only the body speaks for it. Page 91: listed from
        // its second record on; the first is on disk.
        log.append(&update(2, 91)).unwrap();
        let early = log.append(&update(1, 3)).unwrap();
        log.append(&update(1, 3)).unwrap();
        let later = log.append(&update(2, 91)).unwrap();
        log.append(&update(2, 40)).unwrap();
        log.append(&commit(2)).unwrap();
        let body = CheckpointBody {
            active_txns: vec![(TxnId(1), early), (TxnId(3), early)],
            dirty_pages: vec![(PageId(3), early), (PageId(90), early), (PageId(91), later)],
            allocated_pages: 120,
            ..CheckpointBody::default()
        };
        let ck = checkpoint(&log, body);
        let forty = log.append(&update(5, 40)).unwrap();
        log.append(&update(1, 3)).unwrap();
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
        log.append(&whole_page(4, 300)).unwrap();
        log.append(&update(4, 300)).unwrap();
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
        let last = log.append(&update(1, 7)).unwrap();
        // Page 7 went home after its last record: read, but not redone.
        let mut flushed = blank_page(PageId(7));
        flushed.set_lsn(last);
        volume.write_page(PageId(7), &flushed).unwrap();

        let l = assert_matches_reference(&log, &volume, PHYSICAL, 1, "physical");
        assert_eq!(l.dpt[&PageId(3)], early, "the body's recLSN survives the scan");
        assert_eq!(l.dpt[&PageId(90)], early, "a page only the body lists stays listed");
        assert_eq!(l.dpt[&PageId(40)], forty, "an unlisted page's recLSN is above the anchor");
        assert!(l.dpt[&PageId(91)] < ck && redone(&l, 91).is_some());
        assert!(redone(&l, 90).is_none(), "no record, no redo");
        let image = Page::from_bytes(&redone(&l, 40).expect("redone above the anchor").0).unwrap();
        assert_eq!(image.lsn(), forty);
        assert_eq!(image.object(PageId(40), 0).unwrap()[..8], [5u8; 8]);
        assert!(l.att.contains_key(&TxnId(3)), "a transaction only the body lists is a loser");
        assert_eq!(l.att.keys().map(|t| t.0).max(), Some(6));
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(6), 301));
        assert!(l.committed.is_empty(), "physical commits are not tracked");
    }

    #[test]
    fn physical_log_without_dirty_pages_or_without_a_checkpoint() {
        // Everything flushed before the checkpoint, only page-less
        // records after it: an empty DPT, nothing redone, still one scan.
        let (log, volume) = (fresh_log(), fresh_volume());
        log.append(&update(1, 3)).unwrap();
        log.append(&update(2, 4)).unwrap();
        log.append(&commit(1)).unwrap();
        checkpoint(&log, CheckpointBody { allocated_pages: 9, ..CheckpointBody::default() });
        log.append(&commit(2)).unwrap();
        let l = assert_matches_reference(&log, &volume, PHYSICAL, 1, "empty DPT");
        assert!(l.dpt.is_empty() && l.pages.is_empty() && l.att.is_empty());
        assert_eq!((l.records, l.redo, l.max_alloc), (2, (0, 0), 9));

        // No checkpoint at all: the anchor is the log start.
        let (log, volume) = (fresh_log(), fresh_volume());
        for page in 0..20u32 {
            log.append(&update(1 + page as u64 % 3, page % 7)).unwrap();
        }
        log.append(&commit(1)).unwrap();
        let l = assert_matches_reference(&log, &volume, PHYSICAL, 1, "no checkpoint");
        assert_eq!((l.dpt.len(), l.redo), (7, (20, 7)));
    }

    #[test]
    fn logical_log_with_committer_aborter_and_loser_sharing_pages() {
        let (log, volume) = (fresh_log(), fresh_volume());
        // Three transactions interleaved over the same 16 pages (which
        // spread over every shard at 2, 4 and 8 workers): only the
        // committer's pages may reach the DPT, at *its* first LSNs.
        let mut first_by_committer = IdMap::default();
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

        let l = assert_matches_reference(&log, &volume, LOGICAL, 2, "logical");
        assert_eq!(l.dpt, first_by_committer);
        assert_eq!(l.committed, IdSet::from_iter([TxnId(1)]));
        assert!(l.att.is_empty(), "logical transactions are never undone");
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(3), 501));
        assert_eq!(l.redo, (48, 16), "the committer's records only");
    }

    #[test]
    fn adaptive_log_interleaving_both_protocols() {
        let (log, volume) = (fresh_log(), fresh_volume());
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
            log.append(&whole_page(4, page + 20)).unwrap();
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

        let l = assert_matches_reference(&log, &volume, MIXED, 2, "adaptive");
        assert_eq!(l.att.keys().copied().collect::<Vec<_>>(), [TxnId(1)], "the physical loser");
        assert_eq!(l.committed, IdSet::from_iter([TxnId(2), TxnId(6)]));
        assert!(!l.dpt.contains_key(&PageId(25)), "the logical loser's pages stay out");
        assert!(redone(&l, 25).is_none(), "and are not redone");
        assert!(l.dpt[&PageId(0)] < l.dpt[&PageId(40)], "page 0 keeps txn 1's earlier LSN");
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(6), 41));
    }

    #[test]
    fn an_unmarked_abort_without_clrs_is_not_redone() {
        let (log, volume) = (fresh_log(), fresh_volume());
        // Every mark but txn 1's was truncated away. Txn 2 elected RLOG: its
        // logical update lands after txn 1's on the same bytes, and it
        // aborts with nothing to compensate. Txn 3 was physical: an update,
        // its CLR, an abort. Txn 4 was physical and created page 7: undo
        // walks past a created page, so no CLR either.
        log.append(&mark(1, SchemeCode::Pd)).unwrap();
        log.append(&update(1, 5)).unwrap();
        log.append(&logical(2, 5)).unwrap();
        log.append(&update(3, 6)).unwrap();
        let clr = log
            .append(&LogRecord::Clr {
                txn: TxnId(3),
                prev: Lsn::NULL,
                page: PageId(6),
                slot: 0,
                offset: 0,
                after: vec![0; 8],
                undo_next: Lsn::NULL,
            })
            .unwrap();
        log.append(&LogRecord::PageAlloc { txn: TxnId(4), prev: Lsn::NULL, page: PageId(7) })
            .unwrap();
        log.append(&whole_page(4, 7)).unwrap();
        for txn in [2, 3, 4] {
            log.append(&abort(txn)).unwrap();
        }
        log.append(&commit(1)).unwrap();

        let l = assert_matches_reference(&log, &volume, MIXED, 2, "unmarked aborts");
        let image = |page: u32| Page::from_bytes(&redone(&l, page).expect("listed").0).unwrap();
        assert_eq!(image(5).object(PageId(5), 0).unwrap()[..8], [1u8; 8], "txn 1's bytes");
        assert_eq!(image(6).lsn(), clr, "a compensated abort is repeated, CLR included");
        assert!(redone(&l, 7).is_none() && l.dpt.contains_key(&PageId(7)), "listed, not redone");
        assert_eq!(l.redo.0, 3, "txn 1's update, txn 3's update and CLR");
    }

    /// The scans `replay` makes of a physical log, as it accounts them.
    fn scans(
        log: &LogManager,
        volume: &Volume,
        workers: usize,
        chunk_bytes: usize,
    ) -> QsResult<Vec<ScanWall>> {
        let cfg = RestartConfig { redo_workers: workers, chunk_bytes };
        let mut wall = RestartWall::default();
        replay(log, volume, PHYSICAL, cfg, &mut phase("analysis"), &mut wall)?;
        Ok(wall.scans)
    }

    #[test]
    fn a_short_scan_runs_inline_and_a_long_one_through_the_pipeline() {
        let (log, volume) = (fresh_log(), fresh_volume());
        for page in 0..40u32 {
            log.append(&update(1 + page as u64 % 3, page)).unwrap();
        }
        log.append(&commit(1)).unwrap();
        let span = log.tail_lsn().0 - log.start_lsn().0;
        // One chunk short of the pipeline: one worker stage whatever the
        // pool size, and nobody waited for anybody.
        let chunk = (span / PIPELINE_MIN_CHUNKS) as usize + 1;
        let scan = &scans(&log, &volume, 4, chunk).unwrap()[0];
        assert_eq!(scan.workers.len(), 1);
        assert_eq!((scan.reader.blocked_ns, scan.router.blocked_ns), (0, 0));
        assert_eq!(scan.workers[0].blocked_ns, 0);
        assert!(scan.log_bytes_read >= span);
        // Long enough: the pool.
        let chunk = (span / PIPELINE_MIN_CHUNKS) as usize;
        let scan = &scans(&log, &volume, 4, chunk).unwrap()[0];
        assert_eq!(scan.workers.len(), 4);
        assert!(scan.log_bytes_read >= span);
    }

    #[test]
    fn corruption_fails_an_inline_scan_and_a_pipelined_one_alike() {
        // A bit of an `Update` frame, which its page's worker verifies,
        // then of a `Commit` frame, which only the router reads.
        for worker_finds_it in [true, false] {
            let body = 1 << 20;
            let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
            let log = LogManager::format(Arc::clone(&media) as Arc<dyn StableMedia>, body).unwrap();
            let volume = fresh_volume();
            let mut victim = Lsn::NULL;
            for page in 0..40u32 {
                let lsn = log.append(&update(1, page)).unwrap();
                if page == 20 && worker_finds_it {
                    victim = lsn;
                }
            }
            let committed = log.append(&commit(1)).unwrap();
            if !worker_finds_it {
                victim = committed;
            }
            log.append(&update(2, 7)).unwrap();
            log.force(log.tail_lsn()).unwrap();
            // Byte 10 of a frame is in its transaction id.
            let at = PAGE_SIZE + (victim.0 as usize + 10) % body;
            let mut byte = [0u8];
            media.read_at(at, &mut byte).unwrap();
            byte[0] ^= 0x10;
            media.write_at(at, &byte).unwrap();
            for (workers, chunk) in [(1, 8192), (2, 8192), (1, 29), (2, 29)] {
                match scans(&log, &volume, workers, chunk) {
                    Err(QsError::LogCorrupt { .. }) => {}
                    other => panic!(
                        "worker_finds_it={worker_finds_it} workers={workers} chunk={chunk}: {other:?}"
                    ),
                }
            }
        }
    }

    /// Run one worker function over every frame of `log`, as a one-worker
    /// pipelined `fan_out` would route them.
    fn run_worker<T>(log: &LogManager, work: impl FnOnce(&mut Batches) -> T) -> T {
        let (tx, rx) = sync_channel(DEPTH);
        let mut scanner = ChunkedScanner::new(log, log.start_lsn(), log.tail_lsn(), 8192);
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Some(chunk) = scanner.next_chunk().unwrap() {
                    tx.send(chunk).unwrap();
                }
            });
            work(&mut Batches { source: Source::Channel(rx), clock: StageClock::start() })
        })
    }

    /// The trap a `(txn, page)`-keyed worker table falls into: a
    /// many-transaction log with one record per page and transaction
    /// must cost a worker one entry per *page* — in the analysis step of
    /// two scans and in the page table of the fused step alike — and
    /// every frame starts a page run.
    #[test]
    fn worker_page_table_has_one_entry_per_distinct_page() {
        let (log, volume) = (fresh_log(), fresh_volume());
        let mut first: IdMap<PageId, Lsn> = IdMap::default();
        for txn in 1..=60u64 {
            for page in 0..50u32 {
                let lsn = log.append(&update(txn, page)).unwrap();
                first.entry(PageId(page)).or_insert(lsn);
            }
        }
        let shard = run_worker(&log, |inbox| {
            let mut shard = PageShard::new(false);
            inbox.each_frame(|lsn, bytes| shard.step(lsn, bytes)).unwrap();
            shard
        });
        assert_eq!(shard.dpt, first);
        let fused = run_worker(&log, |inbox| {
            let mut shard = RedoShard::new(&volume, Some(log.start_lsn()));
            inbox.each_frame(|lsn, bytes| shard.step(lsn, bytes, |_| None)).unwrap();
            shard
        });
        assert_eq!(fused.pages.len(), 50);
        assert!(fused.stats.data_reads <= 50 && fused.resident.len() <= 50);
        assert_eq!(fused.dpt().collect::<IdMap<_, _>>(), first, "recLSN = first LSN");
        assert_eq!(fused.stats.records, 3000);
        assert_matches_reference(&log, &volume, PHYSICAL, 1, "60 transactions x 50 pages");
    }
}
