//! Restart recovery: one streamed, page-partitioned replay for every
//! flavor ([`replay`]). `RestartConfig::redo_workers` only sizes the worker
//! pool — one worker runs the same reader → router → worker [`pipelined`]
//! scan as eight, and a scan too short to gain from a pipeline
//! ([`PIPELINE_MIN_CHUNKS`]) runs the same three roles [`inline`].
//!
//! What differs per flavor is which transaction *protocols* its log can
//! hold ([`Holds`]), and so the rule a page's frames follow. Physical
//! transactions steal pages: analysis → redo → undo ([Frank92]'s
//! client-server ARIES [Mohan92]), redo idempotent because the diffing
//! schemes log *after-images*. Logical ones are no-steal: replayed whole if
//! committed, else dropped. Page-log (WPL) ones rebuild the WPL table
//! (§3.4.3): each worker drives a [`WplTable`] of its pages with the calls
//! the running server makes — an image frame is logged, a commit commits,
//! an abort aborts — so the newest committed image of each page wins, and
//! no page is read. A log without `TxnScheme` marks is a log in which
//! every transaction "elected" the flavor's one protocol.
//!
//! Every record touching a page goes to the one worker that owns the page
//! (the buffer pool's Fibonacci hash), in log order — all after-image redo
//! needs, since records for *different* pages commute (DESIGN.md §6c).
//! The reader streams the log in large aligned chunks
//! ([`qs_wal::ChunkedScanner`]); the router walks each chunk's frames with
//! the cheap frame accessors, keeps the transaction table and fans
//! page-bearing frames out; the workers run one step ([`RedoShard::step`])
//! per frame straight out of the shared chunk buffer — analysis (checksum,
//! DPT) and redo, one page-table probe per run of frames naming the page,
//! no `LogRecord` and no allocation per record. The log is read **once**.
//! A frame whose transaction's fate is still open — a no-steal one's, or
//! an unmarked one's that may yet prove a logical abort ([`Fates`]) — is
//! *stashed* in its transaction's arena (the server's deferred-frame
//! store, [`Stash`]) until the broadcast commit or abort reaches the
//! worker, which then settles it the way a no-steal commit does: page by
//! page, each page's frames in log order, the pageLSN never moving back.
//! Redo skips a frame the page held when it was read from the volume. A
//! physical-only log never stashes. The [`PhaseStat`]s price the paper's
//! passes.
//!
//! Verify-once is the checksum policy: every frame restart *uses* is
//! checksummed exactly once before its result is used — page-bearing
//! small frames by the page's worker in the analysis step (or in the redo
//! step when they lie below the anchor), page-less frames by the router,
//! whole-page frames where redo applies them, where they are stashed, or, a WPL
//! image, where it is installed as its page's winner — and every frame it
//! merely walks has its framing checked.
//!
//! Workers return their results in worker-index order and pages are
//! installed page-sorted, so the recovered state, the restart report and
//! everything downstream are byte-identical for any worker count and any
//! chunk size (`tests/restart_equivalence.rs`).

use crate::protocol::Holds;
use crate::server::pages::apply_after_image;
use crate::server::{RestartConfig, Server};
use crate::shard::shard_index;
use crate::stash::Stash;
use crate::txn::TxnTable;
use crate::wpl::WplTable;
use qs_storage::{Page, Volume};
use qs_trace::{PhaseStat, RestartWall, ScanWall, StageClock, StageWall};
use qs_types::sync::Mutex;
use qs_types::{IdMap, IdSet, Lsn, PageId, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use qs_wal::{
    stream_chunks_timed, CheckpointBody, ChunkedScanner, FrameChunk, FrameRef, LogManager,
    LogReadCache, SchemeCode, WplCheckpointEntry,
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
    let holds = server.facts().restart;
    let cfg = server.config().restart;
    let mut wall = RestartWall::default();
    // WPL's phases keep the paper's backward-scan vocabulary, which the
    // report and `results/` are keyed on.
    let names =
        if holds.page_log { ["backward_scan", "table_rebuild"] } else { ["analysis", "redo"] };
    let (mut ph_analysis, mut ph_redo) = (phase(names[0]), phase(names[1]));
    // The redo workers read the volume; nothing else runs yet.
    let volume = server.volume.lock(&server.tracer);
    let log = server.log.wal();
    let finish = |shard: RedoShard| shard.finish();
    let (a, redone) = replay(log, &volume, holds, cfg, &mut ph_analysis, &mut wall, finish)?;
    drop(volume);
    let merge = Instant::now();
    install(server, &a, redone, &mut ph_redo)?;
    wall.scans.last_mut().expect("replay scans the log").end_merge(merge);
    let mut phases = vec![ph_analysis, ph_redo];
    if holds.page_log {
        // The paper's backward scan reads each record with one random
        // log-page read; bill the meter the same total. Nothing is undone
        // and no checkpoint is taken.
        server.meter().log_pages_read.fetch_add(phases[0].records, Ordering::Relaxed);
        *server.txns.lock(&server.tracer) = TxnTable::resuming_after(a.max_txn);
        return Ok((phases, wall));
    }
    let ph_undo = undo_and_finish(server, a.att, a.max_txn, &mut wall)?;
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
/// CLRs ([`Fates`]).
#[derive(Default)]
struct Marks {
    /// Protocol of an unmarked transaction.
    default_logical: bool,
    /// Elected scheme per transaction, from `TxnScheme` records.
    elected: IdMap<TxnId, SchemeCode>,
}

impl Marks {
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

/// The fate of every transaction whose end the router has seen, in a log
/// that can hold logical ones: a commit applies its frames,
/// an abort drops them — unless the transaction is unmarked and logged a
/// CLR, which makes it physical, so history is repeated. (A physical abort
/// writes a CLR for every `Update`: an unmarked abort without one was
/// logical, its mark truncated, or physical with only created pages left.
/// Its pages are still listed.) Only the router sees every CLR. It enters a
/// fate before it routes the end record, usually chunks before a worker
/// reaches it.
type Fates = Mutex<IdMap<TxnId, Fate>>;

/// What analysis learned from the log: the router's transaction half
/// plus the workers' merged page half.
struct Analysis {
    marks: Marks,
    /// Physical loser candidates: txn → last LSN seen (undo starts there).
    /// Logical losers are not tracked — dropping them *is* their rollback.
    att: IdMap<TxnId, Lsn>,
    /// Transactions with a CLR in the log and no `Abort` record yet.
    compensated: IdSet<TxnId>,
    /// Dirty-page table: page → recovery LSN, merged from the workers'.
    dpt: IdMap<PageId, Lsn>,
    /// Highest transaction id seen (id assignment resumes above it).
    max_txn: TxnId,
    /// Highest page id + 1 implied by the log.
    max_alloc: u64,
    /// Where analysis starts ([`Analysis::anchor`]).
    anchor: Lsn,
    /// The run of consecutive records of one transaction the router is
    /// in: the transaction and, if it is a physical one, its latest LSN —
    /// written to `att` when the run ends, not once per record.
    run: (TxnId, Option<Lsn>),
}

impl Analysis {
    /// Nothing learned yet.
    fn new(default_logical: bool) -> Analysis {
        Analysis {
            marks: Marks { default_logical, ..Marks::default() },
            att: IdMap::default(),
            compensated: IdSet::default(),
            dpt: IdMap::default(),
            max_txn: TxnId::INVALID,
            max_alloc: 0,
            anchor: Lsn::NULL,
            run: (TxnId::INVALID, None),
        }
    }

    /// The restart anchor — where analysis and the analysis step's frame
    /// verification start — and the seeds of the workers' page tables.
    /// Logical work may precede any checkpoint, so a log that can hold it
    /// is anchored at its start; any other at the checkpoint the log
    /// header names, if any (one the crash interrupted is one more record
    /// of the scan). All older work is on disk or in its body, whose
    /// transactions enter the ATT here and whose dirty pages (a physical
    /// log's) and WPL-table entries (a page-log one's) are the seeds.
    fn anchor(&mut self, log: &LogManager, holds: Holds) -> QsResult<CheckpointBody> {
        let ck = log.checkpoint_lsn();
        if holds.logical || ck.is_null() {
            self.anchor = log.start_lsn();
            return Ok(CheckpointBody::default());
        }
        self.anchor = ck;
        let mut body = record::frame_checkpoint_body(&log.read_frame(ck)?)?;
        self.att.extend(body.active_txns.drain(..));
        let pages = body.wpl_entries.iter().map(|e| e.page.0 as u64 + 1);
        self.max_alloc = pages.fold(self.max_alloc, u64::max);
        // A body is snapshotted before its record is appended, so a listed
        // recLSN never exceeds the anchor; holding it to that makes it final.
        body.dirty_pages.iter_mut().for_each(|(_, lsn)| *lsn = (*lsn).min(ck));
        Ok(body)
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

    /// The router's half of analysis: track transactions (a mark precedes
    /// its transaction's page records, so forward order classifies every
    /// record correctly at first sight), verify the page-less frames —
    /// nobody else reads them — and say which worker(s) need the frame: in
    /// a log of logical or page-log transactions, every worker needs every
    /// mark, commit and abort.
    fn route(&mut self, lsn: Lsn, bytes: &[u8], shared: &Shared) -> QsResult<Route> {
        let txn = record::frame_txn(bytes)?;
        if let Some(page) = record::frame_page(bytes)? {
            self.max_alloc = self.max_alloc.max(page.0 as u64 + 1);
            if shared.fates.is_some() && record::frame_tag(bytes)? == tag::CLR {
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
            t @ (tag::COMMIT | tag::ABORT) => {
                self.end_run();
                self.att.remove(&txn);
                if let Some(fates) = &shared.fates {
                    let compensated = self.compensated.remove(&txn);
                    let applied =
                        t == tag::COMMIT || (compensated && self.marks.physical_by_default(txn));
                    fates.lock().insert(txn, if applied { Fate::Apply } else { Fate::Drop });
                }
            }
            _ => {
                self.touch(txn, lsn);
                return Ok(Route::Nowhere);
            }
        }
        note_txn(&mut self.max_txn, txn);
        Ok(if shared.holds.logical || shared.holds.page_log { Route::All } else { Route::Nowhere })
    }
}

/// What every worker of a scan reads: nobody changes it, except the
/// router, which fills `fates`.
struct Shared<'a> {
    volume: &'a Volume,
    holds: Holds,
    /// Where analysis, and with it the analysis step, starts.
    anchor: Lsn,
    /// The anchor body's recLSNs (a physical-only log's checkpoint).
    seed: IdMap<PageId, Lsn>,
    /// The anchor body's WPL-table entries (a page-log log's checkpoint).
    listed: Vec<WplCheckpointEntry>,
    /// `Some` when the log can hold logical transactions.
    fates: Option<Fates>,
}

/// Analysis and redo of `log` against the pages on `volume` in one scan
/// of `[min(seeded recLSNs, anchor), tail)`, each worker's shard handed to
/// `finish` once its share of the DPT is merged. Below the anchor only
/// redo reads, page-bearing frames. That is exact: a seeded page's recLSN
/// is the seed's (≤ anchor), any other's its first listed frame at or
/// above the anchor, which the step records before it redoes the frame.
/// A scan of at least [`PIPELINE_MIN_CHUNKS`] chunks is [`pipelined`] over
/// the pool, a shorter one runs [`inline`] as one worker; either way the
/// router sees every frame on the calling thread and each worker its
/// share of each chunk's frames, sharing the chunk's buffer.
fn replay<T>(
    log: &LogManager,
    volume: &Volume,
    holds: Holds,
    cfg: RestartConfig,
    ph: &mut PhaseStat,
    wall: &mut RestartWall,
    mut finish: impl FnMut(RedoShard) -> T,
) -> QsResult<(Analysis, Vec<T>)> {
    let mut a = Analysis::new(!holds.physical);
    let body = a.anchor(log, holds)?;
    let (anchor, seed, listed) =
        (a.anchor, body.dirty_pages.into_iter().collect(), body.wpl_entries);
    let fates = holds.logical.then(Fates::default);
    let shared = Shared { volume, holds, anchor, seed, listed, fates };
    // The analysis pass is priced from the anchor, wherever the scan starts.
    let (from, end) = (shared.seed.values().copied().fold(anchor, Lsn::min), log.tail_lsn());
    ph.pages_read = log_pages(anchor, end);
    let route = |lsn: Lsn, bytes: &[u8]| {
        if lsn < anchor {
            return Ok(record::frame_page(bytes)?.map_or(Route::Nowhere, Route::Page));
        }
        ph.records += 1;
        a.route(lsn, bytes, &shared)
    };
    let work = |inbox: &mut Batches| {
        let mut shard = RedoShard::new(&shared, inbox.part);
        for batch in inbox {
            shard.take(&batch)?;
        }
        shard.end_scan()?;
        Ok(shard)
    };
    let started = Instant::now();
    let span = end.0.saturating_sub(from.0.max(log.start_lsn().0));
    let (shards, mut scan) = if span < PIPELINE_MIN_CHUNKS * cfg.chunk_bytes as u64 {
        inline(log, (from, end), cfg, route, work)?
    } else {
        pipelined(log, (from, end), cfg, route, work)?
    };
    scan.name = if holds.page_log { "backward_scan" } else { "analysis+redo" };
    scan.wall_ns = ns_since(started);
    let merge = Instant::now();
    a.end_run();
    // The workers' shares of the DPT are disjoint by page. Every seeded
    // page a worker saw kept its seed or an earlier recLSN; the rest are
    // the seed's.
    let mut out = Vec::with_capacity(shards.len());
    for shard in shards {
        a.dpt.extend(shard.dpt());
        out.push(finish(shard));
    }
    for (page, rec_lsn) in shared.seed {
        a.dpt.entry(page).or_insert(rec_lsn);
    }
    scan.end_merge(merge);
    wall.scans.push(scan);
    volume.ensure_allocated(a.max_alloc as usize)?;
    Ok((a, out))
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
    /// The pages it carries: those [`shard_index`] sends to worker `.0` of
    /// `.1`.
    part: (usize, usize),
}

/// Where a worker's batches come from.
enum Source<'a> {
    /// The router's thread, in a pipelined scan.
    Channel(Receiver<FrameChunk>),
    /// The worker's own thread, in an inline scan: asking for the next
    /// batch reads and routes the next chunk.
    Inline(&'a mut dyn FnMut() -> Option<FrameChunk>),
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
    let source = Source::Inline(&mut next_batch);
    let mut inbox = Batches { source, clock: StageClock::start(), part: (0, 1) };
    let out = work(&mut inbox);
    inbox.clock.busy();
    // What the inbox's clock calls blocked is the reading and routing above.
    let worked = inbox.clock.wall().busy_ns;
    scan.workers.push(StageWall { busy_ns: worked, blocked_ns: 0 });
    (scan.log_bytes_read, scan.chunk_buffers) = (scanner.bytes_read(), scanner.buffers());
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
        for i in 0..workers {
            let (tx, rx) = sync_channel::<FrameChunk>(DEPTH);
            txs.push(tx);
            let work = &work;
            handles.push(s.spawn(move || {
                let (source, clock) = (Source::Channel(rx), StageClock::start());
                let mut inbox = Batches { source, clock, part: (i, workers) };
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
        let read = reader.join().expect("log reader panicked");
        (scan.reader, scan.log_bytes_read, scan.chunk_buffers) = read;
        clock.blocked();
        scan.router = clock.wall();
        let outs = outs.into_iter().collect::<QsResult<Vec<T>>>()?;
        routed_all.map(|()| (outs, scan))
    })
}

/// The replay's epilogue. A page-log log's: merge the workers' WPL
/// tables, disjoint by page, into the server's (§3.4.3). An image the scan
/// found is the only frame of its page restart uses, so it is read back
/// and verified here, once; one only the anchor's body lists is trusted as
/// the body is. Restored pages are served straight from the log, as in
/// normal running. Any other log's: price the redo pass and install the
/// workers' redone pages into the pool as dirty, so undo sees them and the
/// closing checkpoint flushes them — one shard at a time, under shard →
/// DPT → volume.
fn install(server: &Server, a: &Analysis, redone: Vec<Redone>, ph: &mut PhaseStat) -> QsResult<()> {
    let log = server.log.wal();
    let mut resident = Vec::new();
    let mut wpl = server.wpl.lock(&server.tracer);
    for (stats, pages, table) in redone {
        ph.absorb(&stats);
        resident.extend(pages);
        wpl.merge(table);
    }
    for e in wpl.checkpoint_entries().iter().filter(|e| e.lsn >= a.anchor) {
        log.read_frame(e.lsn)?;
    }
    drop(wpl);
    let Some(redo_from) = a.redo_from(log) else {
        return Ok(());
    };
    // The paper's redo pass reads the log from the DPT's earliest recLSN;
    // that is the demand priced, whether or not this restart made it a
    // pass of its own.
    ph.pages_read = log_pages(redo_from, log.tail_lsn());
    // Install page-sorted within each shard so pool state and eviction
    // write-backs are identical for every worker count.
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
struct PageEntry {
    /// The page's recLSN, or `Lsn::INVALID` while it has none (every frame
    /// is below that, so none is redone).
    rec_lsn: Lsn,
    /// Its image, read from the volume at the first frame redo applies.
    page: Option<Page>,
    /// The pageLSN the image had on the volume: redo skips every frame at
    /// or below it, in whatever order the frames are laid.
    read_lsn: Lsn,
}

impl PageEntry {
    /// The page `pid` of this entry, read from the volume at its first
    /// use, and its pageLSN there.
    #[inline(always)]
    fn read(
        &mut self,
        pid: PageId,
        volume: &Volume,
        stats: &mut PhaseStat,
    ) -> QsResult<(&mut Page, Lsn)> {
        let page = match &mut self.page {
            Some(page) => page,
            unread => {
                stats.data_reads += 1;
                let page = volume.read_page(pid)?;
                self.read_lsn = page.lsn();
                unread.insert(page)
            }
        };
        Ok((page, self.read_lsn))
    }
}

/// What becomes of a transaction's frames: applied, dropped, or — until
/// its commit or abort — open. An unmarked transaction still open at the
/// scan's end is physical (applied, then undone), any other a loser.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Apply,
    Drop,
    Open,
}

/// One worker's tallies, its redone pages and its pages' WPL table (a
/// page-log log's; any other's is empty).
type Redone = (PhaseStat, Vec<(PageId, Page)>, WplTable);

/// One worker: the fused analysis + redo step over its partition's frames,
/// the page table that finds its pages, and its stashed frames.
struct RedoShard<'a> {
    shared: &'a Shared<'a>,
    /// `shared.anchor` and whether end records are broadcast (a log of
    /// logical or page-log transactions), copied: the step reads them
    /// every frame, and `shared` lives beside what the router writes every
    /// frame.
    anchor: Lsn,
    gated: bool,
    stats: PhaseStat,
    /// Marks seen so far; they arrive by broadcast.
    marks: Marks,
    /// One entry per page this worker was sent a frame of, and its index.
    pages: Vec<(PageId, PageEntry)>,
    index: IdMap<PageId, usize>,
    /// The last frame's page and entry: the rest of its run costs no lookup.
    run: Option<(PageId, usize)>,
    /// The last frame's transaction and [`RedoShard::sight`]'s answer.
    txn_run: Option<(TxnId, bool, Fate)>,
    /// The frames of the transactions whose fate was open at sight.
    stash: Stash,
    /// A page-log log's WPL table of this worker's pages, in place of redo.
    wpl: Option<WplTable>,
}

impl<'a> RedoShard<'a> {
    /// The worker of `part`, its WPL table seeded with its share of the
    /// anchor's entries, one record each: a committed one is committed
    /// again, any other waits for its transaction's end, which the scan
    /// broadcasts, or is aborted at the scan's end.
    fn new(shared: &'a Shared<'a>, (index, workers): (usize, usize)) -> RedoShard<'a> {
        let mut stats = phase("redo");
        let wpl = shared.holds.page_log.then(|| {
            let mut wpl = WplTable::new();
            for e in shared.listed.iter().filter(|e| shard_index(e.page, workers) == index) {
                wpl.restore(e);
                stats.records += 1;
            }
            wpl
        });
        RedoShard {
            shared,
            anchor: shared.anchor,
            gated: shared.holds.logical || shared.holds.page_log,
            stats,
            marks: Marks { default_logical: !shared.holds.physical, ..Marks::default() },
            pages: Vec::new(),
            index: IdMap::default(),
            run: None,
            txn_run: None,
            stash: Stash::default(),
            wpl,
        }
    }

    /// One batch the router sent, frame by frame. A transaction's fate may
    /// have been decided since the last batch, so the run cache is dropped.
    fn take(&mut self, batch: &FrameChunk) -> QsResult<()> {
        self.txn_run = None;
        for r in &batch.frames {
            self.step(r.lsn, batch.frame(r))?;
        }
        Ok(())
    }

    /// The step for one frame the router sent. A mark is noted; a commit
    /// or an abort settles what its transaction stashed. For a page's
    /// frame, from the anchor on, the analysis step comes first: verify a
    /// small frame (whole-page frames are verified only where redo applies
    /// them) and, unless its transaction is logical and not known to
    /// commit, list its page. Then redo applies the frame
    /// ([`RedoShard::target`]), or skips it if its transaction drops it —
    /// or stashes it in its transaction's arena, if its fate is open.
    fn step(&mut self, lsn: Lsn, bytes: &[u8]) -> QsResult<()> {
        let t = record::frame_tag(bytes)?;
        let Some(pid) = record::frame_page(bytes)? else {
            return self.broadcast(t, bytes);
        };
        let analyzed = lsn >= self.anchor;
        if analyzed && t != tag::WHOLE_PAGE {
            record::frame_verify(bytes)?;
        }
        let (txn, listed, fate) = if !self.gated {
            // A physical-only log: every frame lists its page and is redone.
            (TxnId::INVALID, true, Fate::Apply)
        } else if let Some(wpl) = &mut self.wpl {
            // An image: only its LSN and transaction are kept, and
            // `install` verifies it if it wins.
            wpl.log_page(pid, lsn, record::frame_txn(bytes)?);
            return Ok(());
        } else {
            self.sight(record::frame_txn(bytes)?)?
        };
        let i = self.entry(pid);
        let e = &mut self.pages[i].1;
        if analyzed && listed && lsn < e.rec_lsn {
            e.rec_lsn = lsn;
        }
        match fate {
            Fate::Apply => {
                if let Some(page) = self.target(i, lsn)? {
                    // Whole-page frames and frames below the anchor: verified here.
                    if t == tag::WHOLE_PAGE || !analyzed {
                        record::frame_verify(bytes)?;
                    }
                    return apply_after_image(page, pid, t, bytes, lsn);
                }
            }
            Fate::Drop => {}
            Fate::Open => {
                // Only a whole-page frame's image is kept, so it is verified now.
                if t == tag::WHOLE_PAGE {
                    record::frame_verify(bytes)?;
                }
                self.stash.arena(txn).push(pid, bytes, lsn)?;
            }
        }
        Ok(())
    }

    /// A mark, commit or abort: only a gated log broadcasts them. A
    /// page-log log's transaction commits or aborts in the WPL table as
    /// its end record says.
    // Out of line: a physical-only log's step never gets here.
    #[inline(never)]
    fn broadcast(&mut self, t: u8, bytes: &[u8]) -> QsResult<()> {
        if t == tag::TXN_SCHEME {
            return self.marks.note(bytes);
        }
        let txn = record::frame_txn(bytes)?;
        if let Some(wpl) = &mut self.wpl {
            match t {
                tag::COMMIT => wpl.on_commit(txn),
                _ => abort(wpl, txn),
            }
            return Ok(());
        }
        let fates = self.shared.fates.as_ref().expect("a broadcast end record");
        let fate = fates.lock()[&txn];
        self.settle(txn, fate)
    }

    /// `pid`'s index in the page table, entered at its first frame with the
    /// checkpoint seed's recLSN if the seed lists the page.
    #[inline(always)]
    fn entry(&mut self, pid: PageId) -> usize {
        match self.run {
            Some((run, i)) if run == pid => i,
            _ => {
                let (pages, seed) = (&mut self.pages, &self.shared.seed);
                let i = *self.index.entry(pid).or_insert_with(|| {
                    let rec_lsn = seed.get(&pid).copied().unwrap_or(Lsn::INVALID);
                    pages.push((pid, PageEntry { rec_lsn, page: None, read_lsn: Lsn::NULL }));
                    pages.len() - 1
                });
                self.run = Some((pid, i));
                i
            }
        }
    }

    /// The page of entry `i` a frame at `lsn` is redone onto — read from
    /// the volume at the first frame the recLSN filter lets through — or
    /// `None` if redo skips the frame: it is below the recLSN, or its
    /// effect was on the page when it was read (pageLSN).
    // Inlined into the step: a call per frame costs physical-only logs
    // ≈ 5 % of their per-frame worker time (`micro` `restart/worker_frame`).
    #[inline(always)]
    fn target(&mut self, i: usize, lsn: Lsn) -> QsResult<Option<&mut Page>> {
        let (pid, e) = &mut self.pages[i];
        if lsn < e.rec_lsn {
            return Ok(None);
        }
        let (page, read_lsn) = e.read(*pid, self.shared.volume, &mut self.stats)?;
        if lsn <= read_lsn {
            return Ok(None);
        }
        self.stats.records += 1;
        Ok(Some(page))
    }

    /// A frame of `txn`: the transaction, whether the frame lists its page
    /// at sight — all do but a logical transaction's not known to commit —
    /// and its fate so far, by its mark, then by the router's [`Fates`]. A
    /// frame never overtakes its own transaction's stashed ones: a
    /// transaction whose fate was published after some of its frames were
    /// stashed is settled before its next frame is applied (the router
    /// runs ahead, DESIGN.md §6c).
    fn sight(&mut self, txn: TxnId) -> QsResult<(TxnId, bool, Fate)> {
        if let Some((run, listed, fate)) = self.txn_run.filter(|&(run, ..)| run == txn) {
            return Ok((run, listed, fate));
        }
        let fate = match (self.marks.elected.get(&txn), &self.shared.fates) {
            (Some(s), _) if !s.is_logical() => Fate::Apply,
            (_, Some(fates)) => fates.lock().get(&txn).copied().unwrap_or(Fate::Open),
            _ => Fate::Open,
        };
        let listed = fate == Fate::Apply || self.marks.physical_by_default(txn);
        self.txn_run = Some((txn, listed, fate));
        if fate != Fate::Open && self.stash.get(txn).is_some() {
            self.settle(txn, fate)?;
        }
        Ok((txn, listed, fate))
    }

    /// Give `txn` its fate. If it applies, lay its stashed frames the way a
    /// no-steal commit does — page by page, ascending, each page's frames
    /// in log order, the pageLSN never moving back — but those the page
    /// held when it was read; an applied frame lists its page at its LSN if
    /// that is the page's earliest. The frames were verified at sight, or a
    /// whole-page one as it was stashed. The arena is kept as a spare.
    fn settle(&mut self, txn: TxnId, fate: Fate) -> QsResult<()> {
        let Some(mut arena) = self.stash.take(txn) else {
            return Ok(());
        };
        arena.by_page();
        let mut next = arena.run_from(0).filter(|_| fate == Fate::Apply);
        while let Some(run) = next {
            let i = self.entry(run.page);
            let (pid, e) = &mut self.pages[i];
            e.rec_lsn = e.rec_lsn.min(run.first);
            let (page, read_lsn) = e.read(*pid, self.shared.volume, &mut self.stats)?;
            self.stats.records += arena.lay_run(&run, page, |lsn| lsn <= read_lsn)?.count;
            next = arena.run_from(run.range.end);
        }
        self.stash.recycle(arena);
        Ok(())
    }

    /// The scan's end: settle what is still open — an unmarked transaction
    /// is physical, applied now and rolled back by undo; a logical one is
    /// a loser, dropped, and a page-log one aborted. No arena stays open.
    fn end_scan(&mut self) -> QsResult<()> {
        if let Some(wpl) = &mut self.wpl {
            for txn in wpl.open_txns() {
                abort(wpl, txn);
            }
        }
        for txn in self.stash.open() {
            let physical = self.marks.physical_by_default(txn);
            self.settle(txn, if physical { Fate::Apply } else { Fate::Drop })?;
        }
        debug_assert_eq!(self.stash.held().0, 0, "an arena is left open");
        Ok(())
    }

    /// This worker's share of the DPT, read out of its page table.
    fn dpt(&self) -> impl Iterator<Item = (PageId, Lsn)> + '_ {
        let listed = self.pages.iter().filter(|(_, e)| e.rec_lsn != Lsn::INVALID);
        listed.map(|(pid, e)| (*pid, e.rec_lsn))
    }

    fn finish(self) -> Redone {
        let resident = self.pages.into_iter().filter_map(|(pid, e)| Some((pid, e.page?)));
        (self.stats, resident.collect(), self.wpl.unwrap_or_default())
    }
}

/// A page-log transaction's abort, as [`Server::wpl_abort`] makes it.
fn abort(wpl: &mut WplTable, txn: TxnId) {
    for pid in wpl.take_logged(txn) {
        wpl.on_abort(txn, pid);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StableParts;
    use crate::{RecoveryFlavor, ServerConfig};
    use qs_storage::{MemDisk, StableMedia};
    use qs_types::QsError;
    use qs_wal::LogRecord;
    use std::collections::BTreeMap;

    const PHYSICAL: Holds = Holds { physical: true, logical: false, page_log: false };
    const LOGICAL: Holds = Holds { physical: false, logical: true, page_log: false };
    const MIXED: Holds = Holds { physical: true, logical: true, page_log: false };
    const PAGE_LOG: Holds = Holds { physical: false, logical: false, page_log: true };

    /// Pages on the test volume, each holding two 64-byte objects: under
    /// record locks two transactions update one page, an object each.
    const PAGES: usize = 512;

    fn fresh_log() -> LogManager {
        let body = 1 << 20;
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
        LogManager::format(media as Arc<dyn StableMedia>, body).unwrap()
    }

    fn blank_page(pid: PageId) -> Page {
        let mut page = Page::new();
        page.insert(pid, &[0u8; 64]).unwrap();
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
        update_on(txn, page, 0)
    }

    /// An update of object `slot` of `page`.
    fn update_on(txn: u64, page: u32, slot: u16) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(txn),
            prev: Lsn::NULL,
            page: PageId(page),
            slot,
            offset: 0,
            before: vec![0; 8],
            after: vec![txn as u8; 8],
        }
    }

    fn logical(txn: u64, page: u32) -> LogRecord {
        logical_on(txn, page, 0)
    }

    fn logical_on(txn: u64, page: u32, slot: u16) -> LogRecord {
        logical_val(txn, page, slot, txn as u8)
    }

    /// A logical update writing `val` over object `slot` of `page`.
    fn logical_val(txn: u64, page: u32, slot: u16, val: u8) -> LogRecord {
        LogRecord::UpdateLogical {
            txn: TxnId(txn),
            prev: Lsn::NULL,
            page: PageId(page),
            slot,
            offset: 0,
            after: vec![val; 8],
        }
    }

    fn whole_page(txn: u64, page: u32) -> LogRecord {
        let mut image = blank_page(PageId(page));
        image.object_mut(PageId(page), 0).unwrap().fill(0xA0u8.wrapping_add(txn as u8));
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
        max_txn: TxnId,
        max_alloc: u64,
        records: u64,
        /// Redo's `(records applied, data pages read)`.
        redo: (u64, u64),
        /// The redone pages, page-sorted.
        pages: Vec<(PageId, Image)>,
        /// A page-log log's restored WPL table, page-sorted.
        versions: Vec<(PageId, Lsn, TxnId)>,
    }

    /// What `replay` learns and redoes — in one scan, with no arena left
    /// open, and in a physical-only log none ever filled — and the bytes of
    /// stash its workers allocated.
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
        let (mut arenas, mut stashed) = (0, 0);
        let finish = |shard: RedoShard| {
            let (open, held, bytes) = shard.stash.held();
            assert_eq!(open, 0, "an arena is left open");
            arenas += held;
            stashed += bytes;
            shard.finish()
        };
        let (a, redone) = replay(log, volume, holds, cfg, &mut ph, &mut wall, finish).unwrap();
        assert_eq!(wall.scans.len(), 1, "the log is read once");
        if !holds.logical {
            assert_eq!((arenas, stashed), (0, 0), "a physical-only log stashed a frame");
        }
        let mut redo = phase("redo");
        let (mut pages, mut versions) = (Vec::new(), Vec::new());
        for (stats, resident, wpl) in redone {
            redo.absorb(&stats);
            pages.extend(resident.into_iter().map(|(pid, p)| (pid, Image(p.bytes().to_vec()))));
            assert!(wpl.open_txns().is_empty(), "a page-log transaction is left open");
            for e in wpl.checkpoint_entries() {
                assert!(e.committed, "an uncommitted image of {} is restored", e.page);
                versions.push((e.page, e.lsn, e.txn));
            }
        }
        pages.sort_by_key(|&(pid, _)| pid.0);
        versions.sort_by_key(|&(pid, ..)| pid.0);
        let l = Learned {
            att: a.att,
            dpt: a.dpt,
            max_txn: a.max_txn,
            max_alloc: a.max_alloc,
            records: ph.records,
            redo: (redo.records, redo.data_reads),
            pages,
            versions,
        };
        (l, stashed)
    }

    /// The serial, decode-every-record restart the engine replaced: one
    /// analysis loop from the anchor, every table updated per record,
    /// then one redo loop from the DPT's minimum — or, for a page-log log,
    /// the newest committed image per page among the anchor body's entries
    /// and the images the loop saw.
    fn reference(log: &LogManager, volume: &Volume, holds: Holds) -> Learned {
        let default_logical = !holds.physical;
        let mut marks: IdMap<TxnId, SchemeCode> = IdMap::default();
        let mut pending: IdMap<TxnId, IdMap<PageId, Lsn>> = IdMap::default();
        // Unmarked, aborted and never compensated: logical after all.
        let mut compensated: IdSet<TxnId> = IdSet::default();
        let mut dropped: IdSet<TxnId> = IdSet::default();
        let mut committed: IdSet<TxnId> = IdSet::default();
        let mut l = Learned {
            att: IdMap::default(),
            dpt: IdMap::default(),
            max_txn: TxnId::INVALID,
            max_alloc: 0,
            records: 0,
            redo: (0, 0),
            pages: Vec::new(),
            versions: Vec::new(),
        };
        let ck = log.checkpoint_lsn();
        let mut from = log.start_lsn();
        // A page-log log's images: (page, LSN, transaction, listed committed).
        let mut images: Vec<(PageId, Lsn, TxnId, bool)> = Vec::new();
        if !(holds.logical || ck.is_null()) {
            let LogRecord::Checkpoint { body } = log.read_record(ck).unwrap().0 else {
                panic!("anchor is not a checkpoint");
            };
            l.att.extend(body.active_txns);
            l.dpt.extend(body.dirty_pages);
            // Each listed entry is a record of the table rebuild.
            for e in body.wpl_entries {
                l.max_alloc = l.max_alloc.max(e.page.0 as u64 + 1);
                l.redo.0 += 1;
                images.push((e.page, e.lsn, e.txn, e.committed));
            }
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
                    if is_logical || holds.page_log {
                        committed.insert(txn);
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
                        if holds.page_log {
                            images.push((page, lsn, txn, false));
                        } else if is_logical {
                            pending.entry(txn).or_default().entry(page).or_insert(lsn);
                        } else {
                            l.dpt.entry(page).or_insert(lsn);
                        }
                    }
                }
            }
        }

        if holds.page_log {
            let mut newest: BTreeMap<PageId, (Lsn, TxnId)> = BTreeMap::new();
            for (page, lsn, txn, listed) in images {
                if (listed || committed.contains(&txn))
                    && newest.get(&page).is_none_or(|v| lsn > v.0)
                {
                    newest.insert(page, (lsn, txn));
                }
            }
            l.versions = newest.into_iter().map(|(page, (lsn, txn))| (page, lsn, txn)).collect();
            return l;
        }
        let Some(&redo_from) = l.dpt.values().min() else {
            return l;
        };
        let mut pages: BTreeMap<PageId, Page> = BTreeMap::new();
        for item in log.scan_forward(redo_from) {
            let (lsn, rec) = item.unwrap();
            let (Some(pid), txn) = (rec.page(), rec.txn()) else { continue };
            let is_logical = marks.get(&txn).map_or(default_logical, |s| s.is_logical());
            if (is_logical && !committed.contains(&txn)) || dropped.contains(&txn) {
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
    /// whatever the pool and chunk size (29-byte chunks: one frame or two
    /// per chunk, pipelined, a transaction's frames far from its commit).
    fn assert_matches_reference(
        log: &LogManager,
        volume: &Volume,
        holds: Holds,
        what: &str,
    ) -> Learned {
        let want = reference(log, volume, holds);
        for workers in [1, 2, 4, 8] {
            for chunk in [8192, 29] {
                let (got, _) = learned(log, volume, holds, workers, chunk);
                assert_eq!(got, want, "{what}: workers={workers} chunk={chunk}");
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

        let l = assert_matches_reference(&log, &volume, PHYSICAL, "physical");
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
        let l = assert_matches_reference(&log, &volume, PHYSICAL, "empty DPT");
        assert!(l.dpt.is_empty() && l.pages.is_empty() && l.att.is_empty());
        assert_eq!((l.records, l.redo, l.max_alloc), (2, (0, 0), 9));

        // No checkpoint at all: the anchor is the log start.
        let (log, volume) = (fresh_log(), fresh_volume());
        for page in 0..20u32 {
            log.append(&update(1 + page as u64 % 3, page % 7)).unwrap();
        }
        log.append(&commit(1)).unwrap();
        let l = assert_matches_reference(&log, &volume, PHYSICAL, "no checkpoint");
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

        let l = assert_matches_reference(&log, &volume, LOGICAL, "logical");
        assert_eq!(l.dpt, first_by_committer);
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
            // Unmarked: its mark was truncated, so it is physical. It
            // shares pages 6-11 with transaction 1 while both are open, so
            // it writes another object (record locks).
            log.append(&update_on(3, page + 6, 1)).unwrap();
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

        let l = assert_matches_reference(&log, &volume, MIXED, "adaptive");
        assert_eq!(l.att.keys().copied().collect::<Vec<_>>(), [TxnId(1)], "the physical loser");
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

        let l = assert_matches_reference(&log, &volume, MIXED, "unmarked aborts");
        let image = |page: u32| Page::from_bytes(&redone(&l, page).expect("listed").0).unwrap();
        assert_eq!(image(5).object(PageId(5), 0).unwrap()[..8], [1u8; 8], "txn 1's bytes");
        assert_eq!(image(6).lsn(), clr, "a compensated abort is repeated, CLR included");
        assert!(redone(&l, 7).is_none() && l.dpt.contains_key(&PageId(7)), "listed, not redone");
        assert_eq!(l.redo.0, 3, "txn 1's update, txn 3's update and CLR");
    }

    /// The scans `replay` makes of a log, as it accounts them.
    fn scans(
        log: &LogManager,
        volume: &Volume,
        holds: Holds,
        workers: usize,
        chunk_bytes: usize,
    ) -> QsResult<Vec<ScanWall>> {
        let cfg = RestartConfig { redo_workers: workers, chunk_bytes };
        let mut wall = RestartWall::default();
        let finish = |shard: RedoShard| shard.finish();
        replay(log, volume, holds, cfg, &mut phase("analysis"), &mut wall, finish)?;
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
        let scan = &scans(&log, &volume, PHYSICAL, 4, chunk).unwrap()[0];
        assert_eq!(scan.workers.len(), 1);
        assert_eq!((scan.reader.blocked_ns, scan.router.blocked_ns), (0, 0));
        assert_eq!(scan.workers[0].blocked_ns, 0);
        assert!(scan.log_bytes_read >= span);
        // Long enough: the pool.
        let chunk = (span / PIPELINE_MIN_CHUNKS) as usize;
        let scan = &scans(&log, &volume, PHYSICAL, 4, chunk).unwrap()[0];
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
                match scans(&log, &volume, PHYSICAL, workers, chunk) {
                    Err(QsError::LogCorrupt { .. }) => {}
                    other => panic!(
                        "worker_finds_it={worker_finds_it} workers={workers} chunk={chunk}: {other:?}"
                    ),
                }
            }
        }
    }

    /// A stashed frame is verified before anything of it is used: a small
    /// one at sight, a whole-page one when its image is kept — here the
    /// frames of a no-steal transaction that goes on to commit.
    #[test]
    fn a_corrupt_parked_frame_fails_the_scan() {
        for whole_page_victim in [false, true] {
            let body = 1 << 20;
            let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
            let log = LogManager::format(Arc::clone(&media) as Arc<dyn StableMedia>, body).unwrap();
            let volume = fresh_volume();
            log.append(&mark(1, SchemeCode::Wpl)).unwrap();
            let mut victim = Lsn::NULL;
            for page in 0..40u32 {
                if page == 20 {
                    let rec =
                        if whole_page_victim { whole_page(1, page) } else { logical(1, page) };
                    victim = log.append(&rec).unwrap();
                } else {
                    log.append(&logical(1, page)).unwrap();
                }
            }
            log.append(&commit(1)).unwrap();
            log.force(log.tail_lsn()).unwrap();
            let middle = log.read_frame(victim).unwrap().len() / 2;
            let at = PAGE_SIZE + (victim.0 as usize + middle) % body;
            let mut byte = [0u8];
            media.read_at(at, &mut byte).unwrap();
            byte[0] ^= 0x40;
            media.write_at(at, &byte).unwrap();
            for (workers, chunk) in [(1, 8192), (2, 8192), (1, 29), (2, 29)] {
                match scans(&log, &volume, MIXED, workers, chunk) {
                    Err(QsError::LogCorrupt { .. }) => {}
                    other => panic!(
                        "whole_page_victim={whole_page_victim} workers={workers} chunk={chunk}: {other:?}"
                    ),
                }
            }
        }
    }

    /// Run one worker function over every frame of `log`, as a one-worker
    /// pipelined scan would route them.
    fn run_worker<T>(log: &LogManager, work: impl FnOnce(&mut Batches) -> T) -> T {
        let (tx, rx) = sync_channel(DEPTH);
        let mut scanner = ChunkedScanner::new(log, log.start_lsn(), log.tail_lsn(), 8192);
        std::thread::scope(|s| {
            s.spawn(move || {
                while let Some(chunk) = scanner.next_chunk().unwrap() {
                    tx.send(chunk).unwrap();
                }
            });
            work(&mut Batches {
                source: Source::Channel(rx),
                clock: StageClock::start(),
                part: (0, 1),
            })
        })
    }

    /// The trap a `(txn, page)`-keyed worker table falls into: a
    /// many-transaction log with one record per page and transaction
    /// must cost a worker one page-table entry per *page*, and every frame
    /// starts a page run.
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
        let anchor = log.start_lsn();
        let shared = Shared {
            volume: &volume,
            holds: PHYSICAL,
            anchor,
            seed: IdMap::default(),
            listed: Vec::new(),
            fates: None,
        };
        let shard = run_worker(&log, |inbox| {
            let mut shard = RedoShard::new(&shared, inbox.part);
            for batch in inbox {
                shard.take(&batch).unwrap();
            }
            shard.end_scan().unwrap();
            shard
        });
        assert_eq!((shard.pages.len(), shard.index.len()), (50, 50));
        let read = shard.pages.iter().filter(|(_, e)| e.page.is_some()).count();
        assert!(shard.stats.data_reads <= 50 && read <= 50);
        assert_eq!(shard.dpt().collect::<IdMap<_, _>>(), first, "recLSN = first LSN");
        assert_eq!(shard.stats.records, 3000);
        assert_matches_reference(&log, &volume, PHYSICAL, "60 transactions x 50 pages");
    }

    /// An object of a redone page, by its first eight bytes.
    fn object(l: &Learned, page: u32, slot: u16) -> [u8; 8] {
        let image = Page::from_bytes(&redone(l, page).expect("redone").0).unwrap();
        image.object(PageId(page), slot).unwrap()[..8].try_into().unwrap()
    }

    /// Record locks let a no-steal transaction (1) and physical ones (2,
    /// then 3) update the same pages, an object each, their frames
    /// interleaved. Transaction 1's frames are stashed until its fate is
    /// known while the others' are redone at sight; its commit then lays
    /// them under the later frames' pageLSN, which does not move back, and
    /// redo skips only what the page held when it was read. Whether 1
    /// commits last, aborts, or is still in flight at the crash, each page
    /// ends exactly as the two-pass reference redoes it.
    #[test]
    fn a_no_steal_transaction_interleaved_with_physical_ones_on_its_pages() {
        for end in ["commits last", "aborts", "is in flight"] {
            let committed = end == "commits last";
            let (log, volume) = (fresh_log(), fresh_volume());
            log.append(&mark(1, SchemeCode::Rlog)).unwrap();
            log.append(&mark(2, SchemeCode::Pd)).unwrap();
            let (mut first_logical, mut first_physical) = (IdMap::default(), IdMap::default());
            for _ in 0..3 {
                for page in 0..16u32 {
                    let lsn = log.append(&logical_on(1, page, 1)).unwrap();
                    first_logical.entry(PageId(page)).or_insert(lsn);
                    let lsn = log.append(&update_on(2, page, 0)).unwrap();
                    first_physical.entry(PageId(page)).or_insert(lsn);
                }
            }
            log.append(&commit(2)).unwrap();
            log.append(&mark(3, SchemeCode::Sd)).unwrap();
            for page in 0..16u32 {
                log.append(&update_on(3, page, 0)).unwrap();
            }
            log.append(&commit(3)).unwrap();
            // A no-steal transaction that logs whole pages and commits.
            log.append(&mark(4, SchemeCode::Wpl)).unwrap();
            for page in 16..20u32 {
                log.append(&whole_page(4, page)).unwrap();
            }
            log.append(&commit(4)).unwrap();
            match end {
                "commits last" => log.append(&commit(1)).unwrap(),
                "aborts" => log.append(&abort(1)).unwrap(),
                _ => Lsn::NULL,
            };

            let what = format!("transaction 1 {end}");
            let l = assert_matches_reference(&log, &volume, MIXED, &what);
            assert!(learned(&log, &volume, MIXED, 1, 8192).1 > 0, "{what}: nothing stashed");
            assert!(l.att.is_empty(), "{what}: no physical loser");
            for page in 0..16u32 {
                assert_eq!(object(&l, page, 0), [3; 8], "{what}: page {page}");
                let ops = if committed { [1; 8] } else { [0; 8] };
                assert_eq!(object(&l, page, 1), ops, "{what}: page {page}");
                let first = if committed { &first_logical } else { &first_physical };
                assert_eq!(l.dpt[&PageId(page)], first[&PageId(page)], "{what}: page {page}");
            }
            for page in 16..20u32 {
                assert_eq!(object(&l, page, 0), [0xA4; 8], "{what}: page {page}");
            }
        }
    }

    /// The router runs ahead: a transaction's first frames of a page can
    /// find its fate open and be stashed, and its next frame of the same
    /// object find the fate published. The stashed frames must land first —
    /// the transaction is settled before the later frame is applied — or
    /// the older value wins, and a stashed image swaps in over the later
    /// update and takes the pageLSN back. The two batches are fed to one
    /// worker by hand, the commit published between them.
    #[test]
    fn a_frame_decided_at_sight_lands_after_its_transactions_stashed_ones() {
        let (log, volume) = (fresh_log(), fresh_volume());
        let marked = log.append(&mark(1, SchemeCode::Rlog)).unwrap();
        let image = log.append(&whole_page(1, 6)).unwrap();
        let old = log.append(&logical_val(1, 5, 0, 1)).unwrap();
        let new = log.append(&logical_val(1, 5, 0, 2)).unwrap();
        let over = log.append(&logical_val(1, 6, 0, 3)).unwrap();
        let end = log.append(&commit(1)).unwrap();
        let shared = Shared {
            volume: &volume,
            holds: MIXED,
            anchor: log.start_lsn(),
            seed: IdMap::default(),
            listed: Vec::new(),
            fates: Some(Fates::default()),
        };
        let mut shard = RedoShard::new(&shared, (0, 1));
        let step = |shard: &mut RedoShard, lsns: &[Lsn]| {
            shard.txn_run = None;
            for &lsn in lsns {
                shard.step(lsn, &log.read_frame(lsn).unwrap()).unwrap();
            }
        };
        step(&mut shard, &[marked, image, old]);
        assert_eq!(shard.stash.held().0, 1, "stashed while its fate is open");
        shared.fates.as_ref().unwrap().lock().insert(TxnId(1), Fate::Apply);
        step(&mut shard, &[new, over, end]);
        shard.end_scan().unwrap();
        let (_, pages, _) = shard.finish();
        let page = |pid| &pages.iter().find(|(p, _)| *p == PageId(pid)).expect("redone").1;
        assert_eq!(page(5).object(PageId(5), 0).unwrap()[..8], [2; 8], "the later value");
        assert_eq!(page(5).lsn(), new);
        assert_eq!(page(6).object(PageId(6), 0).unwrap()[..8], [3; 8], "the update over the image");
        assert_eq!(page(6).lsn(), over);
    }

    /// The same through the whole scan: a no-steal transaction writes 17
    /// objects twice, an image among them, its two rounds far apart and its
    /// commit right after the second, so at 29-byte chunks its first frames
    /// are stashed and the router may have published its commit by the
    /// second round. Every page ends with the second value, as the
    /// reference's log order gives it.
    #[test]
    fn a_no_steal_transaction_writing_its_objects_twice_across_chunks() {
        let (log, volume) = (fresh_log(), fresh_volume());
        log.append(&mark(1, SchemeCode::Rlog)).unwrap();
        log.append(&mark(2, SchemeCode::Pd)).unwrap();
        for page in 0..16u32 {
            log.append(&logical_val(1, page, 0, 1)).unwrap();
        }
        log.append(&whole_page(1, 40)).unwrap();
        for page in 100..140u32 {
            log.append(&update(2, page)).unwrap();
        }
        log.append(&commit(2)).unwrap();
        for page in 0..16u32 {
            log.append(&logical_val(1, page, 0, 2)).unwrap();
        }
        log.append(&logical_val(1, 40, 0, 3)).unwrap();
        log.append(&commit(1)).unwrap();

        let l = assert_matches_reference(&log, &volume, MIXED, "objects written twice");
        for page in 0..16u32 {
            assert_eq!(object(&l, page, 0), [2; 8], "page {page}");
        }
        assert_eq!(object(&l, 40, 0), [3; 8], "the update over the image");
    }

    /// Restart's stash recycles: 240 no-steal transactions, at most 17 open
    /// at once (each commits after the next 16 have logged), on pages no
    /// two open ones share, at 29-byte chunks. A worker keeps a settled
    /// transaction's arena as a spare for the next one, so it holds no more
    /// arenas than transactions are open at once; at one worker, where the
    /// router cannot publish a commit some 48 frames ahead, it stashes.
    #[test]
    fn restart_keeps_settled_arenas_as_spares() {
        const TXNS: u64 = 240;
        const LAG: u64 = 16;
        let (log, volume) = (fresh_log(), fresh_volume());
        for t in 1..=TXNS + LAG {
            if t <= TXNS {
                log.append(&logical(t, (2 * t % 80) as u32)).unwrap();
                log.append(&logical(t, (2 * t % 80) as u32 + 1)).unwrap();
            }
            if t > LAG {
                log.append(&commit(t - LAG)).unwrap();
            }
        }
        let most_open = LAG as usize + 1;
        for workers in [1, 2, 4] {
            let cfg = RestartConfig { redo_workers: workers, chunk_bytes: 29 };
            let mut held = Vec::new();
            let finish = |shard: RedoShard| {
                held.push(shard.stash.held().1);
                shard.finish()
            };
            let (mut ph, mut wall) = (phase("analysis"), RestartWall::default());
            replay(&log, &volume, LOGICAL, cfg, &mut ph, &mut wall, finish).unwrap();
            assert!(held.iter().all(|&n| n <= most_open), "{workers} workers held {held:?}");
            if workers == 1 {
                assert!(held[0] > 0, "nothing stashed");
            }
        }
        assert_matches_reference(&log, &volume, LOGICAL, "240 transactions");
    }

    /// An unmarked transaction of an ADAPT log (its mark truncated) parks
    /// until its end decides it. Transaction 1 aborts without a CLR
    /// anywhere: it is dropped, its pages listed at its first frames,
    /// while the committed physical transaction that wrote the same pages
    /// around it is redone. Transaction 3 aborts with a CLR: it was
    /// physical, and history is repeated on all its pages — the image of
    /// a page it created included, although its one CLR reached another
    /// worker. Transaction 4 is still in flight at the crash: unmarked, it
    /// is physical, redone and left to undo.
    #[test]
    fn an_unmarked_abort_shares_pages_with_a_committed_physical_transaction() {
        let (log, volume) = (fresh_log(), fresh_volume());
        log.append(&mark(2, SchemeCode::Pd)).unwrap();
        let mut listed = IdMap::default();
        for _ in 0..2 {
            for page in 0..16u32 {
                listed.entry(PageId(page)).or_insert(log.append(&logical_on(1, page, 1)).unwrap());
                log.append(&update_on(2, page, 0)).unwrap();
            }
        }
        log.append(&abort(1)).unwrap();
        log.append(&commit(2)).unwrap();
        // Two pages two workers own.
        let owned_by = |w| (100u32..).find(|&p| shard_index(PageId(p), 2) == w).unwrap();
        let (updated, created) = (owned_by(0), owned_by(1));
        log.append(&update(3, updated)).unwrap();
        log.append(&LogRecord::PageAlloc { txn: TxnId(3), prev: Lsn::NULL, page: PageId(created) })
            .unwrap();
        log.append(&whole_page(3, created)).unwrap();
        log.append(&LogRecord::Clr {
            txn: TxnId(3),
            prev: Lsn::NULL,
            page: PageId(updated),
            slot: 0,
            offset: 0,
            after: vec![0; 8],
            undo_next: Lsn::NULL,
        })
        .unwrap();
        log.append(&abort(3)).unwrap();
        let in_flight = log.append(&update_on(4, 300, 1)).unwrap();

        let l = assert_matches_reference(&log, &volume, MIXED, "unmarked aborts sharing pages");
        for page in 0..16u32 {
            assert_eq!((object(&l, page, 0), object(&l, page, 1)), ([2; 8], [0; 8]), "page {page}");
            assert_eq!(l.dpt[&PageId(page)], listed[&PageId(page)], "listed at first sight");
        }
        assert_eq!(object(&l, updated, 0), [0; 8], "the CLR is repeated");
        assert_eq!(object(&l, created, 0), [0xA3; 8], "the created page's image is repeated");
        assert_eq!(object(&l, 300, 1), [4; 8], "the loser is redone, for undo to roll back");
        assert_eq!(l.att, IdMap::from_iter([(TxnId(4), in_flight)]));
    }

    /// WPL's rule, "the newest committed image of a page wins" (§3.4.3):
    /// page 1's committed image, listed by the anchor's body, is superseded
    /// by a newer committed one, and a still newer loser image must not
    /// win; page 7's winner supersedes a committed image the scan saw.
    /// Page 3's listed image is by a transaction that commits after the
    /// checkpoint (a newer image of an in-flight one must not win); page
    /// 5's by one that never commits. Page 2 is seen only in the body, page
    /// 6 only by a loser. No page is read from the volume.
    #[test]
    fn a_page_log_restores_the_newest_committed_image_of_each_page() {
        let (log, volume) = (fresh_log(), fresh_volume());
        let p1_old = log.append(&whole_page(1, 1)).unwrap();
        let p2 = log.append(&whole_page(1, 2)).unwrap();
        log.append(&commit(1)).unwrap();
        let p3 = log.append(&whole_page(2, 3)).unwrap();
        let p5 = log.append(&whole_page(3, 5)).unwrap();
        let entry = |page, lsn, txn, committed| WplCheckpointEntry {
            page: PageId(page),
            lsn,
            txn: TxnId(txn),
            committed,
        };
        let body = CheckpointBody {
            active_txns: vec![(TxnId(2), p3), (TxnId(3), p5)],
            wpl_entries: vec![
                entry(1, p1_old, 1, true),
                entry(2, p2, 1, true),
                entry(3, p3, 2, false),
                entry(5, p5, 3, false),
            ],
            allocated_pages: 6,
            ..CheckpointBody::default()
        };
        checkpoint(&log, body);
        log.append(&whole_page(4, 7)).unwrap();
        let p1 = log.append(&whole_page(4, 1)).unwrap();
        log.append(&commit(4)).unwrap();
        log.append(&whole_page(5, 1)).unwrap();
        log.append(&whole_page(5, 6)).unwrap();
        let p7 = log.append(&whole_page(6, 7)).unwrap();
        log.append(&abort(5)).unwrap();
        log.append(&commit(2)).unwrap();
        log.append(&whole_page(7, 3)).unwrap();
        log.append(&commit(6)).unwrap();

        let l = assert_matches_reference(&log, &volume, PAGE_LOG, "page log");
        let want = [(1, p1, 4), (2, p2, 1), (3, p3, 2), (7, p7, 6)];
        let want: Vec<_> = want.map(|(page, lsn, txn)| (PageId(page), lsn, TxnId(txn))).into();
        assert_eq!(l.versions, want);
        assert_eq!(l.redo, (4, 0), "the body's entries are rebuilt, no page is read");
        assert!(l.pages.is_empty() && l.dpt.is_empty());
        assert_eq!((l.max_txn, l.max_alloc), (TxnId(7), 8));
    }

    /// A worker gives each batch's chunk buffer back when it is done with
    /// it, so a restart allocates about as many buffers as its pipeline
    /// holds at once, not one per chunk: a WPL restart over ≥ 64 chunks
    /// allocates no more than a physical one of the same log does, and
    /// neither more than the pipeline's channels and stages can hold.
    #[test]
    fn a_page_log_restart_recycles_its_chunk_buffers() {
        const WORKERS: usize = 2;
        let held = (DEPTH + 2 + WORKERS * (DEPTH + 1)) as u64;
        let buffers = |flavor: RecoveryFlavor| {
            let body = 4 << 20;
            let log_media: Arc<dyn StableMedia> =
                Arc::new(MemDisk::new(LogManager::required_bytes(body)));
            let log = LogManager::format(Arc::clone(&log_media), body).unwrap();
            for txn in 1..=100u64 {
                log.append(&whole_page(txn, txn as u32 % 40)).unwrap();
                log.append(&whole_page(txn, 40 + txn as u32 % 40)).unwrap();
                log.append(&commit(txn)).unwrap();
            }
            log.force(log.tail_lsn()).unwrap();
            let data_media: Arc<dyn StableMedia> =
                Arc::new(MemDisk::new(Volume::required_bytes(PAGES)));
            let volume = Volume::format(Arc::clone(&data_media), PAGES).unwrap();
            for _ in 0..PAGES {
                let pid = volume.allocate().unwrap();
                volume.write_page(pid, &blank_page(pid)).unwrap();
            }
            let mut cfg = ServerConfig::new(flavor).with_pool_mb(2.0).with_redo_workers(WORKERS);
            cfg.restart.chunk_bytes = 2 * PAGE_SIZE;
            let chunks = (log.tail_lsn().0 - log.start_lsn().0) / cfg.restart.chunk_bytes as u64;
            assert!(chunks >= PIPELINE_MIN_CHUNKS, "{chunks} chunks");
            let parts = StableParts { data_media, log_media, flight: None };
            let server = Server::restart(parts, cfg, qs_sim::Meter::new()).unwrap();
            let scan = server.restart_report().unwrap().wall.scans.remove(0);
            assert_eq!(scan.workers.len(), WORKERS, "{flavor:?}: pipelined");
            println!("{flavor:?}: {} chunk buffers over {chunks} chunks", scan.chunk_buffers);
            scan.chunk_buffers
        };
        let physical = buffers(RecoveryFlavor::EsmAries);
        assert!(physical <= held, "a physical restart allocated {physical} > {held}");
        let wpl = buffers(RecoveryFlavor::Wpl);
        assert!(wpl <= held, "a WPL restart allocated {wpl} > {held} (physical: {physical})");
    }
}
