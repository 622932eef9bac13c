//! Restart recovery: one streamed, page-partitioned engine for every
//! flavor. `RestartConfig::redo_workers` only sizes the worker pool — one
//! worker runs the same reader → router → worker pipeline as eight.
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
//! The pipeline ([`fan_out`]) has three stages over bounded channels:
//!
//! 1. a reader thread streams the log in large aligned chunks
//!    ([`qs_wal::stream_chunks`]) — one media pass per chunk;
//! 2. the router (the restart thread) walks each chunk's frames with the
//!    cheap frame accessors — no decoding — and fans page-bearing frames
//!    out to workers;
//! 3. the workers apply frames straight out of the shared chunk buffer to
//!    privately-owned page images: no `LogRecord` materialization, no
//!    per-record allocation.
//!
//! Verify-once is the checksum policy: every frame restart *uses* is
//! checksummed exactly once before use — small frames during analysis,
//! whole-page frames where redo applies them or where a WPL image wins
//! its page — and every frame it merely walks has its framing checked.
//!
//! Workers return their results in worker-index order and pages are
//! installed page-sorted, so the recovered volume, the restart report and
//! everything downstream are byte-identical for any worker count and any
//! chunk size (`tests/restart_equivalence.rs`).

use crate::server::{InnerView, RecoveryFlavor, RestartConfig, Server};
use crate::shard::shard_index;
use crate::txn::TxnTable;
use qs_storage::{Page, Volume};
use qs_trace::PhaseStat;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use qs_wal::{
    stream_chunks, CheckpointBody, FrameChunk, FrameRef, LogManager, LogReadCache, LogRecord,
    SchemeCode,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

/// Bounded depth of the chunk and per-worker channels: deep enough to
/// overlap reading, routing, and applying; shallow enough to cap memory
/// at a few chunks per stage.
const DEPTH: usize = 4;

/// Which transaction protocols a flavor's log can hold.
#[derive(Clone, Copy)]
struct Holds {
    /// Steal + WAL + CLR undo: the report carries an undo phase.
    physical: bool,
    /// No-steal deferred apply: committed work may precede the checkpoint
    /// (fuzzy checkpoints do not list it), so analysis scans the whole
    /// retained log — the truncation rule `keep = min(checkpoint, min
    /// active first-LSN, min DPT recLSN)` guarantees it covers everything
    /// unapplied — instead of starting at the checkpoint anchor.
    logical: bool,
}

/// Run restart recovery on a freshly opened volume and log. Returns raw
/// (unpriced) per-phase work counts for the restart report.
pub(crate) fn run(server: &Server) -> QsResult<Vec<PhaseStat>> {
    let holds = match server.flavor() {
        RecoveryFlavor::Wpl => return wpl_restart(server),
        RecoveryFlavor::EsmAries | RecoveryFlavor::RedoAtServer => {
            Holds { physical: true, logical: false }
        }
        RecoveryFlavor::RedoLogical => Holds { physical: false, logical: true },
        RecoveryFlavor::Adaptive => Holds { physical: true, logical: true },
    };
    let cfg = server.config().restart;
    let mut ph_analysis = phase("analysis");
    let mut ph_redo = phase("redo");
    let a = server.with_quiesced(|view| analyze(view, holds, cfg.chunk_bytes, &mut ph_analysis))?;
    server.with_quiesced(|view| redo(view, &a, cfg, &mut ph_redo))?;
    let ph_undo = undo_and_finish(server, a.att, a.max_txn)?;
    let mut phases = vec![ph_analysis, ph_redo];
    if holds.physical {
        phases.push(ph_undo);
    }
    Ok(phases)
}

fn phase(name: &'static str) -> PhaseStat {
    PhaseStat { name, ..PhaseStat::default() }
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

/// What analysis learned from the log.
///
/// A transaction's `TxnScheme` mark — always the first record of its
/// chain — says which protocol it elected; unmarked transactions follow
/// the flavor default. Truncation keeps every *active* transaction's
/// chain whole, mark included, so in an `Adaptive` log a transaction whose
/// mark is missing (truncated) is provably committed, and treating it as
/// physical (DPT path) is correct for committed work: redo replays
/// `UpdateLogical` records too, and the pageLSN test skips whatever the
/// pre-crash apply already flushed.
struct Analysis {
    /// Protocol of an unmarked transaction.
    default_logical: bool,
    /// Elected scheme per transaction, from `TxnScheme` records.
    marks: HashMap<TxnId, SchemeCode>,
    /// Physical loser candidates: txn → last LSN seen (undo starts there).
    /// Logical losers are not tracked — dropping them *is* their rollback.
    att: HashMap<TxnId, Lsn>,
    /// Logical transactions whose commit record was seen.
    committed: HashSet<TxnId>,
    /// Logical transactions' page → first-LSN maps, merged into the DPT
    /// only when their commit record shows up.
    pending: HashMap<TxnId, HashMap<PageId, Lsn>>,
    /// Dirty-page table: page → recovery LSN.
    dpt: HashMap<PageId, Lsn>,
    /// Highest transaction id seen (id assignment resumes above it).
    max_txn: TxnId,
    /// Highest page id + 1 implied by the log.
    max_alloc: u64,
}

impl Analysis {
    /// Did `txn` run the logical (deferred-apply, no-steal) protocol?
    /// Mark-free logs answer from the flavor default without a lookup.
    fn is_logical(&self, txn: TxnId) -> bool {
        if self.marks.is_empty() {
            return self.default_logical;
        }
        self.marks.get(&txn).map_or(self.default_logical, |s| s.is_logical())
    }

    /// Must redo skip `txn`'s records? Only logical losers: their deferred
    /// ops never reached any page, and replaying them (via a shared page's
    /// DPT entry from another transaction) would install uncommitted data
    /// that nothing can undo.
    fn redo_skips(&self, txn: TxnId) -> bool {
        self.is_logical(txn) && !self.committed.contains(&txn)
    }

    /// Observe one non-checkpoint frame of the forward analysis scan. A
    /// transaction's mark precedes its page records, so forward order
    /// classifies each page-bearing frame correctly at first sight.
    fn observe(&mut self, lsn: Lsn, bytes: &[u8]) {
        let txn = record::frame_txn(bytes);
        note_txn(&mut self.max_txn, txn);
        match record::frame_tag(bytes) {
            tag::TXN_SCHEME => {
                if let Some(s) = record::frame_scheme(bytes) {
                    self.marks.insert(txn, s);
                }
                if !self.is_logical(txn) {
                    self.att.insert(txn, lsn);
                }
            }
            tag::COMMIT => {
                self.att.remove(&txn);
                if self.is_logical(txn) {
                    self.committed.insert(txn);
                    for (p, l) in self.pending.remove(&txn).unwrap_or_default() {
                        let e = self.dpt.entry(p).or_insert(l);
                        *e = l.min(*e);
                    }
                }
            }
            tag::ABORT => {
                self.att.remove(&txn);
                self.pending.remove(&txn);
            }
            _ => {
                let logical = self.is_logical(txn);
                if !logical && txn != TxnId::INVALID {
                    self.att.insert(txn, lsn);
                }
                if let Some(page) = record::frame_page(bytes) {
                    self.max_alloc = self.max_alloc.max(page.0 as u64 + 1);
                    if logical {
                        self.pending.entry(txn).or_default().entry(page).or_insert(lsn);
                    } else {
                        self.dpt.entry(page).or_insert(lsn);
                    }
                }
            }
        }
    }
}

/// Forward analysis over streamed chunks, using the frame accessors
/// instead of decoding every record. Whole-page frames (8 KB bodies) skip
/// the checksum here — redo verifies the ones it applies.
fn analyze(
    view: &mut InnerView<'_>,
    holds: Holds,
    chunk_bytes: usize,
    ph: &mut PhaseStat,
) -> QsResult<Analysis> {
    let mut a = Analysis {
        default_logical: !holds.physical,
        marks: HashMap::new(),
        att: HashMap::new(),
        committed: HashSet::new(),
        pending: HashMap::new(),
        dpt: HashMap::new(),
        max_txn: TxnId::INVALID,
        max_alloc: 0,
    };
    let log = view.log;
    let ck = log.checkpoint_lsn();
    let scan_from = if holds.logical || ck.is_null() {
        log.start_lsn()
    } else {
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
        ck
    };
    let end = log.tail_lsn();
    ph.pages_read = log_pages(scan_from, end);

    std::thread::scope(|s| -> QsResult<()> {
        for chunk in stream_chunks(s, log, scan_from, end, chunk_bytes, DEPTH) {
            let chunk = chunk?;
            for r in &chunk.frames {
                let bytes = chunk.frame(r);
                let t = record::frame_tag(bytes);
                if t != tag::WHOLE_PAGE {
                    record::frame_verify(bytes)?;
                }
                ph.records += 1;
                if t == tag::CHECKPOINT || t == tag::BEGIN_CHECKPOINT {
                    a.max_alloc = a.max_alloc.max(checkpoint_body(bytes)?.allocated_pages);
                } else {
                    a.observe(r.lsn, bytes);
                }
            }
        }
        Ok(())
    })?;
    view.volume.ensure_allocated(a.max_alloc as usize)?;
    Ok(a)
}

/// The reader → router → workers → join scaffold shared by redo and the
/// WPL image scan. Streams `[from, end)`; `route` sees every frame on the
/// calling thread (so it needs no synchronization) and names the page
/// whose worker should get it, if any; each worker runs `work` over its
/// batches (its share of each chunk's frames, sharing the chunk's buffer).
/// Returns the workers' results in worker-index order. A worker
/// that fails hangs up its channel, which stops the router; the worker's
/// error is reported by the join.
fn fan_out<T: Send>(
    log: &LogManager,
    (from, end): (Lsn, Lsn),
    cfg: RestartConfig,
    mut route: impl FnMut(&[u8]) -> QsResult<Option<PageId>>,
    work: impl Fn(Receiver<FrameChunk>) -> QsResult<T> + Sync,
) -> QsResult<Vec<T>> {
    let workers = cfg.redo_workers.max(1);
    std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = sync_channel::<FrameChunk>(DEPTH);
            txs.push(tx);
            let work = &work;
            handles.push(s.spawn(move || work(rx)));
        }
        let mut routed: Vec<Vec<FrameRef>> = vec![Vec::new(); workers];
        let mut route_all = || -> QsResult<()> {
            for chunk in stream_chunks(s, log, from, end, cfg.chunk_bytes, DEPTH) {
                let chunk = chunk?;
                for r in &chunk.frames {
                    if let Some(pid) = route(chunk.frame(r))? {
                        routed[shard_index(pid, workers)].push(*r);
                    }
                }
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
        let routed_all = route_all();
        drop(txs);
        let mut outs = Vec::with_capacity(workers);
        for h in handles {
            outs.push(h.join().expect("restart worker panicked")?);
        }
        routed_all.map(|()| outs)
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
    let route = |bytes: &[u8]| {
        Ok(record::frame_page(bytes).filter(|_| !a.redo_skips(record::frame_txn(bytes))))
    };
    let outcomes =
        fan_out(view.log, (redo_from, end), cfg, route, |rx| redo_worker(rx, &a.dpt, volume))?;

    // Install page-sorted so pool state and eviction write-backs are
    // identical for every worker count.
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
        if let Some(ev) = view.pool.insert(pid, page, true)? {
            if ev.dirty {
                view.volume.write_page(ev.page_id, &ev.page)?;
                ph.data_writes += 1;
            }
        }
        view.dpt.insert(pid, redo_from);
    }
    Ok(())
}

/// One redo worker: repeat history on this partition's pages under the
/// DPT / recLSN / pageLSN filters, applying after-images straight from
/// the shared chunk buffer. Small frames were checksum-verified by
/// analysis; whole-page frames (which analysis skips) are verified here.
/// Returns the worker's tallies and its redone pages.
fn redo_worker(
    rx: Receiver<FrameChunk>,
    dpt: &HashMap<PageId, Lsn>,
    volume: &Volume,
) -> QsResult<(PhaseStat, HashMap<PageId, Page>)> {
    let mut stats = phase("redo");
    let mut resident: HashMap<PageId, Page> = HashMap::new();
    for batch in rx {
        for r in &batch.frames {
            let bytes = batch.frame(r);
            let pid = record::frame_page(bytes).expect("router only sends page-bearing frames");
            let Some(&rec_lsn) = dpt.get(&pid) else { continue };
            if r.lsn < rec_lsn {
                continue;
            }
            let page = match resident.entry(pid) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    stats.data_reads += 1;
                    e.insert(volume.read_page(pid)?)
                }
            };
            if page.lsn() >= r.lsn {
                continue; // effect already on disk image
            }
            stats.records += 1;
            if record::frame_tag(bytes) == tag::WHOLE_PAGE {
                record::frame_verify(bytes)?;
                *page = Page::from_bytes(record::frame_whole_page_image(bytes)?)?;
            } else if let Some((slot, offset, after)) = record::frame_redo_slice(bytes)? {
                let obj = page.object_mut(pid, slot)?;
                let off = offset as usize;
                obj[off..off + after.len()].copy_from_slice(after);
            }
            page.set_lsn(r.lsn);
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
) -> QsResult<PhaseStat> {
    let mut ph = phase("undo");
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
            let prev = view.txns.get(txn)?.last_lsn;
            view.log.append(&LogRecord::Abort { txn, prev })?;
            view.txns.remove(txn);
            Ok(())
        })?;
    }
    ph.pages_read = cache.pages_fetched();

    server.with_quiesced(|view| *view.txns = TxnTable::resuming_after(max_txn));
    server.checkpoint()?;
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
fn wpl_restart(server: &Server) -> QsResult<Vec<PhaseStat>> {
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
        let route = |bytes: &[u8]| {
            scan.records += 1;
            let t = record::frame_tag(bytes);
            if t == tag::WHOLE_PAGE {
                return Ok(record::frame_page(bytes));
            }
            record::frame_verify(bytes)?;
            let txn = record::frame_txn(bytes);
            note_txn(&mut max_txn, txn);
            if t == tag::COMMIT {
                ctl.insert(txn);
            } else if (t == tag::CHECKPOINT || t == tag::BEGIN_CHECKPOINT) && anchor.is_none() {
                anchor = Some(checkpoint_body(bytes)?);
            }
            Ok(None)
        };
        let outcomes = fan_out(view.log, (stop, end), cfg, route, image_worker)?;

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
        Ok(())
    })?;
    Ok(vec![scan, rebuild])
}

/// One WPL image worker: check each routed whole-page frame's framing
/// (length prefix vs trailer echo — catches torn frames) and report it as
/// an [`ImageCandidate`] without materializing or checksumming the 8 KB
/// body; the merge verifies the winners. Restored pages are served
/// straight from the log by the WPL table, exactly as in normal running.
fn image_worker(rx: Receiver<FrameChunk>) -> QsResult<Vec<ImageCandidate>> {
    let mut images = Vec::new();
    for batch in rx {
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
