//! Transaction lifecycle: begin, locks, receiving log records and dirty
//! pages, the no-steal pending map, commit, abort and undo. Each entry
//! point reads the transaction's [`Protocol`] from its `TxnState` and does
//! that protocol's one thing; nothing here knows which flavor produced it.

use super::pages::apply_after_image;
use super::Server;
use crate::lock::{LockMode, Resource};
use crate::protocol::Protocol;
use crate::stash::{Laid, Stashed};
use crate::txn::TxnStatus;
use qs_storage::Page;
use qs_trace::TraceCat;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId};
use qs_wal::record::{self, tag};
use qs_wal::{LogPressure, LogRecord};
use std::borrow::Borrow;
use std::sync::atomic::Ordering;

fn protocol_error(detail: &str) -> QsError {
    QsError::Protocol { detail: detail.into() }
}

/// The page-bearing tags a client generates: consecutive records of these
/// tags naming one page are received as one run.
fn client_page_tag(t: u8) -> bool {
    matches!(t, tag::UPDATE..=tag::PAGE_ALLOC | tag::UPDATE_LOGICAL)
}

/// The frames of `run` — verified already — each with the LSN it was
/// appended at, `first` being the run's.
fn run_frames(run: &[u8], first: Lsn) -> impl Iterator<Item = (&[u8], Lsn)> {
    let mut at = 0usize;
    std::iter::from_fn(move || {
        let rest = run.get(at..).filter(|rest| !rest.is_empty())?;
        let len = record::frame_len(rest).expect("the batch was verified frame by frame");
        let lsn = first.advance(at);
        at += len;
        Some((&rest[..len], lsn))
    })
}

impl Server {
    pub fn begin(&self) -> TxnId {
        self.txns.lock(&self.tracer).begin(self.facts.base)
    }

    /// Acquire a page lock on behalf of `txn` (the paper's "obtains an
    /// exclusive lock on the page from ESM"). Blocking; deadlocks abort the
    /// requester with `LockConflict`.
    pub fn lock_page(&self, txn: TxnId, pid: PageId, mode: LockMode) -> QsResult<()> {
        self.lock_resource(txn, Resource::Page(pid), mode)
    }

    /// Acquire a lock on any [`Resource`] — a whole page or one record. A
    /// record lock first takes the intention mode on its page (two-step;
    /// both steps block and both feed the waits-for graph). Lock-wait
    /// trace events carry [`Resource::trace_code`], so record-level waits
    /// are attributable to their slot.
    pub fn lock_resource(&self, txn: TxnId, res: Resource, mode: LockMode) -> QsResult<()> {
        let waited = self.locks.lock_resource(txn, res, mode)?;
        if waited {
            self.tracer.event(TraceCat::LockWait, "granted", txn.0, res.trace_code());
        }
        self.meter.locks_acquired.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Lock requests blocked behind a conflicting holder right now (test
    /// hook: a test polls it to know a client thread is waiting).
    pub fn queued_lock_waiters(&self) -> usize {
        self.locks.queued_waiters()
    }

    /// Allocate a page inside a transaction (logged, recoverable).
    pub fn allocate_page(&self, txn: TxnId) -> QsResult<PageId> {
        let pid = self.volume.lock(&self.tracer).allocate()?;
        let mut txns = self.txns.lock(&self.tracer);
        let prev = txns.active_mut(txn)?.last_lsn;
        let lsn = self.log.wal().append_with(|w| w.page_alloc(txn, prev, pid))?;
        txns.active_mut(txn)?.note_logged(lsn);
        drop(txns);
        self.locks.lock(txn, Resource::Page(pid), LockMode::X)?;
        self.meter.locks_acquired.fetch_add(1, Ordering::Relaxed);
        Ok(pid)
    }

    /// Struct-level convenience over [`Server::receive_log_bytes`] (tests
    /// and the bench driver): encode, then ship the bytes.
    pub fn receive_log_records(&self, txn: TxnId, records: Vec<LogRecord>) -> QsResult<()> {
        let batch: Vec<u8> = records.iter().flat_map(LogRecord::encode).collect();
        self.receive_log_bytes(txn, &batch)
    }

    /// Receive a batch of client-generated, already-encoded log records
    /// (built by `qs_wal::RecordWriter`). The client cannot know its
    /// transaction's backward chain, so `prev` is patched *in place* on
    /// append ([`qs_wal::LogManager::append_rechained_run`]) — the hot path
    /// never decodes or re-encodes a record. That re-seals the frames, so
    /// the whole batch is verified first, with no lock held: a frame
    /// damaged on the way here must not get a valid checksum and become
    /// durable, and nothing of a batch that holds one is logged.
    ///
    /// The batch is then taken a *run* at a time — a maximal sequence of
    /// client-generated records naming one page. A `TxnScheme` mark is a run
    /// of one; so is a record of any other tag, which keeps the `prev` it
    /// was shipped with; so is every record under redo-at-server. Each run
    /// costs one hold of the txn-table lock, one log append and one step of
    /// its transaction's protocol: `Steal` enters the page in the DPT —
    /// inside the critical section that appended the run, so a checkpoint
    /// body never holds a record without the entry — and, under
    /// redo-at-server, applies the after-image to the server's copy at once
    /// (§3.5); `NoSteal` stashes the after-images until commit.
    pub fn receive_log_bytes(&self, txn: TxnId, batch: &[u8]) -> QsResult<()> {
        if !self.facts.ships_records {
            return Err(protocol_error("WPL clients do not generate log records"));
        }
        self.txns.lock(&self.tracer).active_mut(txn)?;
        let mut at = 0usize;
        while at < batch.len() {
            let len = record::frame_len(&batch[at..])?;
            let frame = &batch[at..at + len];
            record::frame_verify(frame)?;
            let t = record::frame_tag(frame)?;
            let owner = record::frame_txn(frame)?;
            if owner != txn {
                return Err(QsError::Protocol {
                    detail: format!("record for {owner} shipped by {txn}"),
                });
            }
            if t == tag::UPDATE && !self.facts.physical_update {
                return Err(protocol_error(
                    "RLOG clients ship logical records, not physical before/after images",
                ));
            }
            if t == tag::TXN_SCHEME && !self.facts.txn_scheme {
                return Err(protocol_error(
                    "TxnScheme records are only legal under the adaptive flavor",
                ));
            }
            at += len;
        }
        // Redo-at-server applies each record as it arrives (§3.5), and the
        // simulated clock prices that order — a record's apply ahead of the
        // next one's append: there a run is one record.
        let runs = !self.facts.redo_on_receive;
        let mut at = 0usize;
        while at < batch.len() {
            let head = &batch[at..at + record::frame_len(&batch[at..])?];
            let t = record::frame_tag(head)?;
            let page = record::frame_page(head)?;
            let mut end = at + head.len();
            if let Some(pid) = page.filter(|_| runs && client_page_tag(t)) {
                while end < batch.len() {
                    let next = &batch[end..end + record::frame_len(&batch[end..])?];
                    if !client_page_tag(record::frame_tag(next)?)
                        || record::frame_page(next)? != Some(pid)
                    {
                        break;
                    }
                    end += next.len();
                }
            }
            let run = &batch[at..end];
            // The txn-table lock is held across the append so the chain
            // stays consistent under concurrency. Only the tags a client
            // generates get the transaction's backward chain; any other
            // keeps the prev it was shipped with.
            let mut txns = self.txns.lock(&self.tracer);
            let state = txns.active_mut(txn)?;
            let prev = if client_page_tag(t) || t == tag::TXN_SCHEME {
                state.last_lsn
            } else {
                record::frame_prev(head)?
            };
            let (first, last) = self.log.wal().append_rechained_run(run, prev)?;
            state.note_logged(first);
            state.note_logged(last);
            if let Some(scheme) = record::frame_scheme(head)? {
                // The mark governs how every later record of this chain is
                // processed.
                state.protocol = self.facts.protocol(Some(scheme));
            } else if let Some(pid) = page {
                state.log_shipped.insert(pid);
                match state.protocol {
                    // The DPT is untouched until the ops land in the pool
                    // at commit.
                    Protocol::NoSteal => {
                        drop(txns);
                        self.stash_pending(txn, pid, run_frames(run, first))?;
                    }
                    Protocol::Steal => {
                        self.dpt.lock(&self.tracer).logged_span(pid, first, last);
                        drop(txns);
                        if self.facts.redo_on_receive {
                            let frames = run_frames(run, first);
                            self.redo_onto_pool(pid, |page| Laid::frames(page, pid, frames))?;
                        }
                    }
                    Protocol::PageLog => unreachable!("PageLog flavors ship no records"),
                }
            }
            at = end;
        }
        Ok(())
    }

    /// Stash the received records of one run of a `NoSteal` transaction in
    /// its arena. Nothing touches the pool or the DPT here — that happens
    /// after the commit force in [`Server::apply_pending_committed`]. Only
    /// logical updates and whole-page images carry deferred work
    /// (`PageAlloc`: the volume allocation already happened in
    /// `allocate_page`).
    fn stash_pending<'a>(
        &self,
        txn: TxnId,
        page: PageId,
        frames: impl Iterator<Item = (&'a [u8], Lsn)>,
    ) -> QsResult<()> {
        let mut frames = frames
            .filter(|(f, _)| {
                matches!(record::frame_tag(f), Ok(tag::UPDATE_LOGICAL | tag::WHOLE_PAGE))
            })
            .peekable();
        if frames.peek().is_some() {
            let mut pending = self.pending.lock(&self.tracer);
            let arena = pending.arena(txn);
            for (frame, lsn) in frames {
                arena.push(page, frame, lsn)?;
            }
        }
        Ok(())
    }

    /// Re-apply `txn`'s own pending (deferred, uncommitted) operations on
    /// `pid` to a served page copy.
    pub(super) fn overlay_pending(&self, txn: TxnId, pid: PageId, page: &mut Page) -> QsResult<()> {
        let pending = self.pending.lock(&self.tracer);
        let Some(stashed) = pending.get(txn) else { return Ok(()) };
        for (_, op, lsn) in stashed.frames().filter(|&(p, ..)| p == pid) {
            match op {
                Stashed::Frame(frame) => {
                    apply_after_image(page, pid, record::frame_tag(frame)?, frame, lsn)?;
                }
                Stashed::Image(image) => {
                    page.bytes_mut().copy_from_slice(image.bytes());
                    page.set_lsn(lsn);
                }
            }
        }
        Ok(())
    }

    /// Post-force half of a `NoSteal` commit: move the transaction's
    /// deferred ops into the pool. WAL holds (the commit force just made
    /// every op durable) and no-steal holds (the ops were invisible until
    /// now, and from here on they are committed data). Pages are applied
    /// in ascending page-id order so pool state is deterministic, each
    /// page's frames in log order (`Arena::lay_run`, which restart's
    /// settle calls too). Each page enters the DPT before its ops reach
    /// the pool — spanning its first and last op, so a flush racing the
    /// apply cannot retire it on an older image ([`Server::redo_onto_pool`]
    /// covers ops that land below the pageLSN) — and the caller keeps the
    /// transaction in the table, pinning the log, until this returns. The
    /// emptied arena goes back to the pending map's spares.
    fn apply_pending_committed(&self, txn: TxnId) -> QsResult<()> {
        let Some(mut arena) = self.pending.lock(&self.tracer).take(txn) else {
            return Ok(());
        };
        arena.by_page();
        let mut dpt = self.dpt.lock(&self.tracer);
        for run in std::iter::successors(arena.run_from(0), |r| arena.run_from(r.range.end)) {
            dpt.logged_span(run.page, run.first, run.last);
        }
        drop(dpt);
        let mut next = arena.run_from(0);
        while let Some(run) = next {
            self.redo_onto_pool(run.page, |page| arena.lay_run(&run, page, |_| false))?;
            next = arena.run_from(run.range.end);
        }
        self.pending.lock(&self.tracer).recycle(arena);
        Ok(())
    }

    /// Client declares that all log records it will generate for `pid` in
    /// this transaction have been shipped (possibly zero). Enforcement hook
    /// for the log-before-page rule.
    pub fn note_page_logged(&self, txn: TxnId, pid: PageId) -> QsResult<()> {
        self.txns.lock(&self.tracer).active_mut(txn)?.log_shipped.insert(pid);
        Ok(())
    }

    /// Receive a dirty page from a client: the server copies it into its
    /// resident frame (a new one only on a pool miss) and stamps the
    /// pageLSN there — the one copy the network transfer makes. An owned
    /// page is taken too, and dropped after the copy.
    pub fn receive_dirty_page(
        &self,
        txn: TxnId,
        pid: PageId,
        page: impl Borrow<Page>,
    ) -> QsResult<()> {
        let page = page.borrow();
        let mut txns = self.txns.lock(&self.tracer);
        let state = txns.active_mut(txn)?;
        if !self.facts.ships_pages {
            return Err(protocol_error("clients of this flavor do not ship dirty pages"));
        }
        let lsn = match state.protocol {
            // Its updates live only in the pending map until commit.
            Protocol::NoSteal => {
                return Err(protocol_error("no-steal transactions do not ship dirty pages"));
            }
            Protocol::PageLog => {
                drop(txns);
                return self.wpl_receive_page(txn, pid, page);
            }
            Protocol::Steal => {
                // Log-before-page rule (§3.1): the server must never cache
                // a page for which it lacks the update log records.
                if !state.log_shipped.contains(&pid) {
                    return Err(QsError::LogBeforePageViolation(pid));
                }
                state.last_lsn
            }
        };
        drop(txns);
        let rec_lsn = self.log.wal().tail_lsn();
        let mut pool = self.pool.lock(pid, &self.tracer);
        let evicted = pool.insert_copy(pid, page, lsn)?;
        self.dpt.lock(&self.tracer).dirtied(pid, rec_lsn);
        self.steal(evicted)
    }

    /// Commit: force the log (records + commit record; under `PageLog`
    /// this forces the page images too), do the protocol's post-force
    /// work, release locks. NO-FORCE: data pages are *not* written to the
    /// volume here.
    ///
    /// The txn-table lock is released across the force so concurrent
    /// committers can append their own commit records while this one's
    /// batch syncs — that window is what group commit batches over.
    ///
    /// Returns the server's current [`LogPressure`], piggybacked on the
    /// commit acknowledgement so adaptive clients can weight their next
    /// scheme election without an extra round trip.
    pub fn commit(&self, txn: TxnId) -> QsResult<LogPressure> {
        let lsn = self.commit_append(txn)?;
        self.commit_force(lsn)?;
        let pressure = self.commit_finish(txn)?;
        // Watermark maintenance rides on the committing client. The commit
        // is durable and acknowledged whatever maintenance does: its
        // failure is not this transaction's.
        self.background_maintenance(self.maybe_maintain());
        Ok(pressure)
    }

    /// First step of [`Server::commit`]: append the commit record and
    /// return its LSN. Commit's three steps are separate functions so the
    /// server tests can land a checkpoint, or a crash, between them.
    pub(super) fn commit_append(&self, txn: TxnId) -> QsResult<Lsn> {
        let mut txns = self.txns.lock(&self.tracer);
        let prev = txns.active_mut(txn)?.last_lsn;
        let lsn = self.log.wal().append_with(|w| w.commit(txn, prev))?;
        // Flip to Committed under the same lock as the append. Checkpoint
        // snapshots (which also hold the txn-table lock across their own
        // record append) list only *active* transactions, so a transaction
        // is excluded exactly when its commit record precedes the
        // checkpoint record — otherwise a checkpoint landing between this
        // append and `commit_finish` would snapshot the transaction as
        // active, restart's forward scan (from the checkpoint) would never
        // see the earlier commit, and undo would roll back committed work.
        // The entry itself stays in the table until `commit_finish`, and
        // with it the transaction's hold on the log (`maint::keep_lsn`).
        txns.get_mut(txn)?.status = TxnStatus::Committed;
        Ok(lsn)
    }

    /// Second step of [`Server::commit`]: force the log through `lsn`
    /// (through the group committer when it is on) and meter the force.
    pub(super) fn commit_force(&self, lsn: Lsn) -> QsResult<()> {
        let stats = self.log.commit_force(lsn, &self.tracer)?;
        self.meter_force(stats);
        Ok(())
    }

    /// Last step of [`Server::commit`]: everything after the force.
    /// Returns the post-commit [`LogPressure`] for the reply piggyback.
    pub(super) fn commit_finish(&self, txn: TxnId) -> QsResult<LogPressure> {
        let mut txns = self.txns.lock(&self.tracer);
        // `get_mut`, not `active_mut`: `commit_append` already flipped the
        // status to Committed.
        let state = txns.get_mut(txn)?;
        match state.protocol {
            Protocol::Steal => {}
            Protocol::NoSteal => {
                // The force just made every deferred op durable; apply them
                // now, before the transaction leaves the table. The pending
                // lock is never nested inside the txn-table lock.
                drop(txns);
                self.apply_pending_committed(txn)?;
                txns = self.txns.lock(&self.tracer);
            }
            Protocol::PageLog => self.wpl.lock(&self.tracer).on_commit(txn),
        }
        txns.remove(txn);
        drop(txns);
        self.locks.release_all(txn);
        self.meter.commits.fetch_add(1, Ordering::Relaxed);
        Ok(self.log_pressure())
    }

    /// The server-side log-pressure signal piggybacked on commit replies:
    /// `fill` is the log's distance past the low watermark toward the high
    /// (truncation-anchor distance), `queue` is commit forces in flight
    /// over [`LogPressure::QUEUE_SATURATION`]. Both clamp to `[0, 1]`.
    pub fn log_pressure(&self) -> LogPressure {
        let used = self.log.wal().used_bytes() as f64;
        let cap = self.log.wal().body_capacity() as f64;
        let low = self.cfg.log_low_watermark;
        let high = self.cfg.log_high_watermark;
        let span = (high - low).max(f64::EPSILON);
        let fill = (used / cap - low) / span;
        let queue = self.log.forces_in_flight() as f64 / LogPressure::QUEUE_SATURATION as f64;
        LogPressure::new(fill, queue)
    }

    /// Abort. `Steal`: ARIES-style undo with CLRs ([`Server::undo_chain`]),
    /// then an abort record. `NoSteal`: the deferred ops were never applied
    /// anywhere — dropping them IS the rollback; close the chain with an
    /// abort record, no undo, no CLRs. `PageLog`: forget the transaction's
    /// logged images and drop its cached pages (§3.4.2: "abort … by simply
    /// ignoring, from then on, any of its updated values"). Each step takes
    /// only the locks it needs: other transactions run beside an abort.
    pub fn abort(&self, txn: TxnId) -> QsResult<()> {
        let (protocol, last) = {
            let mut txns = self.txns.lock(&self.tracer);
            let state = txns.active_mut(txn)?;
            (state.protocol, state.last_lsn)
        };
        match protocol {
            Protocol::PageLog => self.wpl_abort(txn)?,
            Protocol::NoSteal => {
                self.pending.lock(&self.tracer).discard(txn);
                self.log_abort(txn)?;
            }
            Protocol::Steal => {
                self.undo_chain(txn, last, &mut qs_wal::LogReadCache::default())?;
                self.log_abort(txn)?;
            }
        }
        self.locks.release_all(txn);
        Ok(())
    }

    /// Close `txn`'s chain with an abort record and drop it from the table,
    /// under one hold of the txn-table lock.
    pub(crate) fn log_abort(&self, txn: TxnId) -> QsResult<()> {
        let mut txns = self.txns.lock(&self.tracer);
        let prev = txns.get(txn)?.last_lsn;
        self.log.wal().append_with(|w| w.abort(txn, prev))?;
        txns.remove(txn);
        Ok(())
    }

    /// Walk a transaction's backward chain applying before-images, writing
    /// CLRs. Used by abort and by restart undo. Returns the number of
    /// update records undone (restart-report input). The walk is over
    /// encoded frames: `cache`, a log-page cache, lends each one out
    /// checksum-verified (the backward walk revisits the same log pages
    /// constantly, and the cache turns those into one log-disk fetch per
    /// distinct page — its fetch counter also feeds the restart report),
    /// the before-image is copied from the frame to the page, and the CLR
    /// is encoded straight into the log tail. Consecutive records naming
    /// one page are undone as one run ([`Server::undo_run`]); the walk
    /// holds at most one shard lock at a time.
    pub(crate) fn undo_chain(
        &self,
        txn: TxnId,
        from: Lsn,
        cache: &mut qs_wal::LogReadCache,
    ) -> QsResult<u64> {
        let mut undone = 0u64;
        let mut at = from;
        while !at.is_null() {
            let frame = cache.frame(self.log.wal(), at)?;
            at = match record::frame_tag(frame)? {
                tag::UPDATE => {
                    let pid = record::frame_page(frame)?.expect("page-bearing tag");
                    let (n, next) = self.undo_run(txn, pid, at, cache)?;
                    undone += n;
                    next
                }
                tag::CLR => record::frame_undo_next(frame)?,
                // A created page is not undone. But no CLR means no image
                // of it is ever stamped at or above this record, which the
                // DPT would wait for (pinning the log) for good: stamp the
                // dirty copy, or, with none, count the volume image — all
                // there will ever be — as covering the record.
                tag::WHOLE_PAGE | tag::PAGE_ALLOC => {
                    let pid = record::frame_page(frame)?.expect("page-bearing tag");
                    let prev = record::frame_prev(frame)?;
                    let mut pool = self.pool.lock(pid, &self.tracer);
                    if !pool.is_dirty(pid) {
                        self.dpt.lock(&self.tracer).flushed(pid, at);
                    } else if pool.peek(pid).is_some_and(|p| p.lsn() < at) {
                        pool.get_mut(pid).expect("dirty, so resident").set_lsn(at);
                        pool.mark_dirty(pid);
                    }
                    prev
                }
                // UpdateLogical carries no before-image (no-steal
                // transactions are never undone); if one is ever reached
                // here just walk past it.
                tag::UPDATE_LOGICAL | tag::TXN_SCHEME | tag::COMMIT | tag::ABORT => {
                    record::frame_prev(frame)?
                }
                tag::CHECKPOINT => break,
                t => {
                    return Err(QsError::LogCorrupt { detail: format!("unknown record tag {t}") });
                }
            };
        }
        Ok(undone)
    }

    /// Undo the run of consecutive `Update` records of `txn`'s chain that
    /// name `pid`, starting at `at`: returns how many it undid and where
    /// the chain goes on. Two steps. (1) Under the page's shard lock alone,
    /// fault it in — the data-disk read, and a victim's steal write — and
    /// pin it. (2) Under txn table → that shard → DPT, for each record:
    /// copy the before-image onto the page, append the CLR, stamp the LSN
    /// the append returned as the pageLSN, and list it in the transaction
    /// and the DPT — inside the critical section that appended it, as
    /// every record-receiving path does; then unpin. Locks are taken once
    /// per run, not once per record.
    fn undo_run(
        &self,
        txn: TxnId,
        pid: PageId,
        mut at: Lsn,
        cache: &mut qs_wal::LogReadCache,
    ) -> QsResult<(u64, Lsn)> {
        {
            let mut pool = self.pool.lock(pid, &self.tracer);
            self.fault_in(&mut pool, pid, None)?;
            pool.pin(pid);
        }
        let log = self.log.wal();
        let mut txns = self.txns.lock(&self.tracer);
        let mut pool = self.pool.lock(pid, &self.tracer);
        let mut dpt = self.dpt.lock(&self.tracer);
        let mut undone = 0u64;
        let next = (|| -> QsResult<Lsn> {
            let state = txns.active_mut(txn)?;
            let page = pool.get_mut(pid).expect("pinned, so resident");
            while !at.is_null() {
                let frame = cache.frame(log, at)?;
                if record::frame_tag(frame)? != tag::UPDATE
                    || record::frame_page(frame)? != Some(pid)
                {
                    break;
                }
                let record::UpdateImages { slot, offset, before, .. } =
                    record::frame_update_images(frame)?;
                let undo_next = record::frame_prev(frame)?;
                let off = offset as usize;
                page.object_mut(pid, slot)?
                    .get_mut(off..off + before.len())
                    .ok_or_else(|| QsError::RecoveryFailed {
                        detail: format!("undo range past object end on {pid}"),
                    })?
                    .copy_from_slice(before);
                let prev = state.last_lsn;
                let lsn =
                    log.append_with(|w| w.clr(txn, prev, pid, slot, offset, before, undo_next))?;
                page.set_lsn(lsn);
                state.note_logged(lsn);
                dpt.logged(pid, lsn);
                undone += 1;
                at = undo_next;
            }
            Ok(at)
        })();
        if undone > 0 {
            pool.mark_dirty(pid);
        }
        pool.unpin(pid);
        Ok((undone, next?))
    }
}
