//! Maintenance: the log-watermark trigger, the flusher hooks, and the
//! checkpoint — quiesced (flusher knob off, the default) or two-phase
//! fuzzy. Which pages a checkpoint writes home is the flavor's
//! [`CheckpointRule`]; the record body and the truncation bound are one
//! rule for every flavor, because a table a flavor does not use is empty.

use super::Server;
use crate::flusher::{FlusherHandle, FlusherMsg};
use crate::protocol::CheckpointRule;
use crate::txn::TxnTable;
use crate::wpl::WplTable;
use qs_storage::Page;
use qs_trace::TraceCat;
use qs_types::{Lsn, PageId, QsResult, TxnId};
use qs_wal::CheckpointBody;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A checkpoint record's body. Every table is a hash map: the snapshots
/// are sorted so the encoded record is deterministic.
fn checkpoint_body(
    txns: &TxnTable,
    dpt: &HashMap<PageId, Lsn>,
    wpl: &WplTable,
    allocated: usize,
) -> CheckpointBody {
    let mut active_txns: Vec<(TxnId, Lsn)> = txns.active().map(|t| (t.id, t.last_lsn)).collect();
    active_txns.sort_unstable_by_key(|&(t, _)| t.0);
    let mut dirty_pages: Vec<(PageId, Lsn)> = dpt.iter().map(|(&p, &l)| (p, l)).collect();
    dirty_pages.sort_unstable_by_key(|&(p, _)| p.0);
    CheckpointBody {
        active_txns,
        dirty_pages,
        wpl_entries: wpl.checkpoint_entries(),
        allocated_pages: allocated as u64,
    }
}

/// The earliest record still needed at or below `anchor`: the first record
/// of every active transaction, every recLSN in the DPT, every image the
/// WPL table references.
pub(super) fn keep_lsn(
    anchor: Lsn,
    txns: &TxnTable,
    dpt: &HashMap<PageId, Lsn>,
    wpl: &WplTable,
) -> Lsn {
    [txns.min_active_first_lsn(), dpt.values().min().copied(), wpl.min_needed_lsn()]
        .into_iter()
        .flatten()
        .fold(anchor, Lsn::min)
}

/// The pages `rule` drains, chosen from the DPT, in page-id order.
fn drain_set(rule: CheckpointRule, dpt: &HashMap<PageId, Lsn>, prev_ck: Lsn) -> Vec<PageId> {
    let mut pages: Vec<PageId> = match rule {
        CheckpointRule::None => Vec::new(),
        CheckpointRule::Sharp => dpt.keys().copied().collect(),
        // (Before the first checkpoint no recLSN is ≤ NULL: nothing ages.)
        CheckpointRule::Aged => {
            dpt.iter().filter(|&(_, &rec)| rec <= prev_ck).map(|(&p, _)| p).collect()
        }
    };
    pages.sort_unstable_by_key(|p| p.0);
    pages
}

impl Server {
    /// Run maintenance if the log is past its high watermark. With the
    /// background flusher running, the pass is queued there (deduplicated)
    /// and this returns immediately; otherwise it runs inline as before.
    pub fn maybe_maintain(&self) -> QsResult<()> {
        let (used, cap) = (self.log.wal().used_bytes(), self.log.wal().body_capacity());
        if (used as f64) < self.cfg.log_high_watermark * cap as f64 {
            return Ok(());
        }
        if self.request_checkpoint() {
            return Ok(());
        }
        self.maintain_now()
    }

    /// Run one maintenance pass (checkpoint or WPL reclaim) on the
    /// calling thread, whatever the log level.
    pub fn maintain_now(&self) -> QsResult<()> {
        if self.page_log() {
            self.wpl_reclaim()
        } else {
            self.checkpoint()
        }
    }

    /// The outcome of a maintenance `pass` run on behalf of nobody: the
    /// committing client (its commit is already durable and acknowledged),
    /// the reactor's committer and the flusher thread have no one to return
    /// a failure to. It is traced, and the next watermark crossing retries.
    pub(crate) fn background_maintenance(&self, pass: QsResult<()>) {
        if pass.is_err() {
            self.tracer.event(TraceCat::Checkpoint, "maintain_error", 0, 0);
        }
    }

    /// Queue a maintenance pass on the flusher thread (also the benchmark /
    /// scale-harness hook for periodic maintenance below the watermark).
    /// Returns false when no flusher is running (the caller should run
    /// inline); true when the pass is queued or one already is (requests
    /// are deduplicated, so a storm of committers costs one wakeup).
    pub fn request_checkpoint(&self) -> bool {
        let handle = self.flusher.lock();
        let Some(h) = handle.as_ref() else { return false };
        if self
            .maint_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            && h.tx.send(FlusherMsg::Maintain).is_err()
        {
            self.maint_pending.store(false, Ordering::Release);
            return false;
        }
        true
    }

    /// One flusher-thread maintenance pass.
    pub(crate) fn flusher_tick(&self) {
        self.maint_pending.store(false, Ordering::Release);
        self.background_maintenance(self.maintain_now());
    }

    /// Start the background flusher thread (no-op when the config knob is
    /// off or it is already running). Needs the `Arc` so the thread can
    /// hold a weak back-pointer that never outlives a crash.
    pub fn start_flusher(self: &Arc<Server>) {
        if !self.cfg.flusher.enabled {
            return;
        }
        let mut handle = self.flusher.lock();
        if handle.is_none() {
            *handle = Some(FlusherHandle::spawn(self));
        }
    }

    /// Stop and join the flusher thread, letting any queued pass finish
    /// first (no-op when not running). Tests call this before `crash()`
    /// so the `Arc` can be unwrapped.
    pub fn stop_flusher(&self) {
        let handle = self.flusher.lock().take();
        if let Some(h) = handle {
            h.stop();
        }
    }

    /// `(elevator batches, pages)` written by fuzzy-checkpoint drains.
    pub fn flusher_stats(&self) -> (u64, u64) {
        (self.flusher_batches.load(Ordering::Relaxed), self.flusher_pages.load(Ordering::Relaxed))
    }

    /// [`Server::meter_force`] for maintenance-path forces: bills the same
    /// legacy counters (so windowed figure demand is unchanged) *plus* the
    /// `maint_*` sub-accounting, which lets reports separate checkpoint /
    /// reclaim I/O from the victim transaction that used to absorb it.
    pub(super) fn meter_force_maint(&self, stats: qs_wal::log::ForceStats) {
        if stats.wrote {
            self.meter.maint_log_pages_written.fetch_add(stats.pages_written, Ordering::Relaxed);
            self.meter.maint_log_forces.fetch_add(1, Ordering::Relaxed);
        }
        self.meter_force(stats);
    }

    /// Bill maintenance-path data-page writes to both the legacy counter
    /// and the maintenance sub-account.
    pub(super) fn meter_data_write_maint(&self, pages: u64) {
        self.meter.data_writes.fetch_add(pages, Ordering::Relaxed);
        self.meter.maint_data_writes.fetch_add(pages, Ordering::Relaxed);
    }

    /// Take a checkpoint. With the flusher knob off (the default) this is
    /// the original quiesced protocol: write home what the flavor's
    /// [`CheckpointRule`] says — everything dirty for a sharp checkpoint,
    /// so the log can truncate to it — then append the record (§3.4.3:
    /// under WPL it carries the WPL table). With the knob on it is the
    /// two-phase fuzzy protocol instead (begin record → incremental drain →
    /// end record), which never quiesces the server.
    pub fn checkpoint(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        self.checkpoint_serialized()
    }

    /// [`Server::checkpoint`] for callers already holding the
    /// (non-reentrant) serial lock.
    pub(super) fn checkpoint_serialized(&self) -> QsResult<()> {
        if self.cfg.flusher.enabled {
            self.checkpoint_fuzzy()
        } else {
            self.checkpoint_quiesced()
        }
    }

    fn checkpoint_quiesced(&self) -> QsResult<()> {
        let (flushed, log_used) = self.with_quiesced(|view| -> QsResult<(u64, u64)> {
            let rule = self.facts.checkpoint;
            // A sharp checkpoint takes whatever the pool holds dirty; the
            // aged one picks from the DPT.
            let drain = match rule {
                CheckpointRule::Sharp => view.pool.dirty_pages(),
                rule => drain_set(rule, view.dpt, view.log.checkpoint_lsn()),
            };
            // WAL: one force through the highest pageLSN, then write the
            // still-resident pages home.
            let max_lsn = drain.iter().filter_map(|p| view.pool.peek(*p)).map(|p| p.lsn()).max();
            if let Some(l) = max_lsn {
                let stats = view.log.force(l)?;
                self.meter_force_maint(stats);
            }
            let mut flushed = 0u64;
            for &pid in &drain {
                if let Some(page) = view.pool.peek(pid).cloned() {
                    view.volume.write_page(pid, &page)?;
                    self.meter_data_write_maint(1);
                    view.pool.shard(pid).clear_dirty(pid);
                    flushed += 1;
                }
            }
            if rule == CheckpointRule::Sharp {
                view.dpt.clear();
            }
            for pid in &drain {
                view.dpt.remove(pid);
            }
            let body = checkpoint_body(view.txns, view.dpt, view.wpl, view.volume.allocated());
            let ck_lsn = view.log.append_with(|w| w.checkpoint(&body))?;
            let stats = view.log.force(view.log.tail_lsn())?;
            self.meter_force_maint(stats);
            view.log.set_checkpoint(ck_lsn)?;
            view.volume.sync_header()?;
            view.log.truncate_to(keep_lsn(ck_lsn, view.txns, view.dpt, view.wpl))?;
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
            Ok((flushed, view.log.used_bytes() as u64))
        })?;
        self.tracer.event(TraceCat::Checkpoint, "taken", flushed, log_used);
        Ok(())
    }

    /// The two-phase fuzzy checkpoint (flusher knob on): append a
    /// begin-checkpoint record carrying the table snapshots, drain the
    /// claimed dirty set incrementally (never holding more than one shard
    /// lock), then append an end-checkpoint record and advance the log
    /// truncation low-water mark. Foreground traffic runs throughout.
    fn checkpoint_fuzzy(&self) -> QsResult<()> {
        let (begin, claimed) = self.fuzzy_begin()?;
        let flushed = self.fuzzy_drain(&claimed)?;
        self.fuzzy_end(begin, flushed)
    }

    /// Phase 1: snapshot the transaction / dirty-page / WPL tables, pick
    /// the claimed set the drain will flush (the same rule as the quiesced
    /// checkpoint, read off the DPT), and append the begin-checkpoint
    /// record. The txn-table lock is held across the append (every
    /// transaction-logging path holds it too), so the body is atomic with
    /// respect to the log: a record at LSN > begin is not reflected in the
    /// body, one at LSN < begin is.
    fn fuzzy_begin(&self) -> QsResult<(Lsn, Vec<PageId>)> {
        let txns = self.txns.lock(&self.tracer);
        let wpl = self.wpl.lock(&self.tracer);
        let dpt = self.dpt.lock(&self.tracer);
        let claimed = drain_set(self.facts.checkpoint, &dpt, self.log.wal().checkpoint_lsn());
        let allocated = self.volume.lock(&self.tracer).allocated();
        let body = checkpoint_body(&txns, &dpt, &wpl, allocated);
        drop(dpt);
        drop(wpl);
        let begin = self.log.wal().append_with(|w| w.begin_checkpoint(&body))?;
        drop(txns);
        Ok((begin, claimed))
    }

    /// Phase 2: the incremental drain. Pages are claimed batch-by-batch
    /// under only their shard's lock: each still-dirty resident page is
    /// snapshotted into a pooled buffer and *pinned* (so the LRU cannot
    /// evict-and-write-back a newer image that this batch's older
    /// snapshot would then clobber), the lock is released, the log is
    /// forced through the batch's highest pageLSN (WAL), and the images
    /// go to the data disk in one ascending elevator sweep. The confirm
    /// step unpins and marks clean only pages whose LSN did not move —
    /// a page re-dirtied mid-flight keeps its dirt and its DPT entry, so
    /// nothing is lost and the stale write is covered by a later one.
    fn fuzzy_drain(&self, claimed: &[PageId]) -> QsResult<u64> {
        if claimed.is_empty() {
            return Ok(0);
        }
        let nshards = self.pool.shard_count();
        // Cap claims at half a shard so pinned pages can never wedge
        // foreground inserts into `BufferPoolExhausted`.
        let per_shard = (self.cfg.pool_pages / nshards).max(1);
        let batch_pages = self.cfg.flusher.batch_pages.clamp(1, (per_shard / 2).max(1));
        let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); nshards];
        for &pid in claimed {
            by_shard[self.pool.shard_of(pid)].push(pid);
        }
        let mut flushed = 0u64;
        for (idx, pids) in by_shard.iter().enumerate() {
            for chunk in pids.chunks(batch_pages) {
                let t0 = std::time::Instant::now();
                let mut pool = self.pool.lock_shard(idx, &self.tracer);
                self.tracer.record("flusher_claim_wait_ns", t0.elapsed().as_nanos() as u64);
                let mut batch: Vec<(PageId, Page)> = Vec::new();
                for &pid in chunk {
                    if pool.is_dirty(pid) {
                        if let Some(p) = pool.peek(pid) {
                            batch.push((pid, self.snapshots.snapshot(p)));
                            pool.pin(pid);
                        }
                    }
                }
                drop(pool);
                if batch.is_empty() {
                    continue;
                }
                let max_lsn = batch.iter().map(|(_, p)| p.lsn()).max().expect("non-empty batch");
                let stats = self.log.wal().force(max_lsn)?;
                self.meter_force_maint(stats);
                // `claimed` is pid-sorted, so each shard's chunk is too.
                self.volume.write_sorted(&self.tracer, &batch)?;
                self.meter_data_write_maint(batch.len() as u64);
                let n = batch.len() as u64;
                let mut pool = self.pool.lock_shard(idx, &self.tracer);
                let mut dpt = self.dpt.lock(&self.tracer);
                let mut recycle = Vec::with_capacity(batch.len());
                for (pid, snap) in batch {
                    pool.unpin(pid);
                    let unchanged = pool.peek(pid).map(|p| p.lsn() == snap.lsn()).unwrap_or(false);
                    if unchanged && pool.is_dirty(pid) {
                        pool.clear_dirty(pid);
                        dpt.remove(&pid);
                    }
                    recycle.push(snap);
                }
                drop(dpt);
                drop(pool);
                self.snapshots.recycle(recycle);
                flushed += n;
                self.flusher_batches.fetch_add(1, Ordering::Relaxed);
                self.flusher_pages.fetch_add(n, Ordering::Relaxed);
                self.tracer.event(TraceCat::Flusher, "batch", n, 0);
                self.tracer.record("flusher_batch_pages", n);
            }
        }
        Ok(flushed)
    }

    /// Phase 3: append and force the end-checkpoint record, and only then
    /// advance the header checkpoint to the *begin* record — a crash
    /// between the pair leaves the header on the previous complete
    /// checkpoint, so restart falls back automatically. Finally advance
    /// the truncation low-water mark as far as the tables allow.
    fn fuzzy_end(&self, begin: Lsn, flushed: u64) -> QsResult<()> {
        let txns = self.txns.lock(&self.tracer);
        let end = self.log.wal().append_with(|w| w.end_checkpoint(begin))?;
        let stats = self.log.wal().force(end)?;
        self.meter_force_maint(stats);
        self.log.wal().set_checkpoint(begin)?;
        self.volume.lock(&self.tracer).sync_header()?;
        let keep = {
            let wpl = self.wpl.lock(&self.tracer);
            let dpt = self.dpt.lock(&self.tracer);
            keep_lsn(begin, &txns, &dpt, &wpl)
        };
        self.log.wal().advance_low_water_mark(keep)?;
        drop(txns);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.tracer.event(
            TraceCat::Checkpoint,
            "fuzzy",
            flushed,
            self.log.wal().used_bytes() as u64,
        );
        Ok(())
    }

    /// Append and force a begin-checkpoint record, then stop — leaving
    /// the checkpoint incomplete on purpose. Crash-injection hook for the
    /// begin/end fallback tests; no production path calls this.
    #[doc(hidden)]
    pub fn begin_checkpoint_for_test(&self) -> QsResult<Lsn> {
        let _serial = self.ckpt_serial.lock();
        let (begin, _claimed) = self.fuzzy_begin()?;
        let stats = self.log.wal().force(self.log.wal().tail_lsn())?;
        self.meter_force_maint(stats);
        Ok(begin)
    }

    /// Flush everything dirty and checkpoint (test/benchmark quiesce hook).
    pub fn quiesce(&self) -> QsResult<()> {
        if self.page_log() {
            // Drain the WPL table completely: reclaim with no log left to
            // spare.
            self.with_quiesced(|view| self.wpl_drain(view, 0))?;
        }
        if self.facts.checkpoint == CheckpointRule::Aged {
            // A first pass ages every current dirty page, so the second
            // drains them all.
            self.checkpoint()?;
        }
        self.checkpoint()
    }
}
