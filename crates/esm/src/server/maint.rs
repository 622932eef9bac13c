//! Maintenance: the log-watermark trigger, the flusher hooks, and the
//! checkpoint. There is one checkpoint procedure ([`Server::checkpoint`]):
//! drain incrementally, then write one record. Which pages the drain
//! writes home is the flavor's [`CheckpointRule`]; the record body and the
//! truncation bound are one rule for every flavor, because a table a
//! flavor does not use is empty. Nothing here stops the server: the drain
//! holds one pool-shard lock at a time, the record is taken under the
//! txn-table lock alone (DESIGN.md §6b "The checkpoint"). Every pass —
//! checkpoint, WPL reclaim, `quiesce` — holds the maintenance lock.

use super::Server;
use crate::dpt::DirtyPages;
use crate::flusher::{FlusherHandle, FlusherMsg};
use crate::protocol::CheckpointRule;
use crate::txn::{TxnStatus, TxnTable};
use crate::wpl::WplTable;
use qs_storage::Page;
use qs_trace::{TraceCat, TracedGuard};
use qs_types::{Lsn, PageId, QsResult, TxnId};
use qs_wal::CheckpointBody;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pages the drain claims (snapshots and pins) per shard-lock acquisition.
/// Small batches bound how long a claim holds a shard lock against
/// foreground traffic; large ones amortize the elevator sweep.
const DRAIN_BATCH_PAGES: usize = 64;

/// A drain batch between claim and confirm: its shard, the snapshots,
/// pid-sorted, and the version each page's frame had when snapshotted.
pub(super) struct Claimed {
    shard: usize,
    images: Vec<(PageId, Page)>,
    versions: Vec<u64>,
}

/// A checkpoint record's body. The transaction table is a hash map, so
/// its snapshot is sorted like the dirty-page table's: the encoded record
/// is deterministic.
fn checkpoint_body(
    txns: &TxnTable,
    dpt: &DirtyPages,
    wpl: &WplTable,
    allocated: usize,
) -> CheckpointBody {
    let mut active_txns: Vec<(TxnId, Lsn)> = txns.active().map(|t| (t.id, t.last_lsn)).collect();
    active_txns.sort_unstable_by_key(|&(t, _)| t.0);
    let mut wpl_entries = wpl.checkpoint_entries();
    // A transaction between its commit record and `commit_finish` still has
    // its images marked uncommitted in the WPL table. Its commit record
    // lies below this one, where WPL restart does not scan: the body is
    // the only place that can say the images are committed.
    for e in wpl_entries.iter_mut().filter(|e| !e.committed) {
        e.committed = txns.get(e.txn).is_ok_and(|t| t.status == TxnStatus::Committed);
    }
    CheckpointBody {
        active_txns,
        dirty_pages: dpt.snapshot(),
        wpl_entries,
        allocated_pages: allocated as u64,
    }
}

/// The earliest record still needed at or below `anchor`: the first record
/// of every transaction still in the table (a committed no-steal one is
/// there until its deferred ops are applied), every recLSN in the DPT,
/// every image the WPL table references.
pub(super) fn keep_lsn(anchor: Lsn, txns: &TxnTable, dpt: &DirtyPages, wpl: &WplTable) -> Lsn {
    [txns.min_first_lsn(), dpt.min_rec_lsn(), wpl.min_needed_lsn()]
        .into_iter()
        .flatten()
        .fold(anchor, Lsn::min)
}

/// The pages `rule` drains, chosen from the DPT, in page-id order.
fn drain_set(rule: CheckpointRule, dpt: &DirtyPages, prev_ck: Lsn) -> Vec<PageId> {
    let aged_by = match rule {
        CheckpointRule::None => return Vec::new(),
        CheckpointRule::Sharp => Lsn(u64::MAX),
        // (Before the first checkpoint no recLSN is ≤ NULL: nothing ages.)
        CheckpointRule::Aged => prev_ck,
    };
    let listed = dpt.snapshot().into_iter();
    listed.filter(|&(_, rec_lsn)| rec_lsn <= aged_by).map(|(pid, _)| pid).collect()
}

impl Server {
    pub(super) fn past_high_watermark(&self) -> bool {
        let (used, cap) = (self.log.wal().used_bytes(), self.log.wal().body_capacity());
        used as f64 >= self.cfg.log_high_watermark * cap as f64
    }

    /// Run maintenance if the log is past its high watermark. With the
    /// background flusher running, the pass is queued there (deduplicated)
    /// and this returns immediately; otherwise it runs on the caller —
    /// unless a pass the caller had to wait for has already brought the
    /// log back under the watermark (nothing stops during a pass, so every
    /// client that commits meanwhile arrives here too).
    pub fn maybe_maintain(&self) -> QsResult<()> {
        if !self.past_high_watermark() || self.request_checkpoint() {
            return Ok(());
        }
        let _serial = self.ckpt_serial.lock();
        if !self.past_high_watermark() {
            return Ok(());
        }
        self.maintain_serialized()
    }

    /// Run one maintenance pass (checkpoint or WPL reclaim) on the
    /// calling thread, whatever the log level.
    pub fn maintain_now(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        self.maintain_serialized()
    }

    fn maintain_serialized(&self) -> QsResult<()> {
        if self.page_log() {
            self.wpl_reclaim()
        } else {
            self.checkpoint_serialized()
        }
    }

    /// The outcome of a maintenance `pass` run on behalf of nobody: the
    /// committing client (its commit is already durable and acknowledged)
    /// and the flusher thread have no one to return a failure to. It is
    /// traced, and the next watermark crossing retries.
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

    /// Start the background flusher thread (no-op when it is already
    /// running): from here on watermark maintenance is queued to it
    /// instead of riding on the committing client. Needs the `Arc` so the
    /// thread can hold a weak back-pointer that never outlives a crash.
    pub fn start_flusher(self: &Arc<Server>) {
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

    /// `(elevator batches, pages)` written by checkpoint drains.
    pub fn drain_stats(&self) -> (u64, u64) {
        (self.drain_batches.load(Ordering::Relaxed), self.drain_pages.load(Ordering::Relaxed))
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

    /// Take a checkpoint, with transactions running or not:
    ///
    /// 1. read the flavor's drain set off the DPT (everything listed for a
    ///    sharp checkpoint, so the log can truncate to it; nothing under
    ///    `PageLog`, whose write-back is WPL reclaim);
    /// 2. write those pages home incrementally ([`Server::drain`]);
    /// 3. holding the txn-table lock — as every path that appends a
    ///    transaction's record does — snapshot the tables, append one
    ///    `Checkpoint` record (§3.4.3: under WPL it carries the WPL table)
    ///    and force it;
    /// 4. name it in the log header, sync the volume header, advance the
    ///    log's low-water mark.
    ///
    /// The body is the tables at one instant of the log (step 3's lock), so
    /// a record below the anchor is reflected in it and one above is not;
    /// the anchor lies after the drain, so restart scans from there. A
    /// crash before step 4 leaves the header on the previous checkpoint.
    /// With nobody else running this is the stop-the-world checkpoint it
    /// replaced, operation for operation.
    pub fn checkpoint(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        self.checkpoint_serialized()
    }

    /// [`Server::checkpoint`] for callers already holding the
    /// (non-reentrant) serial lock.
    pub(super) fn checkpoint_serialized(&self) -> QsResult<()> {
        let (txns, ck_lsn, flushed) = self.log_checkpoint()?;
        let wal = self.log.wal();
        wal.set_checkpoint(ck_lsn)?;
        self.volume.lock(&self.tracer).sync_header()?;
        let keep = {
            let wpl = self.wpl.lock(&self.tracer);
            let dpt = self.dpt.lock(&self.tracer);
            keep_lsn(ck_lsn, &txns, &dpt, &wpl)
        };
        wal.advance_low_water_mark(keep)?;
        drop(txns);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.tracer.event(TraceCat::Checkpoint, "taken", flushed, wal.used_bytes() as u64);
        Ok(())
    }

    /// Steps 1–3 of [`Server::checkpoint`]: drain, then append and force
    /// the record. Returns the txn-table guard the record was taken under,
    /// the record's LSN and the pages the drain wrote.
    fn log_checkpoint(&self) -> QsResult<(TracedGuard<'_, TxnTable>, Lsn, u64)> {
        let wal = self.log.wal();
        let claimed =
            drain_set(self.facts.checkpoint, &self.dpt.lock(&self.tracer), wal.checkpoint_lsn());
        let flushed = self.drain(&claimed)?;
        let txns = self.txns.lock(&self.tracer);
        let body = {
            let wpl = self.wpl.lock(&self.tracer);
            let dpt = self.dpt.lock(&self.tracer);
            let allocated = self.volume.lock(&self.tracer).allocated();
            checkpoint_body(&txns, &dpt, &wpl, allocated)
        };
        let ck_lsn = wal.append_with(|w| w.checkpoint(&body))?;
        // Nobody appends while the txn-table lock is held: this is the tail.
        let stats = wal.force(ck_lsn)?;
        self.meter_force_maint(stats);
        Ok((txns, ck_lsn, flushed))
    }

    /// The incremental drain. WAL first, once: the log is forced through
    /// the highest pageLSN among the claimed pages that are resident and
    /// dirty. Then each shard's pages go home batch by batch:
    /// [`Server::drain_claim`] under only that shard's lock, then
    /// [`Server::drain_write_home`].
    fn drain(&self, claimed: &[PageId]) -> QsResult<u64> {
        if claimed.is_empty() {
            return Ok(0);
        }
        let nshards = self.pool.shard_count();
        // `claimed` is pid-sorted, so each shard's share is too.
        let mut by_shard: Vec<Vec<PageId>> = vec![Vec::new(); nshards];
        for &pid in claimed {
            by_shard[self.pool.shard_of(pid)].push(pid);
        }
        let mut max_lsn = None;
        for (idx, pids) in by_shard.iter().enumerate().filter(|(_, pids)| !pids.is_empty()) {
            let pool = self.pool.lock_shard(idx, &self.tracer);
            let dirty = pids.iter().filter(|&&pid| pool.is_dirty(pid));
            max_lsn = max_lsn.max(dirty.filter_map(|&pid| pool.peek(pid)).map(Page::lsn).max());
        }
        if let Some(lsn) = max_lsn {
            self.meter_force_maint(self.log.wal().force(lsn)?);
        }
        // Cap claims at half a shard so pinned pages can never wedge
        // foreground inserts into `BufferPoolExhausted`.
        let per_shard = (self.cfg.pool_pages / nshards).max(1);
        let batch_pages = DRAIN_BATCH_PAGES.min((per_shard / 2).max(1));
        let mut flushed = 0u64;
        // Snapshot buffers, handed from one batch to the next.
        let mut spare: Vec<Page> = Vec::new();
        for (idx, pids) in by_shard.iter().enumerate() {
            for chunk in pids.chunks(batch_pages) {
                let batch = self.drain_claim(idx, chunk, &mut spare);
                if !batch.images.is_empty() {
                    flushed += self.drain_write_home(batch, &mut spare)?;
                }
            }
        }
        Ok(flushed)
    }

    /// Claim the still-dirty resident pages among `pids` (all of shard
    /// `idx`): copy each (into a `spare` buffer, while there are any) and
    /// *pin* it, so the LRU cannot evict-and-write-back a newer image that
    /// this batch's older snapshot would then clobber. Holds the shard's
    /// lock and nothing else.
    pub(super) fn drain_claim(
        &self,
        idx: usize,
        pids: &[PageId],
        spare: &mut Vec<Page>,
    ) -> Claimed {
        let t0 = std::time::Instant::now();
        let mut pool = self.pool.lock_shard(idx, &self.tracer);
        self.tracer.record("drain_claim_wait_ns", t0.elapsed().as_nanos() as u64);
        let mut batch = Claimed { shard: idx, images: Vec::new(), versions: Vec::new() };
        for &pid in pids {
            if !pool.is_dirty(pid) {
                continue;
            }
            if let (Some(page), Some(version)) = (pool.peek(pid), pool.version(pid)) {
                let mut image = spare.pop().unwrap_or_default();
                image.bytes_mut().copy_from_slice(page.bytes());
                batch.images.push((pid, image));
                batch.versions.push(version);
                pool.pin(pid);
            }
        }
        batch
    }

    /// Write a claimed batch home and confirm it. No lock is held across
    /// the I/O: the log is forced again only if the batch holds a pageLSN
    /// that is not durable yet (a page dirtied since the drain's first
    /// force), and the images go to the data disk in one ascending elevator
    /// sweep. The confirm step unpins, and marks clean only pages whose
    /// frame version did not move since the claim (the pageLSN can stay
    /// put under a change: [`Server::redo_onto_pool`]) — a page re-dirtied
    /// mid-flight keeps its dirt, so the stale write is covered by a later
    /// one — and the DPT retires an entry only if the image written holds
    /// everything logged for the page ([`DirtyPages::flushed`]).
    pub(super) fn drain_write_home(&self, batch: Claimed, spare: &mut Vec<Page>) -> QsResult<u64> {
        let wal = self.log.wal();
        let Claimed { shard, images, versions } = batch;
        let max_lsn = images.iter().map(|(_, p)| p.lsn()).max().expect("non-empty batch");
        let written = (|| {
            if max_lsn >= wal.durable_lsn() {
                self.meter_force_maint(wal.force(max_lsn)?);
            }
            self.volume.write_sorted(&self.tracer, &images)
        })();
        let n = images.len() as u64;
        let mut pool = self.pool.lock_shard(shard, &self.tracer);
        let mut dpt = self.dpt.lock(&self.tracer);
        for ((pid, image), version) in images.iter().zip(versions) {
            pool.unpin(*pid);
            if written.is_ok() && pool.version(*pid) == Some(version) {
                pool.clear_dirty(*pid);
                dpt.flushed(*pid, image.lsn());
            }
        }
        drop(dpt);
        drop(pool);
        spare.extend(images.into_iter().map(|(_, image)| image));
        written?;
        self.meter_data_write_maint(n);
        self.drain_batches.fetch_add(1, Ordering::Relaxed);
        self.drain_pages.fetch_add(n, Ordering::Relaxed);
        self.tracer.event(TraceCat::Flusher, "batch", n, 0);
        self.tracer.record("drain_batch_pages", n);
        Ok(n)
    }

    /// Drain, append and force a checkpoint record, then stop before the
    /// log header names it — leaving the previous checkpoint the anchor on
    /// purpose. Crash-injection hook for the fallback tests; no production
    /// path calls this.
    #[doc(hidden)]
    pub fn checkpoint_stopping_before_the_header_for_test(&self) -> QsResult<Lsn> {
        let _serial = self.ckpt_serial.lock();
        self.log_checkpoint().map(|(_txns, ck_lsn, _flushed)| ck_lsn)
    }

    /// Flush everything dirty and checkpoint (test/benchmark hook): one
    /// maintenance pass like any other, so it runs beside transactions.
    pub fn quiesce(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        if self.page_log() {
            // Drain the WPL table completely: reclaim with no log left to
            // spare.
            self.wpl_drain(0)?;
        }
        if self.facts.checkpoint == CheckpointRule::Aged {
            // A first pass ages every current dirty page, so the second
            // drains them all.
            self.checkpoint_serialized()?;
        }
        self.checkpoint_serialized()
    }
}
