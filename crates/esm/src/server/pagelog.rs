//! The server half of the `PageLog` protocol — whole-page logging (paper
//! §3.4), over the table in [`crate::wpl`]: log a shipped page, serve the
//! newest logged image, write committed images home and reclaim their log
//! space. No other protocol reaches this file.

use super::maint::keep_lsn;
use super::Server;
use qs_storage::Page;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId};
use qs_wal::{record, LogManager};
use std::sync::atomic::Ordering;

/// The page image in the whole-page record of `pid` at `lsn`, read
/// through the frame view: copied once, frame to page.
fn page_image_from_log(log: &LogManager, lsn: Lsn, pid: PageId) -> QsResult<Page> {
    let frame = log.read_frame(lsn)?;
    if record::frame_page(&frame)? != Some(pid) {
        return Err(QsError::RecoveryFailed {
            detail: format!("expected WholePage for {pid} at {lsn}"),
        });
    }
    Page::from_bytes(record::frame_whole_page_image(&frame)?)
}

impl Server {
    /// Receive a dirty page: append the whole page to the log, track it in
    /// the WPL table, copy it into the pool stamped with the record's LSN.
    /// Its permanent location stays untouched until after commit (§3.4.2).
    pub(super) fn wpl_receive_page(&self, txn: TxnId, pid: PageId, page: &Page) -> QsResult<()> {
        let mut txns = self.txns.lock(&self.tracer);
        let state = txns.active_mut(txn)?;
        let prev = state.last_lsn;
        let lsn = self.log.wal().append_with(|w| w.whole_page(txn, prev, pid, page.bytes()))?;
        state.note_logged(lsn);
        // Inside the critical section that appended the image, like the
        // DPT publish: a checkpoint body never holds one without the other.
        self.wpl.lock(&self.tracer).log_page(pid, lsn, txn);
        drop(txns);
        let mut pool = self.pool.lock(pid, &self.tracer);
        let evicted = pool.insert_copy(pid, page, lsn)?;
        self.steal(evicted)
    }

    /// The newest logged image of `pid`, if the WPL table tracks one — it
    /// is authoritative. Page locking guarantees an uncommitted image is
    /// only ever re-read by its own transaction (X lock held), which the
    /// paper relies on too ("read from the log if it is reaccessed during
    /// the same transaction").
    pub(super) fn wpl_logged_image(
        &self,
        reader: Option<TxnId>,
        pid: PageId,
    ) -> QsResult<Option<Page>> {
        match self.wpl.lock(&self.tracer).newest(pid).cloned() {
            Some(v) if v.committed || reader == Some(v.txn) => {
                self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
                page_image_from_log(self.log.wal(), v.lsn, pid).map(Some)
            }
            Some(v) => Err(QsError::Protocol {
                detail: format!(
                    "page {pid} has uncommitted logged image of {} but is read by {reader:?}",
                    v.txn
                ),
            }),
            None => Ok(None),
        }
    }

    pub fn wpl_images_reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// WPL table size (pages tracked).
    pub fn wpl_table_len(&self) -> usize {
        self.wpl.lock(&self.tracer).len()
    }

    /// Abort of a `PageLog` transaction: its images are garbage. Each page
    /// on its WPL-table list has its cached copy dropped and its version
    /// leave the table under that page's shard lock, one at a time.
    pub(super) fn wpl_abort(&self, txn: TxnId) -> QsResult<()> {
        let images = self.wpl.lock(&self.tracer).take_logged(txn);
        for pid in images {
            let mut pool = self.pool.lock(pid, &self.tracer);
            pool.remove(pid);
            self.wpl.lock(&self.tracer).on_abort(txn, pid);
        }
        self.txns.lock(&self.tracer).remove(txn);
        Ok(())
    }

    /// Reclaim committed images, oldest first, until log usage is down to
    /// `low` bytes (0: drain the table). Images superseded by newer
    /// committed images are dropped without I/O; live images are written
    /// to their permanent locations. The caller holds the maintenance
    /// lock; transactions run meanwhile. The rule that keeps a reader
    /// safe: a version leaves the table here only under its page's shard
    /// lock, which a reader re-reading the image from the log holds
    /// ([`Server::fault_in`]), and a live image is written home from the
    /// pool copy under that same lock.
    pub(super) fn wpl_drain(&self, low: usize) -> QsResult<()> {
        let wal = self.log.wal();
        while wal.used_bytes() > low {
            let Some((pid, ..)) = self.wpl.lock(&self.tracer).reclaim_candidate() else {
                break;
            };
            let mut pool = self.pool.lock(pid, &self.tracer);
            let mut wpl = self.wpl.lock(&self.tracer);
            // Settled again under the shard lock: a commit may have
            // dropped the candidate, or made an older version the oldest.
            let Some((pid, lsn, superseded)) = wpl.reclaim_candidate().filter(|&(p, ..)| p == pid)
            else {
                continue;
            };
            if !superseded {
                // Interleaving invariance (§6f): when a newer *uncommitted*
                // version of this page exists, whether the candidate reads
                // as live or superseded is being decided by a race against
                // that in-flight transaction's commit — one schedule pays a
                // read-back plus write-home, another pays nothing. Defer:
                // the commit (or abort) settles supersession on a stable
                // per-transaction account, and the next watermark crossing
                // retries. (`break`, not `continue`: the candidate would
                // not change.)
                if wpl.has_newer_uncommitted(pid, lsn) {
                    break;
                }
                // The pool copy is the live image when it is the newest
                // version (the paper's optimization), else it is read back
                // from the log.
                let cached = wpl.newest(pid).is_some_and(|v| v.lsn == lsn) && pool.contains(pid);
                drop(wpl);
                let page = if cached {
                    pool.peek(pid).expect("cached").clone()
                } else {
                    self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
                    self.meter.maint_log_pages_read.fetch_add(1, Ordering::Relaxed);
                    page_image_from_log(wal, lsn, pid)?
                };
                self.volume.lock(&self.tracer).write_page(pid, &page)?;
                self.meter_data_write_maint(1);
                if cached {
                    pool.clear_dirty(pid);
                }
                wpl = self.wpl.lock(&self.tracer);
            }
            wpl.remove_version(pid, lsn);
            drop(wpl);
            drop(pool);
            self.reclaimed.fetch_add(1, Ordering::Relaxed);

            // Advance the log start as far as the table and active
            // transactions allow; if we cannot advance past an uncommitted
            // image, stop (the paper's thread would wait for the commit).
            let ck = wal.checkpoint_lsn();
            let durable = wal.durable_lsn();
            let anchor = if ck.is_null() { durable } else { durable.min(ck) };
            let keep = {
                let txns = self.txns.lock(&self.tracer);
                let wpl = self.wpl.lock(&self.tracer);
                keep_lsn(anchor, &txns, &self.dpt.lock(&self.tracer), &wpl)
            };
            wal.truncate_to(keep)?;
            if wal.used_bytes() > low && self.wpl.lock(&self.tracer).oldest_is_uncommitted() {
                break;
            }
        }
        Ok(())
    }

    /// WPL log-space reclamation (the paper's background thread, §3.4.2,
    /// run here synchronously until the low watermark is reached). The
    /// caller holds the maintenance lock.
    pub(super) fn wpl_reclaim(&self) -> QsResult<()> {
        let low = (self.cfg.log_low_watermark * self.log.wal().body_capacity() as f64) as usize;
        self.wpl_drain(low)?;
        // Refresh the checkpoint so restart's backward scan stays short and
        // the old checkpoint stops pinning the log tail.
        self.checkpoint_serialized()
    }
}
