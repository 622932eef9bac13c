//! The server half of the `PageLog` protocol — whole-page logging (paper
//! §3.4), over the table in [`crate::wpl`]: log a shipped page, serve the
//! newest logged image, write committed images home and reclaim their log
//! space. No other protocol reaches this file.

use super::maint::keep_lsn;
use super::pages::OnDemand;
use super::{InnerView, Server};
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
    /// the WPL table, cache it. Its permanent location stays untouched
    /// until after commit (§3.4.2).
    pub(super) fn wpl_receive_page(&self, txn: TxnId, pid: PageId, mut page: Page) -> QsResult<()> {
        let mut txns = self.txns.lock(&self.tracer);
        let state = txns.active_mut(txn)?;
        let prev = state.last_lsn;
        let lsn = self.log.wal().append_with(|w| w.whole_page(txn, prev, pid, page.bytes()))?;
        page.set_lsn(lsn);
        state.note_logged(lsn);
        state.wpl_images.push(pid);
        // Inside the critical section that appended the image, like the
        // DPT publish: a checkpoint body never holds one without the other.
        self.wpl.lock(&self.tracer).log_page(pid, lsn, txn);
        drop(txns);
        let mut pool = self.pool.lock(pid, &self.tracer);
        let evicted = pool.insert(pid, page, true)?;
        self.steal(&mut OnDemand(self), evicted)
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

    /// Write the live committed image at (`pid`, `lsn`) to its permanent
    /// location — from the pool when still cached (the paper's
    /// optimization), else read back from the log.
    fn wpl_write_home(&self, view: &mut InnerView<'_>, pid: PageId, lsn: Lsn) -> QsResult<()> {
        let cached_ok =
            view.wpl.newest(pid).map(|v| v.lsn == lsn && view.pool.contains(pid)).unwrap_or(false);
        let page = if cached_ok {
            view.pool.peek(pid).expect("cached").clone()
        } else {
            self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
            self.meter.maint_log_pages_read.fetch_add(1, Ordering::Relaxed);
            page_image_from_log(view.log, lsn, pid)?
        };
        view.volume.write_page(pid, &page)?;
        self.meter_data_write_maint(1);
        if cached_ok {
            view.pool.shard(pid).clear_dirty(pid);
        }
        Ok(())
    }

    /// Reclaim committed images, oldest first, until log usage is down to
    /// `low` bytes (0: drain the table). Images superseded by newer
    /// committed images are dropped without I/O; live images are written
    /// to their permanent locations.
    pub(super) fn wpl_drain(&self, view: &mut InnerView<'_>, low: usize) -> QsResult<()> {
        while view.log.used_bytes() > low {
            let Some((pid, lsn, superseded)) = view.wpl.reclaim_candidate() else {
                break;
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
                if view.wpl.has_newer_uncommitted(pid, lsn) {
                    break;
                }
                self.wpl_write_home(view, pid, lsn)?;
            }
            view.wpl.remove_version(pid, lsn);
            self.reclaimed.fetch_add(1, Ordering::Relaxed);

            // Advance the log start as far as the table and active
            // transactions allow; if we cannot advance past an uncommitted
            // image, stop (the paper's thread would wait for the commit).
            let ck = view.log.checkpoint_lsn();
            let durable = view.log.durable_lsn();
            let anchor = if ck.is_null() { durable } else { durable.min(ck) };
            view.log.truncate_to(keep_lsn(anchor, view.txns, view.dpt, view.wpl))?;
            if view.log.used_bytes() > low && view.wpl.oldest_is_uncommitted() {
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
        self.with_quiesced(|view| self.wpl_drain(view, low))?;
        // Refresh the checkpoint so restart's backward scan stays short and
        // the old checkpoint stops pinning the log tail.
        self.checkpoint_serialized()
    }
}
