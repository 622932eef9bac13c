//! Page service. Every path that needs a page resident — a client fetch,
//! redo-at-server, the no-steal commit-time apply, undo — goes through
//! [`Server::fault_in`], the one place a page is read from the volume into
//! the pool and a dirty victim is stolen; every path that lays a shipped
//! after-image onto a page — those and the restart redo workers — through
//! [`apply_after_image`] (a stashed whole-page image is swapped in instead,
//! by `stash::Arena::lay_run`).

use super::Server;
use crate::buffer::{BufferPool, Evicted};
use crate::protocol::Protocol;
use crate::stash::Laid;
use qs_storage::Page;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId};
use qs_wal::record::{self, tag};
use std::sync::atomic::Ordering;

/// Lay one shipped record's after-image onto `page` — a slot range for an
/// update, CLR or logical update, the whole image for a whole-page record,
/// nothing for any other tag — and stamp `lsn` as the pageLSN. `t` is the
/// frame's tag, passed in so that restart's worker reads it once a frame.
#[inline]
pub(crate) fn apply_after_image(
    page: &mut Page,
    pid: PageId,
    t: u8,
    frame: &[u8],
    lsn: Lsn,
) -> QsResult<()> {
    if t == tag::WHOLE_PAGE {
        // Into the page's own buffer: the view is exactly one page long.
        page.bytes_mut().copy_from_slice(record::frame_whole_page_image(frame)?);
    } else if let Some((slot, offset, after)) = record::frame_redo_slice(frame)? {
        let off = offset as usize;
        let obj = page.object_mut(pid, slot)?;
        let range = obj.get_mut(off..off + after.len()).ok_or_else(|| QsError::RecoveryFailed {
            detail: format!("redo range past object end on {pid}"),
        })?;
        range.copy_from_slice(after);
    }
    page.set_lsn(lsn);
    Ok(())
}

impl Server {
    /// Make `pid` resident in `pool`, the shard that owns it (the caller
    /// holds its lock and no other): on a miss fill it — with `logged`, the
    /// image the WPL table pointed a `PageLog` reader at, else from the
    /// volume — and steal the victim the insert pushed out. The volume and
    /// the DPT are locked for one statement each. Holding the shard across
    /// the miss-fill-evict sequence means the WPL version a reader is
    /// re-reading from the log cannot be reclaimed mid-read (reclaim
    /// removes a version only under its page's shard lock), and the
    /// evicted victim — same shard by construction — cannot be re-read
    /// from the volume before its write-back lands.
    pub(super) fn fault_in(
        &self,
        pool: &mut BufferPool,
        pid: PageId,
        logged: Option<Page>,
    ) -> QsResult<()> {
        if pool.contains(pid) {
            return Ok(());
        }
        self.meter.server_pool_misses.fetch_add(1, Ordering::Relaxed);
        let page = match logged {
            Some(page) => page,
            None => {
                self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
                self.volume.lock(&self.tracer).read_page(pid)?
            }
        };
        let evicted = pool.insert(pid, page, false)?;
        self.steal(evicted)
    }

    /// STEAL handling for the frame an insert pushed out, if it did and
    /// the frame is dirty: WAL — force the log up to the page's LSN — then
    /// write it home. Under `PageLog` the image is already in the log
    /// (appended on receipt) and the permanent location must NOT be
    /// overwritten before commit: drop the copy, re-reads go to the log.
    pub(super) fn steal(&self, ev: Option<Evicted>) -> QsResult<()> {
        let Some(ev) = ev.filter(|ev| ev.dirty && !self.page_log()) else {
            return Ok(());
        };
        let stats = self.log.wal().force(ev.page.lsn())?;
        self.meter_force(stats);
        self.volume.lock(&self.tracer).write_page(ev.page_id, &ev.page)?;
        self.meter.data_writes.fetch_add(1, Ordering::Relaxed);
        self.dpt.lock(&self.tracer).flushed(ev.page_id, ev.page.lsn());
        Ok(())
    }

    /// The shared read path: pool → (WPL table → log) → volume, holding
    /// only `pid`'s shard lock. The only path that can meet a logged image:
    /// a `PageLog` server never redoes, defers or undoes.
    pub(super) fn read_page(&self, reader: Option<TxnId>, pid: PageId) -> QsResult<Page> {
        let mut pool = self.pool.lock(pid, &self.tracer);
        let logged = if self.page_log() && !pool.contains(pid) {
            self.wpl_logged_image(reader, pid)?
        } else {
            None
        };
        self.fault_in(&mut pool, pid, logged)?;
        Ok(pool.get(pid).expect("resident after fault_in").clone())
    }

    /// Serve a page to a client. The caller must already hold a lock
    /// (QuickStore acquires S on read-fault, X on write-fault).
    pub fn fetch_page(&self, txn: TxnId, pid: PageId) -> QsResult<Page> {
        let protocol = self.txns.lock(&self.tracer).active_mut(txn)?.protocol;
        let mut page = self.read_page(Some(txn), pid)?;
        if protocol == Protocol::NoSteal {
            // The pool copy is committed-only, so a transaction re-fetching
            // a page it already updated (client-side eviction) would see
            // stale bytes. Overlay its own deferred ops onto the served
            // copy; the pool copy stays clean.
            self.overlay_pending(txn, pid, &mut page)?;
        }
        Ok(page)
    }

    /// Lay after-images onto the server's copy of `pid` with `lay` (in log
    /// order: [`Laid::frames`] or a stashed run) under its shard lock
    /// (faulting it in — the disk read that is redo-at-server's Achilles
    /// heel, §3.5) and mark it dirty. The caller has entered the page in
    /// the DPT already.
    ///
    /// Under record locks an image can arrive *late* — below the pageLSN,
    /// after ops of another transaction logged later. The pageLSN does
    /// not move back for it (the DPT retires a page on a flush whose
    /// pageLSN covers the last LSN listed), and the op is listed again
    /// here: a flush may have retired the entry since the caller listed
    /// it, on an image without the op (DESIGN.md §6b "Late ops").
    pub(super) fn redo_onto_pool(
        &self,
        pid: PageId,
        lay: impl FnOnce(&mut Page) -> QsResult<Laid>,
    ) -> QsResult<()> {
        let mut pool = self.pool.lock(pid, &self.tracer);
        self.fault_in(&mut pool, pid, None)?;
        let laid = lay(pool.get_mut(pid).expect("resident after fault_in"))?;
        self.meter.redo_applies.fetch_add(laid.count, Ordering::Relaxed);
        pool.mark_dirty(pid);
        if let Some(lsn) = laid.late {
            self.dpt.lock(&self.tracer).logged(pid, lsn);
        }
        Ok(())
    }

    pub(super) fn meter_force(&self, stats: qs_wal::log::ForceStats) {
        if stats.wrote {
            self.meter.log_pages_written.fetch_add(stats.pages_written, Ordering::Relaxed);
            self.meter.log_forces.fetch_add(1, Ordering::Relaxed);
        } else {
            // The log was already durable past the requested LSN: no I/O,
            // no latency — but the request still happened. Count it so the
            // force rate and the no-op rate are both observable.
            self.meter.log_forces_noop.fetch_add(1, Ordering::Relaxed);
        }
    }
}
