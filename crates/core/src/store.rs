//! The QuickStore store: the application-facing API tying together the
//! software MMU, the page-descriptor table, the recovery buffer, the diff
//! algorithm, and the ESM client.
//!
//! An application reads persistent objects "by dereferencing standard
//! virtual memory pointers": here [`Store::with_object`] / [`Store::read`] /
//! [`Store::read_at`] translate the object id once, check the access
//! against the MMU and, on a fault, run the QuickStore fault handler (fetch
//! and map on a mapping fault; enable recovery on a write-protection fault
//! — §3.2.1's sequence: descriptor search in the AVL table, page copy into
//! the recovery buffer, exclusive lock, enable write access). An access
//! that does not fault on a recently used page hashes nothing: a two-entry
//! memo gives its frame and pool slot, the protection check admits it, and
//! the slot is read by index (DESIGN.md "client access path").
//!
//! Updates take one of two routes, matching the paper's two detection
//! strategies:
//!
//! * [`Store::write`] — the hardware route (PD / WPL / REDO): a raw store
//!   through the frame; the first one per page write-faults.
//! * [`Store::update`] — the software route (SD / SL): a call into the
//!   runtime that copies the touched blocks before writing (§3.3.1). Under
//!   these schemes raw [`Store::write`]s to unmodified pages stay
//!   protected, catching stray writes — the paper keeps this property
//!   deliberately, and so do we.
//!
//! [`Store::modify`] dispatches to the right route for the configured
//! scheme, letting one traversal implementation drive every system.

use crate::adaptive::{AdaptiveScheme, WriteSetCosts};
use crate::config::{LogGeneration, SystemConfig};
use crate::descriptor::DescriptorTable;
use crate::diff;
use crate::recovery_buffer::{Copied, RecoveryBuffer};
use qs_esm::{ClientConn, PoolSlot};
use qs_sim::Meter;
use qs_storage::Page;
use qs_trace::{TraceCat, Tracer};
use qs_types::{
    FrameId, IdSet, Lsn, Oid, PageId, QsError, QsResult, TxnId, VAddr, LOG_HEADER_SIZE, PAGE_SIZE,
};
use qs_vmem::{AccessFault, Mmu, Prot};
use qs_wal::{RecordWriter, SchemeCode};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Reused buffers for the commit hot path (DESIGN.md "commit hot path"):
/// once grown to their high-water marks, log-record generation performs no
/// heap allocation.
#[derive(Default)]
struct CommitScratch {
    /// Raw modified runs of the object currently being diffed.
    runs: Vec<diff::Region>,
    /// Combined log regions of the object currently being diffed.
    regions: Vec<diff::Region>,
    /// Copied block ranges of the page being flushed (sub-page schemes).
    ranges: Vec<(usize, usize)>,
    /// Encoded log records for the page being flushed.
    enc: Vec<u8>,
    /// FIFO victims of the recovery-buffer overflow being handled.
    victims: Vec<PageId>,
    /// The dirty pages a commit ships, sorted, or the write set a
    /// mid-transaction election prices.
    dirty: Vec<PageId>,
}

/// Diff regions computed by the adaptive pricing pass, kept for the
/// emission pass of the *same* event (commit, eviction, rbuf overflow).
/// No user write can land between the two passes — both run inside one
/// `Store` call — so the regions stay exact and the adaptive transaction
/// diffs each page once, not twice. Cleared (and `valid` dropped) at the
/// end of every event that could have filled it.
#[derive(Default)]
struct PricedDiffs {
    /// `(slot, region)` pairs in `live_objects` order, pages concatenated.
    flat: Vec<(u16, diff::Region)>,
    /// Per-page slices into `flat`.
    pages: Vec<(PageId, usize, usize)>,
    /// True only between a pricing pass and the end of its event.
    valid: bool,
    /// The `pages` entry the next lookup tries first: the one after the
    /// last page found.
    cursor: usize,
}

impl PricedDiffs {
    fn clear(&mut self) {
        self.flat.clear();
        self.pages.clear();
        self.valid = false;
        self.cursor = 0;
    }

    /// The `flat` range priced for `pid`, if this event priced it. A
    /// commit prices its pages in the order its emission walks them, so
    /// each lookup finds its page at the cursor. An eviction (its page
    /// priced first) or an overflow (its victims, in the recovery
    /// buffer's FIFO order, against the pool's unsorted dirty list) can
    /// ask out of order and pays a scan — for the one or two pages such an
    /// event emits.
    fn lookup(&mut self, pid: PageId) -> Option<(usize, usize)> {
        if !self.valid {
            return None;
        }
        let at = match self.pages.get(self.cursor) {
            Some(e) if e.0 == pid => self.cursor,
            _ => self.pages.iter().position(|e| e.0 == pid)?,
        };
        self.cursor = at + 1;
        Some((self.pages[at].1, self.pages[at].2))
    }
}

/// The access path's memo of its two most recent translations: page →
/// (frame, client pool slot). It is never invalidated, because every entry
/// is checked where it is used. The frame binding is permanent (the
/// descriptor table never unbinds a page); the frame's protection is the
/// gate a memo hit passes like any access, so a page that lost its lock or
/// its residency still faults; and the pool reads the slot only if it still
/// holds the page. A stale slot costs one retranslation.
#[derive(Default)]
struct Memo {
    /// Most recent first.
    recent: [Option<(PageId, FrameId, u32)>; 2],
}

impl Memo {
    #[inline]
    fn find(&self, pid: PageId) -> Option<(FrameId, u32)> {
        self.recent.iter().flatten().find(|e| e.0 == pid).map(|&(_, frame, at)| (frame, at))
    }

    fn remember(&mut self, pid: PageId, frame: FrameId, at: u32) {
        self.recent = [Some((pid, frame, at)), self.recent[0]];
    }

    fn forget(&mut self, pid: PageId) {
        for e in &mut self.recent {
            if e.is_some_and(|e| e.0 == pid) {
                *e = None;
            }
        }
    }
}

/// Visits and raw updates counted since they last reached the meter.
/// Trace timestamps are priced from the meter, so the counts are handed
/// over ([`Store::flush_counts`]) before anything that can read it or emit
/// an event: every fault, server call, commit, abort and allocation, and
/// every read of [`Store::meter`].
#[derive(Default)]
struct PendingCounts {
    visits: Cell<u64>,
    updates: Cell<u64>,
}

/// Which bytes of an object an access covers.
#[derive(Clone, Copy)]
enum Span {
    /// The whole object (its length comes from the slot directory).
    Object,
    /// `len` bytes starting `offset` bytes into the object.
    Bytes { offset: usize, len: usize },
}

/// An access that passed translation and the protection check: where its
/// bytes are, and the cached page holding them.
struct Hit<'a> {
    /// Virtual address of the first byte accessed.
    va: VAddr,
    /// Offset of that byte within the page.
    start: usize,
    len: usize,
    slot: PoolSlot<'a>,
}

impl<'a> Hit<'a> {
    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.slot.page().bytes()[self.start..self.start + self.len]
    }

    /// The bytes for an in-place store: the page becomes dirty and
    /// most-recently used.
    #[inline]
    fn bytes_mut(self) -> &'a mut [u8] {
        &mut self.slot.update().bytes_mut()[self.start..self.start + self.len]
    }
}

/// A QuickStore client store.
pub struct Store {
    cfg: SystemConfig,
    client: ClientConn,
    mmu: Mmu,
    table: DescriptorTable,
    rbuf: RecoveryBuffer,
    /// Pages created by the current transaction (flushed as whole-page
    /// images, the way ESM logs new pages).
    created: IdSet<PageId>,
    /// Pages mapped (faulted in or created) by the current transaction —
    /// the only descriptors and frames a commit or abort has to reset. A
    /// page evicted and re-fetched appears twice; the reset is idempotent.
    touched: Vec<PageId>,
    /// Allocation cursor: the created page new objects go to.
    alloc_cursor: Option<PageId>,
    scratch: CommitScratch,
    /// The per-transaction scheme elector (only over the adaptive flavor;
    /// see DESIGN.md §6g).
    elector: Option<AdaptiveScheme>,
    /// Regions from the elector's pricing pass, reused by record emission
    /// within the same event (empty and inert under the fixed schemes).
    priced: PricedDiffs,
    /// Recent translations for the access path.
    memo: Memo,
    /// Counts not yet handed to the meter.
    pending: PendingCounts,
}

impl Store {
    /// Wrap an ESM client connection in a QuickStore runtime.
    pub fn new(client: ClientConn, cfg: SystemConfig) -> QsResult<Store> {
        cfg.validate()?;
        if client.flavor() != cfg.flavor {
            return Err(QsError::Config {
                detail: format!(
                    "store configured for {:?} but server runs {:?}",
                    cfg.flavor,
                    client.flavor()
                ),
            });
        }
        let rbuf = RecoveryBuffer::new(cfg.recovery_buffer_bytes());
        // Fault dispatch traces through the same tracer as the rest of the
        // stack (the client shares the server's).
        let mut mmu = Mmu::new();
        mmu.set_tracer(Arc::clone(client.tracer()));
        let elector = cfg.flavor.facts().txn_scheme.then(AdaptiveScheme::new);
        Ok(Store {
            cfg,
            client,
            mmu,
            table: DescriptorTable::new(),
            rbuf,
            created: IdSet::default(),
            touched: Vec::new(),
            alloc_cursor: None,
            scratch: CommitScratch::default(),
            elector,
            priced: PricedDiffs::default(),
            memo: Memo::default(),
            pending: PendingCounts::default(),
        })
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        self.client.tracer()
    }

    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The meter this store counts into, brought up to date first (see
    /// [`Store::flush_counts`]).
    pub fn meter(&self) -> &Arc<Meter> {
        self.flush_counts();
        self.client.meter()
    }

    /// Hand the visits and raw updates counted since the last flush to the
    /// meter. The store does this itself before anything can read the
    /// meter or emit a trace event; a caller that keeps its own handle on
    /// the meter and reads it mid-transaction calls it first.
    pub fn flush_counts(&self) {
        let m = self.client.meter();
        let visits = self.pending.visits.take();
        if visits != 0 {
            m.visits.fetch_add(visits, Ordering::Relaxed);
        }
        let updates = self.pending.updates.take();
        if updates != 0 {
            m.updates.fetch_add(updates, Ordering::Relaxed);
        }
    }

    pub fn client(&self) -> &ClientConn {
        &self.client
    }

    /// The recovery buffer's overflow count (Figure 14's driver).
    pub fn recovery_buffer_overflows(&self) -> u64 {
        self.rbuf.overflows()
    }

    /// The per-transaction scheme elector (`None` unless the store runs
    /// over the adaptive flavor).
    pub fn elector(&self) -> Option<&AdaptiveScheme> {
        self.elector.as_ref()
    }

    /// Mutable elector access — benches and tests use it to pin the
    /// election (`force`) or tune the cost-model weights.
    pub fn elector_mut(&mut self) -> Option<&mut AdaptiveScheme> {
        self.elector.as_mut()
    }

    // ---------------------------------------------------------------------
    // Adaptive scheme election (DESIGN.md §6g)
    // ---------------------------------------------------------------------

    /// Elect this transaction's logging scheme if the store is adaptive and
    /// no election has happened yet. Called at every record-generation
    /// event — commit, client eviction, recovery-buffer overflow — so the
    /// `TxnScheme` record always precedes the transaction's first
    /// page-bearing record; the election then sticks for the transaction.
    ///
    /// `commit_set` is the sorted dirty-page list a commit already holds.
    /// The mid-transaction events pass `None` and the write set is the
    /// still-cached dirty pages — a scan of the whole client pool, so it is
    /// made only here, behind the guard: never under the fixed schemes, and
    /// once per adaptive transaction. `extra` is an already-evicted page
    /// whose content no longer sits in the pool. A write set that prices to
    /// nothing (clean rewrites, created pages only) elects no scheme: no
    /// records of any format would differ.
    fn ensure_elected(
        &mut self,
        commit_set: Option<&[PageId]>,
        extra: Option<(PageId, &Page)>,
    ) -> QsResult<()> {
        let Some(elector) = &self.elector else { return Ok(()) };
        if self.client.elected_scheme().is_some() {
            return Ok(());
        }
        let block = elector.block;
        let mut scanned = std::mem::take(&mut self.scratch.dirty);
        let pages = match commit_set {
            Some(pages) => pages,
            None => {
                scanned.clear();
                scanned.extend(self.client.dirty_pages());
                &scanned
            }
        };
        let mut costs = WriteSetCosts::default();
        self.priced.clear();
        if let Some((pid, page)) = extra {
            self.price_page(&mut costs, pid, page, block);
        }
        for &pid in pages {
            if self.created.contains(&pid) || Some(pid) == extra.map(|(p, _)| p) {
                continue; // created pages cost the same under every scheme
            }
            let Some(page) = self.client.peek(pid) else { continue };
            price_page_parts(
                &self.rbuf,
                &mut self.scratch,
                &mut self.priced,
                &mut costs,
                pid,
                page,
                block,
            );
        }
        self.scratch.dirty = scanned;
        // The pricing pass is THE diff for this event: emission reuses its
        // regions (`PricedDiffs`), so electing costs no second comparison.
        self.priced.valid = true;
        self.meter().bytes_diffed.fetch_add(costs.bytes_diffed, Ordering::Relaxed);
        if costs.is_empty() {
            return Ok(());
        }
        let pressure = self.client.last_pressure();
        let elector = self.elector.as_mut().expect("checked above");
        let switches_before = elector.switches();
        let scheme = elector.elect(&costs, pressure);
        let switched = elector.switches() > switches_before;
        let m = self.meter();
        match scheme {
            SchemeCode::Pd => &m.txns_pd,
            SchemeCode::Sd => &m.txns_sd,
            SchemeCode::Wpl => &m.txns_wpl,
            SchemeCode::Rlog => &m.txns_rlog,
        }
        .fetch_add(1, Ordering::Relaxed);
        if switched {
            m.scheme_switches.fetch_add(1, Ordering::Relaxed);
        }
        self.tracer().event(TraceCat::Commit, "elect", scheme as u64, costs.pages);
        self.client.elect_scheme(scheme)
    }

    /// Price one page whose content lives outside the pool (`ensure_elected`'s
    /// `extra`: the just-evicted frame).
    fn price_page(&mut self, costs: &mut WriteSetCosts, pid: PageId, page: &Page, block: usize) {
        if !self.created.contains(&pid) {
            price_page_parts(
                &self.rbuf,
                &mut self.scratch,
                &mut self.priced,
                costs,
                pid,
                page,
                block,
            );
        }
    }

    // ---------------------------------------------------------------------
    // Transactions
    // ---------------------------------------------------------------------

    pub fn begin(&mut self) -> QsResult<TxnId> {
        self.flush_counts();
        self.client.begin()
    }

    /// Commit: generate log records for every dirty page (§3.2.2: "At
    /// transaction commit time … the old values of objects contained in the
    /// recovery buffer and their corresponding updated values in the buffer
    /// pool are compared"), ship dirty pages per the flavor's protocol, and
    /// finish at the server. Afterwards pages stay cached but protection
    /// drops back to read-only — locks are gone, so the next update must
    /// re-enable recovery.
    pub fn commit(&mut self) -> QsResult<()> {
        self.flush_counts();
        let tracer = Arc::clone(self.client.tracer());
        let t0 = tracer.now_secs();
        let mut dirty = std::mem::take(&mut self.scratch.dirty);
        dirty.clear();
        dirty.extend(self.client.dirty_pages());
        dirty.sort_unstable(); // deterministic shipping order
        self.ensure_elected(Some(&dirty), None)?;
        let diff_t0 = tracer.now_secs();
        for &pid in &dirty {
            self.flush_records_for(pid, None)?;
        }
        tracer.record_secs("commit_diff", tracer.now_secs() - diff_t0);
        for &pid in &dirty {
            self.client.ship_cached_dirty_page(pid)?;
        }
        self.client.finish_commit()?;
        self.end_txn_reset()?;
        tracer.record("pages_shipped_per_txn", dirty.len() as u64);
        tracer.record_secs("commit_latency", tracer.now_secs() - t0);
        tracer.event(TraceCat::Commit, "committed", dirty.len() as u64, 0);
        self.scratch.dirty = dirty;
        Ok(())
    }

    /// Abort: discard local uncommitted state and roll back at the server.
    pub fn abort(&mut self) -> QsResult<()> {
        self.flush_counts();
        // Every page this transaction X-locked may hold uncommitted bytes:
        // unmap it and drop it from the cache. Going by the lock rather
        // than the pool's dirty bit matters for a page that was evicted
        // mid-transaction (shipped to the server) and fetched back — clean
        // in the pool, yet the image the server is about to undo.
        for &pid in &self.touched {
            let d = self.table.get(pid).expect("touched pages are bound");
            if d.x_locked {
                self.mmu.protect(d.frame, Prot::None)?;
                self.client.discard(pid);
            }
        }
        self.client.abort()?;
        self.end_txn_reset()?;
        Ok(())
    }

    fn end_txn_reset(&mut self) -> QsResult<()> {
        // Commit drains the recovery buffer page by page; abort simply
        // discards the before-images (the server rolls back).
        self.priced.clear();
        self.rbuf.clear();
        self.created.clear();
        self.alloc_cursor = None;
        for pid in self.touched.drain(..) {
            // Every frame mapped this transaction drops to no-access: with
            // locks released, the next transaction's first touch of each
            // page must fault so it can re-acquire a lock (cached pages,
            // uncached locks). Pages not touched are already in that state.
            let d = self.table.get_mut(pid).expect("touched pages are bound");
            d.end_txn();
            self.mmu.protect(d.frame, Prot::None)?;
        }
        debug_assert_eq!(self.invariant_violation(), None);
        Ok(())
    }

    /// Check the translation invariants the access path relies on
    /// (DESIGN.md "client access path"); `None` when they hold.
    ///
    /// * A frame with any access (`Prot::Read` / `ReadWrite`) maps a page
    ///   that is cached *and* S-locked by the running transaction — so the
    ///   protection check alone decides whether an access may touch bytes.
    /// * Outside a transaction every frame is `Prot::None` and no
    ///   descriptor carries a lock or recovery flag.
    fn invariant_violation(&self) -> Option<String> {
        let in_txn = self.client.in_txn();
        for d in self.table.iter() {
            let prot = self.mmu.prot(d.frame);
            if prot != Prot::None && !(self.client.cached(d.page) && d.s_locked) {
                return Some(format!(
                    "{} is {prot:?} but cached={} s_locked={}",
                    d.page,
                    self.client.cached(d.page),
                    d.s_locked
                ));
            }
            let flagged = d.s_locked || d.x_locked || d.recovery_enabled || d.created_this_txn;
            if !in_txn && (prot != Prot::None || flagged) {
                return Some(format!("{} keeps {prot:?} / {d:?} outside a transaction", d.page));
            }
        }
        None
    }

    /// Re-divide client memory between the buffer pool and the recovery
    /// buffer (the paper's §7 future-work extension; see
    /// [`crate::adaptive::AdaptiveSplit`]). Only legal between
    /// transactions, when the recovery buffer is empty and every cached
    /// page is clean; shrink-evicted pages are simply unmapped.
    pub fn set_memory_split(&mut self, total_mb: f64, recovery_mb: f64) -> QsResult<()> {
        if self.client.in_txn() {
            return Err(QsError::Protocol {
                detail: "memory split can only change between transactions".into(),
            });
        }
        let mut cfg = self.cfg.clone();
        cfg.client_memory_mb = total_mb;
        cfg.recovery_buffer_mb =
            if cfg.log_gen == LogGeneration::WholePage { 0.0 } else { recovery_mb };
        cfg.validate()?;
        debug_assert_eq!(self.rbuf.pages(), 0);
        self.rbuf = RecoveryBuffer::new(cfg.recovery_buffer_bytes());
        for ev in self.client.set_pool_capacity(cfg.client_pool_pages())? {
            debug_assert!(!ev.dirty, "dirty page at a transaction boundary");
            if let Some(d) = self.table.get(ev.page_id) {
                self.mmu.protect(d.frame, Prot::None)?;
            }
        }
        self.cfg = cfg;
        Ok(())
    }

    /// Drop every cached page (cold-cache runs). Only legal between
    /// transactions, when every cached page is clean and every frame is
    /// already unmapped — the next access to any page takes a mapping fault.
    pub fn flush_cache(&mut self) -> QsResult<()> {
        if self.client.in_txn() {
            return Err(QsError::Protocol {
                detail: "the client cache can only be dropped between transactions".into(),
            });
        }
        self.client.flush_cache();
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Mapping and the fault handler
    // ---------------------------------------------------------------------

    /// The *mapping fault* handler: `pid`'s frame admits no access, so the
    /// dereference faulted. Either the page is still cached from an earlier
    /// transaction (locks are not cached, §3.1: S-lock it at the server and
    /// re-protect the frame) or it is not resident: LRU room is made
    /// (evictions run the paging branch of the recovery machinery), the
    /// page is fetched with a shared lock, and the frame becomes readable.
    fn map_fault(&mut self, pid: PageId) -> QsResult<()> {
        self.meter().read_faults.fetch_add(1, Ordering::Relaxed);
        let bound = self.table.get(pid).map(|d| (d.frame, d.s_locked));
        if let Some((frame, s_locked)) = bound.filter(|_| self.client.cached(pid)) {
            // First touch this transaction: the frame was left unprotected
            // at the last commit, so the access faulted; lock, then map.
            debug_assert!(!s_locked, "{pid} cached and locked yet unmapped");
            self.client.s_lock(pid)?;
            self.mmu.protect(frame, Prot::Read)?;
            self.table.get_mut(pid).expect("descriptor").s_locked = true;
            self.touched.push(pid);
            return Ok(());
        }
        while let Some(ev) = self.client.ensure_room() {
            self.on_client_eviction(ev)?;
        }
        self.client.fetch_page(pid, qs_esm::LockMode::S)?;
        let frame = match bound {
            Some((frame, _)) => frame,
            None => {
                let f = self.mmu.alloc_frame();
                self.table.bind(pid, f);
                f
            }
        };
        self.mmu.protect(frame, Prot::Read)?;
        let d = self.table.get_mut(pid).expect("descriptor");
        // Residency was lost; recovery state starts over for this page.
        d.recovery_enabled = false;
        d.s_locked = true; // the fetch acquired the lock at the server
        self.touched.push(pid);
        Ok(())
    }

    /// A page left the client buffer pool. If dirty, this is the paper's
    /// "when paging in the buffer pool occurs" case: its log records are
    /// generated *now* and the page is shipped (per flavor) before the
    /// frame's protection drops.
    fn on_client_eviction(&mut self, ev: qs_esm::Evicted) -> QsResult<()> {
        let pid = ev.page_id;
        if let Some(d) = self.table.get(pid) {
            self.mmu.protect(d.frame, Prot::None)?;
        }
        if ev.dirty {
            // Mid-transaction record generation: the scheme must be elected
            // now, from the partial write set (this page plus whatever else
            // is already dirty), and sticks for the rest of the transaction.
            self.ensure_elected(None, Some((pid, &ev.page)))?;
            self.flush_records_for(pid, Some(&ev.page))?;
            self.client.ship_dirty_page(pid, &ev.page)?;
            if let Some(d) = self.table.get_mut(pid) {
                // Lock stays held (strict 2PL) but recovery must be
                // re-enabled if the page is updated again this transaction.
                d.recovery_enabled = false;
            }
            // Still-cached pages may be written again before they flush:
            // their priced regions are only good for this event.
            self.priced.clear();
        }
        Ok(())
    }

    /// The write-protection fault handler (§3.2.1): find the descriptor in
    /// the AVL table, take the before-image (scheme-dependent), obtain the
    /// exclusive lock if needed, and enable write access on the frame.
    fn write_fault(&mut self, va: VAddr) -> QsResult<()> {
        self.meter().write_faults.fetch_add(1, Ordering::Relaxed);
        let (pid, frame, x_locked) = {
            let d = self.table.lookup_vaddr(va)?;
            (d.page, d.frame, d.x_locked)
        };
        // Exclusive lock, if not already held this transaction.
        if !x_locked {
            self.client.x_lock(pid)?;
            let d = self.table.get_mut(pid).expect("descriptor");
            d.x_locked = true;
            d.s_locked = true;
        }
        // Before-image, per scheme.
        match self.cfg.log_gen {
            LogGeneration::PageDiff => {
                let already = self.rbuf.contains(pid) || self.created.contains(&pid);
                if !already {
                    self.make_rbuf_room(PAGE_SIZE)?;
                    self.meter().bytes_copied.fetch_add(PAGE_SIZE as u64, Ordering::Relaxed);
                    self.rbuf.insert_full(
                        pid,
                        self.client.peek(pid).ok_or_else(|| QsError::Protocol {
                            detail: format!("write fault on non-resident {pid}"),
                        })?,
                    );
                }
            }
            LogGeneration::WholePage => {
                // No copy: the whole dirty page will be logged at the
                // server. Enabling write access is all the work there is.
            }
            LogGeneration::SubPageDiff { .. } | LogGeneration::SubPageLog { .. } => {
                // The software schemes never enable writes via faults; a
                // raw write through a protected frame is a stray pointer.
                return Err(QsError::ProtectionFault {
                    detail: format!(
                        "raw write at {va} under {}: updates must go through Store::update",
                        self.cfg.name()
                    ),
                });
            }
        }
        self.mmu.protect(frame, Prot::ReadWrite)?;
        self.table.get_mut(pid).expect("descriptor").recovery_enabled = true;
        Ok(())
    }

    /// Free recovery-buffer space by generating log records early for FIFO
    /// victims (the overflow path that hurts PD in the constrained-cache
    /// experiments).
    fn make_rbuf_room(&mut self, need: usize) -> QsResult<()> {
        self.rbuf.overflow_victims(need, &mut self.scratch.victims);
        if self.scratch.victims.is_empty() {
            return Ok(());
        }
        self.meter().recovery_buffer_overflows.fetch_add(1, Ordering::Relaxed);
        self.ensure_elected(None, None)?;
        for i in 0..self.scratch.victims.len() {
            let pid = self.scratch.victims[i];
            self.tracer().event(TraceCat::RbufEvict, "overflow", pid.0 as u64, need as u64);
            self.flush_records_for(pid, None)?;
            // The page stays dirty and updatable: recovery remains enabled
            // (write access is already on); future updates will be captured
            // by a *fresh* copy on the next fault? No — write access is
            // still enabled, so further updates to this page in this
            // transaction go unrecorded unless we drop protection now.
            if let Some(d) = self.table.get(pid) {
                self.mmu.protect(d.frame, Prot::Read)?;
            }
            if let Some(d) = self.table.get_mut(pid) {
                d.recovery_enabled = false;
            }
        }
        // Surviving pages can still be written this transaction — their
        // priced regions must not outlive the overflow event.
        self.priced.clear();
        Ok(())
    }

    // ---------------------------------------------------------------------
    // Object access
    // ---------------------------------------------------------------------

    /// The one translation step every object access goes through, and the
    /// one fault loop. On the path that does not fault it costs the memo
    /// probe (`oid.page` → frame and pool slot; on a miss, one descriptor
    /// lookup and one pool lookup refill it), the protection gate, the slot
    /// read by index, the slot-directory read and the range check; `hit`
    /// then gets the bytes.
    ///
    /// The gate reads the frame's protection instead of asking "is the
    /// page cached, is it locked": a frame with any access maps a page
    /// that is cached and S-locked ([`Store::invariant_violation`]), so
    /// nothing else needs looking up. A frame with no access — never
    /// bound, evicted, or left unmapped by the last commit or abort — takes
    /// the mapping fault; a write to a read-only frame takes the
    /// write-protection fault; either handler runs and the access restarts,
    /// as a faulting instruction would. For a read the gate *is* the
    /// hardware check, so only a write asks the MMU again.
    fn access<R>(
        &mut self,
        oid: Oid,
        span: Span,
        write: bool,
        hit: impl FnOnce(Hit<'_>) -> R,
    ) -> QsResult<R> {
        let pid = oid.page;
        loop {
            let memo = self.memo.find(pid);
            let frame = match memo {
                Some((frame, _)) => Some(frame),
                None => self.table.get(pid).map(|d| d.frame),
            };
            let prot = frame.map_or(Prot::None, |f| self.mmu.prot(f));
            let Some(frame) = frame.filter(|_| prot != Prot::None) else {
                self.map_fault(pid)?;
                continue;
            };
            if write && prot != Prot::ReadWrite {
                // The MMU traces the write fault it is about to raise.
                self.flush_counts();
            }
            let slot = match memo {
                Some((_, at)) => match self.client.slot_at(at, pid) {
                    Some(slot) => slot,
                    None => {
                        // The page left that slot and came back to another.
                        self.memo.forget(pid);
                        continue;
                    }
                },
                None => {
                    let slot = self.client.slot(pid).ok_or_else(|| QsError::Protocol {
                        detail: format!("{pid} is mapped but not resident"),
                    })?;
                    self.memo.remember(pid, frame, slot.index());
                    slot
                }
            };
            let (obj_off, obj_len) = slot.page().object_offset(pid, oid.slot)?;
            let (offset, len) = match span {
                Span::Object => (0, obj_len),
                Span::Bytes { offset, len } => (offset, len),
            };
            // checked_add: `offset + len` near usize::MAX must be rejected,
            // not wrap around (release) or abort (debug) before the range
            // check.
            if offset.checked_add(len).is_none_or(|end| end > obj_len) {
                return Err(QsError::Protocol {
                    detail: format!(
                        "access [{offset}, {offset}+{len}) past end of {oid:?} ({obj_len} bytes)"
                    ),
                });
            }
            // What the MMU refuses whatever the protection: an empty access
            // and one that leaves the frame.
            if len == 0 || len > PAGE_SIZE {
                return Err(QsError::UnmappedAddress { detail: format!("access of {len} bytes") });
            }
            let start = obj_off + offset;
            if start + len > PAGE_SIZE {
                return Err(QsError::CrossesFrameBoundary);
            }
            let va = VAddr::new(frame, start);
            if !write {
                return Ok(hit(Hit { va, start, len, slot }));
            }
            match self.mmu.check_write(va, len)? {
                Ok(_) => return Ok(hit(Hit { va, start, len, slot })),
                Err(AccessFault::WriteProtected(_)) => self.write_fault(va)?,
                Err(AccessFault::Unmapped(_)) => self.map_fault(pid)?,
            }
        }
    }

    /// The virtual address of an object's first byte, mapping its page in
    /// if necessary — i.e. what a swizzled pointer to the object holds.
    pub fn resolve(&mut self, oid: Oid) -> QsResult<VAddr> {
        self.access(oid, Span::Object, false, |hit| hit.va)
    }

    /// Object length (schema lookup in a real system).
    pub fn object_len(&mut self, oid: Oid) -> QsResult<usize> {
        self.access(oid, Span::Object, false, |hit| hit.len)
    }

    /// Dereference an object: `f` sees its bytes where they sit in the
    /// mapped page — no copy. The borrow ends with `f`, so take out what
    /// the next access needs (references, field values) before making it.
    pub fn with_object<R>(&mut self, oid: Oid, f: impl FnOnce(&[u8]) -> R) -> QsResult<R> {
        self.access(oid, Span::Object, false, |hit| f(hit.bytes()))
    }

    /// A traversal's visit: [`Store::with_object`], counted as one object
    /// visit (the meter's `visits`, priced as the application's per-object
    /// work).
    pub fn visit<R>(&mut self, oid: Oid, f: impl FnOnce(&[u8]) -> R) -> QsResult<R> {
        self.pending.visits.set(self.pending.visits.get() + 1);
        self.with_object(oid, f)
    }

    /// Read a whole object into a fresh buffer.
    pub fn read(&mut self, oid: Oid) -> QsResult<Vec<u8>> {
        self.with_object(oid, <[u8]>::to_vec)
    }

    /// Read `len` bytes of an object at `offset` (a pointer dereference).
    pub fn read_at(&mut self, oid: Oid, offset: usize, len: usize) -> QsResult<Vec<u8>> {
        self.access(oid, Span::Bytes { offset, len }, false, |hit| hit.bytes().to_vec())
    }

    /// Raw in-place update through the mapped frame (PD / WPL / REDO): the
    /// first store to a protected page triggers the write fault.
    pub fn write(&mut self, oid: Oid, offset: usize, data: &[u8]) -> QsResult<()> {
        self.access(oid, Span::Bytes { offset, len: data.len() }, true, |hit| {
            hit.bytes_mut().copy_from_slice(data)
        })?;
        self.pending.updates.set(self.pending.updates.get() + 1);
        Ok(())
    }

    /// The software update function (SD / SL, §3.3.1): look up the page
    /// descriptor from the address, copy any not-yet-copied blocks the
    /// write touches, take the lock on first touch, then perform the
    /// update. Write access on the frame is *not* enabled — stray raw
    /// writes keep faulting, by design.
    pub fn update(&mut self, oid: Oid, offset: usize, data: &[u8]) -> QsResult<()> {
        let block = self.cfg.log_gen.block_size().ok_or_else(|| QsError::Protocol {
            detail: format!("Store::update under {} (hardware scheme)", self.cfg.name()),
        })?;
        let span = Span::Bytes { offset, len: data.len() };
        let (va, start, at) =
            self.access(oid, span, false, |hit| (hit.va, hit.start, hit.slot.index()))?;
        self.meter().update_fn_calls.fetch_add(1, Ordering::Relaxed);
        let (pid, x_locked) = {
            let d = self.table.lookup_vaddr(va)?;
            (d.page, d.x_locked)
        };
        debug_assert_eq!(pid, oid.page);
        if !x_locked {
            self.client.x_lock(pid)?;
            let d = self.table.get_mut(pid).expect("descriptor");
            d.x_locked = true;
            d.s_locked = true;
        }
        // Copy every touched, not-yet-copied block (cheap index arithmetic
        // on the faulting address, as the paper stresses). Neither the lock
        // nor a recovery-buffer overflow moves the page out of its slot.
        if !self.created.contains(&pid) {
            let end = start + data.len();
            let first = (start / block) as u16;
            let last = ((end - 1) / block) as u16;
            for idx in first..=last {
                if !self.rbuf.block_copied(pid, idx) {
                    self.make_rbuf_room(block)?;
                    let b0 = idx as usize * block;
                    self.meter().bytes_copied.fetch_add(block as u64, Ordering::Relaxed);
                    self.rbuf.insert_block(
                        pid,
                        block,
                        idx,
                        &self.client.peek_at(at, pid).expect("mapped").bytes()[b0..b0 + block],
                    );
                }
            }
        }
        self.table.get_mut(pid).expect("descriptor").recovery_enabled = true;
        let page = self.client.slot_at(at, pid).expect("mapped").update();
        page.bytes_mut()[start..start + data.len()].copy_from_slice(data);
        self.meter().updates.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Dispatch to [`Store::update`] or [`Store::write`] according to the
    /// configured scheme — what the specially-compiled application (or the
    /// paper's hand-inserted calls) would do.
    pub fn modify(&mut self, oid: Oid, offset: usize, data: &[u8]) -> QsResult<()> {
        if self.cfg.log_gen.software_updates() {
            self.update(oid, offset, data)
        } else {
            self.write(oid, offset, data)
        }
    }

    // ---------------------------------------------------------------------
    // Object allocation
    // ---------------------------------------------------------------------

    /// Allocate a new persistent object. New objects go to pages created by
    /// this transaction (flushed as whole-page images at commit).
    pub fn allocate(&mut self, data: &[u8]) -> QsResult<Oid> {
        self.flush_counts();
        if let Some(pid) = self.alloc_cursor {
            let room = self.client.slot(pid).filter(|s| s.page().free_space() >= data.len() + 8);
            if let Some(cursor) = room {
                let slot = cursor.update().insert(pid, data)?;
                self.meter().updates.fetch_add(1, Ordering::Relaxed);
                return Ok(Oid::new(pid, slot));
            }
        }
        // Open a fresh page.
        let pid = self.client.allocate_page()?;
        while let Some(ev) = self.client.ensure_room() {
            self.on_client_eviction(ev)?;
        }
        let mut page = Page::new();
        let slot = page.insert(pid, data)?;
        self.client.install_new_page(pid, page)?;
        let frame = match self.table.get(pid) {
            Some(d) => d.frame,
            None => {
                let f = self.mmu.alloc_frame();
                self.table.bind(pid, f);
                f
            }
        };
        self.mmu.protect(frame, Prot::ReadWrite)?;
        let d = self.table.get_mut(pid).expect("descriptor");
        d.x_locked = true;
        d.s_locked = true;
        d.recovery_enabled = true;
        d.created_this_txn = true;
        self.touched.push(pid);
        self.created.insert(pid);
        self.alloc_cursor = Some(pid);
        self.meter().updates.fetch_add(1, Ordering::Relaxed);
        Ok(Oid::new(pid, slot))
    }

    // ---------------------------------------------------------------------
    // Log-record generation (§3.2.2 / §3.3.2)
    // ---------------------------------------------------------------------

    /// Generate and queue log records describing all captured updates to
    /// `pid`, then release its recovery-buffer space. `evicted` is the
    /// page's updated content when it has just left the client pool;
    /// otherwise the page is diffed where it sits in the pool.
    ///
    /// The records are serialized straight into the reused scratch buffer
    /// (`qs_wal::RecordWriter` over borrowed before/after slices) and
    /// handed to the client as encoded bytes — after warm-up, no heap
    /// allocation happens per record.
    fn flush_records_for(&mut self, pid: PageId, evicted: Option<&Page>) -> QsResult<()> {
        if self.cfg.log_gen == LogGeneration::WholePage {
            return Ok(()); // no client log records, ever
        }
        let txn = self.client.txn()?;
        // The elected record format: `None` under the fixed schemes, where
        // election is illegal (and for the rare adaptive transaction whose
        // write set priced to nothing).
        let elected = self.client.elected_scheme();
        let current = match evicted {
            Some(page) => page,
            None => self.client.peek(pid).ok_or_else(|| QsError::Protocol {
                detail: format!("recovery copy of {pid} outlived its cached page"),
            })?,
        };
        let queue = RecordGen {
            cfg: &self.cfg,
            rbuf: &mut self.rbuf,
            created: &mut self.created,
            alloc_cursor: &mut self.alloc_cursor,
            scratch: &mut self.scratch,
            priced: &mut self.priced,
            sd_block: self.elector.as_ref().map_or(SystemConfig::DEFAULT_BLOCK, |e| e.block),
            meter: self.client.meter(),
            tracer: self.client.tracer(),
        }
        .encode(txn, elected, pid, current)?;
        if queue {
            self.client.add_encoded_records(pid, &self.scratch.enc)
        } else {
            // Nothing to log; declare the page logged to satisfy the
            // log-before-page ordering rule.
            self.client.note_page_logged(pid)
        }
    }
}

/// The [`Store`] fields log-record generation works on, borrowed apart from
/// the client connection so the page being flushed can be read in place in
/// the client's pool while its records are encoded.
struct RecordGen<'a> {
    cfg: &'a SystemConfig,
    rbuf: &'a mut RecoveryBuffer,
    created: &'a mut IdSet<PageId>,
    alloc_cursor: &'a mut Option<PageId>,
    scratch: &'a mut CommitScratch,
    priced: &'a mut PricedDiffs,
    /// Block size an `Sd`-elected adaptive transaction rounds spans out to.
    sd_block: usize,
    meter: &'a Meter,
    tracer: &'a Tracer,
}

impl RecordGen<'_> {
    /// Encode `pid`'s log records into `scratch.enc` from its captured
    /// before-image and `current`, releasing the before-image. Returns
    /// whether there are records to queue (`false`: the page needs none).
    fn encode(
        &mut self,
        txn: TxnId,
        elected: Option<SchemeCode>,
        pid: PageId,
        current: &Page,
    ) -> QsResult<bool> {
        // Where a physical update is not legal (RLOG) the client ships
        // REDO-only logical records: same slot/offset/after image, no
        // before image. An Rlog-elected adaptive transaction emits the
        // identical format.
        let logical = !self.cfg.flavor.facts().physical_update || elected == Some(SchemeCode::Rlog);
        self.scratch.enc.clear();
        if self.created.contains(&pid) {
            // Newly created page: whole-page image (ESM's own policy).
            let mut w = RecordWriter::new(&mut self.scratch.enc);
            w.whole_page(txn, Lsn::NULL, pid, current.bytes());
            self.created.remove(&pid);
            if *self.alloc_cursor == Some(pid) {
                *self.alloc_cursor = None;
            }
            return Ok(true);
        }
        if elected == Some(SchemeCode::Wpl) {
            // WPL election: one whole-page image record carries the page;
            // the captured before-image goes back unused (no diff at all —
            // WPL's CPU advantage survives the page-diff capture).
            if let Some(copied) = self.rbuf.remove(pid) {
                self.rbuf.recycle(copied);
            }
            let mut w = RecordWriter::new(&mut self.scratch.enc);
            w.whole_page(txn, Lsn::NULL, pid, current.bytes());
            return Ok(true);
        }
        let Some(mut copied) = self.rbuf.remove(pid) else {
            // Dirty with no before-image: nothing was captured, so nothing
            // to log (e.g. WPL-style marking never reaches here).
            return Ok(false);
        };
        let sd_block = self.sd_block;
        let nrecords = match (&mut copied, self.cfg.log_gen) {
            (Copied::Full(old), _) => {
                // An adaptive pricing pass in this same event already
                // diffed the page; reuse its regions (no write can have
                // landed in between). Otherwise diff now.
                let cached = self.priced.lookup(pid);
                if cached.is_none() {
                    self.meter
                        .bytes_diffed
                        .fetch_add(current.live_bytes() as u64, Ordering::Relaxed);
                }
                let mut cursor = cached.map(|(s, _)| s);
                let mut w = RecordWriter::new(&mut self.scratch.enc);
                for (slot, off, len) in current.live_objects() {
                    let before = &old[off..off + len];
                    let after = &current.bytes()[off..off + len];
                    match (&mut cursor, cached) {
                        (Some(c), Some((_, end))) => {
                            self.scratch.regions.clear();
                            while *c < end && self.priced.flat[*c].0 == slot {
                                self.scratch.regions.push(self.priced.flat[*c].1);
                                *c += 1;
                            }
                        }
                        _ => diff::diff_object_into(
                            before,
                            after,
                            &mut self.scratch.runs,
                            &mut self.scratch.regions,
                        ),
                    }
                    // An Sd-elected adaptive transaction emits SD-format
                    // records: spans rounded out to block boundaries
                    // (object-anchored), exactly what sub-page capture
                    // would have produced.
                    let spans: &[diff::Region] = if elected == Some(SchemeCode::Sd) {
                        diff::block_align_regions(
                            &self.scratch.regions,
                            sd_block,
                            len,
                            &mut self.scratch.runs,
                        );
                        &self.scratch.runs
                    } else {
                        &self.scratch.regions
                    };
                    for r in spans {
                        emit_update(
                            &mut w,
                            logical,
                            txn,
                            pid,
                            slot,
                            r.start as u16,
                            &before[r.start..r.end],
                            &after[r.start..r.end],
                        );
                    }
                }
                w.records()
            }
            (Copied::Blocks(bc), LogGeneration::SubPageDiff { .. }) => {
                // Diff only the copied block ranges — every modified byte
                // lies inside one (blocks are copied before they are
                // written), and the ranges come sorted off the bitmap.
                self.meter
                    .bytes_diffed
                    .fetch_add((bc.block_size() * bc.count()) as u64, Ordering::Relaxed);
                self.scratch.ranges.clear();
                bc.append_ranges(&mut self.scratch.ranges);
                let mut w = RecordWriter::new(&mut self.scratch.enc);
                for (slot, obj_off, obj_len) in current.live_objects() {
                    self.scratch.runs.clear();
                    for &(s, e) in &self.scratch.ranges {
                        let s = s.max(obj_off);
                        let e = e.min(obj_off + obj_len);
                        if s >= e {
                            continue;
                        }
                        diff::append_modified_runs(
                            &bc.data()[s..e],
                            &current.bytes()[s..e],
                            s - obj_off,
                            &mut self.scratch.runs,
                        );
                    }
                    diff::combine_regions_into(
                        &self.scratch.runs,
                        LOG_HEADER_SIZE,
                        &mut self.scratch.regions,
                    );
                    for r in &self.scratch.regions {
                        let (a, b) = (obj_off + r.start, obj_off + r.end);
                        // A combined region can span a small uncopied gap
                        // (combine merges runs ≤ 25 bytes apart; blocks can
                        // be as small as 8). Gap bytes are clean, so fill
                        // them from `current` to keep the before-image one
                        // contiguous slice.
                        let mut pos = a;
                        for &(s, e) in &self.scratch.ranges {
                            if e <= a {
                                continue;
                            }
                            if s >= b {
                                break;
                            }
                            if s > pos {
                                bc.data_mut()[pos..s].copy_from_slice(&current.bytes()[pos..s]);
                            }
                            pos = pos.max(e);
                        }
                        if pos < b {
                            bc.data_mut()[pos..b].copy_from_slice(&current.bytes()[pos..b]);
                        }
                        emit_update(
                            &mut w,
                            logical,
                            txn,
                            pid,
                            slot,
                            r.start as u16,
                            &bc.data()[a..b],
                            &current.bytes()[a..b],
                        );
                    }
                }
                w.records()
            }
            (Copied::Blocks(bc), LogGeneration::SubPageLog { .. }) => {
                // No diffing: log every copied block wholesale, clipped to
                // object boundaries (records cannot span objects). The
                // bitmap yields maximal sorted runs directly — no per-page
                // sort.
                self.scratch.ranges.clear();
                bc.append_ranges(&mut self.scratch.ranges);
                let mut w = RecordWriter::new(&mut self.scratch.enc);
                for (slot, obj_off, obj_len) in current.live_objects() {
                    for &(s, e) in &self.scratch.ranges {
                        let s = s.max(obj_off);
                        let e = e.min(obj_off + obj_len);
                        if s >= e {
                            continue;
                        }
                        emit_update(
                            &mut w,
                            logical,
                            txn,
                            pid,
                            slot,
                            (s - obj_off) as u16,
                            &bc.data()[s..e],
                            &current.bytes()[s..e],
                        );
                    }
                }
                w.records()
            }
            (Copied::Blocks(_), other) => {
                return Err(QsError::Protocol { detail: format!("block copies under {other:?}") });
            }
        };
        self.rbuf.recycle(copied);
        if self.tracer.is_enabled() {
            self.tracer.record("diff_record_bytes_per_page", self.scratch.enc.len() as u64);
            self.tracer.event(TraceCat::Diff, "page", pid.0 as u64, nrecords as u64);
        }
        Ok(nrecords != 0)
    }
}

/// Price one dirty page's captured write set into `costs` (the adaptive
/// election's pricing pass). A free function over disjoint [`Store`]
/// fields so the caller can hold a borrow of the client pool's page.
fn price_page_parts(
    rbuf: &RecoveryBuffer,
    scratch: &mut CommitScratch,
    priced: &mut PricedDiffs,
    costs: &mut WriteSetCosts,
    pid: PageId,
    page: &Page,
    block: usize,
) {
    let Some(Copied::Full(old)) = rbuf.get(pid) else {
        return; // nothing captured (or block capture — not adaptive's mode)
    };
    costs.bytes_diffed += page.live_bytes() as u64;
    let start = priced.flat.len();
    let mut any = false;
    for (slot, off, len) in page.live_objects() {
        diff::diff_object_into(
            &old[off..off + len],
            &page.bytes()[off..off + len],
            &mut scratch.runs,
            &mut scratch.regions,
        );
        for r in &scratch.regions {
            priced.flat.push((slot, *r));
        }
        if !scratch.regions.is_empty() {
            costs.add_object(&scratch.regions, block);
            any = true;
        }
    }
    // Record the page even when every object diffed clean: emission then
    // knows "priced, zero records" instead of re-diffing the whole page.
    priced.pages.push((pid, start, priced.flat.len()));
    if any {
        costs.note_page();
    }
}

/// Serialize one update: a physical before/after record under the default
/// flavors, a logical (REDO-only, after-image-only) record under `RLOG`.
#[allow(clippy::too_many_arguments)]
fn emit_update(
    w: &mut RecordWriter<'_>,
    logical: bool,
    txn: TxnId,
    pid: PageId,
    slot: u16,
    offset: u16,
    before: &[u8],
    after: &[u8],
) {
    if logical {
        w.update_logical(txn, Lsn::NULL, pid, slot, offset, after);
    } else {
        w.update(txn, Lsn::NULL, pid, slot, offset, before, after);
    }
}

#[cfg(test)]
mod tests;
