//! The ESM client: the workstation side of the page-shipping protocol.
//!
//! A [`ClientConn`] owns a client buffer pool (pages cached across
//! transaction boundaries, §3.1), buffers outgoing log records and ships
//! them *a page at a time* ("Log records are collected and sent from a
//! client to the server a page-at-a-time"), and enforces the ordering rule
//! that a page's log records always precede the page itself on the wire.
//!
//! The QuickStore runtime sits on top: it decides *what* log records to
//! generate (diffing, sub-page copying, nothing at all under WPL) and calls
//! down here to move bytes. Eviction from the client pool is surfaced to
//! the caller ([`ClientConn::ensure_room`]) because the recovery scheme
//! must act *before* a dirty page can leave client memory.

use crate::buffer::{BufferPool, Evicted, PoolSlot};
use crate::lock::{LockMode, Resource};
use crate::net;
use crate::protocol::{Protocol, RecoveryFlavor};
use crate::server::Server;
use qs_sim::Meter;
use qs_storage::Page;
use qs_trace::{TraceCat, Tracer};
use qs_types::{ClientId, IdSet, Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::{record, LogPressure, LogRecord, RecordWriter, SchemeCode};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One client workstation's connection to the server.
pub struct ClientConn {
    pub id: ClientId,
    server: Arc<Server>,
    pool: BufferPool,
    meter: Arc<Meter>,
    txn: Option<TxnId>,
    /// Outgoing log buffer (ESM/REDO flavors): already-encoded record
    /// frames, built in place by the QuickStore commit path and shipped
    /// page-at-a-time. Reused across transactions, so steady-state
    /// commits never allocate here.
    log_buf: Vec<u8>,
    /// Pages this transaction has generated (or declared) log records for.
    pages_logged: IdSet<PageId>,
    /// Adaptive flavor: the scheme this transaction elected (its
    /// `TxnScheme` record has been queued). `None` otherwise.
    scheme: Option<SchemeCode>,
    /// Most recent server log-pressure signal, piggybacked on the last
    /// commit acknowledgement. Starts at zero pressure.
    last_pressure: LogPressure,
    /// Shared with the server: a traced server's clients trace too.
    tracer: Arc<Tracer>,
}

impl ClientConn {
    /// `pool_pages`: the client buffer pool size (e.g. 8 MB → 1024 pages).
    pub fn new(id: ClientId, server: Arc<Server>, pool_pages: usize, meter: Arc<Meter>) -> Self {
        let tracer = Arc::clone(server.tracer());
        ClientConn {
            id,
            server,
            pool: BufferPool::new(pool_pages),
            meter,
            txn: None,
            log_buf: Vec::new(),
            pages_logged: IdSet::default(),
            scheme: None,
            last_pressure: LogPressure::default(),
            tracer,
        }
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    pub fn flavor(&self) -> RecoveryFlavor {
        self.server.flavor()
    }

    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// The running transaction, if any.
    pub fn txn(&self) -> QsResult<TxnId> {
        self.txn.ok_or_else(|| QsError::Protocol { detail: "no transaction in progress".into() })
    }

    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Begin a transaction (one control round trip).
    pub fn begin(&mut self) -> QsResult<TxnId> {
        if self.txn.is_some() {
            return Err(QsError::Protocol { detail: "transaction already in progress".into() });
        }
        net::control_round_trip(&self.meter);
        let t = self.server.begin();
        self.txn = Some(t);
        Ok(t)
    }

    // -- client buffer pool ------------------------------------------------

    pub fn cached(&self, pid: PageId) -> bool {
        self.pool.contains(pid)
    }

    pub fn page(&mut self, pid: PageId) -> Option<&Page> {
        self.pool.get(pid)
    }

    /// Mutable access to a cached page — this is the memory an application
    /// frame is mapped onto; QuickStore writes objects through it.
    pub fn page_mut(&mut self, pid: PageId) -> Option<&mut Page> {
        self.pool.get_mut(pid)
    }

    pub fn peek(&self, pid: PageId) -> Option<&Page> {
        self.pool.peek(pid)
    }

    /// One lookup of a cached page that can end as a peek or as an in-place
    /// update (see [`PoolSlot`]) — the QuickStore object-access path.
    pub fn slot(&mut self, pid: PageId) -> Option<PoolSlot<'_>> {
        self.pool.slot(pid)
    }

    /// [`ClientConn::slot`] by the pool slot index a previous lookup
    /// returned ([`PoolSlot::index`]): `None` unless slot `at` still holds
    /// `pid`.
    #[inline]
    pub fn slot_at(&mut self, at: u32, pid: PageId) -> Option<PoolSlot<'_>> {
        self.pool.slot_at(at, pid)
    }

    /// [`ClientConn::peek`] by pool slot index (see [`ClientConn::slot_at`]).
    #[inline]
    pub fn peek_at(&self, at: u32, pid: PageId) -> Option<&Page> {
        self.pool.peek_at(at, pid)
    }

    pub fn mark_dirty(&mut self, pid: PageId) {
        self.pool.mark_dirty(pid);
    }

    pub fn is_dirty(&self, pid: PageId) -> bool {
        self.pool.is_dirty(pid)
    }

    /// The cached pages that are dirty, unsorted.
    pub fn dirty_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pool.dirty_pages()
    }

    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Make room for one incoming page. Returns the evicted frame if an
    /// eviction was necessary: the caller (QuickStore) must unmap its frame
    /// and, if it is dirty, run the recovery scheme's eviction path
    /// (generate+ship log records, ship the page) *before* fetching more.
    pub fn ensure_room(&mut self) -> Option<Evicted> {
        if self.pool.len() < self.pool.capacity() {
            return None;
        }
        // Evict via a dummy probe: BufferPool evicts on insert, so reuse its
        // LRU logic by asking it directly.
        let ev = self.pool_evict_lru();
        if ev.is_some() {
            self.meter.client_evictions.fetch_add(1, Ordering::Relaxed);
        }
        ev
    }

    fn pool_evict_lru(&mut self) -> Option<Evicted> {
        let victim = self.pool.lru_victim()?;
        self.pool.remove(victim)
    }

    /// Fetch a page from the server into the cache (the caller must have
    /// called [`ClientConn::ensure_room`] until it returned `None`).
    /// Acquires the page lock at the server as part of the request.
    pub fn fetch_page(&mut self, pid: PageId, mode: LockMode) -> QsResult<()> {
        let txn = self.txn()?;
        assert!(
            self.pool.len() < self.pool.capacity(),
            "fetch_page without room; call ensure_room first"
        );
        self.server.lock_page(txn, pid, mode)?;
        let page = self.server.fetch_page(txn, pid)?;
        net::page_fetch(&self.meter);
        self.meter.page_requests.fetch_add(1, Ordering::Relaxed);
        let ev = self.pool.insert(pid, page, false)?;
        debug_assert!(ev.is_none(), "room was ensured");
        Ok(())
    }

    /// Acquire a shared lock on a page that is already cached (the
    /// first-touch-per-transaction path: pages are cached across
    /// transactions, locks are not — §3.1). One control round trip.
    pub fn s_lock(&mut self, pid: PageId) -> QsResult<()> {
        self.lock_remote(Resource::Page(pid), LockMode::S)
    }

    /// Upgrade to an exclusive lock (write-fault path; one control round
    /// trip to the server's lock manager).
    pub fn x_lock(&mut self, pid: PageId) -> QsResult<()> {
        self.lock_remote(Resource::Page(pid), LockMode::X)
    }

    /// Record-granularity locks: lock one slot of a page instead of the
    /// whole page. The server takes the page *intention* mode and then the
    /// record lock, so two clients on distinct slots of one hot page no
    /// longer serialize. Same single control round trip as a page lock.
    pub fn s_lock_record(&mut self, pid: PageId, slot: u16) -> QsResult<()> {
        self.lock_remote(Resource::Record(pid, slot), LockMode::S)
    }

    /// Exclusive record lock (see [`ClientConn::s_lock_record`]).
    pub fn x_lock_record(&mut self, pid: PageId, slot: u16) -> QsResult<()> {
        self.lock_remote(Resource::Record(pid, slot), LockMode::X)
    }

    fn lock_remote(&mut self, resource: Resource, mode: LockMode) -> QsResult<()> {
        let txn = self.txn()?;
        net::control_round_trip(&self.meter);
        self.server.lock_resource(txn, resource, mode)
    }

    /// Allocate a fresh page inside the current transaction (logged at the
    /// server). The new page is not cached here yet; install it with
    /// [`ClientConn::install_new_page`].
    pub fn allocate_page(&mut self) -> QsResult<PageId> {
        let txn = self.txn()?;
        net::control_round_trip(&self.meter);
        self.server.allocate_page(txn)
    }

    /// Install a locally created page image into the cache as dirty.
    pub fn install_new_page(&mut self, pid: PageId, page: Page) -> QsResult<()> {
        assert!(
            self.pool.len() < self.pool.capacity(),
            "install_new_page without room; call ensure_room first"
        );
        let ev = self.pool.insert(pid, page, true)?;
        debug_assert!(ev.is_none());
        Ok(())
    }

    // -- log-record shipping (ESM / REDO flavors) ---------------------------

    /// Queue a batch of already-encoded log records describing updates to
    /// `pid` (the allocation-free path: the QuickStore commit path builds
    /// `batch` with `qs_wal::RecordWriter` in a reused scratch buffer).
    /// Ships full pages of records as the buffer fills.
    pub fn add_encoded_records(&mut self, pid: PageId, batch: &[u8]) -> QsResult<()> {
        let txn = self.txn()?;
        if !self.server.facts().ships_records {
            return Err(QsError::Protocol { detail: "WPL generates no client log records".into() });
        }
        self.pages_logged.insert(pid);
        self.server.note_page_logged(txn, pid)?;
        // Counted here and handed to the meter ahead of each ship event
        // (trace timestamps are priced from the meter) and at the end.
        let (mut records, mut image_bytes) = (0u64, 0u64);
        let mut at = 0usize;
        while at < batch.len() {
            let len = record::frame_len(&batch[at..])?;
            let frame = &batch[at..at + len];
            records += 1;
            image_bytes += record::frame_update_image_bytes(frame)?;
            let queued = self.log_buf.len();
            self.log_buf.extend_from_slice(frame);
            if queued + len >= PAGE_SIZE {
                self.meter_generated(&mut records, &mut image_bytes);
                // A page's worth: everything queued ahead of this frame —
                // with it, if that fills the page exactly or it is alone.
                let page =
                    if queued == 0 || queued + len == PAGE_SIZE { queued + len } else { queued };
                self.ship_log_prefix(page, false)?;
            }
            at += len;
        }
        self.meter_generated(&mut records, &mut image_bytes);
        Ok(())
    }

    fn meter_generated(&self, records: &mut u64, image_bytes: &mut u64) {
        self.meter.log_records_generated.fetch_add(std::mem::take(records), Ordering::Relaxed);
        self.meter.log_image_bytes.fetch_add(std::mem::take(image_bytes), Ordering::Relaxed);
    }

    /// Queue log records describing updates to `pid` (struct-level
    /// convenience over [`ClientConn::add_encoded_records`]; tests and
    /// non-hot-path callers).
    pub fn add_log_records(&mut self, pid: PageId, records: Vec<LogRecord>) -> QsResult<()> {
        let enc: Vec<u8> = records.iter().flat_map(LogRecord::encode).collect();
        self.add_encoded_records(pid, &enc)
    }

    // -- adaptive scheme election -------------------------------------------

    /// Elect the logging scheme for the current transaction (adaptive
    /// flavor). Queues the `TxnScheme` record, which must precede every
    /// page-bearing record of the transaction, so election is only legal
    /// before any records have been generated or declared.
    pub fn elect_scheme(&mut self, scheme: SchemeCode) -> QsResult<()> {
        let txn = self.txn()?;
        if !self.server.facts().txn_scheme {
            return Err(QsError::Protocol {
                detail: "scheme election is only legal under the adaptive flavor".into(),
            });
        }
        if self.scheme.is_some() {
            return Err(QsError::Protocol {
                detail: "transaction already elected a scheme".into(),
            });
        }
        if !self.pages_logged.is_empty() || !self.log_buf.is_empty() {
            return Err(QsError::Protocol {
                detail: "scheme election must precede the transaction's log records".into(),
            });
        }
        self.scheme = Some(scheme);
        // The TxnScheme record names no page: queue it directly (the server
        // rechains `prev` on receipt, as it does for every client record).
        RecordWriter::new(&mut self.log_buf).scheme_mark(txn, Lsn::NULL, scheme);
        self.meter.log_records_generated.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The scheme the running transaction elected, if any.
    pub fn elected_scheme(&self) -> Option<SchemeCode> {
        self.scheme
    }

    /// Whether the running transaction's dirty pages travel to the server:
    /// the flavor ships pages at all, and this transaction's protocol is
    /// not no-steal. Where they stay home, the log records carry everything
    /// (applied on receipt under REDO, at commit under no-steal).
    fn ships_pages(&self) -> bool {
        let facts = self.server.facts();
        facts.ships_pages && facts.protocol(self.scheme) != Protocol::NoSteal
    }

    /// The log-pressure signal piggybacked on the most recent commit
    /// acknowledgement (zero before the first commit).
    pub fn last_pressure(&self) -> LogPressure {
        self.last_pressure
    }

    /// Ship the first `bytes` of the log buffer — whole frames, the caller
    /// knows — as one message: a full log page, or (`partial`) the short
    /// last one of a flush.
    fn ship_log_prefix(&mut self, bytes: usize, partial: bool) -> QsResult<()> {
        let txn = self.txn()?;
        if partial && bytes < PAGE_SIZE {
            net::partial_upload(&self.meter, bytes as u64);
        } else {
            net::page_upload(&self.meter);
        }
        self.meter.log_record_pages_shipped.fetch_add(1, Ordering::Relaxed);
        self.tracer.event(TraceCat::Ship, "log_page", txn.0, bytes as u64);
        self.server.receive_log_bytes(txn, &self.log_buf[..bytes])?;
        self.log_buf.drain(..bytes);
        Ok(())
    }

    /// Flush every buffered log record (ships the final partial page).
    /// [`ClientConn::add_encoded_records`] ships as soon as a page's worth
    /// is queued, so what is left is short of a page or one frame longer
    /// than one: a single message either way.
    pub fn flush_log(&mut self) -> QsResult<()> {
        match self.log_buf.len() {
            0 => Ok(()),
            queued => self.ship_log_prefix(queued, true),
        }
    }

    /// Declare that `pid` needs no log records this transaction (the diff
    /// found nothing). Keeps the log-before-page rule satisfiable.
    pub fn note_page_logged(&mut self, pid: PageId) -> QsResult<()> {
        let txn = self.txn()?;
        self.pages_logged.insert(pid);
        self.server.note_page_logged(txn, pid)
    }

    // -- dirty-page shipping -------------------------------------------------

    /// Ship a dirty page to the server (or keep it home, where pages do
    /// not travel). The page's log records must already have been
    /// generated and queued/shipped; this flushes the log buffer first so
    /// the ordering rule holds. The page goes by reference: the server
    /// copies it into its own frame, the one copy the wire would make.
    pub fn ship_dirty_page(&mut self, pid: PageId, page: &Page) -> QsResult<()> {
        let txn = self.txn()?;
        self.flush_log()?;
        self.upload_page(txn, pid, page)
    }

    /// Ship a *still-cached* dirty page (commit path) and mark it clean in
    /// the client cache (it stays cached across the transaction boundary).
    pub fn ship_cached_dirty_page(&mut self, pid: PageId) -> QsResult<()> {
        let txn = self.txn()?;
        self.flush_log()?;
        let page = self
            .pool
            .peek(pid)
            .ok_or_else(|| QsError::Protocol { detail: format!("ship of uncached page {pid}") })?;
        self.upload_page(txn, pid, page)?;
        self.pool.clear_dirty(pid);
        Ok(())
    }

    /// [`ClientConn::ship_dirty_page`] after the log flush.
    fn upload_page(&self, txn: TxnId, pid: PageId, page: &Page) -> QsResult<()> {
        if !self.ships_pages() {
            return Ok(());
        }
        net::page_upload(&self.meter);
        self.meter.dirty_pages_shipped.fetch_add(1, Ordering::Relaxed);
        self.tracer.event(TraceCat::Ship, "dirty_page", txn.0, pid.0 as u64);
        self.server.receive_dirty_page(txn, pid, page)
    }

    /// Finish the commit protocol: flush remaining log records, commit at
    /// the server, release client transaction state. The caller has already
    /// generated log records and shipped dirty pages for every dirty page
    /// (QuickStore's `Store::commit` drives that loop).
    pub fn finish_commit(&mut self) -> QsResult<()> {
        let txn = self.txn()?;
        self.flush_log()?;
        let deferred = !self.ships_pages();
        debug_assert!(
            self.pool.dirty_pages().next().is_none() || deferred,
            "dirty pages remain at commit"
        );
        net::control_round_trip(&self.meter);
        self.last_pressure = self.server.commit(txn)?;
        if deferred {
            // Pages were never shipped; they are clean *locally* now in the
            // sense that recovery no longer depends on this copy.
            self.pool.clear_all_dirty();
        }
        self.txn = None;
        self.pages_logged.clear();
        self.scheme = None;
        Ok(())
    }

    /// Abort: throw away buffered log records and locally dirty pages (their
    /// contents are uncommitted), then abort at the server.
    pub fn abort(&mut self) -> QsResult<()> {
        let txn = self.txn()?;
        self.log_buf.clear();
        let dirty: Vec<PageId> = self.pool.dirty_pages().collect();
        for pid in dirty {
            self.pool.remove(pid);
        }
        net::control_round_trip(&self.meter);
        self.server.abort(txn)?;
        self.txn = None;
        self.pages_logged.clear();
        self.scheme = None;
        Ok(())
    }

    /// Drop one cached page without shipping it (its content is
    /// uncommitted and the transaction is aborting).
    pub fn discard(&mut self, pid: PageId) {
        self.pool.remove(pid);
    }

    /// Resize the client buffer pool between transactions (the adaptive
    /// memory-split extension). Returns evicted frames — all clean at a
    /// transaction boundary — so the caller can unmap them.
    pub fn set_pool_capacity(&mut self, pages: usize) -> QsResult<Vec<Evicted>> {
        if self.txn.is_some() {
            return Err(QsError::Protocol {
                detail: "pool resize only between transactions".into(),
            });
        }
        self.pool.set_capacity(pages)
    }

    /// Drop the whole client cache (tests: cold-cache runs).
    pub fn flush_cache(&mut self) {
        self.pool.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;

    fn setup(flavor: RecoveryFlavor, pool_pages: usize) -> (ClientConn, Vec<PageId>) {
        let cfg = ServerConfig {
            flavor,
            pool_pages: 128,
            volume_pages: 512,
            log_bytes: 8 * 1024 * 1024,
            log_high_watermark: 0.6,
            log_low_watermark: 0.3,
            pool_shards: 1,
            group_commit: false,
            restart: crate::server::RestartConfig::default(),
        };
        let meter = Meter::new();
        let server = Arc::new(Server::format(cfg, Arc::clone(&meter)).unwrap());
        let pids = server.bulk_allocate(16).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 128]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        (ClientConn::new(ClientId(0), server, pool_pages, meter), pids)
    }

    #[test]
    fn fetch_and_cache() {
        let (mut c, pids) = setup(RecoveryFlavor::EsmAries, 8);
        c.begin().unwrap();
        assert!(c.ensure_room().is_none());
        c.fetch_page(pids[0], LockMode::S).unwrap();
        assert!(c.cached(pids[0]));
        assert_eq!(c.page(pids[0]).unwrap().object(pids[0], 0).unwrap(), &[0u8; 128][..]);
        assert_eq!(c.meter().snapshot().page_requests, 1);
    }

    #[test]
    fn eviction_surfaces_to_caller() {
        let (mut c, pids) = setup(RecoveryFlavor::EsmAries, 2);
        c.begin().unwrap();
        for &pid in &pids[0..2] {
            assert!(c.ensure_room().is_none());
            c.fetch_page(pid, LockMode::S).unwrap();
        }
        let ev = c.ensure_room().expect("pool full → eviction");
        assert_eq!(ev.page_id, pids[0], "LRU evicted");
        assert!(!ev.dirty);
        c.fetch_page(pids[2], LockMode::S).unwrap();
        assert_eq!(c.pool_len(), 2);
    }

    #[test]
    fn full_esm_update_commit_cycle() {
        let (mut c, pids) = setup(RecoveryFlavor::EsmAries, 8);
        let pid = pids[0];
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::S).unwrap();
        c.x_lock(pid).unwrap();
        // Update in place (what a mapped frame write does).
        let before = c.page(pid).unwrap().object(pid, 0).unwrap().to_vec();
        c.page_mut(pid).unwrap().object_mut(pid, 0).unwrap().fill(7);
        c.mark_dirty(pid);
        // Generate one log record (PD would diff; here we hand-roll it).
        let txn = c.txn().unwrap();
        let rec = LogRecord::Update {
            txn,
            prev: qs_types::Lsn::NULL,
            page: pid,
            slot: 0,
            offset: 0,
            before,
            after: vec![7u8; 128],
        };
        c.add_log_records(pid, vec![rec]).unwrap();
        c.ship_cached_dirty_page(pid).unwrap();
        c.finish_commit().unwrap();

        // Crash the server; committed value must survive.
        let server = Arc::try_unwrap(c.server).ok().expect("sole owner").crash();
        let cfg = ServerConfig {
            flavor: RecoveryFlavor::EsmAries,
            pool_pages: 128,
            volume_pages: 512,
            log_bytes: 8 * 1024 * 1024,
            log_high_watermark: 0.6,
            log_low_watermark: 0.3,
            pool_shards: 1,
            group_commit: false,
            restart: crate::server::RestartConfig::default(),
        };
        let s2 = Server::restart(server, cfg, Meter::new()).unwrap();
        let page = s2.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 128][..]);
    }

    #[test]
    fn redo_ships_no_pages() {
        let (mut c, pids) = setup(RecoveryFlavor::RedoAtServer, 8);
        let pid = pids[0];
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::S).unwrap();
        c.x_lock(pid).unwrap();
        c.page_mut(pid).unwrap().object_mut(pid, 0).unwrap().fill(9);
        c.mark_dirty(pid);
        let txn = c.txn().unwrap();
        c.add_log_records(
            pid,
            vec![LogRecord::Update {
                txn,
                prev: qs_types::Lsn::NULL,
                page: pid,
                slot: 0,
                offset: 0,
                before: vec![0u8; 128],
                after: vec![9u8; 128],
            }],
        )
        .unwrap();
        c.ship_cached_dirty_page(pid).unwrap();
        c.finish_commit().unwrap();
        let s = c.meter().snapshot();
        assert_eq!(s.dirty_pages_shipped, 0, "REDO never ships pages");
        assert!(s.log_record_pages_shipped >= 1);
        // Server applied the redo to its own copy.
        let page = c.server().read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[9u8; 128][..]);
        assert_eq!(s.redo_applies, 1);
    }

    #[test]
    fn wpl_ships_pages_not_records() {
        let (mut c, pids) = setup(RecoveryFlavor::Wpl, 8);
        let pid = pids[0];
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::S).unwrap();
        c.x_lock(pid).unwrap();
        c.page_mut(pid).unwrap().object_mut(pid, 0).unwrap().fill(3);
        c.mark_dirty(pid);
        c.ship_cached_dirty_page(pid).unwrap();
        c.finish_commit().unwrap();
        let s = c.meter().snapshot();
        assert_eq!(s.dirty_pages_shipped, 1);
        assert_eq!(s.log_records_generated, 0);
        assert!(c.server().wpl_table_len() >= 1);
    }

    #[test]
    fn log_records_batch_page_at_a_time() {
        let (mut c, pids) = setup(RecoveryFlavor::EsmAries, 8);
        let pid = pids[0];
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::X).unwrap();
        let txn = c.txn().unwrap();
        // ~90 records × ~114 bytes ≈ 10 KB → at least one full page ships
        // before commit.
        let recs: Vec<LogRecord> = (0..90)
            .map(|i| LogRecord::Update {
                txn,
                prev: qs_types::Lsn::NULL,
                page: pid,
                slot: 0,
                offset: (i % 96) as u16,
                before: vec![0; 32],
                after: vec![1; 32],
            })
            .collect();
        c.add_log_records(pid, recs).unwrap();
        assert!(c.meter().snapshot().log_record_pages_shipped >= 1);
        c.note_page_logged(pid).unwrap();
        c.flush_log().unwrap();
        let shipped = c.meter().snapshot().log_record_pages_shipped;
        assert!(shipped >= 2, "partial page flushed too (got {shipped})");
        c.finish_commit().unwrap();
    }

    #[test]
    fn abort_drops_dirty_cache() {
        let (mut c, pids) = setup(RecoveryFlavor::EsmAries, 8);
        let pid = pids[0];
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::X).unwrap();
        c.page_mut(pid).unwrap().object_mut(pid, 0).unwrap().fill(5);
        c.mark_dirty(pid);
        c.abort().unwrap();
        assert!(!c.cached(pid), "dirty page dropped on abort");
        // Re-fetch sees the old committed value.
        c.begin().unwrap();
        c.fetch_page(pid, LockMode::S).unwrap();
        assert_eq!(c.page(pid).unwrap().object(pid, 0).unwrap(), &[0u8; 128][..]);
    }

    #[test]
    fn begin_twice_rejected() {
        let (mut c, _) = setup(RecoveryFlavor::EsmAries, 4);
        c.begin().unwrap();
        assert!(c.begin().is_err());
    }
}
