//! The ESM server: page shipping, STEAL/NO-FORCE buffering, logging,
//! commit/abort, checkpointing, crash and restart.
//!
//! One [`Server`] instance plays the paper's Sun IPX: it owns the data
//! volume, the log disk, the lock manager, the transaction table, the
//! ARIES dirty-page table, and (under whole-page logging) the WPL table.
//! Clients call its methods directly; every call that would cross the wire
//! is metered by the *client* side (`qs-esm::client`), while the server
//! meters its own CPU/disk events.
//!
//! # Concurrency architecture
//!
//! The server is decomposed into independently synchronized subsystems
//! instead of one big mutex (see DESIGN.md "Server concurrency
//! architecture" for the full protocol):
//!
//! * [`crate::shard::ShardedPool`] — N buffer-pool shards, each its own lock;
//! * [`crate::tower::LogTower`] — the WAL (internally synchronized) plus
//!   optional group commit for the commit-path force;
//! * [`crate::gate::VolumeGate`] — the one data disk;
//! * small dedicated locks for the transaction table, the ARIES dirty-page
//!   table, and the WPL table;
//! * the [`LockManager`] (already internally synchronized).
//!
//! Lock order: txn table → pool shards (ascending) → WPL table → DPT →
//! volume; the log is lock-free at this level and always last. Hot paths
//! hold at most one shard lock plus short single-statement acquisitions of
//! the others, and never take the txn-table lock while holding a shard.
//! Whole-server operations (checkpoint, reclaim, abort/undo, restart) run
//! under [`Server::with_quiesced`], which acquires everything in order and
//! exposes the old single-lock view ([`InnerView`]).
//!
//! With the default configuration (one shard, group commit off) every code
//! path performs the same operations in the same order as the original
//! single-lock server, so all single-client figures are byte-identical.
//!
//! A simulated crash ([`Server::crash`]) consumes the server and returns
//! only the stable media; [`Server::restart`] rebuilds a consistent server
//! from them with the restart engine in [`crate::restart`].

use crate::flusher::{FlusherConfig, FlusherHandle, FlusherMsg, SnapshotPool};
use crate::gate::VolumeGate;
use crate::lock::{AsyncLockOutcome, LockManager, LockMode, Resource};
use crate::runtime::RuntimeConfig;
use crate::shard::{PoolView, ShardedPool};
use crate::tower::LogTower;
use crate::txn::{TxnStatus, TxnTable};
use crate::wpl::WplTable;
use qs_sim::{HardwareModel, Meter};
use qs_storage::{MemDisk, Page, StableMedia, Volume};
use qs_trace::{FlightRecording, PhaseStat, RestartReport, TraceCat, TracedMutex, Tracer};
use qs_types::sync::Mutex;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::{record, CheckpointBody, LogManager, LogPressure, LogRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which underlying recovery strategy the server runs (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFlavor {
    /// ESM's ARIES-style scheme: clients ship log records *and* dirty
    /// pages; only log records are forced at commit (§3.1).
    EsmAries,
    /// Redo-at-server: clients ship log records only; the server applies
    /// the redo information to its copy of each page (§3.5).
    RedoAtServer,
    /// Whole-page logging: clients ship dirty pages only; the server
    /// appends them to the log and tracks them in the WPL table (§3.4).
    Wpl,
    /// REDO-only logical recovery (post-paper contender; Sauer & Härder,
    /// Lomet et al.): clients ship slot-level logical records only, the
    /// server defers applying them until commit (no-steal — uncommitted
    /// data never reaches pool or disk), so restart has no undo phase.
    RedoLogical,
    /// Per-transaction adaptive logging: the client captures PD-style
    /// before-images but elects the cheapest record format per commit
    /// (physical PD/SD diffs, a whole-page image, or logical REDO-only
    /// records), declaring the choice in a leading `TxnScheme` record
    /// (qs-wal tag 11). Physically-elected transactions run the EsmAries
    /// protocol (page ship, steal, CLR undo); logically-elected ones run
    /// the RedoLogical deferred-apply protocol (no-steal, no undo). One
    /// log legally interleaves both families; restart is polymorphic per
    /// transaction.
    Adaptive,
}

impl RecoveryFlavor {
    pub fn name(self) -> &'static str {
        match self {
            RecoveryFlavor::EsmAries => "ESM",
            RecoveryFlavor::RedoAtServer => "REDO",
            RecoveryFlavor::Wpl => "WPL",
            RecoveryFlavor::RedoLogical => "RLOG",
            RecoveryFlavor::Adaptive => "ADAPT",
        }
    }
}

/// Server sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub flavor: RecoveryFlavor,
    /// Server buffer pool, in pages. Paper: 36 MB of the IPX's 48 MB.
    pub pool_pages: usize,
    /// Data volume capacity, in pages.
    pub volume_pages: usize,
    /// Circular log body capacity, in bytes.
    pub log_bytes: usize,
    /// Start maintenance (checkpoint / WPL reclaim) when the log is fuller
    /// than this fraction.
    pub log_high_watermark: f64,
    /// Maintenance drives log usage back below this fraction.
    pub log_low_watermark: f64,
    /// Buffer-pool shards. 1 (the default) reproduces the single-lock
    /// pool exactly; the multi-client benchmarks use more.
    pub pool_shards: usize,
    /// Batch concurrent commit forces through the group committer. Off by
    /// default: the figure runs are single-client and must stay
    /// byte-identical.
    pub group_commit: bool,
    /// Restart-engine knobs (see [`RestartConfig`]).
    pub restart: RestartConfig,
    /// Background-flusher knobs (see [`FlusherConfig`]). Off by default:
    /// maintenance runs the original quiesced paths and every committed
    /// figure stays byte-identical. On, `checkpoint()` becomes a
    /// two-phase fuzzy protocol whose drain runs incrementally, and
    /// watermark maintenance moves to the flusher thread once
    /// [`Server::start_flusher`] is called.
    pub flusher: FlusherConfig,
    /// Event-driven runtime knobs (see [`RuntimeConfig`]). The default is
    /// inert: clients built with `ClientConn::new` keep calling the
    /// server directly on their own thread, so every committed figure
    /// stays byte-identical. Only `crate::runtime::Reactor::start` reads
    /// these.
    pub runtime: RuntimeConfig,
}

/// Restart-engine configuration.
///
/// `redo_workers` only sizes the worker pool of the one streamed,
/// page-partitioned engine in [`crate::restart`], which recovers a
/// byte-identical volume image and reports identical phase counts for any
/// worker count and chunk size (`tests/restart_equivalence.rs` pins this).
/// Every scan of that engine uses the pool: the name is historical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartConfig {
    /// Worker threads of each restart scan: ARIES analysis (checksums and
    /// dirty-page table shards), ARIES redo, and the WPL image scan.
    pub redo_workers: usize,
    /// Bytes per streamed log read (clamped up to at least one frame).
    pub chunk_bytes: usize,
}

impl Default for RestartConfig {
    fn default() -> RestartConfig {
        RestartConfig { redo_workers: 1, chunk_bytes: 64 * PAGE_SIZE }
    }
}

impl ServerConfig {
    pub fn new(flavor: RecoveryFlavor) -> ServerConfig {
        ServerConfig {
            flavor,
            pool_pages: 36 * 1024 * 1024 / PAGE_SIZE,
            volume_pages: 24 * 1024, // 192 MB
            log_bytes: 192 * 1024 * 1024,
            log_high_watermark: 0.60,
            log_low_watermark: 0.30,
            pool_shards: 1,
            group_commit: false,
            restart: RestartConfig::default(),
            flusher: FlusherConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }

    pub fn with_pool_mb(mut self, mb: f64) -> ServerConfig {
        self.pool_pages = qs_types::mb_to_pages(mb).max(1);
        self
    }

    pub fn with_volume_pages(mut self, pages: usize) -> ServerConfig {
        self.volume_pages = pages;
        self
    }

    pub fn with_log_mb(mut self, mb: f64) -> ServerConfig {
        self.log_bytes = (mb * 1024.0 * 1024.0) as usize;
        self
    }

    pub fn with_pool_shards(mut self, shards: usize) -> ServerConfig {
        self.pool_shards = shards.max(1);
        self
    }

    pub fn with_group_commit(mut self, on: bool) -> ServerConfig {
        self.group_commit = on;
        self
    }

    pub fn with_redo_workers(mut self, workers: usize) -> ServerConfig {
        self.restart.redo_workers = workers.max(1);
        self
    }

    /// Enable the background flusher / two-phase fuzzy checkpointing.
    pub fn with_background_flusher(mut self, on: bool) -> ServerConfig {
        self.flusher.enabled = on;
        self
    }

    /// Pages per flusher claim batch (implies nothing unless the flusher
    /// knob is on).
    pub fn with_flusher_batch_pages(mut self, pages: usize) -> ServerConfig {
        self.flusher.batch_pages = pages.max(1);
        self
    }

    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> ServerConfig {
        self.runtime = runtime;
        self
    }

    pub fn with_runtime_workers(mut self, workers: usize) -> ServerConfig {
        self.runtime.workers = workers.max(1);
        self
    }
}

/// How many trailing flight-recorder events [`Server::crash`] snapshots
/// into the stable parts.
const FLIGHT_EVENTS: usize = 64;

/// The crash-surviving pieces: what a reboot finds on the machine.
pub struct StableParts {
    pub data_media: Arc<dyn StableMedia>,
    pub log_media: Arc<dyn StableMedia>,
    /// The crashed server's flight recording (its tracer ring's last
    /// events), when it was tracing. Strictly observability — restart
    /// recovery never reads it; it is carried across the crash so the
    /// restarting server can report what the system was doing when it died.
    pub flight: Option<FlightRecording>,
}

/// One deferred operation of an uncommitted `RedoLogical` transaction (or
/// a logically-elected `Adaptive` one). Under those protocols the server
/// is no-steal: updates are stashed here at receive time and applied to
/// the pool only after the commit force, so the pool (and therefore the
/// volume) only ever holds committed data.
enum PendingOp {
    /// A slot-level logical after-image (`LogRecord::UpdateLogical`).
    Logical { page: PageId, slot: u16, offset: u16, after: Vec<u8>, lsn: Lsn },
    /// A whole-page image (newly created pages, §3.6 treatment).
    Image { page: PageId, image: Vec<u8>, lsn: Lsn },
}

impl PendingOp {
    fn page(&self) -> PageId {
        match self {
            PendingOp::Logical { page, .. } | PendingOp::Image { page, .. } => *page,
        }
    }

    fn lsn(&self) -> Lsn {
        match self {
            PendingOp::Logical { lsn, .. } | PendingOp::Image { lsn, .. } => *lsn,
        }
    }
}

/// The old single-lock `Inner`, reconstructed on demand: a whole-server
/// view with every subsystem lock held (see [`Server::with_quiesced`]).
/// Field names match the pre-decomposition struct so the algorithms that
/// genuinely need global consistency (checkpoint, reclaim, undo, restart)
/// read exactly as they used to.
pub(crate) struct InnerView<'a> {
    pub(crate) volume: &'a Volume,
    pub(crate) log: &'a LogManager,
    pub(crate) pool: PoolView<'a>,
    pub(crate) txns: &'a mut TxnTable,
    /// ARIES dirty-page table: page → recovery LSN.
    pub(crate) dpt: &'a mut HashMap<PageId, Lsn>,
    pub(crate) wpl: &'a mut WplTable,
}

/// The ESM server.
pub struct Server {
    cfg: ServerConfig,
    /// Data-disk subsystem (its own lock).
    volume: VolumeGate,
    /// Log subsystem: WAL + group-commit policy (internally synchronized).
    log: LogTower,
    /// Sharded buffer pool (one lock per shard).
    pool: ShardedPool,
    /// Transaction table, behind its own small lock.
    txns: TracedMutex<TxnTable>,
    /// ARIES dirty-page table, behind its own small lock.
    dpt: TracedMutex<HashMap<PageId, Lsn>>,
    /// WPL table, behind its own small lock.
    wpl: TracedMutex<WplTable>,
    /// `RedoLogical` only: deferred (not-yet-applied) operations of
    /// uncommitted transactions, txn → ops in log order. Never nested
    /// inside any other subsystem lock: every path takes it alone and
    /// releases it before touching the pool, txn table, or volume.
    pending: TracedMutex<HashMap<TxnId, Vec<PendingOp>>>,
    locks: LockManager,
    meter: Arc<Meter>,
    data_media: Arc<dyn StableMedia>,
    log_media: Arc<dyn StableMedia>,
    /// Checkpoints taken (stat for tests/harness).
    checkpoints: AtomicU64,
    /// WPL images reclaimed (flushed or superseded).
    reclaimed: AtomicU64,
    /// Serializes maintenance passes: checkpoints and reclaims from the
    /// flusher thread and from inline callers never interleave. Taken
    /// alone, before any subsystem lock.
    ckpt_serial: Mutex<()>,
    /// The background flusher thread, once [`Server::start_flusher`] ran.
    flusher: Mutex<Option<FlusherHandle>>,
    /// A maintenance request is already queued at the flusher (dedupe).
    maint_pending: AtomicBool,
    /// Pooled page buffers for fuzzy-checkpoint claim snapshots.
    snapshots: SnapshotPool,
    /// Fuzzy-drain stats: elevator batches written, pages in them.
    flusher_batches: AtomicU64,
    flusher_pages: AtomicU64,
    /// Observability hook (disabled by default: one branch per event).
    tracer: Arc<Tracer>,
    /// Per-phase breakdown of the restart that built this server, if it
    /// was built by [`Server::restart`].
    restart_report: Mutex<Option<RestartReport>>,
}

impl Server {
    /// Create a fresh server on fresh in-memory media.
    pub fn format(cfg: ServerConfig, meter: Arc<Meter>) -> QsResult<Server> {
        Self::format_traced(cfg, meter, Tracer::disabled())
    }

    /// [`Server::format`] with tracing installed from birth.
    pub fn format_traced(
        cfg: ServerConfig,
        meter: Arc<Meter>,
        tracer: Arc<Tracer>,
    ) -> QsResult<Server> {
        let data_media: Arc<dyn StableMedia> =
            Arc::new(MemDisk::new(Volume::required_bytes(cfg.volume_pages)));
        let log_media: Arc<dyn StableMedia> =
            Arc::new(MemDisk::new(LogManager::required_bytes(cfg.log_bytes)));
        Self::format_on_traced(
            StableParts { data_media, log_media, flight: None },
            cfg,
            meter,
            tracer,
        )
    }

    /// Create a fresh server on the given media (formats them).
    pub fn format_on(parts: StableParts, cfg: ServerConfig, meter: Arc<Meter>) -> QsResult<Server> {
        Self::format_on_traced(parts, cfg, meter, Tracer::disabled())
    }

    /// [`Server::format_on`] with tracing installed from birth.
    pub fn format_on_traced(
        parts: StableParts,
        cfg: ServerConfig,
        meter: Arc<Meter>,
        tracer: Arc<Tracer>,
    ) -> QsResult<Server> {
        let volume = Volume::format(Arc::clone(&parts.data_media), cfg.volume_pages)?;
        let mut log = LogManager::format(Arc::clone(&parts.log_media), cfg.log_bytes)?;
        log.set_tracer(Arc::clone(&tracer));
        Ok(Server {
            volume: VolumeGate::new(volume),
            log: LogTower::new(log, cfg.group_commit),
            pool: ShardedPool::new(cfg.pool_pages, cfg.pool_shards),
            txns: TracedMutex::new("txns", TxnTable::new()),
            dpt: TracedMutex::new("dpt", HashMap::new()),
            wpl: TracedMutex::new("wpl", WplTable::new()),
            pending: TracedMutex::new("pending", HashMap::new()),
            locks: LockManager::new(),
            meter,
            data_media: parts.data_media,
            log_media: parts.log_media,
            checkpoints: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            ckpt_serial: Mutex::new(()),
            flusher: Mutex::new(None),
            maint_pending: AtomicBool::new(false),
            snapshots: SnapshotPool::new(),
            flusher_batches: AtomicU64::new(0),
            flusher_pages: AtomicU64::new(0),
            tracer,
            restart_report: Mutex::new(None),
            cfg,
        })
    }

    /// Simulate a crash: all volatile state is lost; only media survive.
    /// A tracing server also snapshots its flight recorder's most recent
    /// events into the parts — the "black box" a reboot recovers.
    pub fn crash(self) -> StableParts {
        let flight = if self.tracer.is_enabled() {
            Some(FlightRecording { events: self.tracer.flight_snapshot(FLIGHT_EVENTS) })
        } else {
            None
        };
        StableParts { data_media: self.data_media, log_media: self.log_media, flight }
    }

    /// Clone handles to the stable media (e.g. to image the disks in tests).
    pub fn stable_parts(&self) -> StableParts {
        StableParts {
            data_media: Arc::clone(&self.data_media),
            log_media: Arc::clone(&self.log_media),
            flight: None,
        }
    }

    /// Rebuild a server from crashed media, running restart recovery.
    pub fn restart(parts: StableParts, cfg: ServerConfig, meter: Arc<Meter>) -> QsResult<Server> {
        Self::restart_traced(parts, cfg, meter, Tracer::disabled())
    }

    /// [`Server::restart`] with tracing: besides recovering, the server
    /// emits per-phase `Restart` events and keeps a [`RestartReport`]
    /// (available from [`Server::restart_report`]) breaking the restart
    /// into its phases with simulated per-phase times.
    ///
    /// The phase counts are tallied locally and priced directly with the
    /// hardware model — they never touch the shared meter, so figure
    /// outputs are identical with tracing on or off.
    pub fn restart_traced(
        parts: StableParts,
        cfg: ServerConfig,
        meter: Arc<Meter>,
        tracer: Arc<Tracer>,
    ) -> QsResult<Server> {
        let volume = Volume::open(Arc::clone(&parts.data_media))?;
        let mut log = LogManager::open(Arc::clone(&parts.log_media))?;
        log.set_tracer(Arc::clone(&tracer));
        let flight = parts.flight.unwrap_or_default();
        let server = Server {
            volume: VolumeGate::new(volume),
            log: LogTower::new(log, cfg.group_commit),
            pool: ShardedPool::new(cfg.pool_pages, cfg.pool_shards),
            txns: TracedMutex::new("txns", TxnTable::new()),
            dpt: TracedMutex::new("dpt", HashMap::new()),
            wpl: TracedMutex::new("wpl", WplTable::new()),
            pending: TracedMutex::new("pending", HashMap::new()),
            locks: LockManager::new(),
            meter,
            data_media: parts.data_media,
            log_media: parts.log_media,
            checkpoints: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            ckpt_serial: Mutex::new(()),
            flusher: Mutex::new(None),
            maint_pending: AtomicBool::new(false),
            snapshots: SnapshotPool::new(),
            flusher_batches: AtomicU64::new(0),
            flusher_pages: AtomicU64::new(0),
            tracer,
            restart_report: Mutex::new(None),
            cfg,
        };
        let (phases, wall) = crate::restart::run(&server)?;
        // Price the raw phase counts on the same hardware the tracer's
        // clock uses (the paper's testbed when no clock is installed).
        let default_hw = HardwareModel::paper_1995();
        let hw = server.tracer.hardware().unwrap_or(&default_hw).clone();
        let phases: Vec<PhaseStat> = phases.into_iter().map(|p| p.priced(&hw)).collect();
        for p in &phases {
            server.tracer.event(TraceCat::Restart, p.name, p.records, p.pages_read);
        }
        let report = RestartReport { flavor: server.cfg.flavor.name(), phases, flight, wall };
        *server.restart_report.lock() = Some(report);
        Ok(server)
    }

    pub fn flavor(&self) -> RecoveryFlavor {
        self.cfg.flavor
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The per-phase breakdown of the restart that built this server
    /// (`None` for servers built by `format`/`format_on`).
    pub fn restart_report(&self) -> Option<RestartReport> {
        self.restart_report.lock().clone()
    }

    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    pub fn wpl_images_reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::Relaxed)
    }

    /// Which buffer-pool shard owns `pid` (shard-independence tests).
    pub fn shard_of(&self, pid: PageId) -> usize {
        self.pool.shard_of(pid)
    }

    /// `(commit-force calls, real log forces)` through the group
    /// committer; their ratio is the mean group-commit batch size.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        self.log.group_stats()
    }

    /// Acquire every subsystem lock in the canonical order — txn table,
    /// pool shards (ascending), WPL table, DPT, volume — and run `f` over
    /// the resulting whole-server view. This is the quiesced world the
    /// pre-decomposition `Mutex<Inner>` provided implicitly; checkpoint,
    /// reclaim, abort/undo, and restart run under it.
    pub(crate) fn with_quiesced<R>(&self, f: impl FnOnce(&mut InnerView<'_>) -> R) -> R {
        let mut txns = self.txns.lock(&self.tracer);
        let mut shards = self.pool.lock_all(&self.tracer);
        let mut wpl = self.wpl.lock(&self.tracer);
        let mut dpt = self.dpt.lock(&self.tracer);
        let volume = self.volume.lock(&self.tracer);
        let mut view = InnerView {
            volume: &volume,
            log: self.log.wal(),
            pool: PoolView::new(shards.iter_mut().map(|g| &mut **g).collect()),
            txns: &mut txns,
            dpt: &mut dpt,
            wpl: &mut wpl,
        };
        f(&mut view)
    }

    // ---------------------------------------------------------------------
    // Bulk load (logging bypassed — database generation utility)
    // ---------------------------------------------------------------------

    /// Allocate `n` fresh pages without logging (bulk loader only).
    pub fn bulk_allocate(&self, n: usize) -> QsResult<Vec<PageId>> {
        let volume = self.volume.lock(&self.tracer);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(volume.allocate()?);
        }
        Ok(out)
    }

    /// Write a page directly to the volume without logging (bulk loader).
    pub fn bulk_write(&self, pid: PageId, page: &Page) -> QsResult<()> {
        self.volume.lock(&self.tracer).write_page(pid, page)
    }

    /// Make the bulk load durable.
    pub fn bulk_sync(&self) -> QsResult<()> {
        self.volume.lock(&self.tracer).sync_header()
    }

    /// Pages currently allocated on the volume.
    pub fn allocated_pages(&self) -> usize {
        self.volume.lock(&self.tracer).allocated()
    }

    // ---------------------------------------------------------------------
    // Transactions
    // ---------------------------------------------------------------------

    pub fn begin(&self) -> TxnId {
        self.txns.lock(&self.tracer).begin()
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

    /// Non-blocking variant of [`Server::lock_resource`] for reactor
    /// workers: either the lock is granted now (metered exactly like a
    /// no-wait `lock_resource`) or the request parks and the grant arrives
    /// later via the [`crate::lock::LockEvents`] sink — the worker thread
    /// never blocks. Queue-time deadlocks surface as `Err(LockConflict)`.
    pub(crate) fn lock_resource_async(
        &self,
        txn: TxnId,
        res: Resource,
        mode: LockMode,
    ) -> QsResult<AsyncLockOutcome> {
        let outcome = self.locks.lock_resource_async(txn, res, mode)?;
        if outcome == AsyncLockOutcome::Granted {
            self.meter.locks_acquired.fetch_add(1, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Meter a parked async lock request whose grant just arrived — the
    /// same trace event and counter bump a blocking `lock_resource`
    /// performs when its wait ends.
    pub(crate) fn note_async_lock_granted(&self, txn: TxnId, res: Resource) {
        self.tracer.event(TraceCat::LockWait, "granted", txn.0, res.trace_code());
        self.meter.locks_acquired.fetch_add(1, Ordering::Relaxed);
    }

    /// The lock manager, for the reactor to install its grant sink.
    pub(crate) fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Allocate a page inside a transaction (logged, recoverable).
    pub fn allocate_page(&self, txn: TxnId) -> QsResult<PageId> {
        let pid = self.volume.lock(&self.tracer).allocate()?;
        let mut txns = self.txns.lock(&self.tracer);
        let prev = txns.active_mut(txn)?.last_lsn;
        let lsn = self.log.wal().append(&LogRecord::PageAlloc { txn, prev, page: pid })?;
        txns.active_mut(txn)?.note_logged(lsn);
        drop(txns);
        self.locks.lock(txn, Resource::Page(pid), LockMode::X)?;
        self.meter.locks_acquired.fetch_add(1, Ordering::Relaxed);
        Ok(pid)
    }

    /// Serve a page to a client. The caller must already hold a lock
    /// (QuickStore acquires S on read-fault, X on write-fault).
    pub fn fetch_page(&self, txn: TxnId, pid: PageId) -> QsResult<Page> {
        self.txns.lock(&self.tracer).active_mut(txn)?; // validate
        let mut page = self.read_page_hot(Some(txn), pid)?;
        if matches!(self.cfg.flavor, RecoveryFlavor::RedoLogical | RecoveryFlavor::Adaptive) {
            // No-steal: the pool copy is committed-only, so a transaction
            // re-fetching a page it already updated (client-side eviction)
            // would see stale bytes. Overlay its own deferred ops onto the
            // served copy; the pool copy stays clean. (Physically-elected
            // adaptive transactions have no pending ops — a no-op.)
            self.overlay_pending(txn, pid, &mut page)?;
        }
        Ok(page)
    }

    /// Re-apply `txn`'s own pending (deferred, uncommitted) operations on
    /// `pid` to a served page copy. `RedoLogical` and `Adaptive` only.
    fn overlay_pending(&self, txn: TxnId, pid: PageId, page: &mut Page) -> QsResult<()> {
        let pending = self.pending.lock(&self.tracer);
        let Some(ops) = pending.get(&txn) else { return Ok(()) };
        for op in ops.iter().filter(|op| op.page() == pid) {
            Self::apply_pending_op(page, pid, op)?;
        }
        Ok(())
    }

    /// Apply one deferred op to a page image and stamp the pageLSN — the
    /// commit-time twin of what the restart redo workers do to a frame.
    fn apply_pending_op(page: &mut Page, pid: PageId, op: &PendingOp) -> QsResult<()> {
        match op {
            PendingOp::Logical { slot, offset, after, lsn, .. } => {
                let obj = page.object_mut(pid, *slot)?;
                let off = *offset as usize;
                if off + after.len() > obj.len() {
                    return Err(QsError::RecoveryFailed {
                        detail: format!("logical redo range past object end on {pid}"),
                    });
                }
                obj[off..off + after.len()].copy_from_slice(after);
                page.set_lsn(*lsn);
            }
            PendingOp::Image { image, lsn, .. } => {
                *page = Page::from_bytes(image)?;
                page.set_lsn(*lsn);
            }
        }
        Ok(())
    }

    /// Shared read path, hot variant: holds only `pid`'s shard lock (plus
    /// single-statement takes of WPL/volume/DPT). Pool → (WPL table → log)
    /// → volume. Holding the shard across the miss-fill-evict sequence
    /// blocks whole-pool maintenance (which needs every shard), so the WPL
    /// entry and the log region it points at cannot be reclaimed mid-read,
    /// and the evicted victim — same shard by construction — cannot be
    /// re-read from the volume before its write-back lands.
    fn read_page_hot(&self, reader: Option<TxnId>, pid: PageId) -> QsResult<Page> {
        let mut pool = self.pool.lock(pid, &self.tracer);
        if let Some(p) = pool.get(pid) {
            return Ok(p.clone());
        }
        self.meter.server_pool_misses.fetch_add(1, Ordering::Relaxed);
        let page = if self.cfg.flavor == RecoveryFlavor::Wpl {
            match self.wpl.lock(&self.tracer).newest(pid).cloned() {
                // The newest logged image is authoritative. Page locking
                // guarantees an uncommitted image is only ever re-read by
                // its own transaction (X lock held), which the paper relies
                // on too ("read from the log if it is reaccessed during the
                // same transaction").
                Some(v) if v.committed || reader == Some(v.txn) => {
                    self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
                    Self::page_image_from_log(self.log.wal(), v.lsn, pid)?
                }
                Some(v) => {
                    return Err(QsError::Protocol {
                        detail: format!(
                            "page {pid} has uncommitted logged image of {} but is read by {reader:?}",
                            v.txn
                        ),
                    });
                }
                None => {
                    self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
                    self.volume.lock(&self.tracer).read_page(pid)?
                }
            }
        } else {
            self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
            self.volume.lock(&self.tracer).read_page(pid)?
        };
        let evicted = pool.insert(pid, page.clone(), false)?;
        if let Some(ev) = evicted {
            self.evict_dirty_hot(ev)?;
        }
        Ok(page)
    }

    /// Shared read path over a quiesced view (undo, reclaim, restart).
    fn read_page_view(
        &self,
        view: &mut InnerView<'_>,
        reader: Option<TxnId>,
        pid: PageId,
    ) -> QsResult<Page> {
        if let Some(p) = view.pool.get(pid) {
            return Ok(p.clone());
        }
        self.meter.server_pool_misses.fetch_add(1, Ordering::Relaxed);
        let page = if self.cfg.flavor == RecoveryFlavor::Wpl {
            match view.wpl.newest(pid) {
                Some(v) if v.committed || reader == Some(v.txn) => {
                    let lsn = v.lsn;
                    self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
                    Self::page_image_from_log(view.log, lsn, pid)?
                }
                Some(v) => {
                    return Err(QsError::Protocol {
                        detail: format!(
                            "page {pid} has uncommitted logged image of {} but is read by {reader:?}",
                            v.txn
                        ),
                    });
                }
                None => {
                    self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
                    view.volume.read_page(pid)?
                }
            }
        } else {
            self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
            view.volume.read_page(pid)?
        };
        let evicted = view.pool.insert(pid, page.clone(), false)?;
        if let Some(ev) = evicted {
            self.evict_dirty_view(view, ev)?;
        }
        Ok(page)
    }

    fn page_image_from_log(log: &LogManager, lsn: Lsn, pid: PageId) -> QsResult<Page> {
        match log.read_record(lsn)?.0 {
            LogRecord::WholePage { page, image, .. } if page == pid => Page::from_bytes(&image),
            other => Err(QsError::RecoveryFailed {
                detail: format!("expected WholePage for {pid} at {lsn}, found {other:?}"),
            }),
        }
    }

    /// STEAL handling, hot variant: a dirty page left a shard whose lock
    /// the caller still holds (the victim is in the same shard, so no one
    /// can re-read it from the volume before the write-back below).
    fn evict_dirty_hot(&self, ev: crate::buffer::Evicted) -> QsResult<()> {
        if !ev.dirty {
            return Ok(());
        }
        match self.cfg.flavor {
            RecoveryFlavor::Wpl => {
                // The image is already in the log (it was appended on
                // receipt); the permanent location must NOT be overwritten
                // before commit. Drop the copy — re-reads go to the log.
                Ok(())
            }
            _ => {
                // WAL: force the log up to the page's LSN, then steal.
                let stats = self.log.wal().force(ev.page.lsn())?;
                self.meter_force(stats);
                self.volume.lock(&self.tracer).write_page(ev.page_id, &ev.page)?;
                self.meter.data_writes.fetch_add(1, Ordering::Relaxed);
                self.dpt.lock(&self.tracer).remove(&ev.page_id);
                Ok(())
            }
        }
    }

    /// STEAL handling over a quiesced view.
    fn evict_dirty_view(
        &self,
        view: &mut InnerView<'_>,
        ev: crate::buffer::Evicted,
    ) -> QsResult<()> {
        if !ev.dirty {
            return Ok(());
        }
        match self.cfg.flavor {
            RecoveryFlavor::Wpl => Ok(()),
            _ => {
                let stats = view.log.force(ev.page.lsn())?;
                self.meter_force(stats);
                view.volume.write_page(ev.page_id, &ev.page)?;
                self.meter.data_writes.fetch_add(1, Ordering::Relaxed);
                view.dpt.remove(&ev.page_id);
                Ok(())
            }
        }
    }

    /// [`Server::meter_force`] for maintenance-path forces: bills the same
    /// legacy counters (so windowed figure demand is unchanged) *plus* the
    /// `maint_*` sub-accounting, which lets reports separate checkpoint /
    /// reclaim I/O from the victim transaction that used to absorb it.
    fn meter_force_maint(&self, stats: qs_wal::log::ForceStats) {
        if stats.wrote {
            self.meter.maint_log_pages_written.fetch_add(stats.pages_written, Ordering::Relaxed);
            self.meter.maint_log_forces.fetch_add(1, Ordering::Relaxed);
        }
        self.meter_force(stats);
    }

    /// Bill one maintenance-path data-page write to both the legacy
    /// counter and the maintenance sub-account.
    fn meter_data_write_maint(&self, pages: u64) {
        self.meter.data_writes.fetch_add(pages, Ordering::Relaxed);
        self.meter.maint_data_writes.fetch_add(pages, Ordering::Relaxed);
    }

    fn meter_force(&self, stats: qs_wal::log::ForceStats) {
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

    /// Receive a batch of client-generated log records (ESM and REDO
    /// flavors). Under REDO the redo information is applied to the server's
    /// copy of each page immediately (§3.5), reading the page from disk if
    /// necessary — the scheme's Achilles heel.
    pub fn receive_log_records(&self, txn: TxnId, records: Vec<LogRecord>) -> QsResult<()> {
        if self.cfg.flavor == RecoveryFlavor::Wpl {
            return Err(QsError::Protocol {
                detail: "WPL clients do not generate log records".into(),
            });
        }
        self.txns.lock(&self.tracer).active_mut(txn)?;
        for rec in records {
            if rec.txn() != txn {
                return Err(QsError::Protocol {
                    detail: format!("record for {} shipped by {txn}", rec.txn()),
                });
            }
            if self.cfg.flavor == RecoveryFlavor::RedoLogical
                && matches!(rec, LogRecord::Update { .. })
            {
                return Err(QsError::Protocol {
                    detail: "RLOG clients ship logical records, not physical before/after images"
                        .into(),
                });
            }
            if self.cfg.flavor != RecoveryFlavor::Adaptive
                && matches!(rec, LogRecord::TxnScheme { .. })
            {
                return Err(QsError::Protocol {
                    detail: "TxnScheme records are only legal under the adaptive flavor".into(),
                });
            }
            // Client-side `prev` is unknown to the client; rebuild the
            // backward chain here where the authoritative last_lsn lives.
            // The txn-table lock is held across the append so the chain
            // stays consistent under concurrency.
            let mut txns = self.txns.lock(&self.tracer);
            let rec = Self::rechain(rec, txns.get(txn)?.last_lsn);
            let lsn = self.log.wal().append(&rec)?;
            txns.active_mut(txn)?.note_logged(lsn);
            if let LogRecord::TxnScheme { scheme, .. } = rec {
                // The transaction's elected scheme governs how every later
                // record of this chain is processed.
                txns.active_mut(txn)?.scheme = Some(scheme);
            } else if let Some(pid) = rec.page() {
                txns.active_mut(txn)?.pages_logged.insert(pid);
                let deferred = self.defers_apply(&txns, txn)?;
                drop(txns);
                if deferred {
                    // No-steal deferred apply: the DPT is untouched until
                    // the op lands in the pool at commit.
                    self.stash_pending(txn, &rec, lsn);
                } else {
                    self.dpt.lock(&self.tracer).entry(pid).or_insert(lsn);
                    if self.cfg.flavor == RecoveryFlavor::RedoAtServer {
                        self.apply_redo_hot(&rec, lsn)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Does this transaction's receive path stash records for deferred
    /// (post-commit) application rather than tracking them in the DPT?
    /// True for `RedoLogical` always, and for `Adaptive` transactions that
    /// elected a logical scheme via their `TxnScheme` record.
    fn defers_apply(&self, txns: &crate::txn::TxnTable, txn: TxnId) -> QsResult<bool> {
        Ok(match self.cfg.flavor {
            RecoveryFlavor::RedoLogical => true,
            RecoveryFlavor::Adaptive => {
                txns.get(txn)?.scheme.map(|s| s.is_logical()).unwrap_or(false)
            }
            _ => false,
        })
    }

    /// Byte-frame twin of [`Server::receive_log_records`]: the client ships
    /// already-encoded records (built by `qs_wal::RecordWriter`), and the
    /// backward chain is patched *in place* on append
    /// ([`qs_wal::LogManager::append_rechained`]) — the hot path never
    /// decodes or re-encodes a record. Semantics and WAL bytes are
    /// identical to the record-struct path.
    pub fn receive_log_bytes(&self, txn: TxnId, batch: &[u8]) -> QsResult<()> {
        if self.cfg.flavor == RecoveryFlavor::Wpl {
            return Err(QsError::Protocol {
                detail: "WPL clients do not generate log records".into(),
            });
        }
        self.txns.lock(&self.tracer).active_mut(txn)?;
        let mut at = 0usize;
        while at < batch.len() {
            let len = record::frame_len(&batch[at..])?;
            let frame = &batch[at..at + len];
            if record::frame_txn(frame) != txn {
                return Err(QsError::Protocol {
                    detail: format!("record for {} shipped by {txn}", record::frame_txn(frame)),
                });
            }
            if self.cfg.flavor == RecoveryFlavor::RedoLogical && record::frame_tag(frame) == 1 {
                return Err(QsError::Protocol {
                    detail: "RLOG clients ship logical records, not physical before/after images"
                        .into(),
                });
            }
            if self.cfg.flavor != RecoveryFlavor::Adaptive && record::frame_tag(frame) == 11 {
                return Err(QsError::Protocol {
                    detail: "TxnScheme records are only legal under the adaptive flavor".into(),
                });
            }
            let mut txns = self.txns.lock(&self.tracer);
            // Mirror `rechain`: only update/whole-page/page-alloc/logical/
            // scheme records get the transaction's backward chain; any other
            // tag keeps the prev it was shipped with.
            let prev = match record::frame_tag(frame) {
                1..=3 | 8 | 11 => txns.get(txn)?.last_lsn,
                _ => record::frame_prev(frame),
            };
            let lsn = self.log.wal().append_rechained(frame, prev)?;
            txns.active_mut(txn)?.note_logged(lsn);
            if let Some(scheme) = record::frame_scheme(frame) {
                // The transaction's elected scheme governs how every later
                // record of this chain is processed.
                txns.active_mut(txn)?.scheme = Some(scheme);
            } else if let Some(pid) = record::frame_page(frame) {
                txns.active_mut(txn)?.pages_logged.insert(pid);
                let deferred = self.defers_apply(&txns, txn)?;
                drop(txns);
                if deferred {
                    // Deferred apply is off the allocation-free path by
                    // design; decoding per record is fine here.
                    let rec = LogRecord::decode(frame)?;
                    self.stash_pending(txn, &rec, lsn);
                } else {
                    self.dpt.lock(&self.tracer).entry(pid).or_insert(lsn);
                    if self.cfg.flavor == RecoveryFlavor::RedoAtServer {
                        // Redo application is off the allocation-free path by
                        // design; decoding per record is fine here.
                        let rec = LogRecord::decode(frame)?;
                        self.apply_redo_hot(&rec, lsn)?;
                    }
                }
            }
            at += len;
        }
        Ok(())
    }

    fn rechain(rec: LogRecord, prev: Lsn) -> LogRecord {
        match rec {
            LogRecord::Update { txn, page, slot, offset, before, after, .. } => {
                LogRecord::Update { txn, prev, page, slot, offset, before, after }
            }
            LogRecord::WholePage { txn, page, image, .. } => {
                LogRecord::WholePage { txn, prev, page, image }
            }
            LogRecord::PageAlloc { txn, page, .. } => LogRecord::PageAlloc { txn, prev, page },
            LogRecord::UpdateLogical { txn, page, slot, offset, after, .. } => {
                LogRecord::UpdateLogical { txn, prev, page, slot, offset, after }
            }
            LogRecord::TxnScheme { txn, scheme, .. } => LogRecord::TxnScheme { txn, prev, scheme },
            other => other,
        }
    }

    /// Stash one received `RedoLogical` record as a deferred op. Nothing
    /// touches the pool or the DPT here — that happens after the commit
    /// force in [`Server::apply_pending_committed`].
    fn stash_pending(&self, txn: TxnId, rec: &LogRecord, lsn: Lsn) {
        let op = match rec {
            LogRecord::UpdateLogical { page, slot, offset, after, .. } => PendingOp::Logical {
                page: *page,
                slot: *slot,
                offset: *offset,
                after: after.clone(),
                lsn,
            },
            LogRecord::WholePage { page, image, .. } => {
                PendingOp::Image { page: *page, image: image.clone(), lsn }
            }
            // PageAlloc needs no deferred work: the volume allocation
            // already happened in `allocate_page`.
            _ => return,
        };
        self.pending.lock(&self.tracer).entry(txn).or_default().push(op);
    }

    /// Post-force half of a `RedoLogical` commit: move the transaction's
    /// deferred ops into the pool. WAL holds (the commit force just made
    /// every op durable) and no-steal holds (the ops were invisible until
    /// now, and from here on they are committed data). Pages are applied
    /// in ascending page-id order so pool state is deterministic.
    fn apply_pending_committed(&self, txn: TxnId) -> QsResult<()> {
        let Some(ops) = self.pending.lock(&self.tracer).remove(&txn) else {
            return Ok(());
        };
        let mut by_page: std::collections::BTreeMap<PageId, Vec<PendingOp>> =
            std::collections::BTreeMap::new();
        for op in ops {
            by_page.entry(op.page()).or_default().push(op);
        }
        for (pid, ops) in by_page {
            let mut pool = self.pool.lock(pid, &self.tracer);
            if !pool.contains(pid) {
                self.meter.server_pool_misses.fetch_add(1, Ordering::Relaxed);
                self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
                let page = self.volume.lock(&self.tracer).read_page(pid)?;
                let evicted = pool.insert(pid, page, false)?;
                if let Some(ev) = evicted {
                    self.evict_dirty_hot(ev)?;
                }
            }
            let rec_lsn = ops[0].lsn();
            let page = pool.get_mut(pid).expect("page resident after read");
            for op in &ops {
                Self::apply_pending_op(page, pid, op)?;
                self.meter.redo_applies.fetch_add(1, Ordering::Relaxed);
            }
            pool.mark_dirty(pid);
            drop(pool);
            self.dpt.lock(&self.tracer).entry(pid).or_insert(rec_lsn);
        }
        Ok(())
    }

    /// Apply one redo record to the server's copy of the page, under the
    /// page's shard lock. Only the REDO flavor reaches this, so a pool
    /// miss always fills from the volume (no WPL table involved).
    fn apply_redo_hot(&self, rec: &LogRecord, lsn: Lsn) -> QsResult<()> {
        let pid = rec.page().expect("redo record without page");
        let mut pool = self.pool.lock(pid, &self.tracer);
        // Ensure the page is resident (disk read on miss — metered).
        if !pool.contains(pid) {
            self.meter.server_pool_misses.fetch_add(1, Ordering::Relaxed);
            self.meter.data_reads.fetch_add(1, Ordering::Relaxed);
            let page = self.volume.lock(&self.tracer).read_page(pid)?;
            let evicted = pool.insert(pid, page, false)?;
            if let Some(ev) = evicted {
                self.evict_dirty_hot(ev)?;
            }
        }
        let page = pool.get_mut(pid).expect("page resident after read");
        match rec {
            LogRecord::Update { slot, offset, after, .. } => {
                let obj = page.object_mut(pid, *slot)?;
                let off = *offset as usize;
                if off + after.len() > obj.len() {
                    return Err(QsError::RecoveryFailed {
                        detail: format!("redo range past object end on {pid}"),
                    });
                }
                obj[off..off + after.len()].copy_from_slice(after);
            }
            LogRecord::WholePage { image, .. } => {
                *page = Page::from_bytes(image)?;
            }
            _ => {}
        }
        page.set_lsn(lsn);
        pool.mark_dirty(pid);
        drop(pool);
        self.dpt.lock(&self.tracer).entry(pid).or_insert(lsn);
        self.meter.redo_applies.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Client declares that all log records it will generate for `pid` in
    /// this transaction have been shipped (possibly zero). Enforcement hook
    /// for the log-before-page rule.
    pub fn note_page_logged(&self, txn: TxnId, pid: PageId) -> QsResult<()> {
        self.txns.lock(&self.tracer).active_mut(txn)?.pages_logged.insert(pid);
        Ok(())
    }

    /// Receive a dirty page from a client.
    pub fn receive_dirty_page(&self, txn: TxnId, pid: PageId, page: Page) -> QsResult<()> {
        self.txns.lock(&self.tracer).active_mut(txn)?;
        match self.cfg.flavor {
            RecoveryFlavor::RedoAtServer => {
                Err(QsError::Protocol { detail: "REDO clients do not ship dirty pages".into() })
            }
            RecoveryFlavor::RedoLogical => Err(QsError::Protocol {
                detail: "RLOG clients do not ship dirty pages (no-steal)".into(),
            }),
            RecoveryFlavor::EsmAries | RecoveryFlavor::Adaptive => {
                let mut page = page;
                {
                    let txns = self.txns.lock(&self.tracer);
                    // Adaptive transactions that elected a logical scheme
                    // are no-steal: their updates live only in the pending
                    // map until commit, so a dirty-page ship is a protocol
                    // error.
                    if txns.get(txn)?.scheme.map(|s| s.is_logical()).unwrap_or(false) {
                        return Err(QsError::Protocol {
                            detail: "logically-elected adaptive txns do not ship dirty pages"
                                .into(),
                        });
                    }
                    // Log-before-page rule (§3.1): the server must never
                    // cache a page for which it lacks the update log records.
                    if !txns.get(txn)?.pages_logged.contains(&pid) {
                        return Err(QsError::LogBeforePageViolation(pid));
                    }
                    page.set_lsn(txns.get(txn)?.last_lsn);
                }
                let rec_lsn = self.log.wal().tail_lsn();
                let mut pool = self.pool.lock(pid, &self.tracer);
                let evicted = pool.insert(pid, page, true)?;
                self.dpt.lock(&self.tracer).entry(pid).or_insert(rec_lsn);
                if let Some(ev) = evicted {
                    self.evict_dirty_hot(ev)?;
                }
                Ok(())
            }
            RecoveryFlavor::Wpl => {
                // Append the whole page to the log; track it in the WPL
                // table; cache it. Its permanent location stays untouched
                // until after commit (§3.4.2).
                let mut page = page;
                let mut txns = self.txns.lock(&self.tracer);
                let prev = txns.get(txn)?.last_lsn;
                let rec =
                    LogRecord::WholePage { txn, prev, page: pid, image: page.bytes().to_vec() };
                let lsn = self.log.wal().append(&rec)?;
                page.set_lsn(lsn);
                let t = txns.active_mut(txn)?;
                t.note_logged(lsn);
                t.logged_pages.push(pid);
                drop(txns);
                self.wpl.lock(&self.tracer).log_page(pid, lsn, txn);
                let mut pool = self.pool.lock(pid, &self.tracer);
                let evicted = pool.insert(pid, page, true)?;
                if let Some(ev) = evicted {
                    self.evict_dirty_hot(ev)?;
                }
                Ok(())
            }
        }
    }

    /// Commit: force the log (records + commit record; under WPL this
    /// forces the page images too), flip WPL entries to committed, release
    /// locks. NO-FORCE: data pages are *not* written to the volume here.
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
        let stats = self.log.commit_force(lsn, &self.tracer)?;
        self.meter_force(stats);
        let pressure = self.commit_finish(txn)?;
        // Watermark maintenance rides on the committing client only on
        // the direct path; the reactor's committer triggers it once per
        // batch instead (`runtime::committer_loop`).
        self.maybe_maintain()?;
        Ok(pressure)
    }

    /// First half of [`Server::commit`]: append the commit record and
    /// return its LSN. The force and the post-force bookkeeping are left to
    /// the caller so the reactor's committer can batch one force over many
    /// appended commit records.
    pub(crate) fn commit_append(&self, txn: TxnId) -> QsResult<Lsn> {
        let mut txns = self.txns.lock(&self.tracer);
        let prev = txns.active_mut(txn)?.last_lsn;
        let lsn = self.log.wal().append(&LogRecord::Commit { txn, prev })?;
        // Flip to Committed under the same lock as the append. Checkpoint
        // snapshots (which also hold the txn-table lock across their own
        // record append) list only *active* transactions, so a transaction
        // is excluded exactly when its commit record precedes the
        // checkpoint record — otherwise a checkpoint landing between this
        // append and `commit_finish` would snapshot the transaction as
        // active, restart's forward scan (from the checkpoint) would never
        // see the earlier commit, and undo would roll back committed work.
        txns.get_mut(txn)?.status = TxnStatus::Committed;
        Ok(lsn)
    }

    /// Force the log through `max_lsn` on behalf of a batch of `batch`
    /// appended commit records and meter it the way `batch` sequential
    /// direct commits would have: one real force (or one no-op if the tail
    /// is already durable) plus `batch - 1` no-op forces for the riders.
    /// That keeps `log_forces + log_forces_noop == commits` — the same
    /// invariant the group-commit leader/follower path maintains.
    pub(crate) fn commit_force_batch(&self, max_lsn: Lsn, batch: usize) -> QsResult<()> {
        let stats = self.log.commit_force(max_lsn, &self.tracer)?;
        self.meter_force(stats);
        for _ in 1..batch {
            self.meter.log_forces_noop.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Second half of [`Server::commit`]: everything after the force.
    /// Returns the post-commit [`LogPressure`] for the reply piggyback.
    pub(crate) fn commit_finish(&self, txn: TxnId) -> QsResult<LogPressure> {
        if matches!(self.cfg.flavor, RecoveryFlavor::RedoLogical | RecoveryFlavor::Adaptive) {
            // The force just made every deferred op durable; apply them
            // now, before the transaction leaves the table. (Adaptive:
            // only logically-elected transactions have pending ops.)
            self.apply_pending_committed(txn)?;
        }
        let mut txns = self.txns.lock(&self.tracer);
        if self.cfg.flavor == RecoveryFlavor::Wpl {
            // `get_mut`, not `active_mut`: `commit_append` already flipped
            // the status to Committed.
            let logged = std::mem::take(&mut txns.get_mut(txn)?.logged_pages);
            self.wpl.lock(&self.tracer).on_commit(txn, &logged);
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

    /// Abort: ARIES-style undo with CLRs (ESM/REDO flavors); under WPL
    /// simply forget the transaction's logged images and drop its cached
    /// pages (§3.4.2: "abort … by simply ignoring, from then on, any of its
    /// updated values"). Undo reads and rewrites pages across subsystems,
    /// so the whole abort runs quiesced.
    pub fn abort(&self, txn: TxnId) -> QsResult<()> {
        if matches!(self.cfg.flavor, RecoveryFlavor::RedoLogical | RecoveryFlavor::Adaptive) {
            // Deferred ops were never applied anywhere; dropping them IS
            // the rollback. Taken before quiescing: the pending lock is
            // never nested inside the subsystem locks. (Adaptive: only
            // logically-elected transactions have deferred ops.)
            self.pending.lock(&self.tracer).remove(&txn);
        }
        self.with_quiesced(|view| -> QsResult<()> {
            view.txns.active_mut(txn)?;
            let elected_logical =
                view.txns.get(txn)?.scheme.map(|s| s.is_logical()).unwrap_or(false);
            match self.cfg.flavor {
                RecoveryFlavor::Wpl => {
                    view.wpl.on_abort(txn);
                    let logged = view.txns.get(txn)?.logged_pages.clone();
                    for pid in logged {
                        view.pool.remove(pid);
                    }
                }
                RecoveryFlavor::RedoLogical => {
                    // No-steal + deferred apply: nothing of this
                    // transaction reached the pool or the volume. Close
                    // the chain with an abort record — no undo, no CLRs.
                    let prev = view.txns.get(txn)?.last_lsn;
                    view.log.append(&LogRecord::Abort { txn, prev })?;
                }
                RecoveryFlavor::Adaptive if elected_logical => {
                    // Same no-steal argument as RLOG: the pending ops were
                    // dropped above and nothing else reached shared state.
                    let prev = view.txns.get(txn)?.last_lsn;
                    view.log.append(&LogRecord::Abort { txn, prev })?;
                }
                _ => {
                    let last = view.txns.get(txn)?.last_lsn;
                    let mut cache = qs_wal::LogReadCache::default();
                    self.undo_chain(view, txn, last, &mut cache)?;
                    let prev = view.txns.get(txn)?.last_lsn;
                    view.log.append(&LogRecord::Abort { txn, prev })?;
                }
            }
            view.txns.get_mut(txn)?.status = TxnStatus::Aborted;
            view.txns.remove(txn);
            Ok(())
        })?;
        self.locks.release_all(txn);
        Ok(())
    }

    /// Walk a transaction's backward chain applying before-images, writing
    /// CLRs. Used by abort and by restart undo. Returns the number of
    /// update records undone (restart-report input). Chain reads go through
    /// `cache`, a log-page cache: the backward walk revisits the same log
    /// pages constantly, and the cache turns those into one log-disk fetch
    /// per distinct page (its hit counter also feeds the restart report).
    pub(crate) fn undo_chain(
        &self,
        view: &mut InnerView<'_>,
        txn: TxnId,
        from: Lsn,
        cache: &mut qs_wal::LogReadCache,
    ) -> QsResult<u64> {
        let mut undone = 0u64;
        let mut at = from;
        while !at.is_null() {
            let (rec, _) = cache.read_record(view.log, at)?;
            match rec {
                LogRecord::Update { page: pid, slot, offset, before, prev, .. } => {
                    if !view.pool.contains(pid) {
                        let p = self.read_page_view(view, Some(txn), pid)?;
                        drop(p);
                    }
                    let clr_lsn_guess = view.log.tail_lsn();
                    let page = view.pool.get_mut(pid).expect("resident");
                    let obj = page.object_mut(pid, slot)?;
                    let off = offset as usize;
                    obj[off..off + before.len()].copy_from_slice(&before);
                    page.set_lsn(clr_lsn_guess);
                    view.pool.mark_dirty(pid);
                    let t_prev = view.txns.get(txn)?.last_lsn;
                    let clr = LogRecord::Clr {
                        txn,
                        prev: t_prev,
                        page: pid,
                        slot,
                        offset,
                        after: before.clone(),
                        undo_next: prev,
                    };
                    let lsn = view.log.append(&clr)?;
                    view.txns.active_mut(txn)?.note_logged(lsn);
                    view.dpt.entry(pid).or_insert(lsn);
                    undone += 1;
                    at = prev;
                }
                LogRecord::Clr { undo_next, .. } => at = undo_next,
                // UpdateLogical carries no before-image (RLOG is no-steal
                // and never undoes); if one is ever reached here just walk
                // past it.
                LogRecord::WholePage { prev, .. }
                | LogRecord::PageAlloc { prev, .. }
                | LogRecord::UpdateLogical { prev, .. }
                | LogRecord::TxnScheme { prev, .. }
                | LogRecord::Commit { prev, .. }
                | LogRecord::Abort { prev, .. } => at = prev,
                LogRecord::Checkpoint { .. }
                | LogRecord::BeginCheckpoint { .. }
                | LogRecord::EndCheckpoint { .. } => break,
            }
        }
        Ok(undone)
    }

    // ---------------------------------------------------------------------
    // Checkpointing, maintenance, reclamation
    // ---------------------------------------------------------------------

    /// Run maintenance if the log is past its high watermark. With the
    /// background flusher running, the pass is queued there (deduplicated)
    /// and this returns immediately; otherwise it runs inline as before.
    pub fn maybe_maintain(&self) -> QsResult<()> {
        let (used, cap) = (self.log.wal().used_bytes(), self.log.wal().body_capacity());
        if (used as f64) < self.cfg.log_high_watermark * cap as f64 {
            return Ok(());
        }
        if self.request_maintenance() {
            return Ok(());
        }
        self.maintain_now()
    }

    /// Run one maintenance pass (checkpoint or WPL reclaim) on the
    /// calling thread, whatever the log level.
    pub fn maintain_now(&self) -> QsResult<()> {
        match self.cfg.flavor {
            RecoveryFlavor::Wpl => self.wpl_reclaim(),
            _ => self.checkpoint(),
        }
    }

    /// Queue a maintenance pass on the flusher thread. Returns false when
    /// no flusher is running (the caller should run inline); true when the
    /// pass is queued or one already is (requests are deduplicated, so a
    /// storm of committers costs one wakeup).
    fn request_maintenance(&self) -> bool {
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

    /// Explicitly queue a checkpoint on the flusher thread (benchmark /
    /// scale-harness hook for periodic maintenance below the watermark).
    /// Returns false when no flusher is running.
    pub fn request_checkpoint(&self) -> bool {
        self.request_maintenance()
    }

    /// One flusher-thread maintenance pass. Errors have no client to
    /// return to; they are traced, and the next watermark crossing
    /// retries.
    pub(crate) fn flusher_tick(&self) {
        self.maint_pending.store(false, Ordering::Release);
        if self.maintain_now().is_err() {
            self.tracer.event(TraceCat::Flusher, "error", 0, 0);
        }
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

    /// Take a checkpoint. With the flusher knob off (the default) this is
    /// the original quiesced protocol: for the ARIES flavors it flushes
    /// all dirty pages first (a sharp checkpoint) so the log can truncate
    /// to the checkpoint; under WPL it snapshots the WPL table (§3.4.3).
    /// With the knob on it is the two-phase fuzzy protocol instead
    /// (begin record → incremental drain → end record), which never
    /// quiesces the server.
    pub fn checkpoint(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        if self.cfg.flusher.enabled {
            self.checkpoint_fuzzy()
        } else {
            self.checkpoint_inner()
        }
    }

    /// The original quiesced (sharp / aged-fuzzy) checkpoint.
    fn checkpoint_inner(&self) -> QsResult<()> {
        let (flushed, log_used) = self.with_quiesced(|view| -> QsResult<(u64, u64)> {
            let mut flushed = 0u64;
            match self.cfg.flavor {
                RecoveryFlavor::Wpl => {}
                RecoveryFlavor::RedoLogical => {
                    // Fuzzy checkpoint: flush only pages that have stayed
                    // dirty since before the *previous* checkpoint, so each
                    // checkpoint bounds replay to roughly two checkpoint
                    // intervals without a write burst. The rest stay in the
                    // DPT the checkpoint record carries.
                    let prev_ck = view.log.checkpoint_lsn();
                    if !prev_ck.is_null() {
                        let mut old: Vec<PageId> = view
                            .dpt
                            .iter()
                            .filter(|&(_, &rec)| rec <= prev_ck)
                            .map(|(&p, _)| p)
                            .collect();
                        old.sort_unstable_by_key(|p| p.0);
                        let max_lsn =
                            old.iter().filter_map(|p| view.pool.peek(*p)).map(|p| p.lsn()).max();
                        if let Some(l) = max_lsn {
                            let stats = view.log.force(l)?;
                            self.meter_force_maint(stats);
                        }
                        for pid in old {
                            if let Some(page) = view.pool.peek(pid).cloned() {
                                view.volume.write_page(pid, &page)?;
                                self.meter_data_write_maint(1);
                                view.pool.clear_dirty(pid);
                                flushed += 1;
                            }
                            view.dpt.remove(&pid);
                        }
                    }
                }
                _ => {
                    // Flush every dirty page, obeying WAL (sharp checkpoint).
                    let dirty = view.pool.dirty_pages();
                    if !dirty.is_empty() {
                        let max_lsn =
                            dirty.iter().filter_map(|p| view.pool.peek(*p)).map(|p| p.lsn()).max();
                        if let Some(l) = max_lsn {
                            let stats = view.log.force(l)?;
                            self.meter_force_maint(stats);
                        }
                        for pid in dirty {
                            let page = view.pool.peek(pid).expect("dirty page resident").clone();
                            view.volume.write_page(pid, &page)?;
                            self.meter_data_write_maint(1);
                            view.pool.clear_dirty(pid);
                            flushed += 1;
                        }
                    }
                    view.dpt.clear();
                }
            }
            // Both tables are hash maps: sort the snapshots so the encoded
            // checkpoint record is deterministic (the fuzzy RLOG checkpoint
            // is the first flavor to carry a non-empty DPT in its body).
            let mut active_txns: Vec<(TxnId, Lsn)> =
                view.txns.active().map(|t| (t.id, t.last_lsn)).collect();
            active_txns.sort_unstable_by_key(|&(t, _)| t.0);
            let mut dirty_pages: Vec<(PageId, Lsn)> =
                view.dpt.iter().map(|(&p, &l)| (p, l)).collect();
            dirty_pages.sort_unstable_by_key(|&(p, _)| p.0);
            let body = CheckpointBody {
                active_txns,
                dirty_pages,
                wpl_entries: if self.cfg.flavor == RecoveryFlavor::Wpl {
                    view.wpl.checkpoint_entries()
                } else {
                    Vec::new()
                },
                allocated_pages: view.volume.allocated() as u64,
            };
            let ck_lsn = view.log.append(&LogRecord::Checkpoint { body })?;
            let stats = view.log.force(view.log.tail_lsn())?;
            self.meter_force_maint(stats);
            view.log.set_checkpoint(ck_lsn)?;
            view.volume.sync_header()?;
            // Truncate to the earliest record still needed.
            let mut keep = ck_lsn;
            if let Some(l) = view.txns.min_active_first_lsn() {
                keep = keep.min(l);
            }
            if self.cfg.flavor == RecoveryFlavor::Wpl {
                if let Some(l) = view.wpl.min_needed_lsn() {
                    keep = keep.min(l);
                }
            } else if let Some(&l) = view.dpt.values().min() {
                keep = keep.min(l);
            }
            view.log.truncate_to(keep)?;
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
    /// the claimed set the drain will flush, and append the
    /// begin-checkpoint record. The txn-table lock is held across the
    /// append (every transaction-logging path holds it too), so the body
    /// is atomic with respect to the log: a record at LSN > begin is not
    /// reflected in the body, one at LSN < begin is.
    fn fuzzy_begin(&self) -> QsResult<(Lsn, Vec<PageId>)> {
        let txns = self.txns.lock(&self.tracer);
        let mut active_txns: Vec<(TxnId, Lsn)> =
            txns.active().map(|t| (t.id, t.last_lsn)).collect();
        active_txns.sort_unstable_by_key(|&(t, _)| t.0);
        let wpl = self.wpl.lock(&self.tracer);
        let dpt = self.dpt.lock(&self.tracer);
        let mut dirty_pages: Vec<(PageId, Lsn)> = dpt.iter().map(|(&p, &l)| (p, l)).collect();
        dirty_pages.sort_unstable_by_key(|&(p, _)| p.0);
        let claimed: Vec<PageId> = match self.cfg.flavor {
            // WPL write-back belongs to reclaim, not the checkpoint.
            RecoveryFlavor::Wpl => Vec::new(),
            // Same aging rule as the quiesced fuzzy checkpoint: drain only
            // pages dirty since before the previous checkpoint, bounding
            // replay to ~two checkpoint intervals without a write burst.
            RecoveryFlavor::RedoLogical => {
                let prev_ck = self.log.wal().checkpoint_lsn();
                if prev_ck.is_null() {
                    Vec::new()
                } else {
                    dirty_pages.iter().filter(|&&(_, l)| l <= prev_ck).map(|&(p, _)| p).collect()
                }
            }
            _ => dirty_pages.iter().map(|&(p, _)| p).collect(),
        };
        let body = CheckpointBody {
            active_txns,
            dirty_pages,
            wpl_entries: if self.cfg.flavor == RecoveryFlavor::Wpl {
                wpl.checkpoint_entries()
            } else {
                Vec::new()
            },
            allocated_pages: self.volume.lock(&self.tracer).allocated() as u64,
        };
        drop(dpt);
        drop(wpl);
        let begin = self.log.wal().append(&LogRecord::BeginCheckpoint { body })?;
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
        let end = self.log.wal().append(&LogRecord::EndCheckpoint { begin })?;
        let stats = self.log.wal().force(end)?;
        self.meter_force_maint(stats);
        self.log.wal().set_checkpoint(begin)?;
        self.volume.lock(&self.tracer).sync_header()?;
        let mut keep = begin;
        if let Some(l) = txns.min_active_first_lsn() {
            keep = keep.min(l);
        }
        if self.cfg.flavor == RecoveryFlavor::Wpl {
            if let Some(l) = self.wpl.lock(&self.tracer).min_needed_lsn() {
                keep = keep.min(l);
            }
        } else if let Some(&l) = self.dpt.lock(&self.tracer).values().min() {
            keep = keep.min(l);
        }
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

    /// Write the live committed image at (`pid`, `lsn`) to its permanent
    /// location — from the pool when still cached (the paper's
    /// optimization), else read back from the log. Shared body of
    /// [`Server::wpl_reclaim`] and the [`Server::quiesce`] drain.
    fn wpl_write_home(&self, view: &mut InnerView<'_>, pid: PageId, lsn: Lsn) -> QsResult<()> {
        let cached_ok =
            view.wpl.newest(pid).map(|v| v.lsn == lsn && view.pool.contains(pid)).unwrap_or(false);
        let page = if cached_ok {
            view.pool.peek(pid).expect("cached").clone()
        } else {
            self.meter.log_pages_read.fetch_add(1, Ordering::Relaxed);
            self.meter.maint_log_pages_read.fetch_add(1, Ordering::Relaxed);
            Self::page_image_from_log(view.log, lsn, pid)?
        };
        view.volume.write_page(pid, &page)?;
        self.meter_data_write_maint(1);
        if cached_ok {
            view.pool.clear_dirty(pid);
        }
        Ok(())
    }

    /// WPL log-space reclamation (the paper's background thread, §3.4.2,
    /// run here synchronously until the low watermark is reached). Images
    /// superseded by newer committed images are dropped without I/O; live
    /// images are read back (from the pool when still cached — the paper's
    /// optimization — else from the log) and written to their permanent
    /// locations.
    pub fn wpl_reclaim(&self) -> QsResult<()> {
        let _serial = self.ckpt_serial.lock();
        self.with_quiesced(|view| -> QsResult<()> {
            let low = (self.cfg.log_low_watermark * view.log.body_capacity() as f64) as usize;
            loop {
                if view.log.used_bytes() <= low {
                    break;
                }
                let Some((pid, lsn, superseded)) = view.wpl.reclaim_candidate() else {
                    break;
                };
                if !superseded {
                    // Interleaving invariance (§6f): when a newer
                    // *uncommitted* version of this page exists, whether
                    // the candidate reads as live or superseded is being
                    // decided by a race against that in-flight
                    // transaction's commit — one schedule pays a read-back
                    // plus write-home, another pays nothing. Defer: the
                    // commit (or abort) settles supersession on a stable
                    // per-transaction account, and the next watermark
                    // crossing retries. (`break`, not `continue`: the
                    // candidate would not change.)
                    if view.wpl.has_newer_uncommitted(pid, lsn) {
                        break;
                    }
                    // Find the committed image and flush it home.
                    self.wpl_write_home(view, pid, lsn)?;
                }
                view.wpl.remove_version(pid, lsn);
                self.reclaimed.fetch_add(1, Ordering::Relaxed);

                // Advance the log start as far as the table and active
                // transactions allow; if we cannot advance past an
                // uncommitted image, stop (the paper's thread would wait
                // for the commit).
                let mut keep = view.log.durable_lsn();
                if let Some(l) = view.wpl.min_needed_lsn() {
                    keep = keep.min(l);
                }
                if let Some(l) = view.txns.min_active_first_lsn() {
                    keep = keep.min(l);
                }
                let ck = view.log.checkpoint_lsn();
                if !ck.is_null() {
                    keep = keep.min(ck);
                }
                view.log.truncate_to(keep)?;
                if view.log.used_bytes() > low && view.wpl.oldest_is_uncommitted() {
                    break;
                }
            }
            Ok(())
        })?;
        // Refresh the checkpoint so restart's backward scan stays short and
        // the old checkpoint stops pinning the log tail. Dispatch directly:
        // `checkpoint()` would retake the (non-reentrant) serial lock.
        if self.cfg.flusher.enabled {
            self.checkpoint_fuzzy()
        } else {
            self.checkpoint_inner()
        }
    }

    /// Flush everything dirty and checkpoint (test/benchmark quiesce hook).
    pub fn quiesce(&self) -> QsResult<()> {
        if self.cfg.flavor == RecoveryFlavor::Wpl {
            // Drain the WPL table completely.
            self.with_quiesced(|view| -> QsResult<()> {
                while let Some((pid, lsn, superseded)) = view.wpl.reclaim_candidate() {
                    if !superseded {
                        // Same deferral as `wpl_reclaim`: a newer
                        // uncommitted version means supersession is still
                        // in flight; let the commit decide.
                        if view.wpl.has_newer_uncommitted(pid, lsn) {
                            break;
                        }
                        self.wpl_write_home(view, pid, lsn)?;
                    }
                    view.wpl.remove_version(pid, lsn);
                    self.reclaimed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })?;
        }
        if self.cfg.flavor == RecoveryFlavor::RedoLogical {
            // Fuzzy checkpoints only flush pages dirty since before the
            // previous checkpoint; a first pass ages every current dirty
            // page, so the second drains them all.
            self.checkpoint()?;
        }
        self.checkpoint()
    }

    // ---------------------------------------------------------------------
    // Introspection for tests and the restart modules
    // ---------------------------------------------------------------------

    /// Read a page the way a post-restart client would (pool → WPL table →
    /// volume), without transaction context. Test helper.
    pub fn read_page_for_test(&self, pid: PageId) -> QsResult<Page> {
        self.read_page_hot(None, pid)
    }

    /// Number of active transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.lock(&self.tracer).active().count()
    }

    /// WPL table size (pages tracked).
    pub fn wpl_table_len(&self) -> usize {
        self.wpl.lock(&self.tracer).len()
    }

    /// Current log occupancy in bytes.
    pub fn log_used_bytes(&self) -> usize {
        self.log.wal().used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(flavor: RecoveryFlavor) -> ServerConfig {
        ServerConfig {
            flavor,
            pool_pages: 64,
            volume_pages: 256,
            log_bytes: 4 * 1024 * 1024,
            log_high_watermark: 0.6,
            log_low_watermark: 0.3,
            pool_shards: 1,
            group_commit: false,
            restart: RestartConfig::default(),
            flusher: FlusherConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }

    fn loaded_server(flavor: RecoveryFlavor) -> (Server, Vec<PageId>) {
        let server = Server::format(small_cfg(flavor), Meter::new()).unwrap();
        let pids = server.bulk_allocate(8).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 64]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        (server, pids)
    }

    fn updated_page(server: &Server, txn: TxnId, pid: PageId, val: u8) -> Page {
        let mut page = server.fetch_page(txn, pid).unwrap();
        let obj = page.object_mut(pid, 0).unwrap();
        obj.fill(val);
        page
    }

    /// Run one committed update through the ESM flavor and crash.
    fn esm_commit_crash(flavor: RecoveryFlavor) -> (StableParts, ServerConfig, PageId) {
        let (server, pids) = loaded_server(flavor);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, 7);
        match flavor {
            RecoveryFlavor::Wpl => {
                server.receive_dirty_page(txn, pid, page).unwrap();
            }
            RecoveryFlavor::RedoLogical => {
                let rec = LogRecord::UpdateLogical {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    after: vec![7u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
            }
            _ => {
                let rec = LogRecord::Update {
                    txn,
                    prev: Lsn::NULL,
                    page: pid,
                    slot: 0,
                    offset: 0,
                    before: vec![0u8; 64],
                    after: vec![7u8; 64],
                };
                server.receive_log_records(txn, vec![rec]).unwrap();
                if flavor == RecoveryFlavor::EsmAries {
                    server.receive_dirty_page(txn, pid, page).unwrap();
                }
            }
        }
        server.commit(txn).unwrap();
        let cfg = server.config().clone();
        (server.crash(), cfg, pid)
    }

    #[test]
    fn force_stats_metered_on_both_paths() {
        use qs_wal::log::ForceStats;
        let meter = Meter::new();
        let server =
            Server::format(small_cfg(RecoveryFlavor::EsmAries), Arc::clone(&meter)).unwrap();
        server.meter_force(ForceStats { pages_written: 2, wrote: true });
        server.meter_force(ForceStats { pages_written: 0, wrote: false });
        let s = meter.snapshot();
        assert_eq!(s.log_forces, 1, "only the real force counts as a force");
        assert_eq!(s.log_pages_written, 2);
        assert_eq!(s.log_forces_noop, 1, "the no-op force is counted separately");
    }

    #[test]
    fn traced_restart_reports_phases_and_flight() {
        let cfg = small_cfg(RecoveryFlavor::EsmAries);
        let meter = Meter::new();
        let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 32);
        let server = Server::format_traced(cfg.clone(), Arc::clone(&meter), tracer).unwrap();
        let pids = server.bulk_allocate(2).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 64]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        let txn = server.begin();
        server.lock_page(txn, pids[0], LockMode::X).unwrap();
        let page = updated_page(&server, txn, pids[0], 7);
        let rec = LogRecord::Update {
            txn,
            prev: Lsn::NULL,
            page: pids[0],
            slot: 0,
            offset: 0,
            before: vec![0u8; 64],
            after: vec![7u8; 64],
        };
        server.receive_log_records(txn, vec![rec]).unwrap();
        server.receive_dirty_page(txn, pids[0], page).unwrap();
        server.commit(txn).unwrap();
        let parts = server.crash();
        assert!(parts.flight.as_ref().is_some_and(|f| !f.is_empty()), "crash snapshots the ring");
        let meter2 = Meter::new();
        let tracer2 = Tracer::flight(Arc::clone(&meter2), HardwareModel::paper_1995(), 32);
        let server2 = Server::restart_traced(parts, cfg, meter2, tracer2).unwrap();
        let report = server2.restart_report().expect("restart produces a report");
        assert_eq!(report.flavor, "ESM");
        assert_eq!(report.phases.len(), 3, "analysis / redo / undo");
        assert!(report.total_records() > 0, "the commit left records to analyze");
        assert!(report.total_sim_s() > 0.0);
        assert!(!report.flight.is_empty(), "the crashed server's flight rode along");
        assert!(server2.restart_report().is_some(), "report is clonable out repeatedly");
    }

    #[test]
    fn committed_update_survives_crash_esm() {
        let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::EsmAries);
        let server = Server::restart(parts, cfg, Meter::new()).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
    }

    #[test]
    fn committed_update_survives_crash_redo() {
        let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::RedoAtServer);
        let server = Server::restart(parts, cfg, Meter::new()).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
    }

    #[test]
    fn committed_update_survives_crash_rlog_without_undo_phase() {
        let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::RedoLogical);
        let server = Server::restart(parts, cfg, Meter::new()).unwrap();
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
        let report = server.restart_report().unwrap();
        assert_eq!(report.flavor, "RLOG");
        assert_eq!(report.phases.len(), 2, "analysis / redo — no undo under no-steal");
        assert!(report.phases.iter().all(|p| p.name != "undo"));
        assert!(report.phases.iter().any(|p| p.name == "redo" && p.records > 0));
    }

    #[test]
    fn committed_update_survives_crash_wpl() {
        let (parts, cfg, pid) = esm_commit_crash(RecoveryFlavor::Wpl);
        let server = Server::restart(parts, cfg, Meter::new()).unwrap();
        assert_eq!(server.wpl_table_len(), 1, "WPL table reconstructed");
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
        // And after draining the table the permanent location is correct.
        server.quiesce().unwrap();
        assert_eq!(server.wpl_table_len(), 0);
        let page = server.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[7u8; 64][..]);
    }

    #[test]
    fn uncommitted_update_rolled_back_on_restart() {
        for flavor in [
            RecoveryFlavor::EsmAries,
            RecoveryFlavor::RedoAtServer,
            RecoveryFlavor::RedoLogical,
            RecoveryFlavor::Wpl,
        ] {
            let (server, pids) = loaded_server(flavor);
            let pid = pids[0];
            let txn = server.begin();
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let page = updated_page(&server, txn, pid, 9);
            match flavor {
                RecoveryFlavor::Wpl => server.receive_dirty_page(txn, pid, page).unwrap(),
                RecoveryFlavor::RedoLogical => {
                    let rec = LogRecord::UpdateLogical {
                        txn,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: 0,
                        offset: 0,
                        after: vec![9u8; 64],
                    };
                    server.receive_log_records(txn, vec![rec]).unwrap();
                }
                _ => {
                    let rec = LogRecord::Update {
                        txn,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: 0,
                        offset: 0,
                        before: vec![0u8; 64],
                        after: vec![9u8; 64],
                    };
                    server.receive_log_records(txn, vec![rec]).unwrap();
                    if flavor == RecoveryFlavor::EsmAries {
                        server.receive_dirty_page(txn, pid, page).unwrap();
                    }
                }
            }
            // Crash before commit.
            let cfg = server.config().clone();
            let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
            let page = server2.read_page_for_test(pid).unwrap();
            assert_eq!(
                page.object(pid, 0).unwrap(),
                &[0u8; 64][..],
                "{flavor:?}: uncommitted update must not survive"
            );
            assert_eq!(server2.active_txns(), 0);
        }
    }

    /// Restart undo reads its chain through the log-page cache, and the
    /// report's `pages_read` counts *distinct* log pages fetched — not one
    /// page per record undone (100 undone records here span only a few
    /// 8 KB log pages).
    #[test]
    fn undo_counts_distinct_log_pages_not_records() {
        let (server, pids) = loaded_server(RecoveryFlavor::EsmAries);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let rec = |i: u8| LogRecord::Update {
            txn,
            prev: Lsn::NULL,
            page: pid,
            slot: 0,
            offset: 0,
            before: vec![0u8; 64],
            after: vec![i; 64],
        };
        let rec_len = rec(0).encoded_len() as u64;
        server.receive_log_records(txn, (0..100).map(|i| rec(i as u8)).collect()).unwrap();
        // Checkpoint: forces the records durable and records the loser in
        // the checkpoint's active-transaction table.
        server.checkpoint().unwrap();
        let cfg = server.config().clone();
        let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
        let report = server2.restart_report().unwrap();
        let undo = &report.phases[2];
        assert_eq!(undo.name, "undo");
        assert_eq!(undo.records, 100, "all 100 updates undone");
        // The chain starts at the log origin (nothing logged before it);
        // its 100 records span exactly these log pages.
        let first = PAGE_SIZE as u64;
        let distinct: std::collections::HashSet<u64> =
            (0..100u64).map(|i| (first + i * rec_len) / PAGE_SIZE as u64).collect();
        assert!(distinct.len() < 10, "sanity: records pack many per page");
        assert_eq!(undo.pages_read, distinct.len() as u64, "distinct log pages, not records");
        // And the rollback took: the page shows its before-image.
        let page = server2.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[0u8; 64][..]);
    }

    #[test]
    fn explicit_abort_restores_old_value() {
        for flavor in [
            RecoveryFlavor::EsmAries,
            RecoveryFlavor::RedoAtServer,
            RecoveryFlavor::RedoLogical,
            RecoveryFlavor::Wpl,
        ] {
            let (server, pids) = loaded_server(flavor);
            let pid = pids[0];
            let txn = server.begin();
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let page = updated_page(&server, txn, pid, 5);
            match flavor {
                RecoveryFlavor::Wpl => server.receive_dirty_page(txn, pid, page).unwrap(),
                RecoveryFlavor::RedoLogical => {
                    let rec = LogRecord::UpdateLogical {
                        txn,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: 0,
                        offset: 0,
                        after: vec![5u8; 64],
                    };
                    server.receive_log_records(txn, vec![rec]).unwrap();
                }
                _ => {
                    let rec = LogRecord::Update {
                        txn,
                        prev: Lsn::NULL,
                        page: pid,
                        slot: 0,
                        offset: 0,
                        before: vec![0u8; 64],
                        after: vec![5u8; 64],
                    };
                    server.receive_log_records(txn, vec![rec]).unwrap();
                    if flavor == RecoveryFlavor::EsmAries {
                        server.receive_dirty_page(txn, pid, page).unwrap();
                    }
                }
            }
            server.abort(txn).unwrap();
            let page = server.read_page_for_test(pid).unwrap();
            assert_eq!(page.object(pid, 0).unwrap(), &[0u8; 64][..], "{flavor:?}");
        }
    }

    #[test]
    fn log_before_page_rule_enforced() {
        let (server, pids) = loaded_server(RecoveryFlavor::EsmAries);
        let pid = pids[0];
        let txn = server.begin();
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let page = updated_page(&server, txn, pid, 3);
        assert!(matches!(
            server.receive_dirty_page(txn, pid, page),
            Err(QsError::LogBeforePageViolation(_))
        ));
    }

    #[test]
    fn redo_flavor_rejects_dirty_pages_and_wpl_rejects_records() {
        let (server, pids) = loaded_server(RecoveryFlavor::RedoAtServer);
        let txn = server.begin();
        assert!(server.receive_dirty_page(txn, pids[0], Page::new()).is_err());
        let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
        let txn = server.begin();
        let rec = LogRecord::Update {
            txn,
            prev: Lsn::NULL,
            page: pids[0],
            slot: 0,
            offset: 0,
            before: vec![0],
            after: vec![1],
        };
        assert!(server.receive_log_records(txn, vec![rec]).is_err());
    }

    #[test]
    fn rlog_rejects_dirty_pages_and_physical_updates() {
        let (server, pids) = loaded_server(RecoveryFlavor::RedoLogical);
        let txn = server.begin();
        server.lock_page(txn, pids[0], LockMode::X).unwrap();
        // No-steal: the server never accepts uncommitted frames.
        assert!(server.receive_dirty_page(txn, pids[0], Page::new()).is_err());
        // Logical flavor: before/after-image records are a protocol error.
        let rec = LogRecord::Update {
            txn,
            prev: Lsn::NULL,
            page: pids[0],
            slot: 0,
            offset: 0,
            before: vec![0],
            after: vec![1],
        };
        assert!(server.receive_log_records(txn, vec![rec]).is_err());
        // The logical form is accepted, and is applied only at commit:
        // until then the server's copy of the page still shows old bytes.
        let rec = LogRecord::UpdateLogical {
            txn,
            prev: Lsn::NULL,
            page: pids[0],
            slot: 0,
            offset: 0,
            after: vec![4u8; 64],
        };
        server.receive_log_records(txn, vec![rec]).unwrap();
        let page = server.read_page_for_test(pids[0]).unwrap();
        assert_eq!(page.object(pids[0], 0).unwrap(), &[0u8; 64][..], "deferred until commit");
        // But the writing transaction sees its own pending ops overlaid.
        let own = server.fetch_page(txn, pids[0]).unwrap();
        assert_eq!(own.object(pids[0], 0).unwrap(), &[4u8; 64][..], "own writes visible");
        server.commit(txn).unwrap();
        let page = server.read_page_for_test(pids[0]).unwrap();
        assert_eq!(page.object(pids[0], 0).unwrap(), &[4u8; 64][..]);
    }

    #[test]
    fn wpl_second_committed_version_wins_after_crash() {
        let (server, pids) = loaded_server(RecoveryFlavor::Wpl);
        let pid = pids[0];
        for val in [1u8, 2u8] {
            let txn = server.begin();
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let page = updated_page(&server, txn, pid, val);
            server.receive_dirty_page(txn, pid, page).unwrap();
            server.commit(txn).unwrap();
        }
        let cfg = server.config().clone();
        let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
        let page = server2.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), &[2u8; 64][..]);
    }

    #[test]
    fn wpl_reclaim_keeps_log_bounded() {
        let mut cfg = small_cfg(RecoveryFlavor::Wpl);
        cfg.log_bytes = 64 * PAGE_SIZE; // tiny log: forces reclaim
        let server = Server::format(cfg, Meter::new()).unwrap();
        let pids = server.bulk_allocate(4).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 64]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        // Many transactions re-dirtying the same pages: without reclaim the
        // 64-page log would overflow after ~60 ships.
        for round in 0..100u8 {
            let txn = server.begin();
            for &pid in &pids {
                server.lock_page(txn, pid, LockMode::X).unwrap();
                let page = updated_page(&server, txn, pid, round);
                server.receive_dirty_page(txn, pid, page).unwrap();
            }
            server.commit(txn).unwrap();
        }
        assert!(server.wpl_images_reclaimed() > 0);
        let page = server.read_page_for_test(pids[0]).unwrap();
        assert_eq!(page.object(pids[0], 0).unwrap(), &[99u8; 64][..]);
    }

    #[test]
    fn checkpoint_allows_esm_log_truncation() {
        let mut cfg = small_cfg(RecoveryFlavor::EsmAries);
        cfg.log_bytes = 256 * PAGE_SIZE;
        let server = Server::format(cfg, Meter::new()).unwrap();
        let pids = server.bulk_allocate(2).unwrap();
        for &pid in &pids {
            let mut p = Page::new();
            p.insert(pid, &[0u8; 1024]).unwrap();
            server.bulk_write(pid, &p).unwrap();
        }
        server.bulk_sync().unwrap();
        for round in 0..2000u32 {
            let txn = server.begin();
            let pid = pids[(round % 2) as usize];
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let rec = LogRecord::Update {
                txn,
                prev: Lsn::NULL,
                page: pid,
                slot: 0,
                offset: 0,
                before: vec![(round % 251) as u8; 1024],
                after: vec![((round + 1) % 251) as u8; 1024],
            };
            server.receive_log_records(txn, vec![rec]).unwrap();
            let page = updated_page(&server, txn, pid, ((round + 1) % 251) as u8);
            server.receive_dirty_page(txn, pid, page).unwrap();
            server.commit(txn).unwrap();
        }
        assert!(server.checkpoints_taken() > 0, "watermark maintenance ran");
    }

    #[test]
    fn transactional_page_allocation_survives_crash() {
        let (server, _) = loaded_server(RecoveryFlavor::EsmAries);
        let txn = server.begin();
        let pid = server.allocate_page(txn).unwrap();
        let mut page = Page::new();
        page.insert(pid, b"fresh object").unwrap();
        // New pages are whole-page logged by ESM (§3.6).
        let rec =
            LogRecord::WholePage { txn, prev: Lsn::NULL, page: pid, image: page.bytes().to_vec() };
        server.receive_log_records(txn, vec![rec]).unwrap();
        server.receive_dirty_page(txn, pid, page).unwrap();
        server.commit(txn).unwrap();
        let cfg = server.config().clone();
        let server2 = Server::restart(server.crash(), cfg, Meter::new()).unwrap();
        let page = server2.read_page_for_test(pid).unwrap();
        assert_eq!(page.object(pid, 0).unwrap(), b"fresh object");
    }
}
