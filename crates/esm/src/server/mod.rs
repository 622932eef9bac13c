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
//! # Modules, one responsibility each
//!
//! This file: configuration, the [`Server`] struct and its one
//! constructor, crash/restart, bulk load. [`pages`]:
//! page service — the one fault-in-and-steal routine, the one
//! after-image-onto-page step. [`txn`]: begin, locks, receiving records
//! and pages, commit, abort, undo. [`maint`]: watermark maintenance,
//! flusher hooks, the checkpoint. [`pagelog`]: what only WPL does.
//!
//! What the server does with a transaction's updates is decided once, by
//! [`crate::protocol`]: each `TxnState` carries its [`Protocol`], the
//! per-flavor facts live in `Server::facts`, and nothing here matches on
//! a [`RecoveryFlavor`] (DESIGN.md §6b has the table).
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
//!   table ([`crate::dpt`]), and the WPL table;
//! * the [`LockManager`] (already internally synchronized).
//!
//! Lock order: txn table → one pool shard → WPL table → DPT → volume; the
//! log is lock-free at this level and always last. No path holds two
//! shard locks at once, and none stops the whole server: every path takes
//! the subsystem locks it needs, most of them for one statement. Abort
//! and restart undo fault a page in under its shard lock alone and write
//! each CLR under txn table → that shard → DPT; the checkpoint's drain and
//! WPL reclaim hold one shard at a time; restart, where nothing else
//! runs, takes each lock where it uses it.
//!
//! With the default configuration (one shard, group commit off) every code
//! path performs the same operations in the same order as the original
//! single-lock server, so all single-client figures are byte-identical.
//!
//! A simulated crash ([`Server::crash`]) consumes the server and returns
//! only the stable media; [`Server::restart`] rebuilds a consistent server
//! from them with the restart engine in [`crate::restart`].

mod maint;
mod pagelog;
pub(crate) mod pages;
mod txn;

#[cfg(test)]
mod tests;

pub use crate::protocol::RecoveryFlavor;

use crate::dpt::DirtyPages;
use crate::flusher::FlusherHandle;
use crate::gate::VolumeGate;
use crate::lock::LockManager;
use crate::protocol::{FlavorFacts, Protocol};
use crate::shard::ShardedPool;
use crate::stash::Stash;
use crate::tower::LogTower;
use crate::txn::TxnTable;
use crate::wpl::WplTable;
use qs_sim::{HardwareModel, Meter};
use qs_storage::{MemDisk, Page, StableMedia, Volume};
use qs_trace::{FlightRecording, PhaseStat, RestartReport, TraceCat, TracedMutex, Tracer};
use qs_types::sync::Mutex;
use qs_types::{PageId, QsResult, PAGE_SIZE};
use qs_wal::LogManager;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
}

/// Restart-engine configuration.
///
/// `redo_workers` only sizes the worker pool of the one streamed,
/// page-partitioned replay in [`crate::restart`] — every flavor's, WPL's
/// table rebuild included — which recovers a byte-identical state and
/// reports identical phase counts for any worker count and chunk size
/// (`tests/restart_equivalence.rs` pins this). The name is historical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartConfig {
    /// Worker threads of the restart scan, each owning a partition of the
    /// pages: it verifies their frames, keeps their dirty-page table share
    /// and redoes them, or, for WPL, rebuilds their share of the WPL table.
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

/// The ESM server. Its subsystems are crate-visible: restart locks them
/// directly.
pub struct Server {
    cfg: ServerConfig,
    /// What `cfg.flavor` means, resolved once (see [`crate::protocol`]).
    facts: FlavorFacts,
    /// Data-disk subsystem (its own lock).
    pub(crate) volume: VolumeGate,
    /// Log subsystem: WAL + group-commit policy (internally synchronized).
    pub(crate) log: LogTower,
    /// Sharded buffer pool (one lock per shard).
    pub(crate) pool: ShardedPool,
    /// Transaction table, behind its own small lock.
    pub(crate) txns: TracedMutex<TxnTable>,
    /// ARIES dirty-page table, behind its own small lock.
    pub(crate) dpt: TracedMutex<DirtyPages>,
    /// WPL table, behind its own small lock.
    pub(crate) wpl: TracedMutex<WplTable>,
    /// Deferred (not-yet-applied) operations of uncommitted `NoSteal`
    /// transactions: the deferred-frame store restart's workers use too,
    /// one arena of frames per transaction, in log order. Never nested
    /// inside any other subsystem lock: every path takes it alone and
    /// releases it before touching the pool, txn table, or volume.
    pending: TracedMutex<Stash>,
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
    /// Checkpoint-drain stats: elevator batches written, pages in them.
    drain_batches: AtomicU64,
    drain_pages: AtomicU64,
    /// Observability hook (disabled by default: one branch per event).
    pub(crate) tracer: Arc<Tracer>,
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
        let parts = StableParts { data_media, log_media, flight: None };
        Self::format_on_traced(parts, cfg, meter, tracer)
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
        let log = LogManager::format(Arc::clone(&parts.log_media), cfg.log_bytes)?;
        Ok(Self::assemble(parts, volume, log, cfg, meter, tracer))
    }

    /// The one constructor: all-volatile state empty around an opened or
    /// freshly formatted volume and log.
    fn assemble(
        parts: StableParts,
        volume: Volume,
        mut log: LogManager,
        cfg: ServerConfig,
        meter: Arc<Meter>,
        tracer: Arc<Tracer>,
    ) -> Server {
        log.set_tracer(Arc::clone(&tracer));
        Server {
            facts: cfg.flavor.facts(),
            volume: VolumeGate::new(volume),
            log: LogTower::new(log, cfg.group_commit),
            pool: ShardedPool::new(cfg.pool_pages, cfg.pool_shards),
            txns: TracedMutex::new("txns", TxnTable::new()),
            dpt: TracedMutex::new("dpt", DirtyPages::default()),
            wpl: TracedMutex::new("wpl", WplTable::new()),
            pending: TracedMutex::new("pending", Stash::default()),
            locks: LockManager::new(),
            meter,
            data_media: parts.data_media,
            log_media: parts.log_media,
            checkpoints: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            ckpt_serial: Mutex::new(()),
            flusher: Mutex::new(None),
            maint_pending: AtomicBool::new(false),
            drain_batches: AtomicU64::new(0),
            drain_pages: AtomicU64::new(0),
            tracer,
            restart_report: Mutex::new(None),
            cfg,
        }
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
        mut parts: StableParts,
        cfg: ServerConfig,
        meter: Arc<Meter>,
        tracer: Arc<Tracer>,
    ) -> QsResult<Server> {
        let volume = Volume::open(Arc::clone(&parts.data_media))?;
        let log = LogManager::open(Arc::clone(&parts.log_media))?;
        let flight = parts.flight.take().unwrap_or_default();
        let server = Self::assemble(parts, volume, log, cfg, meter, tracer);
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

    /// The per-flavor facts this server runs by.
    pub(crate) fn facts(&self) -> FlavorFacts {
        self.facts
    }

    /// Whether this is a `PageLog` server: page images live in the log
    /// and the WPL table, and nothing is ever stolen to the volume.
    fn page_log(&self) -> bool {
        self.facts.base == Protocol::PageLog
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

    /// Which buffer-pool shard owns `pid` (shard-independence tests).
    pub fn shard_of(&self, pid: PageId) -> usize {
        self.pool.shard_of(pid)
    }

    /// `(commit-force calls, real log forces)` through the group
    /// committer; their ratio is the mean group-commit batch size.
    pub fn group_commit_stats(&self) -> (u64, u64) {
        self.log.group_stats()
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
    // Introspection for tests and the restart modules
    // ---------------------------------------------------------------------

    /// Read a page the way a post-restart client would (pool → WPL table →
    /// volume), without transaction context. Test helper.
    pub fn read_page_for_test(&self, pid: PageId) -> QsResult<Page> {
        self.read_page(None, pid)
    }

    /// Number of active transactions.
    pub fn active_txns(&self) -> usize {
        self.txns.lock(&self.tracer).active().count()
    }

    /// Current log occupancy in bytes.
    pub fn log_used_bytes(&self) -> usize {
        self.log.wal().used_bytes()
    }
}
