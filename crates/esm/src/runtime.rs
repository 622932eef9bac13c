//! Event-driven server runtime: reactor workers, per-client mailboxes,
//! and admission control.
//!
//! The paper's ESM server is a blocking RPC loop — every client owns a
//! server-side thread that parks on `Condvar`s inside the lock manager and
//! the log tower. That shape caps scaling at a few dozen clients. This
//! module replaces it with a small fixed pool of *reactor workers* that
//! drain per-shard run queues of typed [`Request`] messages and deliver
//! typed [`Response`]s through bounded per-client mailboxes, so a thousand
//! simulated clients need a thousand cheap [`ClientPort`]s, not a thousand
//! OS threads.
//!
//! The three places a worker thread would otherwise block are each made
//! asynchronous:
//!
//! * **Locks** — workers call [`Server::lock_resource_async`]; a conflicting
//!   request *parks* (releasing its admission slot) and the lock manager's
//!   [`LockEvents`] sink re-enqueues it as a `Resume` job when the grant
//!   promotion walk reaches it. Queue-time deadlocks surface as a typed
//!   `LockConflict` reply, exactly like the blocking path.
//! * **Commit forces** — workers only append the commit record; a single
//!   *committer* thread drains a commit queue, forces once per batch
//!   ([`Server::commit_force_batch`] keeps the `forces + noops == commits`
//!   metering invariant), and posts each rider's completion to its
//!   mailbox. This is the group-commit idea applied at the runtime layer.
//! * **Admission** — [`Shared::submit`] sheds with a typed
//!   [`Response::Overloaded`] (never a silent drop) when the global
//!   in-flight budget or a worker's queue depth is exceeded. Parked lock
//!   waiters give their admission slot back, so a budget's worth of
//!   conflicting requests can never wedge the runtime: the lock holder's
//!   commit always finds an admission slot eventually.
//!
//! Requests are routed to workers by the same Fibonacci hash the sharded
//! pool uses (`shard::shard_index`), keyed by page where the request names
//! one — so all traffic for a page serializes through one queue — and by
//! transaction id otherwise.
//!
//! Nothing here runs unless a [`Reactor`] is started explicitly; the
//! default [`RuntimeConfig`] (1 worker, direct-call clients) leaves every
//! committed figure byte-identical. `tests/runtime_equivalence.rs` proves
//! that equivalence end-to-end.

use crate::client::ClientConn;
use crate::lock::{AsyncLockOutcome, LockEvents, LockMode, Resource};
use crate::server::Server;
use crate::shard::shard_index;
use qs_sim::Meter;
use qs_storage::Page;
use qs_trace::TraceCat;
use qs_types::sync::Mutex;
use qs_types::{ClientId, Lsn, PageId, QsError, QsResult, TxnId};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Knobs for the event-driven runtime. Stored in `ServerConfig::runtime`;
/// only read when a [`Reactor`] is started, so the defaults are inert for
/// every direct-call client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Reactor worker threads (run-queue shards). 1 reproduces the
    /// direct-call execution order for a single client.
    pub workers: usize,
    /// Global admission budget: requests in flight (admitted but not yet
    /// replied to) before new submissions are shed with `Overloaded`.
    /// Parked lock waiters do not count — they hold no worker and return
    /// their slot until the grant arrives.
    pub inflight_budget: usize,
    /// Per-worker run-queue depth before submissions routed to that
    /// worker are shed with `Overloaded`.
    pub queue_depth_max: usize,
    /// Bound on each client's response mailbox. A synchronous client has
    /// at most one outstanding reply, so this only matters for pipelined
    /// submitters.
    pub mailbox_depth: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            workers: 1,
            inflight_budget: 1024,
            queue_depth_max: 4096,
            mailbox_depth: 16,
        }
    }
}

/// A typed request from a client to the server — the unit the run queues
/// carry. `Clone` so a shed request can be resubmitted verbatim.
#[derive(Clone)]
pub enum Request {
    /// Begin a transaction → [`Response::Began`].
    Begin,
    /// Acquire a lock on a page or record resource (the control-message
    /// lock path) → `Ok`. The wire verb carries the full [`Resource`], so
    /// record-granularity requests route and park like page ones.
    Lock { txn: TxnId, resource: Resource, mode: LockMode },
    /// Lock and fetch in one round trip (the page-fault path) →
    /// [`Response::Page`].
    FetchLocked { txn: TxnId, pid: PageId, mode: LockMode },
    /// Allocate a fresh page → [`Response::Allocated`].
    Allocate { txn: TxnId },
    /// Declare `pid` logged-or-log-free this transaction → `Ok`.
    NoteLogged { txn: TxnId, pid: PageId },
    /// A shipped page of encoded log-record frames → `Ok`.
    LogBytes { txn: TxnId, bytes: Vec<u8> },
    /// A shipped dirty page (boxed: keep the queue entries small) → `Ok`.
    DirtyPage { txn: TxnId, pid: PageId, page: Box<Page> },
    /// Commit; the reply arrives from the committer after the force → `Ok`.
    Commit { txn: TxnId },
    /// Abort → `Ok`.
    Abort { txn: TxnId },
}

/// A typed reply, delivered through the client's mailbox.
pub enum Response {
    /// Unit success.
    Ok,
    Began(TxnId),
    Page(Box<Page>),
    Allocated(PageId),
    /// Commit acknowledgement, carrying the server's log-pressure signal
    /// (the 4-byte piggyback adaptive clients feed their cost model).
    Committed(qs_wal::LogPressure),
    /// Admission control shed the request; resubmit after backoff. Never
    /// delivered for an *admitted* request.
    Overloaded,
    Err(QsError),
}

impl Response {
    /// Variant name, for protocol-mismatch error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Ok => "ok",
            Response::Began(_) => "began",
            Response::Page(_) => "page",
            Response::Allocated(_) => "allocated",
            Response::Committed(_) => "committed",
            Response::Overloaded => "overloaded",
            Response::Err(_) => "err",
        }
    }
}

/// Route `key` with the same Fibonacci multiplier `shard_index` uses.
fn route_u64(key: u64, n: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % n
}

/// Pick the worker for a request: by page where the request names one (all
/// traffic for a page serializes through one run queue), by transaction
/// otherwise, by client for `Begin`.
fn route(req: &Request, client: ClientId, n: usize) -> usize {
    match req {
        Request::Lock { resource, .. } => shard_index(resource.page(), n),
        Request::FetchLocked { pid, .. }
        | Request::NoteLogged { pid, .. }
        | Request::DirtyPage { pid, .. } => shard_index(*pid, n),
        Request::Begin => route_u64(client.0 as u64, n),
        Request::Allocate { txn }
        | Request::LogBytes { txn, .. }
        | Request::Commit { txn }
        | Request::Abort { txn } => route_u64(txn.0, n),
    }
}

enum Job {
    /// A freshly admitted request (`enq` set when tracing, for queue-wait
    /// histograms).
    Req {
        client: ClientId,
        req: Request,
        enq: Option<Instant>,
    },
    /// A parked lock request whose grant arrived; skips admission.
    Resume {
        client: ClientId,
        req: Request,
    },
    Stop,
}

struct CommitJob {
    client: ClientId,
    txn: TxnId,
    lsn: Lsn,
}

struct WorkerHandle {
    tx: Sender<Job>,
    depth: Arc<AtomicUsize>,
}

struct Mailbox {
    tx: SyncSender<Response>,
    depth: Arc<AtomicUsize>,
}

struct Parked {
    client: ClientId,
    req: Request,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    shed_budget: AtomicU64,
    shed_queue: AtomicU64,
    lock_parks: AtomicU64,
    lock_resumes: AtomicU64,
    commit_calls: AtomicU64,
    commit_forces: AtomicU64,
}

/// Runtime counters, snapshotted by [`Reactor::stats`]. These live outside
/// the [`Meter`] (whose field set is pinned by the committed figures) —
/// they describe the runtime, not the storage system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    pub admitted: u64,
    pub shed_budget: u64,
    pub shed_queue: u64,
    pub lock_parks: u64,
    pub lock_resumes: u64,
    pub commit_calls: u64,
    pub commit_forces: u64,
}

struct Shared {
    server: Arc<Server>,
    cfg: RuntimeConfig,
    workers: Vec<WorkerHandle>,
    /// `None` once the reactor is stopping; closing the channel is what
    /// terminates the committer thread.
    commit_tx: Mutex<Option<Sender<CommitJob>>>,
    mailboxes: Mutex<HashMap<u16, Mailbox>>,
    /// Lock requests waiting for a grant, keyed by transaction (locks are
    /// requested one at a time per transaction). Entries are inserted
    /// *before* `lock_resource_async` so a grant racing the park cannot be
    /// lost.
    parked: Mutex<HashMap<TxnId, Parked>>,
    inflight: AtomicUsize,
    stats: Counters,
}

impl Shared {
    /// Admission control + enqueue. Every submission gets exactly one
    /// reply: `Overloaded` when shed, the request's reply otherwise.
    fn submit(&self, client: ClientId, req: Request) {
        let inflight = self.inflight.load(Ordering::Acquire);
        if inflight >= self.cfg.inflight_budget {
            self.stats.shed_budget.fetch_add(1, Ordering::Relaxed);
            self.server.tracer().event(TraceCat::Shed, "budget", client.0 as u64, inflight as u64);
            self.post(client, Response::Overloaded);
            return;
        }
        let w = route(&req, client, self.workers.len());
        let depth = self.workers[w].depth.load(Ordering::Acquire);
        if depth >= self.cfg.queue_depth_max {
            self.stats.shed_queue.fetch_add(1, Ordering::Relaxed);
            self.server.tracer().event(TraceCat::Shed, "queue", client.0 as u64, depth as u64);
            self.post(client, Response::Overloaded);
            return;
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
        self.stats.admitted.fetch_add(1, Ordering::Relaxed);
        let d = self.workers[w].depth.fetch_add(1, Ordering::AcqRel) + 1;
        let tracer = self.server.tracer();
        let enq = if tracer.is_enabled() {
            tracer.record("runtime_queue_depth", d as u64);
            tracer.event(TraceCat::Queue, "enqueue", w as u64, d as u64);
            Some(Instant::now())
        } else {
            None
        };
        if self.workers[w].tx.send(Job::Req { client, req, enq }).is_err() {
            self.workers[w].depth.fetch_sub(1, Ordering::AcqRel);
            self.finish(client, Response::Err(stopped()));
        }
    }

    /// Release an admitted request's slot and deliver its reply — in that
    /// order: a client that has its reply in hand must find its own slot
    /// free, or its next submission can be shed against itself.
    fn finish(&self, client: ClientId, resp: Response) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        self.post(client, resp);
    }

    /// Deliver a reply without touching the admission budget (sheds, and
    /// parked requests whose slot was already released).
    fn post(&self, client: ClientId, resp: Response) {
        let (tx, depth) = {
            let boxes = self.mailboxes.lock();
            match boxes.get(&client.0) {
                Some(mb) => (mb.tx.clone(), Arc::clone(&mb.depth)),
                None => return, // client disconnected; drop the reply
            }
        };
        let d = depth.fetch_add(1, Ordering::AcqRel) + 1;
        let tracer = self.server.tracer();
        if tracer.is_enabled() {
            tracer.record("runtime_mailbox_depth", d as u64);
        }
        if tx.send(resp).is_err() {
            depth.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn unit(&self, client: ClientId, r: QsResult<()>) {
        match r {
            Ok(()) => self.finish(client, Response::Ok),
            Err(e) => self.finish(client, Response::Err(e)),
        }
    }

    /// Take (or re-take, on resume) the lock for a `Lock`/`FetchLocked`
    /// request. Returns `false` when the request parked — the caller must
    /// not reply; the grant callback re-enqueues it. Failures are replied
    /// to here.
    fn acquire(
        &self,
        client: ClientId,
        req: &Request,
        txn: TxnId,
        res: Resource,
        mode: LockMode,
        resumed: bool,
    ) -> bool {
        if resumed && matches!(res, Resource::Page(_)) {
            // The lock manager granted (and recorded) the page lock during
            // its promotion walk; only the metering is left.
            self.server.note_async_lock_granted(txn, res);
            return true;
        }
        // Park-before-request: the grant callback looks this entry up, so
        // it must be visible before the waiter can possibly be queued.
        self.parked.lock().insert(txn, Parked { client, req: req.clone() });
        let outcome = if resumed {
            // Record resource: the promotion walk may have granted only the
            // page *intention* step. Re-run the whole two-step request —
            // the completed step re-grants re-entrantly — unmetered here;
            // the grant is metered once below.
            self.server.locks().lock_resource_async(txn, res, mode)
        } else {
            self.server.lock_resource_async(txn, res, mode)
        };
        match outcome {
            Ok(AsyncLockOutcome::Granted) => {
                self.parked.lock().remove(&txn);
                if resumed {
                    self.server.note_async_lock_granted(txn, res);
                }
                true
            }
            Ok(AsyncLockOutcome::Queued) => {
                // Give the admission slot back while parked: a full
                // budget of waiters must never be able to shed the very
                // commit that would release them.
                self.stats.lock_parks.fetch_add(1, Ordering::Relaxed);
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                false
            }
            Err(e) => {
                self.parked.lock().remove(&txn);
                self.finish(client, Response::Err(e));
                false
            }
        }
    }

    fn process(&self, client: ClientId, req: Request, resumed: bool) {
        match req {
            Request::Begin => self.finish(client, Response::Began(self.server.begin())),
            Request::Lock { txn, resource, mode } => {
                let r = Request::Lock { txn, resource, mode };
                if self.acquire(client, &r, txn, resource, mode, resumed) {
                    self.finish(client, Response::Ok);
                }
            }
            Request::FetchLocked { txn, pid, mode } => {
                let r = Request::FetchLocked { txn, pid, mode };
                if self.acquire(client, &r, txn, Resource::Page(pid), mode, resumed) {
                    match self.server.fetch_page(txn, pid) {
                        Ok(p) => self.finish(client, Response::Page(Box::new(p))),
                        Err(e) => self.finish(client, Response::Err(e)),
                    }
                }
            }
            Request::Allocate { txn } => match self.server.allocate_page(txn) {
                Ok(pid) => self.finish(client, Response::Allocated(pid)),
                Err(e) => self.finish(client, Response::Err(e)),
            },
            Request::NoteLogged { txn, pid } => {
                self.unit(client, self.server.note_page_logged(txn, pid));
            }
            Request::LogBytes { txn, bytes } => {
                self.unit(client, self.server.receive_log_bytes(txn, &bytes));
            }
            Request::DirtyPage { txn, pid, page } => {
                self.unit(client, self.server.receive_dirty_page(txn, pid, *page));
            }
            Request::Abort { txn } => self.unit(client, self.server.abort(txn)),
            Request::Commit { txn } => match self.server.commit_append(txn) {
                Ok(lsn) => {
                    let tx = self.commit_tx.lock().clone();
                    let sent = match tx {
                        Some(tx) => tx.send(CommitJob { client, txn, lsn }).is_ok(),
                        None => false,
                    };
                    if !sent {
                        self.finish(client, Response::Err(stopped()));
                    }
                }
                Err(e) => self.finish(client, Response::Err(e)),
            },
        }
    }
}

fn stopped() -> QsError {
    QsError::Protocol { detail: "runtime stopped".into() }
}

fn worker_loop(shared: Arc<Shared>, idx: usize, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Req { client, req, enq } => {
                shared.workers[idx].depth.fetch_sub(1, Ordering::AcqRel);
                if let Some(t) = enq {
                    shared
                        .server
                        .tracer()
                        .record("runtime_queue_wait_ns", t.elapsed().as_nanos() as u64);
                }
                shared.process(client, req, false);
            }
            Job::Resume { client, req } => shared.process(client, req, true),
            Job::Stop => {
                // Fail whatever is still queued behind the stop marker so
                // no client blocks on a reply that will never come.
                while let Ok(job) = rx.try_recv() {
                    match job {
                        Job::Req { client, .. } => {
                            shared.workers[idx].depth.fetch_sub(1, Ordering::AcqRel);
                            shared.finish(client, Response::Err(stopped()));
                        }
                        Job::Resume { client, .. } => {
                            shared.finish(client, Response::Err(stopped()));
                        }
                        Job::Stop => {}
                    }
                }
                break;
            }
        }
    }
}

fn committer_loop(shared: Arc<Shared>, rx: Receiver<CommitJob>) {
    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        while let Ok(j) = rx.try_recv() {
            batch.push(j);
        }
        shared.stats.commit_calls.fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared.stats.commit_forces.fetch_add(1, Ordering::Relaxed);
        shared.server.tracer().record("reactor_commit_batch", batch.len() as u64);
        let max_lsn = batch.iter().map(|j| j.lsn).max().expect("non-empty batch");
        match shared.server.commit_force_batch(max_lsn, batch.len()) {
            Ok(()) => {
                for j in batch {
                    match shared.server.commit_finish(j.txn) {
                        Ok(pressure) => shared.finish(j.client, Response::Committed(pressure)),
                        Err(e) => shared.finish(j.client, Response::Err(e)),
                    }
                }
                // Maintenance is the committer's job now, once per batch —
                // never billed to (or blocking) a victim client's commit.
                // With the flusher thread started this only enqueues a wakeup.
                shared.server.background_maintenance(shared.server.maybe_maintain());
            }
            Err(e) => {
                let msg = format!("commit force failed: {e}");
                for j in batch {
                    shared
                        .finish(j.client, Response::Err(QsError::Protocol { detail: msg.clone() }));
                }
            }
        }
    }
}

/// The lock manager's grant sink: turns a parked request's grant into a
/// `Resume` job on the owning worker's queue (re-taking an admission
/// slot), and a queue-time deadlock denial into an error reply.
struct GrantHook {
    shared: Weak<Shared>,
}

impl LockEvents for GrantHook {
    fn lock_done(&self, txn: TxnId, _res: Resource, result: QsResult<()>) {
        let Some(shared) = self.shared.upgrade() else { return };
        let Some(p) = shared.parked.lock().remove(&txn) else { return };
        match result {
            Ok(()) => {
                shared.stats.lock_resumes.fetch_add(1, Ordering::Relaxed);
                shared.inflight.fetch_add(1, Ordering::AcqRel);
                let w = route(&p.req, p.client, shared.workers.len());
                if shared.workers[w].tx.send(Job::Resume { client: p.client, req: p.req }).is_err()
                {
                    shared.finish(p.client, Response::Err(stopped()));
                }
            }
            // The slot was released when the request parked, so this is a
            // post (not a finish).
            Err(e) => shared.post(p.client, Response::Err(e)),
        }
    }
}

/// The running event-driven runtime: worker threads, the committer, and
/// the shared routing/admission state. Dropping it stops everything.
pub struct Reactor {
    shared: Arc<Shared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawn workers and the committer per `server.config().runtime` and
    /// install the lock-grant sink. The server keeps working for
    /// direct-call clients at the same time — the reactor is a front end,
    /// not a replacement.
    pub fn start(server: &Arc<Server>) -> Reactor {
        let mut cfg = server.config().runtime;
        cfg.workers = cfg.workers.max(1);
        let mut handles = Vec::with_capacity(cfg.workers);
        let mut rxs = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let (tx, rx) = channel();
            handles.push(WorkerHandle { tx, depth: Arc::new(AtomicUsize::new(0)) });
            rxs.push(rx);
        }
        let (commit_tx, commit_rx) = channel();
        let shared = Arc::new(Shared {
            server: Arc::clone(server),
            cfg,
            workers: handles,
            commit_tx: Mutex::new(Some(commit_tx)),
            mailboxes: Mutex::new(HashMap::new()),
            parked: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            stats: Counters::default(),
        });
        server.locks().set_events(Some(Arc::new(GrantHook { shared: Arc::downgrade(&shared) })));
        let mut threads = Vec::with_capacity(cfg.workers + 1);
        for (i, rx) in rxs.into_iter().enumerate() {
            let sh = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qs-reactor-{i}"))
                    .spawn(move || worker_loop(sh, i, rx))
                    .expect("spawn reactor worker"),
            );
        }
        let sh = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("qs-committer".into())
                .spawn(move || committer_loop(sh, commit_rx))
                .expect("spawn committer"),
        );
        Reactor { shared, threads: Mutex::new(threads) }
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.shared.server
    }

    /// Open a mailbox for client `id` and hand back its port. One port per
    /// client id; a second connect for the same id replaces the mailbox.
    pub fn connect(&self, id: ClientId) -> ClientPort {
        let depth = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = sync_channel(self.shared.cfg.mailbox_depth.max(2));
        self.shared.mailboxes.lock().insert(id.0, Mailbox { tx, depth: Arc::clone(&depth) });
        ClientPort { shared: Arc::clone(&self.shared), id, rx, depth, sheds: Cell::new(0) }
    }

    /// Lock requests currently parked awaiting a grant.
    pub fn parked_waiters(&self) -> usize {
        self.shared.parked.lock().len()
    }

    pub fn stats(&self) -> RuntimeStats {
        let c = &self.shared.stats;
        RuntimeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            shed_budget: c.shed_budget.load(Ordering::Relaxed),
            shed_queue: c.shed_queue.load(Ordering::Relaxed),
            lock_parks: c.lock_parks.load(Ordering::Relaxed),
            lock_resumes: c.lock_resumes.load(Ordering::Relaxed),
            commit_calls: c.commit_calls.load(Ordering::Relaxed),
            commit_forces: c.commit_forces.load(Ordering::Relaxed),
        }
    }

    /// Stop the runtime: uninstall the grant sink, drain and join every
    /// thread, and fail any still-parked request. Call when the attached
    /// clients are quiescent; in-flight requests get `Err("runtime
    /// stopped")` replies, never silence.
    pub fn stop(&self) {
        self.shared.server.locks().set_events(None);
        for w in &self.shared.workers {
            let _ = w.tx.send(Job::Stop);
        }
        *self.shared.commit_tx.lock() = None;
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
        let parked: Vec<Parked> = self.shared.parked.lock().drain().map(|(_, p)| p).collect();
        for p in parked {
            // Their slots were released at park time: post, not finish.
            self.shared.post(p.client, Response::Err(stopped()));
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A client's handle on the reactor: submit requests, receive replies
/// from a bounded private mailbox. Cheap — a thousand ports is a thousand
/// channels, not a thousand threads. Not `Sync`: one port serves one
/// simulated client.
pub struct ClientPort {
    shared: Arc<Shared>,
    pub id: ClientId,
    rx: Receiver<Response>,
    depth: Arc<AtomicUsize>,
    sheds: Cell<u64>,
}

impl ClientPort {
    /// Fire-and-forget submit; the reply (possibly `Overloaded`) arrives
    /// in the mailbox.
    pub fn submit(&self, req: Request) {
        self.shared.submit(self.id, req);
    }

    /// Non-blocking mailbox poll.
    pub fn try_recv(&self) -> Option<Response> {
        match self.rx.try_recv() {
            Ok(r) => {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                Some(r)
            }
            Err(_) => None,
        }
    }

    /// Blocking mailbox read.
    pub fn recv(&self) -> Response {
        match self.rx.recv() {
            Ok(r) => {
                self.depth.fetch_sub(1, Ordering::AcqRel);
                r
            }
            Err(_) => Response::Err(stopped()),
        }
    }

    /// Synchronous round trip with shed-retry: resubmits on `Overloaded`
    /// after a short backoff (spin first, then sleep — capped at ~2 ms so
    /// a shed client keeps probing rather than stampeding).
    pub fn call(&self, req: Request) -> Response {
        let mut attempt = 0u32;
        loop {
            self.submit(req.clone());
            match self.recv() {
                Response::Overloaded => {
                    self.sheds.set(self.sheds.get() + 1);
                    if attempt < 4 {
                        std::thread::yield_now();
                    } else {
                        let us = 50u64.saturating_mul(1 << (attempt - 4).min(6));
                        std::thread::sleep(std::time::Duration::from_micros(us.min(2000)));
                    }
                    attempt += 1;
                }
                r => return r,
            }
        }
    }

    /// `Overloaded` replies this port has absorbed in [`ClientPort::call`].
    pub fn sheds_seen(&self) -> u64 {
        self.sheds.get()
    }
}

impl Drop for ClientPort {
    fn drop(&mut self) {
        self.shared.mailboxes.lock().remove(&self.id.0);
    }
}

/// Convenience: a [`ClientConn`] whose wire is this reactor (the
/// page-shipping client protocol over messages instead of direct calls).
pub fn connect_client(
    reactor: &Reactor,
    id: ClientId,
    pool_pages: usize,
    meter: Arc<Meter>,
) -> ClientConn {
    ClientConn::via_reactor(id, reactor, pool_pages, meter)
}
