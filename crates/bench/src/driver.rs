//! Shared transaction-driving harness for the wall-clock scale bench.
//!
//! Three ways to push the same disjoint-working-set update workload
//! through a server, all measuring *real* elapsed time (not simulated
//! 1995 time):
//!
//! * [`drive_threads`] — one OS thread per client making direct server
//!   calls (the thread-per-connection shape the paper's testbed had).
//! * [`drive_reactor`] — the same workload expressed as typed
//!   [`Request`] messages over reactor [`ClientPort`]s, with a small set
//!   of driver threads multiplexing hundreds of simulated clients; shed
//!   (`Overloaded`) replies are retried, so admission control shapes but
//!   never loses work.
//!
//! Both drivers run the identical per-transaction protocol — begin, then
//! per page: X-lock + fetch, mutate, ship log record, ship dirty page,
//! then commit — so their wall clocks are directly comparable.

use qs_esm::{
    ClientPort, LockMode, Reactor, RecoveryFlavor, Request, Response, Server, ServerConfig,
    StableParts,
};
use qs_sim::Meter;
use qs_storage::{MemDisk, Page, Volume};
use qs_trace::Tracer;
use qs_types::sync::Mutex;
use qs_types::{ClientId, Lsn, PageId, TxnId};
use qs_wal::{LogManager, LogRecord};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Object bytes written per page per transaction (pages are loaded with
/// one object of this size).
pub const OBJECT_BYTES: usize = 64;

/// Shape of one scale-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleWorkload {
    pub clients: usize,
    pub txns_per_client: usize,
    pub pages_per_client: usize,
    /// Real latency of one log-disk sync — what makes serialization on
    /// the commit path expensive, as in life.
    pub sync_latency: Duration,
}

impl ScaleWorkload {
    pub fn total_txns(&self) -> usize {
        self.clients * self.txns_per_client
    }
}

/// Build a formatted ESM server with a sync-latency log disk and a
/// bulk-loaded working set: one page set per client, one `OBJECT_BYTES`
/// object per page.
pub fn build_scale_server(
    cfg: ServerConfig,
    w: &ScaleWorkload,
    tracer: Arc<Tracer>,
) -> (Arc<Server>, Vec<Vec<PageId>>) {
    assert_eq!(cfg.flavor, RecoveryFlavor::EsmAries, "scale bench drives the ESM flavor");
    let parts = StableParts {
        data_media: Arc::new(MemDisk::new(Volume::required_bytes(cfg.volume_pages))),
        log_media: Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(cfg.log_bytes),
            w.sync_latency,
        )),
        flight: None,
    };
    let server = Arc::new(Server::format_on_traced(parts, cfg, Meter::new(), tracer).unwrap());
    let pids = server.bulk_allocate(w.clients * w.pages_per_client).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; OBJECT_BYTES]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let sets = pids.chunks(w.pages_per_client).map(|c| c.to_vec()).collect();
    (server, sets)
}

/// [`build_scale_server`], except the *data* disk also charges
/// `data_write_latency` per page write — the device time of a checkpoint's
/// drain, which the committing client pays when maintenance runs inline
/// and the flusher thread overlaps with commits when it is started.
pub fn build_ckpt_server(
    cfg: ServerConfig,
    w: &ScaleWorkload,
    data_write_latency: Duration,
    tracer: Arc<Tracer>,
) -> (Arc<Server>, Vec<Vec<PageId>>) {
    assert_eq!(cfg.flavor, RecoveryFlavor::EsmAries, "ckpt bench drives the ESM flavor");
    let parts = StableParts {
        data_media: Arc::new(MemDisk::with_latencies(
            Volume::required_bytes(cfg.volume_pages),
            Duration::ZERO,
            data_write_latency,
        )),
        log_media: Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(cfg.log_bytes),
            w.sync_latency,
        )),
        flight: None,
    };
    let server = Arc::new(Server::format_on_traced(parts, cfg, Meter::new(), tracer).unwrap());
    let pids = server.bulk_allocate(w.clients * w.pages_per_client).unwrap();
    for &pid in &pids {
        let mut p = Page::new();
        p.insert(pid, &[0u8; OBJECT_BYTES]).unwrap();
        server.bulk_write(pid, &p).unwrap();
    }
    server.bulk_sync().unwrap();
    let sets = pids.chunks(w.pages_per_client).map(|c| c.to_vec()).collect();
    (server, sets)
}

/// The deterministic per-transaction fill value for client `i`'s `t`-th
/// transaction.
fn txn_val(i: usize, t: usize) -> u8 {
    ((i * 31 + t) % 251 + 1) as u8
}

fn update_record(txn: TxnId, pid: PageId, val: u8) -> LogRecord {
    LogRecord::Update {
        txn,
        prev: Lsn::NULL,
        page: pid,
        slot: 0,
        offset: 0,
        before: vec![0u8; OBJECT_BYTES],
        after: vec![val; OBJECT_BYTES],
    }
}

/// One update transaction over `set` via direct server calls.
fn one_txn_direct(server: &Server, set: &[PageId], val: u8) {
    let txn = server.begin();
    for &pid in set {
        server.lock_page(txn, pid, LockMode::X).unwrap();
        let mut page = server.fetch_page(txn, pid).unwrap();
        page.object_mut(pid, 0).unwrap().fill(val);
        let rec = update_record(txn, pid, val);
        server.receive_log_records(txn, vec![rec]).unwrap();
        server.receive_dirty_page(txn, pid, page).unwrap();
    }
    server.commit(txn).unwrap();
}

/// Thread-per-client driver: every client is an OS thread making direct
/// server calls. Returns the wall clock for the whole run.
pub fn drive_threads(
    server: &Arc<Server>,
    sets: &[Vec<PageId>],
    txns_per_client: usize,
) -> Duration {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, set) in sets.iter().enumerate() {
            let server = Arc::clone(server);
            let set = set.clone();
            s.spawn(move || {
                for t in 0..txns_per_client {
                    one_txn_direct(&server, &set, txn_val(i, t));
                }
            });
        }
    });
    t0.elapsed()
}

/// Thread-per-client driver that times every `commit()` call. Same
/// protocol as [`drive_threads`], but each client records how long its
/// commit waited — the latency a checkpoint inflates when it rides on the
/// committing client, and must not when the flusher thread runs it. Returns
/// all commit latencies in nanoseconds, unordered.
pub fn drive_threads_commit_latency(
    server: &Arc<Server>,
    sets: &[Vec<PageId>],
    txns_per_client: usize,
) -> Vec<u64> {
    let lats = Mutex::new(Vec::with_capacity(sets.len() * txns_per_client));
    std::thread::scope(|s| {
        for (i, set) in sets.iter().enumerate() {
            let server = Arc::clone(server);
            let set = set.clone();
            let lats = &lats;
            s.spawn(move || {
                let mut mine = Vec::with_capacity(txns_per_client);
                for t in 0..txns_per_client {
                    let val = txn_val(i, t);
                    let txn = server.begin();
                    for &pid in &set {
                        server.lock_page(txn, pid, LockMode::X).unwrap();
                        let mut page = server.fetch_page(txn, pid).unwrap();
                        page.object_mut(pid, 0).unwrap().fill(val);
                        let rec = update_record(txn, pid, val);
                        server.receive_log_records(txn, vec![rec]).unwrap();
                        server.receive_dirty_page(txn, pid, page).unwrap();
                    }
                    let t0 = Instant::now();
                    server.commit(txn).unwrap();
                    mine.push(t0.elapsed().as_nanos() as u64);
                }
                lats.lock().extend(mine);
            });
        }
    });
    lats.into_inner()
}

/// Where a [`SimClient`] is in its current transaction.
enum Step {
    Begin,
    Fetch(usize),
    Note(usize),
    Log(usize),
    Ship(usize),
    Commit,
}

/// One simulated client: a tiny state machine over a raw [`ClientPort`],
/// pumped by a driver thread. Runs the same protocol as
/// [`drive_threads`]'s direct calls, one outstanding request at a time.
struct SimClient {
    port: ClientPort,
    set: Vec<PageId>,
    idx: usize,
    txns_left: usize,
    seq: usize,
    txn: TxnId,
    step: Step,
    /// The fetched page being updated (held across Note/Log/Ship).
    page: Option<Box<Page>>,
    awaiting: bool,
    /// Pump cycles to sit out after an `Overloaded` reply — the client's
    /// half of backpressure. Without it a shed client resubmits every
    /// driver pass and the retry traffic itself swamps admission.
    cooldown: u32,
    done: bool,
}

impl SimClient {
    fn new(port: ClientPort, set: Vec<PageId>, idx: usize, txns: usize) -> SimClient {
        SimClient {
            port,
            set,
            idx,
            txns_left: txns,
            seq: 0,
            txn: TxnId::INVALID,
            step: Step::Begin,
            page: None,
            awaiting: false,
            cooldown: 0,
            done: txns == 0,
        }
    }

    fn val(&self) -> u8 {
        txn_val(self.idx, self.seq)
    }

    fn current_request(&self) -> Request {
        match self.step {
            Step::Begin => Request::Begin,
            Step::Fetch(i) => {
                Request::FetchLocked { txn: self.txn, pid: self.set[i], mode: LockMode::X }
            }
            Step::Note(i) => Request::NoteLogged { txn: self.txn, pid: self.set[i] },
            Step::Log(i) => Request::LogBytes {
                txn: self.txn,
                bytes: update_record(self.txn, self.set[i], self.val()).encode(),
            },
            Step::Ship(i) => Request::DirtyPage {
                txn: self.txn,
                pid: self.set[i],
                page: self.page.clone().expect("page fetched before ship"),
            },
            Step::Commit => Request::Commit { txn: self.txn },
        }
    }

    fn advance(&mut self, resp: Response) {
        match (&self.step, resp) {
            (Step::Begin, Response::Began(t)) => {
                self.txn = t;
                self.step = Step::Fetch(0);
            }
            (Step::Fetch(i), Response::Page(mut p)) => {
                let i = *i;
                p.object_mut(self.set[i], 0).unwrap().fill(self.val());
                self.page = Some(p);
                self.step = Step::Note(i);
            }
            (Step::Note(i), Response::Ok) => self.step = Step::Log(*i),
            (Step::Log(i), Response::Ok) => self.step = Step::Ship(*i),
            (Step::Ship(i), Response::Ok) => {
                let next = *i + 1;
                self.page = None;
                self.step = if next < self.set.len() { Step::Fetch(next) } else { Step::Commit };
            }
            (Step::Commit, Response::Committed(_)) => {
                self.seq += 1;
                self.txns_left -= 1;
                if self.txns_left == 0 {
                    self.done = true;
                } else {
                    self.step = Step::Begin;
                }
            }
            (_, Response::Err(e)) => panic!("sim client {}: server error: {e}", self.idx),
            (_, other) => {
                panic!("sim client {}: unexpected {} reply", self.idx, other.kind())
            }
        }
    }

    /// One pump: submit the pending request or poll the mailbox. Returns
    /// true when anything happened (admission sheds count as progress —
    /// the resubmit is the backpressure loop working).
    fn pump(&mut self) -> bool {
        if self.done {
            return false;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        if !self.awaiting {
            self.port.submit(self.current_request());
            self.awaiting = true;
            return true;
        }
        match self.port.try_recv() {
            None => false,
            Some(Response::Overloaded) => {
                // Resubmit after sitting out a while; shed-and-retry is
                // backpressure working, not progress.
                self.awaiting = false;
                self.cooldown = 64;
                false
            }
            Some(resp) => {
                self.awaiting = false;
                self.advance(resp);
                true
            }
        }
    }
}

/// Reactor driver: `sets.len()` simulated clients multiplexed over
/// `drivers` pumping threads. Returns the wall clock for the whole run.
pub fn drive_reactor(
    reactor: &Reactor,
    sets: &[Vec<PageId>],
    txns_per_client: usize,
    drivers: usize,
) -> Duration {
    let mut clients: Vec<SimClient> = sets
        .iter()
        .enumerate()
        .map(|(i, set)| {
            SimClient::new(reactor.connect(ClientId(i as u16)), set.clone(), i, txns_per_client)
        })
        .collect();
    let drivers = drivers.clamp(1, clients.len().max(1));
    let chunk = clients.len().div_ceil(drivers);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for group in clients.chunks_mut(chunk) {
            s.spawn(move || loop {
                let mut progress = false;
                let mut all_done = true;
                for c in group.iter_mut() {
                    if !c.done {
                        all_done = false;
                        progress |= c.pump();
                    }
                }
                if all_done {
                    break;
                }
                if !progress {
                    std::thread::yield_now();
                }
            });
        }
    });
    t0.elapsed()
}

/// Read back every workload page and assert the last committed value is
/// in place — both drivers must leave identical, complete state.
pub fn assert_workload_applied(server: &Server, sets: &[Vec<PageId>], txns_per_client: usize) {
    if txns_per_client == 0 {
        return;
    }
    for (i, set) in sets.iter().enumerate() {
        let want = txn_val(i, txns_per_client - 1);
        for &pid in set {
            let page = server.read_page_for_test(pid).unwrap();
            assert_eq!(
                page.object(pid, 0).unwrap(),
                &vec![want; OBJECT_BYTES][..],
                "client {i} page {pid} missing its final committed update"
            );
        }
    }
}
