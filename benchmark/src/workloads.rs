//! The five workloads: their configurations, databases and transactions.
//!
//! Every workload is one process running closed-loop clients over a fixed
//! number of transactions. The only randomness is the OO7 generator seed
//! and the object-choice PRNG, both derived from `--seed`; the program
//! under test sees generated inputs only. Why each workload exists is in
//! [`Spec::why`] (printed by `--list`, copied into `BENCHMARK.json`).

use crate::harness::Media;
use crate::spans::Recorder;
use qs_esm::{ClientConn, Server, ServerConfig};
use qs_oo7::schema::{composite, get_ref, REF_SIZE};
use qs_oo7::{generate, t2, ModuleHandle, Oo7Params, T2Mode};
use qs_prng::Prng;
use qs_sim::Meter;
use qs_storage::Page;
use qs_types::{ClientId, Oid, QsResult};
use quickstore::{Store, SystemConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] =
    ["oo7_t2a", "oo7_mixed_adapt", "short_txn", "short_txn_gc", "crash_restart"];

/// Pages per client and objects per page of the short-transaction set.
const SHORT_PAGES: usize = 64;
const SHORT_OBJS: usize = 16;
const SHORT_OBJ_BYTES: usize = 64;
/// Bytes one short-transaction `modify` writes, and how many it makes.
const SHORT_WRITE: usize = 16;
const SHORT_WRITES: usize = 4;

/// Which transactions a workload runs, by index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// Every transaction a T2A traversal (sparse: one 8-byte update per
    /// composite part, ~500 pages touched).
    T2a,
    /// Every transaction a T2B traversal (every atomic part updated).
    T2b,
    /// Rotation of 8: T2A, then striped manual edit and whole-manual
    /// rewrite alternating seven times.
    Mixed,
    /// Four 16-byte writes to PRNG-chosen objects of a 64-page set.
    Short,
}

/// One kind of transaction within a mix: its name and its share of the
/// rotation (the weight its floor gets in the workload's floor).
pub struct Kind {
    pub name: &'static str,
    pub weight: f64,
}

const KINDS_T2A: [Kind; 1] = [Kind { name: "t2a", weight: 1.0 }];
const KINDS_T2B: [Kind; 1] = [Kind { name: "t2b", weight: 1.0 }];
const KINDS_SHORT: [Kind; 1] = [Kind { name: "short", weight: 1.0 }];
const KINDS_MIXED: [Kind; 3] = [
    Kind { name: "t2a", weight: 1.0 / 8.0 },
    Kind { name: "dense", weight: 4.0 / 8.0 },
    Kind { name: "bulk", weight: 3.0 / 8.0 },
];

impl Mix {
    pub fn kinds(self) -> &'static [Kind] {
        match self {
            Mix::T2a => &KINDS_T2A,
            Mix::T2b => &KINDS_T2B,
            Mix::Mixed => &KINDS_MIXED,
            Mix::Short => &KINDS_SHORT,
        }
    }

    /// Transactions per rotation of the mix.
    pub fn rotation(self) -> usize {
        if self == Mix::Mixed {
            8
        } else {
            1
        }
    }

    /// Index into [`Mix::kinds`] of transaction `i`.
    pub fn kind_of(self, i: usize) -> u8 {
        match self {
            Mix::Mixed => match i % self.rotation() {
                0 => 0,
                p if p % 2 == 1 => 1,
                _ => 2,
            },
            _ => 0,
        }
    }
}

/// Everything that defines one workload at one scale.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub sys: SystemConfig,
    pub server: ServerConfig,
    /// Wall-clock latency of one log-disk sync (zero except where force
    /// wait is the point).
    pub log_sync: Duration,
    pub clients: usize,
    /// Per client.
    pub warmup: usize,
    /// Per client.
    pub measured: usize,
    /// After the measured phase, keep committing until a checkpoint
    /// completes and then this many transactions more, so the redo
    /// backlog at the crash does not depend on where in a checkpoint
    /// cycle the fixed transaction count happens to end.
    pub tail_after_checkpoint: Option<usize>,
    /// How many times set-up is run (and timed) per run.
    pub setup_reps: usize,
    /// Restarts per engine from the frozen crash images. The floor of a
    /// short restart needs more tries to find a quiet moment on a shared
    /// host than that of a long one.
    pub restarts: usize,
    pub mix: Mix,
    /// `manual_size` of the OO7 module; `None` for the page-set database.
    pub oo7_manual: Option<usize>,
}

fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// The workload named `name` with operation counts scaled by `scale`
/// (1.0 = the counts documented in the README, reached at `--seconds 10`).
/// `smoke` drops the sample-count minimums.
pub fn spec(name: &str, scale: f64, smoke: bool) -> Option<Spec> {
    let min = |full: usize, tiny: usize| if smoke { tiny } else { full };
    let oo7_server = |sys: &SystemConfig, log_mb: f64| {
        ServerConfig::new(sys.flavor).with_pool_mb(36.0).with_volume_pages(2048).with_log_mb(log_mb)
    };
    // Default server knobs; the log shrinks with the op counts so the
    // watermark checkpoints fire at the same points of a shorter run.
    let short_server = |sys: &SystemConfig| {
        ServerConfig::new(sys.flavor).with_volume_pages(1024).with_log_mb((64.0 * scale).max(2.0))
    };
    Some(match name {
        "oo7_t2a" => {
            let sys = SystemConfig::pd_esm().with_memory(12.0, 4.0);
            Spec {
                name: "oo7_t2a",
                why: "sparse OO7 updates that fit every cache: client faulting, page copy and diff dominate, the log gets 4 pages/txn",
                server: oo7_server(&sys, 128.0),
                sys,
                log_sync: Duration::ZERO,
                clients: 1,
                warmup: 5,
                measured: scaled(300, scale, min(200, 10)),
                tail_after_checkpoint: None,
                setup_reps: 9,
                restarts: 30,
                mix: Mix::T2a,
                oo7_manual: Some(Oo7Params::small().manual_size),
            }
        }
        "oo7_mixed_adapt" => {
            let sys = SystemConfig::adaptive().with_memory(16.0, 6.0);
            Spec {
                name: "oo7_mixed_adapt",
                why: "one log interleaving logical and whole-page transactions: exercises the elector, both server protocols and many watermark checkpoints",
                server: oo7_server(&sys, 64.0),
                sys,
                log_sync: Duration::ZERO,
                clients: 1,
                warmup: 8,
                measured: scaled(100, scale, min(25, 2)) * 8,
                tail_after_checkpoint: Some(8),
                setup_reps: 7,
                restarts: 40,
                mix: Mix::Mixed,
                oo7_manual: Some(1 << 20),
            }
        }
        "short_txn" => {
            let sys = SystemConfig::pd_esm().with_memory(2.0, 0.5);
            Spec {
                name: "short_txn",
                why: "per-transaction fixed cost of server, lock manager and log with negligible diff work; a diff-kernel change must not move it",
                server: short_server(&sys),
                sys,
                log_sync: Duration::ZERO,
                clients: 1,
                warmup: 1000,
                measured: scaled(300_000, scale, min(20_000, 1000)),
                tail_after_checkpoint: Some(scaled(20_000, scale, min(2000, 100))),
                setup_reps: 9,
                restarts: 40,
                mix: Mix::Short,
                oo7_manual: None,
            }
        }
        "short_txn_gc" => {
            let sys = SystemConfig::pd_esm().with_memory(2.0, 0.5);
            Spec {
                name: "short_txn_gc",
                why: "two concurrent clients behind group commit on a 200 us log sync: force wait and batching dominate; the only workload with concurrency",
                server: short_server(&sys).with_pool_shards(4).with_group_commit(true),
                sys,
                log_sync: Duration::from_micros(200),
                clients: 2,
                warmup: 500,
                measured: scaled(20_000, scale, min(2000, 200)),
                tail_after_checkpoint: None,
                setup_reps: 9,
                restarts: 30,
                mix: Mix::Short,
                oo7_manual: None,
            }
        }
        "crash_restart" => {
            // A 64-page recovery buffer against a ~500-page write set:
            // overflow and early log shipping, ~2.3 MB of log per
            // transaction. The log is sized so no checkpoint truncates it.
            let sys = SystemConfig::pd_esm().with_memory(8.0, 0.5);
            let (warmup, measured) = (2, scaled(30, scale, min(10, 2)));
            let log_mb = 32.0 + 3.0 * (warmup + measured + 1) as f64;
            let mut server = oo7_server(&sys, log_mb);
            server.log_high_watermark = 0.95;
            server.log_low_watermark = 0.90;
            Spec {
                name: "crash_restart",
                why: "dense OO7 updates overflowing the recovery buffer leave a redo backlog larger than every cache: restart scan, redo and undo do the work",
                server,
                sys,
                log_sync: Duration::ZERO,
                clients: 1,
                warmup,
                measured,
                tail_after_checkpoint: None,
                setup_reps: 7,
                restarts: 15,
                mix: Mix::T2b,
                oo7_manual: Some(Oo7Params::small().manual_size),
            }
        }
        _ => return None,
    })
}

/// The loaded database, as the clients need to know it.
pub struct Db {
    module: Option<ModuleHandle>,
    /// Manual chunk objects and their lengths.
    chunks: Vec<(Oid, usize)>,
    /// Every atomic part (what T2 can update).
    atomics: Vec<Oid>,
    /// Short-transaction page sets: per client, per page, its objects.
    page_sets: Vec<Vec<[Oid; SHORT_OBJS]>>,
}

impl Db {
    /// Pages the database occupies.
    pub fn pages(&self) -> usize {
        self.module.as_ref().map_or(SHORT_PAGES * self.page_sets.len(), |m| m.pages)
    }

    /// Every object client `me`'s transactions can update.
    pub fn updatable(&self, me: usize) -> Vec<Oid> {
        let mut out = Vec::new();
        if me == 0 {
            out.extend(&self.atomics);
            out.extend(self.chunks.iter().map(|&(oid, _)| oid));
        }
        if let Some(set) = self.page_sets.get(me) {
            out.extend(set.iter().flatten());
        }
        out
    }
}

/// Per-transaction timing, in ns.
pub struct Timing {
    pub txn_ns: u64,
    pub commit_ns: u64,
    pub kind: u8,
    /// When the transaction (and its commit, if any) returned.
    pub end: Instant,
}

/// One closed-loop client.
pub struct Client {
    pub store: Store,
    prng: Prng,
    /// What the manual edits write from (refilled before the clock starts).
    fill: Vec<u8>,
    /// The short transaction's next four writes.
    picks: [(Oid, usize, [u8; SHORT_WRITE]); SHORT_WRITES],
    /// Index of the next transaction; continues across phases so every
    /// phase extends one deterministic sequence.
    pub next: usize,
}

/// The byte transaction `i`'s manual edit writes — never the previous
/// round's, so every diff is real.
fn fill_byte(i: usize) -> u8 {
    (i % 251) as u8 + 1
}

impl Client {
    fn new(
        server: &Arc<Server>,
        meter: &Arc<Meter>,
        sys: &SystemConfig,
        id: usize,
        prng: Prng,
    ) -> Client {
        let conn = ClientConn::new(
            ClientId(id as u16),
            Arc::clone(server),
            sys.client_pool_pages(),
            Arc::clone(meter),
        );
        Client {
            store: Store::new(conn, sys.clone()).expect("store configuration matches the server"),
            prng,
            fill: vec![0u8; 8192],
            picks: [(Oid::NULL, 0, [0u8; SHORT_WRITE]); SHORT_WRITES],
            next: 0,
        }
    }

    /// Choose the next short transaction's writes: a PRNG-chosen object
    /// and 16-byte lane for each, PRNG bytes to write. Pages may repeat
    /// within a transaction, so its page count (and with it every count
    /// of the run) depends on the seed.
    fn pick_short(&mut self, set: &[[Oid; SHORT_OBJS]]) {
        for k in 0..SHORT_WRITES {
            let page = self.prng.gen_range(0..set.len());
            let oid = set[page][self.prng.gen_range(0..SHORT_OBJS)];
            let lane = self.prng.gen_range(0..SHORT_OBJ_BYTES / SHORT_WRITE) * SHORT_WRITE;
            let mut bytes = [0u8; SHORT_WRITE];
            self.prng.fill_bytes(&mut bytes);
            self.picks[k] = (oid, lane, bytes);
        }
    }

    /// Run transaction number `self.next`: begin, body, and (unless it is
    /// to stay in flight) commit. Inputs are prepared before the clock
    /// starts; the timed region makes no driver allocation.
    pub fn run_one(
        &mut self,
        mix: Mix,
        db: &Db,
        me: usize,
        rec: &mut Recorder,
        commit: bool,
    ) -> QsResult<Timing> {
        let i = self.next;
        self.next += 1;
        let kind = mix.kind_of(i);
        match (mix, kind) {
            (Mix::Mixed, 1) => self.fill.fill(fill_byte(i)),
            (Mix::Mixed, 2) => self.fill.fill(fill_byte(i) ^ 0xA5),
            (Mix::Short, _) => self.pick_short(&db.page_sets[me]),
            _ => {}
        }
        let store = &mut self.store;
        let t0 = Instant::now();
        let span = rec.open("bench.txn", i as u64);
        let txn = rec.call("core.store.begin", i as u64, || store.begin())?.0;
        match (mix, kind) {
            (Mix::T2a | Mix::Mixed, 0) | (Mix::T2b, _) => {
                let mode = if mix == Mix::T2b { T2Mode::B } else { T2Mode::A };
                let module = db.module.as_ref().expect("OO7 workloads load a module");
                rec.call("oo7.t2", txn, || t2(store, module, mode))?;
            }
            (Mix::Mixed, 1) => {
                // Striped edit: 160 bytes every 512 across the manual.
                for &(oid, len) in &db.chunks {
                    let mut off = 0;
                    while off < len {
                        let n = 160.min(len - off);
                        let data = &self.fill[..n];
                        rec.call("core.store.modify", txn, || store.modify(oid, off, data))?;
                        off += 512;
                    }
                }
            }
            (Mix::Mixed, _) => {
                // Whole-manual rewrite: near-full pages.
                for &(oid, len) in &db.chunks {
                    let data = &self.fill[..len];
                    rec.call("core.store.modify", txn, || store.modify(oid, 0, data))?;
                }
            }
            (Mix::Short, _) => {
                for (oid, lane, bytes) in &self.picks {
                    rec.call("core.store.modify", txn, || store.modify(*oid, *lane, bytes))?;
                }
            }
            (Mix::T2a, _) => unreachable!("T2a has one kind"),
        }
        let tc = Instant::now();
        if commit {
            rec.call("core.store.commit", txn, || store.commit())?;
        }
        let t1 = Instant::now();
        rec.close(span);
        Ok(Timing {
            txn_ns: (t1 - t0).as_nanos() as u64,
            commit_ns: (t1 - tc).as_nanos() as u64,
            kind,
            end: t1,
        })
    }
}

/// Read `oids` through `store`, in a transaction of their own when `own_txn`.
pub fn read_all(store: &mut Store, oids: &[Oid], own_txn: bool) -> QsResult<Vec<Vec<u8>>> {
    if own_txn {
        store.begin()?;
    }
    let images = oids.iter().map(|&oid| store.read(oid)).collect::<QsResult<Vec<_>>>()?;
    if own_txn {
        store.commit()?;
    }
    Ok(images)
}

/// Bulk-load one short-transaction page set: [`SHORT_PAGES`] pages of
/// [`SHORT_OBJS`] zeroed objects each. Returns the objects page by page.
pub fn load_page_set(server: &Server) -> QsResult<Vec<[Oid; SHORT_OBJS]>> {
    let mut set = Vec::with_capacity(SHORT_PAGES);
    for pid in server.bulk_allocate(SHORT_PAGES)? {
        let mut page = Page::new();
        let mut slots = [Oid::NULL; SHORT_OBJS];
        for slot in &mut slots {
            *slot = Oid::new(pid, page.insert(pid, &[0u8; SHORT_OBJ_BYTES])?);
        }
        server.bulk_write(pid, &page)?;
        set.push(slots);
    }
    server.bulk_sync()?;
    Ok(set)
}

/// A formatted, loaded and warmed-up system.
pub struct Instance {
    pub server: Arc<Server>,
    pub meter: Arc<Meter>,
    pub db: Db,
    pub clients: Vec<Client>,
}

/// Run `f` once per client: inline for one client, on scoped threads
/// (one per client, joined before returning) for several.
pub fn for_each_client<R: Send>(
    clients: &mut [Client],
    f: impl Fn(&mut Client, usize) -> R + Sync,
) -> Vec<R> {
    if let [only] = clients {
        return vec![f(only, 0)];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(me, c)| {
                let f = &f;
                s.spawn(move || f(c, me))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Format the server on `media`, load the database, connect the clients
/// and run the warm-up transactions. This whole function is what
/// `setup_s` times.
pub fn setup(spec: &Spec, media: &Media, seed: u64) -> QsResult<Instance> {
    let meter = Meter::new();
    let server =
        Arc::new(Server::format_on(media.parts(), spec.server.clone(), Arc::clone(&meter))?);
    let mut master = Prng::seed_from_u64(seed);
    let mut db =
        Db { module: None, chunks: Vec::new(), atomics: Vec::new(), page_sets: Vec::new() };
    let mut params = Oo7Params::small();
    if let Some(manual_size) = spec.oo7_manual {
        params.num_modules = 1;
        params.manual_size = manual_size;
        db.module = Some(generate(&server, &params, seed)?.modules.remove(0));
    } else {
        for _ in 0..spec.clients {
            db.page_sets.push(load_page_set(&server)?);
        }
        server.bulk_sync()?;
    }
    let mut clients: Vec<Client> = (0..spec.clients)
        .map(|id| Client::new(&server, &meter, &spec.sys, id, master.fork()))
        .collect();
    if let Some(module) = &db.module {
        // Learn what the traversals can update: every composite part's
        // atomic parts, and the manual's chunks with their lengths.
        let store = &mut clients[0].store;
        store.begin()?;
        for &comp in &module.composite_parts {
            let bytes = store.read(comp)?;
            for k in 0..params.num_atomic_per_comp {
                db.atomics.push(get_ref(&bytes, composite::OFF_PARTS + k * REF_SIZE));
            }
        }
        for &oid in &module.manual_chunks {
            db.chunks.push((oid, store.object_len(oid)?));
        }
        store.commit()?;
    }
    let (mix, warmup) = (spec.mix, spec.warmup);
    let db_ref = &db;
    for r in for_each_client(&mut clients, |c, me| -> QsResult<()> {
        let mut rec = Recorder::off();
        for _ in 0..warmup {
            c.run_one(mix, db_ref, me, &mut rec, true)?;
        }
        Ok(())
    }) {
        r?;
    }
    Ok(Instance { server, meter, db, clients })
}
