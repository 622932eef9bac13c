//! Seeded clients against a maintenance loop: N client threads each run
//! the wire protocol's transaction — log page, then dirty page (each
//! where the flavor ships them), then commit — on pages of their own,
//! while a control thread runs maintenance passes as fast as it can: a
//! checkpoint (directly or through the flusher thread), `maintain_now`
//! (under WPL: reclaim to the low watermark) and `quiesce` (under WPL:
//! the full drain of the table), in turn. Every gap in that sequence is a
//! place a pass can land: between a record and the page that carries its
//! effect, between a whole-page image's append and its WPL-table entry,
//! between a commit record and its force, between a no-steal commit's
//! force and its apply. A transaction starts by fetching every page it
//! will touch, which must read as the client's last committed image —
//! under WPL often an image re-read from the log while reclaim removes
//! versions and truncates it. After a crash every acknowledged commit
//! must be there, and nothing else.
//!
//! A seed fixes what each client does (pages, slots, values, records per
//! page, re-shipping a page twice in one transaction, the scheme an ADAPT
//! transaction elects — Wpl's whole-page records included — which
//! transactions abort) and how long each thread
//! dawdles between steps; pages are private, so the expected database does
//! not depend on how the threads interleave. A failure names its seed.
//! Runs under the deadlock watchdog in `scripts/verify.sh`.

use qs_repro::esm::{LockMode, RecoveryFlavor, Server, ServerConfig};
use qs_repro::prng::Prng;
use qs_repro::sim::Meter;
use qs_repro::storage::Page;
use qs_repro::types::{Lsn, PageId, TxnId};
use qs_repro::wal::{LogRecord, SchemeCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SEEDS: u64 = 50;
const CLIENTS: usize = 3;
const PAGES_PER_CLIENT: usize = 3;
const SLOTS: u16 = 4;
const OBJECT_BYTES: usize = 48;
const TXNS_PER_CLIENT: usize = 10;

fn server_cfg(flavor: RecoveryFlavor) -> ServerConfig {
    // A pool smaller than the working set, so pages are also stolen.
    let mut cfg = ServerConfig::new(flavor).with_volume_pages(64).with_log_mb(4.0);
    cfg.pool_pages = 6;
    cfg.with_pool_shards(2)
}

fn dawdle(rng: &mut Prng) {
    for _ in 0..rng.gen_range(0..4) {
        std::thread::yield_now();
    }
}

/// One client's private pages: what it believes they hold (`cache`, its
/// transaction's updates included) and what it has been told is committed.
struct Client {
    pids: Vec<PageId>,
    cache: Vec<Page>,
    committed: Vec<Page>,
    rng: Prng,
}

/// What a transaction's updates travel as.
#[derive(Clone, Copy, PartialEq)]
enum Records {
    /// Before- and after-image (`Steal`).
    Physical,
    /// After-image only (`NoSteal`).
    Logical,
    /// The whole page after each update (`NoSteal`; ADAPT's Wpl scheme).
    WholePage,
    /// None: the flavor ships pages only (WPL).
    None,
}

impl Client {
    /// One transaction. Returns after the server acknowledged its commit
    /// (or its abort); `Err` says which page did not read as committed.
    fn run_txn(&mut self, server: &Server) -> Result<(), String> {
        let facts = server.flavor().facts();
        let txn = server.begin();
        let records = if facts.txn_scheme {
            let scheme = [SchemeCode::Pd, SchemeCode::Sd, SchemeCode::Rlog, SchemeCode::Wpl]
                [self.rng.gen_range(0..4)];
            let mark = LogRecord::TxnScheme { txn, prev: Lsn::NULL, scheme };
            server.receive_log_records(txn, vec![mark]).unwrap();
            match scheme {
                SchemeCode::Wpl => Records::WholePage,
                s if s.is_logical() => Records::Logical,
                _ => Records::Physical,
            }
        } else if !facts.ships_records {
            Records::None
        } else if facts.physical_update {
            Records::Physical
        } else {
            Records::Logical
        };
        // A no-steal transaction's updates reach the server as records only.
        let ships_pages = facts.ships_pages && matches!(records, Records::Physical | Records::None);
        let touched: Vec<usize> = (0..self.rng.gen_range(1..PAGES_PER_CLIENT + 1))
            .map(|_| self.rng.gen_range(0..PAGES_PER_CLIENT))
            .collect();
        for &i in &touched {
            let pid = self.pids[i];
            server.lock_page(txn, pid, LockMode::X).unwrap();
            let got = server.fetch_page(txn, pid).unwrap();
            if let Some(slot) = differing_slot(pid, &got, &self.committed[i]) {
                return Err(format!("{pid} slot {slot} does not read as committed"));
            }
        }
        for i in touched {
            let pid = self.pids[i];
            // Sometimes the page goes to the server twice in one
            // transaction, as when the client cache evicts it in between.
            for _ in 0..self.rng.gen_range(1..3) {
                let shipped: Vec<LogRecord> = (0..self.rng.gen_range(1..4))
                    .filter_map(|_| self.update(txn, i, records))
                    .collect();
                if !shipped.is_empty() {
                    server.receive_log_records(txn, shipped).unwrap();
                    dawdle(&mut self.rng);
                }
                if ships_pages {
                    server.receive_dirty_page(txn, pid, self.cache[i].clone()).unwrap();
                    dawdle(&mut self.rng);
                }
            }
        }
        if self.rng.gen_bool(0.15) {
            server.abort(txn).unwrap();
            self.cache.clone_from(&self.committed);
        } else {
            server.commit(txn).unwrap();
            self.committed.clone_from(&self.cache);
        }
        Ok(())
    }

    /// Change a few bytes of one object in the cached page; the record
    /// that says so, if updates travel as records.
    fn update(&mut self, txn: TxnId, i: usize, records: Records) -> Option<LogRecord> {
        let (page, prev) = (self.pids[i], Lsn::NULL);
        let slot = self.rng.gen_range(0..SLOTS as usize) as u16;
        let len = self.rng.gen_range(1..17);
        let offset = self.rng.gen_range(0..OBJECT_BYTES - len);
        let after = self.rng.bytes(len);
        let object = self.cache[i].object_mut(page, slot).unwrap();
        let before = object[offset..offset + len].to_vec();
        object[offset..offset + len].copy_from_slice(&after);
        let offset = offset as u16;
        match records {
            Records::Physical => {
                Some(LogRecord::Update { txn, prev, page, slot, offset, before, after })
            }
            Records::Logical => {
                Some(LogRecord::UpdateLogical { txn, prev, page, slot, offset, after })
            }
            Records::WholePage => {
                let image = self.cache[i].bytes().to_vec();
                Some(LogRecord::WholePage { txn, prev, page, image })
            }
            Records::None => None,
        }
    }
}

/// The first slot in which `got` and `want`, two images of `pid`, differ.
fn differing_slot(pid: PageId, got: &Page, want: &Page) -> Option<u16> {
    (0..SLOTS).find(|&slot| got.object(pid, slot).unwrap() != want.object(pid, slot).unwrap())
}

/// Run `seed` under `flavor`; `Err` says which committed object the
/// server read wrong, or the restarted server does not hold.
fn run(flavor: RecoveryFlavor, seed: u64, flusher: bool) -> Result<(), String> {
    let server = Arc::new(Server::format(server_cfg(flavor), Meter::new()).unwrap());
    let mut rng = Prng::seed_from_u64(seed);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| {
            let pids = server.bulk_allocate(PAGES_PER_CLIENT).unwrap();
            let pages: Vec<Page> = pids
                .iter()
                .map(|&pid| {
                    let mut page = Page::new();
                    for _ in 0..SLOTS {
                        page.insert(pid, &[0u8; OBJECT_BYTES]).unwrap();
                    }
                    server.bulk_write(pid, &page).unwrap();
                    page
                })
                .collect();
            Client { pids, cache: pages.clone(), committed: pages, rng: rng.fork() }
        })
        .collect();
    server.bulk_sync().unwrap();
    if flusher {
        server.start_flusher();
    }

    let done = AtomicBool::new(false);
    let read = std::thread::scope(|s| {
        s.spawn(|| {
            for pass in 0.. {
                if done.load(Ordering::Acquire) {
                    break;
                }
                match pass % 3 {
                    0 if flusher => {
                        assert!(server.request_checkpoint(), "the flusher thread is running")
                    }
                    0 => server.checkpoint().unwrap(),
                    1 => server.maintain_now().unwrap(),
                    _ => server.quiesce().unwrap(),
                }
                dawdle(&mut rng);
            }
        });
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let server = &server;
                s.spawn(move || {
                    (0..TXNS_PER_CLIENT)
                        .try_for_each(|_| client.run_txn(server))
                        .map_err(|what| format!("client {c}: {what}"))
                })
            })
            .collect();
        // Collect panics before releasing the control thread, so a failed
        // client cannot leave it spinning.
        let results: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::Release);
        let mut read = Ok(());
        for r in results {
            match r {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(outcome) => read = read.and(outcome),
            }
        }
        read
    });
    server.stop_flusher();
    read?;

    let parts = Arc::try_unwrap(server).ok().expect("sole owner").crash();
    let restarted = Server::restart(parts, server_cfg(flavor), Meter::new())
        .map_err(|e| format!("restart failed: {e}"))?;
    if restarted.active_txns() != 0 {
        return Err("a transaction survived restart".into());
    }
    for (c, client) in clients.iter().enumerate() {
        for (&pid, want) in client.pids.iter().zip(&client.committed) {
            let got = restarted.read_page_for_test(pid).unwrap();
            if let Some(slot) = differing_slot(pid, &got, want) {
                return Err(format!("client {c} {pid} slot {slot} is not its committed value"));
            }
        }
    }
    Ok(())
}

fn every_acknowledged_commit_survives(flusher: bool) {
    for flavor in [
        RecoveryFlavor::EsmAries,
        RecoveryFlavor::RedoAtServer,
        RecoveryFlavor::Wpl,
        RecoveryFlavor::RedoLogical,
        RecoveryFlavor::Adaptive,
    ] {
        for seed in 0..SEEDS {
            if let Err(what) = run(flavor, seed, flusher) {
                panic!("{} seed {seed} flusher={flusher}: {what}", flavor.name());
            }
        }
    }
}

#[test]
fn every_acknowledged_commit_survives_inline_checkpoints() {
    every_acknowledged_commit_survives(false);
}

#[test]
fn every_acknowledged_commit_survives_flusher_checkpoints() {
    every_acknowledged_commit_survives(true);
}
