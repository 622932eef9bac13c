//! Record- vs page-granularity locking under real contention: two client
//! threads repeatedly update *distinct records of the same page*. Each
//! round, a client that got its lock keeps it until the other client has
//! its own lock too or is queued behind it, so with page locks their
//! exclusive locks collide every round, whatever the scheduler does; with record
//! locks the page carries only compatible `IX` intents, so neither client
//! ever waits. Asserted via the tracer's `TraceCat::LockWait` events
//! (one is emitted per transaction-lock request that had to queue),
//! the same instrument `shard_independence.rs` uses for subsystem locks.

use qs_repro::core::SystemConfig;
use qs_repro::esm::{ClientConn, RecoveryFlavor, Server, ServerConfig};
use qs_repro::sim::{HardwareModel, Meter};
use qs_repro::storage::Page;
use qs_repro::trace::{TraceCat, Tracer};
use qs_repro::types::{ClientId, Lsn, PageId};
use qs_repro::wal::LogRecord;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};

const ROUNDS: u8 = 50;
const RING: usize = 1 << 16;

/// Run the contended workload and return the number of transaction-lock
/// waits the tracer saw. `record_locks` picks the client's granularity;
/// everything else — schedule, updates, commits — is identical.
fn contended_updates(record_locks: bool) -> (u64, Page, PageId, [u16; 2]) {
    let scfg = ServerConfig::new(RecoveryFlavor::RedoLogical)
        .with_pool_mb(1.0)
        .with_volume_pages(64)
        .with_log_mb(8.0);
    let meter = Meter::new();
    let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), RING);
    let server =
        Arc::new(Server::format_traced(scfg, Arc::clone(&meter), Arc::clone(&tracer)).unwrap());

    // One shared page, one record per client.
    let pid = server.bulk_allocate(1).unwrap()[0];
    let mut p = Page::new();
    let slots = [p.insert(pid, &[0u8; 64]).unwrap(), p.insert(pid, &[0u8; 64]).unwrap()];
    server.bulk_write(pid, &p).unwrap();
    server.bulk_sync().unwrap();

    let pool_pages = SystemConfig::pd_rlog().with_memory(1.0, 0.25).client_pool_pages();
    // Released together at the top of every round, the two clients race
    // to lock the same page at the same moment, round after round.
    let barrier = Barrier::new(2);
    // The last round in which each client held its lock.
    let locked = [AtomicU8::new(0), AtomicU8::new(0)];

    std::thread::scope(|s| {
        for (c, &slot) in slots.iter().enumerate() {
            let (barrier, locked) = (&barrier, &locked);
            let server = Arc::clone(&server);
            s.spawn(move || {
                let mut client = ClientConn::new(
                    ClientId(c as u16),
                    Arc::clone(&server),
                    pool_pages,
                    Meter::new(),
                );
                for round in 1..=ROUNDS {
                    barrier.wait();
                    let txn = client.begin().unwrap();
                    if record_locks {
                        client.x_lock_record(pid, slot).unwrap();
                    } else {
                        client.x_lock(pid).unwrap();
                    }
                    locked[c].store(round, Ordering::Release);
                    while locked[1 - c].load(Ordering::Acquire) < round
                        && server.queued_lock_waiters() == 0
                    {
                        std::thread::yield_now();
                    }
                    // A logical after-image for this client's own record
                    // (RLOG: the server defers it until commit).
                    client
                        .add_log_records(
                            pid,
                            vec![LogRecord::UpdateLogical {
                                txn,
                                prev: Lsn::NULL,
                                page: pid,
                                slot,
                                offset: 0,
                                after: vec![0xA0 + c as u8; 16],
                            }],
                        )
                        .unwrap();
                    client.finish_commit().unwrap();
                }
            });
        }
    });

    let waits =
        tracer.flight_snapshot(RING).iter().filter(|e| e.cat == TraceCat::LockWait).count() as u64;
    let page = server.read_page_for_test(pid).unwrap();
    (waits, page, pid, slots)
}

#[test]
fn distinct_record_updates_on_one_page_proceed_without_waits() {
    let (page_waits, page_img, pid, slots) = contended_updates(false);
    let (record_waits, record_img, rpid, rslots) = contended_updates(true);

    // Page granularity: the two clients' X locks on the shared page
    // collide — the tracer must have seen queued lock requests.
    assert!(page_waits > 0, "page-granularity clients never contended on the shared page");
    assert_eq!(page_waits, ROUNDS as u64, "one client waited per round");
    // Record granularity: IX intents coexist and the slots are distinct,
    // so not a single lock request may queue.
    assert_eq!(record_waits, 0, "record-granularity clients waited despite distinct slots");

    // Both runs did the same real work: every client's last committed
    // after-image is on the page.
    for (img, pid, slots) in [(&page_img, pid, slots), (&record_img, rpid, rslots)] {
        for (c, &slot) in slots.iter().enumerate() {
            assert_eq!(
                img.object(pid, slot).unwrap()[..16],
                [0xA0 + c as u8; 16],
                "client {c}'s committed update missing"
            );
        }
    }
}
