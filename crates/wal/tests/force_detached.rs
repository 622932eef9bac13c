//! `LogManager::force` writes a prefix of the tail it has *detached* from
//! the tail buffer, with no lock held. These tests stop the medium in the
//! middle of that write — or fail it — and check the contract: a reader
//! sees the same bytes for every LSN in `[start, tail)` before, during and
//! after a force; appends keep going; forces take turns; a failed write
//! leaves everything as it was.
//!
//! The parked test blocks a thread on purpose: `scripts/verify.sh` runs
//! this file under its deadlock watchdog.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use qs_storage::{MemDisk, StableMedia};
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::{LogManager, LogRecord};

const BODY: usize = 1 << 16;

/// A `MemDisk` whose log-*body* writes (everything past the header page)
/// can be made to park until released, or to fail.
struct Gated {
    disk: MemDisk,
    park: AtomicBool,
    fail: AtomicBool,
    /// Tells the test a body write has arrived and is parked.
    arrived: Mutex<Sender<()>>,
    /// One message lets one parked write through.
    release: Mutex<Receiver<()>>,
}

struct Gate {
    media: Arc<Gated>,
    arrived: Receiver<()>,
    release: Sender<()>,
}

fn gated() -> Gate {
    let (arrived_tx, arrived) = channel();
    let (release, release_rx) = channel();
    let media = Arc::new(Gated {
        disk: MemDisk::new(LogManager::required_bytes(BODY)),
        park: AtomicBool::new(false),
        fail: AtomicBool::new(false),
        arrived: Mutex::new(arrived_tx),
        release: Mutex::new(release_rx),
    });
    Gate { media, arrived, release }
}

impl StableMedia for Gated {
    fn len(&self) -> usize {
        self.disk.len()
    }
    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()> {
        self.disk.read_at(off, buf)
    }
    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()> {
        if off >= PAGE_SIZE {
            if self.fail.load(Ordering::SeqCst) {
                return Err(QsError::Protocol { detail: "injected log write failure".into() });
            }
            if self.park.load(Ordering::SeqCst) {
                self.arrived.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
        }
        self.disk.write_at(off, buf)
    }
    fn sync(&self) -> QsResult<()> {
        self.disk.sync()
    }
}

fn update(page: u32, val: u8) -> LogRecord {
    LogRecord::Update {
        txn: TxnId(1),
        prev: Lsn::NULL,
        page: PageId(page),
        slot: 0,
        offset: 0,
        before: vec![0; 24],
        after: vec![val; 24],
    }
}

/// What the test itself knows the log to hold: every record with its LSN.
#[derive(Default)]
struct Model {
    records: Vec<(Lsn, LogRecord)>,
}

impl Model {
    fn append(&mut self, log: &LogManager, n: u32) {
        for _ in 0..n {
            let i = self.records.len() as u32;
            let rec = update(i % 5, i as u8);
            let lsn = log.append(&rec).unwrap();
            self.records.push((lsn, rec));
        }
    }

    /// Every way to read `[start, tail)` returns exactly the appended bytes.
    fn check_readable(&self, log: &LogManager, when: &str) {
        let (start, tail) = (log.start_lsn(), log.tail_lsn());
        let bytes: Vec<u8> = self.records.iter().flat_map(|(_, r)| r.encode()).collect();
        assert_eq!(start.advance(bytes.len()), tail, "{when}");
        for (lsn, rec) in &self.records {
            assert_eq!(log.read_frame(*lsn).unwrap(), rec.encode(), "{when}: read_frame {lsn}");
        }
        // read_bytes: the whole window, and a span from every record
        // boundary to the tail (so some start below `durable`, some at it,
        // some inside the detached prefix, some past it).
        for (lsn, _) in &self.records {
            let at = (lsn.0 - start.0) as usize;
            let mut span = vec![0u8; bytes.len() - at];
            log.read_bytes(*lsn, &mut span).unwrap();
            assert_eq!(span, bytes[at..], "{when}: read_bytes from {lsn}");
        }
        let page = PAGE_SIZE as u64;
        for index in start.0 / page..=(tail.0 - 1) / page {
            let mut buf = [0u8; PAGE_SIZE];
            let (from, to) = log.read_log_page(index, &mut buf).unwrap();
            let lo = (index * page + from as u64 - start.0) as usize;
            assert_eq!(buf[from..to], bytes[lo..lo + (to - from)], "{when}: log page {index}");
        }
    }
}

#[test]
fn a_parked_force_hides_nothing_and_blocks_only_the_next_force() {
    let Gate { media, arrived, release } = gated();
    let log = LogManager::format(Arc::clone(&media) as Arc<dyn StableMedia>, BODY).unwrap();
    let mut model = Model::default();
    // A durable prefix, then an unforced tail of more than one log page.
    model.append(&log, 40);
    log.force(log.tail_lsn()).unwrap();
    let durable = log.durable_lsn();
    model.append(&log, 150);
    let first_target = log.tail_lsn();
    assert!(first_target.0 - durable.0 > PAGE_SIZE as u64);
    model.check_readable(&log, "before the force");

    media.park.store(true, Ordering::SeqCst);
    let second_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let first = s.spawn(|| log.force(first_target).unwrap());
        arrived.recv().unwrap();
        // The first force sits in its media write. Nothing is durable yet,
        // nothing has moved, and every byte is where a reader looks for it.
        assert_eq!((log.durable_lsn(), log.tail_lsn()), (durable, first_target));
        model.check_readable(&log, "force parked");
        // Appends proceed, and are readable behind the detached prefix.
        model.append(&log, 30);
        assert!(log.tail_lsn() > first_target);
        model.check_readable(&log, "force parked, appended behind it");

        // A second force waits its turn: it cannot reach the medium, let
        // alone return, while the first is in flight.
        let (started_tx, started) = channel();
        let (log, second_done) = (&log, &second_done);
        let second = s.spawn(move || {
            started_tx.send(()).unwrap();
            let stats = log.force(log.tail_lsn()).unwrap();
            second_done.store(true, Ordering::SeqCst);
            stats
        });
        started.recv().unwrap();
        std::thread::yield_now();
        assert!(arrived.try_recv().is_err(), "second force wrote beside the first");
        assert!(!second_done.load(Ordering::SeqCst));

        release.send(()).unwrap();
        let stats = first.join().unwrap();
        assert!(stats.wrote);
        // Only now does the second one get to the medium — and by then the
        // first has published exactly its target.
        arrived.recv().unwrap();
        assert_eq!(log.durable_lsn(), first_target);
        model.check_readable(log, "second force parked");
        release.send(()).unwrap();
        assert!(second.join().unwrap().wrote);
    });
    media.park.store(false, Ordering::SeqCst);
    assert_eq!(log.durable_lsn(), log.tail_lsn());
    model.check_readable(&log, "after both forces");

    drop(log); // crash
    let reopened = LogManager::open(media as Arc<dyn StableMedia>).unwrap();
    model.check_readable(&reopened, "after the crash");
}

#[test]
fn a_failed_media_write_leaves_the_log_as_it_was_and_a_retry_succeeds() {
    let Gate { media, .. } = gated();
    let log = LogManager::format(Arc::clone(&media) as Arc<dyn StableMedia>, BODY).unwrap();
    let mut model = Model::default();
    model.append(&log, 20);
    log.force(log.tail_lsn()).unwrap();
    let durable = log.durable_lsn();
    model.append(&log, 60);
    let tail = log.tail_lsn();
    let interior = model.records[45].0;

    media.fail.store(true, Ordering::SeqCst);
    // Whole-tail force and interior force (which leaves a remainder behind
    // the detached prefix): both put back exactly what they took.
    for upto in [tail, interior] {
        let err = log.force(upto).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!((log.durable_lsn(), log.tail_lsn()), (durable, tail));
        model.check_readable(&log, "after a failed force");
    }
    // The log is still a log: appends land behind the restored tail.
    model.append(&log, 10);
    model.check_readable(&log, "appended after a failed force");

    media.fail.store(false, Ordering::SeqCst);
    assert!(log.force(interior).unwrap().wrote);
    assert_eq!(log.durable_lsn(), model.records[46].0);
    model.check_readable(&log, "after the retried interior force");
    assert!(log.force(log.tail_lsn()).unwrap().wrote);
    assert_eq!(log.durable_lsn(), log.tail_lsn());

    drop(log);
    let reopened = LogManager::open(media as Arc<dyn StableMedia>).unwrap();
    model.check_readable(&reopened, "after the crash");
}
