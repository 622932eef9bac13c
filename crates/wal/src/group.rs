//! Group commit: concurrent committers coalesce their log forces.
//!
//! Classic leader/follower protocol (DeWitt et al.'s group commit, as in
//! the multicore-recovery literature the decomposition PR follows): each
//! committer publishes the LSN it needs durable and joins the batch. The
//! first one in becomes *leader* and forces the log once, through the
//! highest LSN any batch member published; everyone whose record became
//! durable under that force — before it, or by absorption while waiting —
//! returns without touching the disk. One synchronous `sync()` per batch
//! instead of one per commit is the entire win.
//!
//! **Nobody forces alone while company is about.** A committer that
//! would lead a batch of one, when somebody else committed during the
//! previous force, first waits for a second member — at most as long as
//! that force took, and not at all when forces are faster than a thread
//! wake-up ([`MIN_WAIT`]). Closed-loop clients come straight back, so
//! the second member is the client the previous force released. Without
//! the wait, whether it is taken along is a race between the follower
//! the finishing leader wakes and that leader's next commit, and the
//! host's wake-up latency decides it: two clients on a 200 µs sync wrote
//! 5.4 or 6.5 KB of log per transaction depending on the minute they
//! ran. With it they share every force whichever way the race goes. A
//! batch of two or more never waits, so many clients keep the log disk
//! busy exactly as before.
//!
//! Correctness leans on two properties of [`LogManager`]: `durable_lsn()`
//! only advances to record *boundaries*, and only once the leader's
//! `sync()` has returned — a media write is volatile until then — so
//! `durable_lsn() > lsn` proves the whole record starting at `lsn` is on
//! stable storage. A follower whose record the leader's force covers is
//! therefore released by the leader's notify after the sync, not by the
//! write that precedes it.

use crate::log::{ForceStats, LogManager};
use qs_types::sync::{Condvar, Mutex};
use qs_types::{Lsn, QsResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A timed wait shorter than this cannot be kept (Linux rounds thread
/// wake-ups by a 50 µs timer slack), so when forces are faster than it
/// nobody waits for company: zero-latency media see no waits at all.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// Coalesces concurrent [`LogManager::force`] calls into batches.
#[derive(Debug, Default)]
pub struct GroupCommitter {
    state: Mutex<GroupState>,
    cv: Condvar,
    /// Commits that asked for durability through this committer.
    calls: AtomicU64,
    /// Forces that actually wrote (mean batch size = calls / forces).
    forces: AtomicU64,
}

#[derive(Debug, Default)]
struct GroupState {
    /// A leader is currently forcing.
    leader: bool,
    /// Highest LSN any committer so far needs durable.
    high: Lsn,
    /// Members of the forming batch: joined since the last force began
    /// and not yet absorbed.
    forming: u64,
    /// Forces begun. A member that joined under an older epoch has been
    /// taken into a batch and is no longer counted in `forming`.
    epoch: u64,
    /// Somebody besides its leader committed during the last writing
    /// force (in its batch or arriving while it ran).
    company: bool,
    /// How long that force took.
    force_time: Duration,
}

/// What one group-commit participation amounted to.
#[derive(Debug, Clone, Copy)]
pub struct GroupOutcome {
    /// The underlying force's stats — `wrote: false` for followers whose
    /// record was made durable by a leader (metered as a no-op force).
    pub stats: ForceStats,
    /// `Some(batch_size)` when this caller led a force; the size counts
    /// the members whose records that force was started for.
    pub led_batch: Option<u64>,
}

impl GroupCommitter {
    pub fn new() -> GroupCommitter {
        GroupCommitter::default()
    }

    /// Make the record starting at `lsn` durable, batching with any other
    /// committers in flight. Exactly one caller per batch drives the
    /// actual [`LogManager::force`], through the *highest* LSN its batch
    /// needs: every waiter whose record starts at or below that is durable
    /// afterwards (`durable_lsn() > lsn`, since `durable` only lands on
    /// record boundaries).
    pub fn force(&self, log: &LogManager, lsn: Lsn) -> QsResult<GroupOutcome> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        if st.high < lsn {
            st.high = lsn;
        }
        st.forming += 1;
        let joined = st.epoch;
        let mut deadline = None;
        loop {
            // Absorbed: a leader (earlier or concurrent) already covered us.
            if log.durable_lsn() > lsn {
                if joined == st.epoch {
                    st.forming -= 1;
                }
                return Ok(GroupOutcome {
                    stats: ForceStats { pages_written: 0, wrote: false },
                    led_batch: None,
                });
            }
            if st.leader {
                self.cv.wait(&mut st);
                continue;
            }
            if st.forming == 1 && st.company && st.force_time >= MIN_WAIT {
                let now = Instant::now();
                let until = *deadline.get_or_insert(now + st.force_time);
                if now < until {
                    self.cv.wait_timeout(&mut st, until - now);
                    // Company that came and leads a force releases us when
                    // the force is over, like any follower.
                    if st.leader {
                        self.cv.wait(&mut st);
                    }
                    continue;
                }
            }
            // Take leadership: force through the batch's high-water mark
            // with the group lock released, so later committers can join
            // the *next* batch while the disk syncs. A force that failed
            // leaves its members uncounted; one of them leads again.
            st.leader = true;
            st.epoch += 1;
            let target = st.high;
            let batch = std::mem::take(&mut st.forming).max(1);
            drop(st);
            let started = Instant::now();
            let res = log.force(target);
            let took = started.elapsed();
            let mut st = self.state.lock();
            st.leader = false;
            if matches!(res, Ok(ForceStats { wrote: true, .. })) {
                st.company = batch + st.forming > 1;
                st.force_time = took;
            }
            self.cv.notify_all();
            drop(st);
            let stats = res?;
            if stats.wrote {
                self.forces.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(GroupOutcome { stats, led_batch: Some(batch) });
        }
    }

    /// Commits that went through the committer.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Real (writing) forces the leaders performed.
    pub fn forces(&self) -> u64 {
        self.forces.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use qs_storage::{MemDisk, StableMedia};
    use qs_types::TxnId;
    use std::sync::Arc;

    fn commit_rec(t: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(t), prev: Lsn::NULL }
    }

    #[test]
    fn single_caller_leads_its_own_batch() {
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(1 << 16)));
        let log = LogManager::format(media as Arc<dyn StableMedia>, 1 << 16).unwrap();
        let gc = GroupCommitter::new();
        let lsn = log.append(&commit_rec(1)).unwrap();
        let out = gc.force(&log, lsn).unwrap();
        assert!(out.stats.wrote);
        assert_eq!(out.led_batch, Some(1));
        assert!(log.durable_lsn() > lsn);
        assert_eq!((gc.calls(), gc.forces()), (1, 1));
        // Already durable: absorbed without a force.
        let out2 = gc.force(&log, lsn).unwrap();
        assert!(!out2.stats.wrote);
        assert_eq!(out2.led_batch, None);
        assert_eq!((gc.calls(), gc.forces()), (2, 1));
    }

    #[test]
    fn concurrent_commits_batch_into_few_forces() {
        // A slow log sync gives followers time to pile up behind a leader.
        const K: usize = 8;
        let media = Arc::new(MemDisk::with_sync_latency(
            LogManager::required_bytes(1 << 18),
            Duration::from_millis(5),
        ));
        let log = Arc::new(LogManager::format(media as Arc<dyn StableMedia>, 1 << 18).unwrap());
        let gc = Arc::new(GroupCommitter::new());
        let handles: Vec<_> = (0..K)
            .map(|i| {
                let log = Arc::clone(&log);
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || {
                    let lsn = log.append(&commit_rec(i as u64)).unwrap();
                    let out = gc.force(&log, lsn).unwrap();
                    (lsn, out)
                })
            })
            .collect();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (lsn, _) in &outs {
            assert!(log.durable_lsn() > *lsn, "every commit durable");
        }
        let forces = gc.forces();
        assert!(forces >= 1 && forces <= K as u64, "got {forces} forces");
        assert_eq!(gc.calls(), K as u64);
        let led: u64 = outs.iter().filter_map(|(_, o)| o.led_batch).count() as u64;
        let wrote: u64 = outs.iter().filter(|(_, o)| o.stats.wrote).count() as u64;
        assert_eq!(wrote, forces, "exactly the writing leaders counted");
        assert!(led >= wrote, "every writing force had a leader");
    }

    /// A log whose sync takes `sync` of wall time.
    fn slow_log(sync: Duration) -> Arc<LogManager> {
        let media = Arc::new(MemDisk::with_sync_latency(LogManager::required_bytes(1 << 18), sync));
        Arc::new(LogManager::format(media as Arc<dyn StableMedia>, 1 << 18).unwrap())
    }

    #[test]
    fn lone_committer_is_never_made_to_wait() {
        let log = slow_log(Duration::from_millis(1));
        let gc = GroupCommitter::new();
        for t in 0..5 {
            let lsn = log.append(&commit_rec(t)).unwrap();
            assert_eq!(gc.force(&log, lsn).unwrap().led_batch, Some(1));
            let st = gc.state.lock();
            // Nobody else was around, so the next commit will not wait.
            assert_eq!((st.company, st.forming), (false, 0));
            assert!(st.force_time >= Duration::from_millis(1));
        }
        assert_eq!((gc.calls(), gc.forces()), (5, 5));
    }

    #[test]
    fn closed_loop_pair_shares_every_force_and_a_leaver_costs_one_wait() {
        // Two clients that think for 200 µs between commits: longer than
        // a thread wake-up, so a follower woken by the finishing leader
        // is ready to force long before that leader commits again, and
        // without the wait every commit gets a force of its own. With it
        // the woken follower waits for the other client, which is back
        // well within one 2 ms force: one force per two commits.
        // (No think time would hide the difference: the finishing leader
        // then always commits again before the follower has woken.)
        const N: u64 = 50;
        let think = || {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
        };
        let log = slow_log(Duration::from_millis(2));
        let gc = Arc::new(GroupCommitter::new());
        let clients: Vec<_> = (0..2)
            .map(|c| {
                let (log, gc) = (Arc::clone(&log), Arc::clone(&gc));
                std::thread::spawn(move || {
                    for t in 0..N {
                        think();
                        let lsn = log.append(&commit_rec(c * N + t)).unwrap();
                        gc.force(&log, lsn).unwrap();
                        assert!(log.durable_lsn() > lsn);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert_eq!(gc.calls(), 2 * N);
        // 50 shared forces plus start-up; the slack allows a few stalls
        // longer than a force (each costs one extra force).
        assert!(gc.forces() <= 60, "{} forces for {} commits", gc.forces(), 2 * N);
        assert_eq!(gc.state.lock().forming, 0, "every member left its batch");

        // One client left. The other waits for it once, bounded by one
        // force time, then expects nobody.
        for t in 0..2 {
            let lsn = log.append(&commit_rec(2 * N + t)).unwrap();
            assert_eq!(gc.force(&log, lsn).unwrap().led_batch, Some(1));
        }
        assert!(!gc.state.lock().company);
    }
}
