//! Hierarchical lock manager: pages and records.
//!
//! ESM historically did page-level two-phase locking (the paper notes it
//! does *not* support fine-granularity locking, unlike ARIES/CSA — and
//! that a memory-mapped store is inherently page-based anyway). The
//! logical-recovery scheme (DESIGN.md §6e) needs record locks, so the
//! manager now keys its tables by [`Resource`] — `Page(pid)` or
//! `Record(pid, slot)` — with the classic granularity protocol: a record
//! lock is preceded by an *intention* lock (`IS`/`IX`) on its page, and
//! the conflict matrix makes intention modes compatible with each other
//! but an `X` page lock conflict with everything. Callers that only ever
//! take page locks see behavior bit-identical to the old flat manager:
//! page mode = plain `S`/`X`, no intents taken, same grant order.
//!
//! Modes are IS/IX/S/X with upgrade (the supremum of `S` and `IX` is `X`
//! — no SIX mode, conservatively); waiters queue FIFO; deadlocks are
//! detected eagerly by a waits-for-graph cycle check at block time and
//! resolved by aborting the requester. The waits-for graph is keyed by
//! transaction, so cycles spanning page *and* record resources (mixed
//! granularity) are detected the same way.
//!
//! Locks are *not* cached across transactions ("inter-transaction caching
//! of locks at clients is not supported") — the client releases everything
//! at commit/abort via [`LockManager::release_all`].

use qs_types::sync::{Condvar, Mutex};
use qs_types::{PageId, QsError, QsResult, TxnId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Lock modes. `S` for reads, `X` for updates; `IS`/`IX` are page-level
/// intention modes taken on behalf of record-level `S`/`X` locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Intention shared: some record of this page is (to be) S-locked.
    IS,
    /// Intention exclusive: some record of this page is (to be) X-locked.
    IX,
    S,
    X,
}

impl LockMode {
    /// The symmetric conflict matrix (Gray's granularity hierarchy, minus
    /// SIX): intention modes coexist with each other; `IS` also coexists
    /// with `S`; `X` coexists with nothing.
    fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IS, IS) | (IS, IX) | (IX, IS) | (IX, IX) | (IS, S) | (S, IS) | (S, S)
        )
    }

    /// Does holding `self` subsume the rights `other` grants? A partial
    /// order: `X` covers everything, `S` and `IX` each cover `IS`.
    fn covers(self, other: LockMode) -> bool {
        use LockMode::*;
        self == other || matches!((self, other), (X, _) | (S, IS) | (IX, IS))
    }

    /// Supremum of two held/requested modes: the weakest single mode that
    /// covers both. `S ∨ IX = X` (no SIX mode — conservative, and
    /// unreachable from page-only histories).
    fn combine(self, other: LockMode) -> LockMode {
        if self.covers(other) {
            self
        } else if other.covers(self) {
            other
        } else {
            LockMode::X
        }
    }

    /// The page-level intention mode a record lock of this mode requires.
    fn intent(self) -> LockMode {
        match self {
            LockMode::S | LockMode::IS => LockMode::IS,
            LockMode::X | LockMode::IX => LockMode::IX,
        }
    }
}

/// What a lock request names: a whole page, or one record (slot) of a
/// page. Page-granularity callers use `Page`; the record path takes an
/// intention lock on `Page(pid)` and then the `Record` lock itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    Page(PageId),
    Record(PageId, u16),
}

impl Resource {
    /// The page this resource lives on (the record's page for `Record`).
    pub fn page(self) -> PageId {
        match self {
            Resource::Page(p) | Resource::Record(p, _) => p,
        }
    }

    /// Dense encoding for trace events (`page << 16 | slot + 1`; low 16
    /// bits zero for a whole-page resource). Lock-wait traces carry this
    /// instead of a bare page id so record-level waits are attributable.
    pub fn trace_code(self) -> u64 {
        match self {
            Resource::Page(p) => (p.0 as u64) << 16,
            Resource::Record(p, s) => (p.0 as u64) << 16 | (s as u64 + 1),
        }
    }
}

impl From<PageId> for Resource {
    fn from(p: PageId) -> Resource {
        Resource::Page(p)
    }
}

/// A blocked request: the thread that made it sleeps on the manager's
/// condvar until it reaches the queue head.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct LockEntry {
    /// Current holders and their granted mode.
    holders: HashMap<TxnId, LockMode>,
    /// FIFO wait queue.
    waiters: VecDeque<Waiter>,
}

impl LockEntry {
    /// Can a *non-holder* acquire `mode` alongside the current holders?
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders.iter().all(|(&h, &hm)| h == txn || hm.compatible(mode))
    }

    /// Can a holder of `held` move to `goal` (no-op included)?
    fn upgradable(&self, txn: TxnId, held: LockMode, goal: LockMode) -> bool {
        goal == held || self.holders.iter().all(|(&h, &hm)| h == txn || hm.compatible(goal))
    }
}

#[derive(Default)]
struct LockTables {
    locks: HashMap<Resource, LockEntry>,
    /// Resources each transaction holds (for O(held) release).
    held: HashMap<TxnId, HashSet<Resource>>,
    /// waits-for edges (waiter → holders), for deadlock detection. Keyed
    /// by transaction, so page/record (mixed-granularity) cycles are one
    /// graph.
    waits_for: HashMap<TxnId, HashSet<TxnId>>,
}

impl LockTables {
    fn would_deadlock(&self, from: TxnId) -> bool {
        // DFS over waits-for edges looking for a cycle back to `from`.
        let mut stack: Vec<TxnId> =
            self.waits_for.get(&from).into_iter().flatten().copied().collect();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == from {
                return true;
            }
            if seen.insert(t) {
                if let Some(next) = self.waits_for.get(&t) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }
}

/// The server's lock manager.
pub struct LockManager {
    tables: Mutex<LockTables>,
    wakeup: Condvar,
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager { tables: Mutex::new(LockTables::default()), wakeup: Condvar::new() }
    }

    /// Acquire `mode` on `res` for `txn`, blocking until granted.
    /// Returns `Err(LockConflict)` if waiting would deadlock.
    ///
    /// Grants hand off FIFO: a waiter stays queued across wakeups and is
    /// granted only once it reaches the head of the queue (or everyone
    /// queued is compatible). Dequeue-then-recheck — the old protocol —
    /// live-locks with ≥3 contenders: each woken waiter sees the *others*
    /// still queued, requeues itself, and sleeps again with the lock free.
    pub fn lock(&self, txn: TxnId, res: Resource, mode: LockMode) -> QsResult<()> {
        self.lock_observing(txn, res, mode).map(|_waited| ())
    }

    /// [`LockManager::lock`] for a possibly record-granularity resource:
    /// page intention first, then the record lock (blocking at either
    /// step; the waits-for graph covers both).
    pub fn lock_resource(&self, txn: TxnId, res: Resource, mode: LockMode) -> QsResult<bool> {
        let mut waited = false;
        if let Resource::Record(pid, _) = res {
            waited |= self.lock_observing(txn, Resource::Page(pid), mode.intent())?;
        }
        waited |= self.lock_observing(txn, res, mode)?;
        Ok(waited)
    }

    /// [`LockManager::lock`], additionally reporting whether the request
    /// had to queue behind a conflicting holder (`Ok(true)` = it waited).
    /// The tracing layer uses this to count lock waits without a second
    /// trip into the lock tables.
    pub fn lock_observing(&self, txn: TxnId, res: Resource, mode: LockMode) -> QsResult<bool> {
        let mut t = self.tables.lock();
        let mut queued = false;
        loop {
            let entry = t.locks.entry(res).or_default();
            if let Some(&held) = entry.holders.get(&txn) {
                // Re-entrant / upgrade handling. Upgrades bypass the queue;
                // an upgrade blocked by co-holders falls through and waits.
                let goal = held.combine(mode);
                if entry.upgradable(txn, held, goal) {
                    if goal != held {
                        entry.holders.insert(txn, goal);
                    }
                    if queued {
                        entry.waiters.retain(|w| w.txn != txn);
                    }
                    t.waits_for.remove(&txn);
                    return Ok(queued);
                }
            } else {
                let may_pass = match entry.waiters.front() {
                    None => true,
                    Some(&head) => {
                        head.txn == txn || entry.waiters.iter().all(|w| w.mode.compatible(mode))
                    }
                };
                if entry.grantable(txn, mode) && may_pass {
                    if queued {
                        entry.waiters.retain(|w| w.txn != txn);
                    }
                    entry.holders.insert(txn, mode);
                    t.held.entry(txn).or_default().insert(res);
                    t.waits_for.remove(&txn);
                    return Ok(queued);
                }
            }

            // Must wait. Queue up once, record waits-for edges, check for a
            // cycle; edges are rebuilt fresh on every wakeup.
            if !queued {
                t.locks.entry(res).or_default().waiters.push_back(Waiter { txn, mode });
                queued = true;
            }
            let holders: Vec<TxnId> =
                t.locks[&res].holders.keys().copied().filter(|&h| h != txn).collect();
            t.waits_for.entry(txn).or_default().extend(holders);
            if t.would_deadlock(txn) {
                t.waits_for.remove(&txn);
                if let Some(e) = t.locks.get_mut(&res) {
                    e.waiters.retain(|w| w.txn != txn);
                }
                let holder = t.locks[&res].holders.keys().copied().next().unwrap_or(TxnId::INVALID);
                // Our departure may have made the next waiter the head.
                drop(t);
                self.wakeup.notify_all();
                return Err(QsError::LockConflict { page: res.page(), holder, requester: txn });
            }
            self.wakeup.wait(&mut t);
            t.waits_for.remove(&txn);
        }
    }

    /// Non-blocking acquire; `Err(LockConflict)` on any conflict.
    pub fn try_lock(&self, txn: TxnId, res: Resource, mode: LockMode) -> QsResult<()> {
        let mut t = self.tables.lock();
        let entry = t.locks.entry(res).or_default();
        if let Some(&held) = entry.holders.get(&txn) {
            let goal = held.combine(mode);
            if goal == held {
                return Ok(());
            }
            if entry.upgradable(txn, held, goal) {
                entry.holders.insert(txn, goal);
                return Ok(());
            }
        } else if entry.grantable(txn, mode) && entry.waiters.is_empty() {
            entry.holders.insert(txn, mode);
            t.held.entry(txn).or_default().insert(res);
            return Ok(());
        }
        let holder = entry.holders.keys().copied().next().unwrap_or(TxnId::INVALID);
        Err(QsError::LockConflict { page: res.page(), holder, requester: txn })
    }

    /// Does `txn` hold at least `mode` on `res`? (Coverage order: `X`
    /// implies everything, `S` and `IX` each imply `IS`.)
    pub fn holds(&self, txn: TxnId, res: Resource, mode: LockMode) -> bool {
        let t = self.tables.lock();
        match t.locks.get(&res).and_then(|e| e.holders.get(&txn)) {
            Some(&held) => held.covers(mode),
            None => false,
        }
    }

    /// Release every lock `txn` holds (commit/abort — strict 2PL) and wake
    /// the blocked threads: each re-checks its own request.
    pub fn release_all(&self, txn: TxnId) {
        let mut t = self.tables.lock();
        if let Some(resources) = t.held.remove(&txn) {
            for res in resources {
                if let Some(e) = t.locks.get_mut(&res) {
                    e.holders.remove(&txn);
                    if e.holders.is_empty() && e.waiters.is_empty() {
                        t.locks.remove(&res);
                    }
                }
            }
        }
        t.waits_for.remove(&txn);
        drop(t);
        self.wakeup.notify_all();
    }

    /// Requests queued behind a conflicting holder, over every resource
    /// (test hook: a test polls it to know a thread is blocked).
    pub fn queued_waiters(&self) -> usize {
        self.tables.lock().locks.values().map(|e| e.waiters.len()).sum()
    }

    /// Number of resources (pages and records) currently locked by anyone
    /// (test hook).
    pub fn locked_resources(&self) -> usize {
        self.tables.lock().locks.len()
    }

    /// Renamed: a "page" count stopped being accurate once record
    /// resources joined the table.
    #[deprecated(note = "renamed to locked_resources")]
    pub fn locked_pages(&self) -> usize {
        self.locked_resources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const P: Resource = Resource::Page(PageId(1));

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), P, LockMode::S).unwrap();
        lm.lock(TxnId(2), P, LockMode::S).unwrap();
        assert!(lm.holds(TxnId(1), P, LockMode::S));
        assert!(lm.holds(TxnId(2), P, LockMode::S));
    }

    #[test]
    fn exclusive_conflicts_detected_by_try_lock() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), P, LockMode::X).unwrap();
        assert!(matches!(lm.try_lock(TxnId(2), P, LockMode::S), Err(QsError::LockConflict { .. })));
        lm.release_all(TxnId(1));
        lm.try_lock(TxnId(2), P, LockMode::S).unwrap();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), P, LockMode::S).unwrap();
        lm.lock(TxnId(1), P, LockMode::S).unwrap(); // re-entrant
        lm.lock(TxnId(1), P, LockMode::X).unwrap(); // sole-holder upgrade
        assert!(lm.holds(TxnId(1), P, LockMode::X));
        // X implies S.
        assert!(lm.holds(TxnId(1), P, LockMode::S));
    }

    #[test]
    fn conflict_matrix_is_symmetric_and_correct() {
        use LockMode::*;
        let modes = [IS, IX, S, X];
        for &a in &modes {
            for &b in &modes {
                assert_eq!(a.compatible(b), b.compatible(a), "{a:?} vs {b:?}");
            }
        }
        // The exact matrix, row by row.
        assert!(IS.compatible(IS) && IS.compatible(IX) && IS.compatible(S) && !IS.compatible(X));
        assert!(IX.compatible(IS) && IX.compatible(IX) && !IX.compatible(S) && !IX.compatible(X));
        assert!(S.compatible(IS) && !S.compatible(IX) && S.compatible(S) && !S.compatible(X));
        assert!(!X.compatible(IS) && !X.compatible(IX) && !X.compatible(S) && !X.compatible(X));
    }

    #[test]
    fn combine_is_a_supremum() {
        use LockMode::*;
        for &a in &[IS, IX, S, X] {
            for &b in &[IS, IX, S, X] {
                let c = a.combine(b);
                assert!(c.covers(a) && c.covers(b), "{a:?} ∨ {b:?} = {c:?}");
                assert_eq!(c, b.combine(a), "commutative");
            }
        }
        assert_eq!(S.combine(IX), X, "no SIX: S ∨ IX escalates to X");
        assert_eq!(IS.combine(IX), IX);
        assert_eq!(IS.combine(S), S);
    }

    #[test]
    fn record_locks_take_page_intents() {
        let lm = LockManager::new();
        let r0 = Resource::Record(PageId(1), 0);
        let r1 = Resource::Record(PageId(1), 1);
        assert!(!lm.lock_resource(TxnId(1), r0, LockMode::X).unwrap());
        assert!(!lm.lock_resource(TxnId(2), r1, LockMode::X).unwrap(), "distinct slots coexist");
        assert!(lm.holds(TxnId(1), P, LockMode::IX));
        assert!(lm.holds(TxnId(2), P, LockMode::IX));
        assert!(lm.holds(TxnId(1), r0, LockMode::X));
        // Same slot conflicts.
        assert!(matches!(
            lm.try_lock(TxnId(2), r0, LockMode::S),
            Err(QsError::LockConflict { .. })
        ));
        // A whole-page X conflicts with the outstanding intents.
        assert!(matches!(lm.try_lock(TxnId(3), P, LockMode::X), Err(QsError::LockConflict { .. })));
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(2));
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn page_x_blocks_record_intent() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), P, LockMode::X).unwrap();
        let r = Resource::Record(PageId(1), 3);
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || {
            let waited = lm2.lock_resource(TxnId(2), r, LockMode::S).unwrap();
            lm2.release_all(TxnId(2));
            waited
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        lm.release_all(TxnId(1));
        assert!(h.join().unwrap(), "record lock had to wait for the page X");
    }

    #[test]
    fn release_all_clears_table() {
        let lm = LockManager::new();
        lm.lock(TxnId(1), Resource::Page(PageId(1)), LockMode::X).unwrap();
        lm.lock(TxnId(1), Resource::Page(PageId(2)), LockMode::S).unwrap();
        assert_eq!(lm.locked_resources(), 2);
        lm.release_all(TxnId(1));
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn blocking_lock_granted_after_release() {
        let lm = Arc::new(LockManager::new());
        lm.lock(TxnId(1), P, LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || {
            lm2.lock(TxnId(2), P, LockMode::X).unwrap();
            lm2.release_all(TxnId(2));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        lm.release_all(TxnId(1));
        h.join().unwrap();
    }

    #[test]
    fn deadlock_detected() {
        let lm = Arc::new(LockManager::new());
        let (pa, pb) = (Resource::Page(PageId(10)), Resource::Page(PageId(11)));
        lm.lock(TxnId(1), pa, LockMode::X).unwrap();
        lm.lock(TxnId(2), pb, LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        // T2 blocks on pa (held by T1).
        let h = std::thread::spawn(move || {
            let r = lm2.lock(TxnId(2), pa, LockMode::X);
            lm2.release_all(TxnId(2));
            r
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // T1 → pb creates the cycle: one of the two must get LockConflict.
        let r1 = lm.lock(TxnId(1), pb, LockMode::X);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(r1.is_err() || r2.is_err(), "deadlock must be detected on at least one side");
    }

    #[test]
    fn mixed_granularity_deadlock_detected() {
        // T1 holds record (p, 0); T2 holds page q in X. T2 blocks on the
        // record, then T1 closing the cycle on page q must be denied.
        let lm = Arc::new(LockManager::new());
        let r = Resource::Record(PageId(30), 0);
        let q = Resource::Page(PageId(31));
        lm.lock_resource(TxnId(1), r, LockMode::X).unwrap();
        lm.lock(TxnId(2), q, LockMode::X).unwrap();
        let lm2 = Arc::clone(&lm);
        let h = std::thread::spawn(move || {
            let res = lm2.lock_resource(TxnId(2), r, LockMode::X);
            lm2.release_all(TxnId(2));
            res
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r1 = lm.lock(TxnId(1), q, LockMode::X);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "page/record cycle must be detected on at least one side"
        );
    }

    #[test]
    fn concurrent_disjoint_workloads_race_free() {
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let p = Resource::Page(PageId(t as u32 * 1000 + i));
                    lm.lock(TxnId(t), p, LockMode::X).unwrap();
                }
                lm.release_all(TxnId(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.locked_resources(), 0);
    }

    #[test]
    fn concurrent_record_writers_on_one_page_race_free() {
        // Eight transactions hammer distinct slots of the same page: the
        // IX intents are all compatible, so nothing deadlocks or waits
        // indefinitely, and the table drains clean.
        let lm = Arc::new(LockManager::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let lm = Arc::clone(&lm);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u16 {
                    let r = Resource::Record(PageId(7), t as u16 * 64 + i);
                    lm.lock_resource(TxnId(t), r, LockMode::X).unwrap();
                }
                lm.release_all(TxnId(t));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.locked_resources(), 0);
    }
}
