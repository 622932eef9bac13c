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
use qs_types::{IdMap, IdSet, PageId, QsError, QsResult, TxnId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

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

/// Who holds a lock, and in which mode, in grant order. Almost every
/// entry has exactly one holder, kept inline, so making an entry costs no
/// allocation; co-holders of a shared lock queue behind it.
#[derive(Debug, Default)]
struct Holders {
    first: Option<(TxnId, LockMode)>,
    /// Empty whenever `first` is.
    rest: Vec<(TxnId, LockMode)>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    /// Move holder `txn` to `mode`.
    fn set(&mut self, txn: TxnId, mode: LockMode) {
        if let Some(held) = self.first.iter_mut().chain(&mut self.rest).find(|(h, _)| *h == txn) {
            held.1 = mode;
        }
    }

    fn push(&mut self, txn: TxnId, mode: LockMode) {
        match self.first {
            None => self.first = Some((txn, mode)),
            Some(_) => self.rest.push((txn, mode)),
        }
    }

    fn remove(&mut self, txn: TxnId) {
        if self.first.is_some_and(|(h, _)| h == txn) {
            self.first = (!self.rest.is_empty()).then(|| self.rest.remove(0));
        } else {
            self.rest.retain(|&(h, _)| h != txn);
        }
    }
}

#[derive(Debug, Default)]
struct LockEntry {
    holders: Holders,
    /// FIFO wait queue.
    waiters: VecDeque<Waiter>,
}

impl LockEntry {
    /// The mode `txn` holds here, if any.
    fn held_by(&self, txn: TxnId) -> Option<LockMode> {
        self.holders.iter().find(|&(h, _)| h == txn).map(|(_, m)| m)
    }

    /// Can a *non-holder* acquire `mode` alongside the current holders?
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders.iter().all(|(h, hm)| h == txn || hm.compatible(mode))
    }

    /// Can a holder of `held` move to `goal` (no-op included)?
    fn upgradable(&self, txn: TxnId, held: LockMode, goal: LockMode) -> bool {
        goal == held || self.grantable(txn, goal)
    }

    /// Any holder other than `txn` (the one a denial names).
    fn other_holder(&self, txn: TxnId) -> TxnId {
        self.holders.iter().map(|(h, _)| h).find(|&h| h != txn).unwrap_or(TxnId::INVALID)
    }

    fn is_empty(&self) -> bool {
        self.holders.first.is_none() && self.waiters.is_empty()
    }
}

/// The lock tables, every one keyed by an id the program assigns
/// (`qs_types::hash`). An entry leaves its table when it empties, and the
/// table's storage serves the next; a finished transaction's held list is
/// kept for the next transaction. So one that never waits takes and
/// releases its locks without touching the allocator.
#[derive(Default)]
struct LockTables {
    locks: IdMap<Resource, LockEntry>,
    /// Resources each transaction holds, in grant order (for O(held)
    /// release). A resource is listed once: re-grants and upgrades find
    /// the transaction among the holders first.
    held: IdMap<TxnId, Vec<Resource>>,
    /// waits-for edges (waiter → holders), for deadlock detection. Keyed
    /// by transaction, so page/record (mixed-granularity) cycles are one
    /// graph.
    waits_for: IdMap<TxnId, IdSet<TxnId>>,
    /// Requests queued over every entry: the sleepers a release may have
    /// to wake.
    queued: usize,
    /// Finished transactions' held lists, emptied.
    spare_held: Vec<Vec<Resource>>,
}

impl LockTables {
    /// `txn` was just granted `res` as a new holder.
    fn note_held(&mut self, txn: TxnId, res: Resource) {
        let spares = &mut self.spare_held;
        self.held.entry(txn).or_insert_with(|| spares.pop().unwrap_or_default()).push(res);
    }

    /// Take `txn`'s queued request off `res`'s queue.
    fn dequeue(&mut self, txn: TxnId, res: Resource) {
        if let Some(e) = self.locks.get_mut(&res) {
            let before = e.waiters.len();
            e.waiters.retain(|w| w.txn != txn);
            self.queued -= before - e.waiters.len();
        }
    }

    /// Drop `txn` from every entry it holds, removing those it leaves
    /// empty, and keep its held list as a spare.
    fn release(&mut self, txn: TxnId) {
        if let Some(mut resources) = self.held.remove(&txn) {
            for &res in &resources {
                if let Entry::Occupied(mut e) = self.locks.entry(res) {
                    e.get_mut().holders.remove(txn);
                    if e.get().is_empty() {
                        e.remove();
                    }
                }
            }
            resources.clear();
            self.spare_held.push(resources);
        }
        self.waits_for.remove(&txn);
    }

    fn would_deadlock(&self, from: TxnId) -> bool {
        // DFS over waits-for edges looking for a cycle back to `from`.
        let mut stack: Vec<TxnId> =
            self.waits_for.get(&from).into_iter().flatten().copied().collect();
        let mut seen = IdSet::default();
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
            if let Some(held) = entry.held_by(txn) {
                // Re-entrant / upgrade handling. Upgrades bypass the queue;
                // an upgrade blocked by co-holders falls through and waits.
                let goal = held.combine(mode);
                if entry.upgradable(txn, held, goal) {
                    entry.holders.set(txn, goal);
                    if queued {
                        t.dequeue(txn, res);
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
                    entry.holders.push(txn, mode);
                    if queued {
                        t.dequeue(txn, res);
                    }
                    t.note_held(txn, res);
                    t.waits_for.remove(&txn);
                    return Ok(queued);
                }
            }

            // Must wait. Queue up once, record waits-for edges, check for a
            // cycle; edges are rebuilt fresh on every wakeup.
            if !queued {
                t.locks.entry(res).or_default().waiters.push_back(Waiter { txn, mode });
                t.queued += 1;
                queued = true;
            }
            let holders: Vec<TxnId> =
                t.locks[&res].holders.iter().map(|(h, _)| h).filter(|&h| h != txn).collect();
            t.waits_for.entry(txn).or_default().extend(holders);
            if t.would_deadlock(txn) {
                t.waits_for.remove(&txn);
                t.dequeue(txn, res);
                let holder = t.locks[&res].other_holder(txn);
                if t.locks[&res].is_empty() {
                    t.locks.remove(&res);
                }
                // Our departure may have made the next waiter the head.
                let wake = t.queued > 0;
                drop(t);
                if wake {
                    self.wakeup.notify_all();
                }
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
        if let Some(held) = entry.held_by(txn) {
            let goal = held.combine(mode);
            if entry.upgradable(txn, held, goal) {
                entry.holders.set(txn, goal);
                return Ok(());
            }
        } else if entry.grantable(txn, mode) && entry.waiters.is_empty() {
            entry.holders.push(txn, mode);
            t.note_held(txn, res);
            return Ok(());
        }
        let holder = entry.other_holder(txn);
        Err(QsError::LockConflict { page: res.page(), holder, requester: txn })
    }

    /// Does `txn` hold at least `mode` on `res`? (Coverage order: `X`
    /// implies everything, `S` and `IX` each imply `IS`.)
    pub fn holds(&self, txn: TxnId, res: Resource, mode: LockMode) -> bool {
        let t = self.tables.lock();
        match t.locks.get(&res).and_then(|e| e.held_by(txn)) {
            Some(held) => held.covers(mode),
            None => false,
        }
    }

    /// Release every lock `txn` holds (commit/abort — strict 2PL); its held
    /// list goes back to the spares. If any request is queued the blocked
    /// threads are woken, each to re-check its own request; with none, no
    /// wakeup is made (std's condvar makes one system call per
    /// `notify_all`, sleeper or not).
    pub fn release_all(&self, txn: TxnId) {
        let mut t = self.tables.lock();
        t.release(txn);
        let wake = t.queued > 0;
        drop(t);
        if wake {
            self.wakeup.notify_all();
        }
    }

    /// Requests queued behind a conflicting holder, over every resource
    /// (test hook: a test polls it to know a thread is blocked).
    pub fn queued_waiters(&self) -> usize {
        self.tables.lock().queued
    }

    /// Number of resources (pages and records) currently locked by anyone
    /// (test hook).
    pub fn locked_resources(&self) -> usize {
        self.tables.lock().locks.len()
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
    fn a_seeded_history_drains_the_tables_and_reuses_their_storage() {
        // 10 000 steps over four transactions, eight pages and four slots
        // each: grants, upgrades and releases, page and record resources
        // mixed. `try_lock` never blocks, so one thread drives it all.
        let lm = LockManager::new();
        let mut rng = qs_prng::Prng::seed_from_u64(47);
        let mut peak = 0usize;
        for _ in 0..10_000 {
            let txn = TxnId(1 + rng.gen_below(4));
            let pid = PageId(rng.gen_below(8) as u32);
            match rng.gen_below(8) {
                0 => lm.release_all(txn),
                1..=3 => {
                    let _ = lm.try_lock(txn, Resource::Page(pid), LockMode::S);
                    let _ = lm.try_lock(txn, Resource::Page(pid), LockMode::X);
                }
                _ => {
                    let rec = Resource::Record(pid, rng.gen_below(4) as u16);
                    let mode = if rng.gen_bool(0.5) { LockMode::S } else { LockMode::X };
                    if lm.try_lock(txn, Resource::Page(pid), mode.intent()).is_ok() {
                        let _ = lm.try_lock(txn, rec, mode);
                    }
                }
            }
            peak = peak.max(lm.locked_resources());
        }
        for txn in 1..=4 {
            lm.release_all(TxnId(txn));
        }
        assert_eq!(lm.locked_resources(), 0);
        assert_eq!(lm.queued_waiters(), 0);
        let t = lm.tables.lock();
        assert!(t.held.is_empty() && t.waits_for.is_empty());
        // Each transaction's held list was handed on, not dropped.
        assert!(peak > 8, "the history must lock records as well as pages");
        assert!(t.spare_held.len() <= 4 && t.spare_held.iter().all(|h| h.capacity() > 0));
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
