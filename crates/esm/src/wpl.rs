//! The server-side machinery of whole-page logging (paper §3.4).
//!
//! The WPL table tracks pages whose latest images live in the log rather
//! than at their permanent disk locations. The paper implements it as a
//! hash table whose entries carry `(PID, LSN, TID, status)` plus a pointer
//! to the entry for a previously-logged copy of the same page; we model the
//! pointer chain as an explicit version stack per page (oldest → newest),
//! which is functionally identical and much easier to reason about. Beside
//! it sits the paper's per-transaction list of logged pages. Restart
//! rebuilds the table with the calls normal running makes (§3.4.3).
//!
//! Space-reuse rules implemented exactly as §3.4.2 describes:
//! * a logged copy can be dropped once it has been read back and written to
//!   its permanent location;
//! * a copy `C1` can also be dropped when a *newer committed* copy `C2` of
//!   the same page exists ("following a crash C2 will be used") — but both
//!   must be retained until C2's transaction commits.

use qs_types::{IdMap, Lsn, PageId, TxnId};
use qs_wal::WplCheckpointEntry;

/// One logged copy of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WplVersion {
    /// LSN of the `WholePage` record holding the image.
    pub lsn: Lsn,
    /// Transaction that dirtied the page.
    pub txn: TxnId,
    /// Has that transaction committed?
    pub committed: bool,
}

/// The WPL table.
#[derive(Debug, Default)]
pub struct WplTable {
    /// Versions per page, oldest first (the paper's prev-pointer chain).
    pages: IdMap<PageId, Vec<WplVersion>>,
    /// Per open transaction, the pages it logged images of.
    logged: IdMap<TxnId, Vec<PageId>>,
}

impl WplTable {
    pub fn new() -> WplTable {
        WplTable::default()
    }

    /// A new image of `page` was appended to the log at `lsn` by `txn`.
    pub fn log_page(&mut self, page: PageId, lsn: Lsn, txn: TxnId) {
        let versions = self.pages.entry(page).or_default();
        // A transaction re-shipping the same page within one transaction
        // supersedes its own uncommitted image immediately: only the newest
        // matters for both re-reads and post-commit recovery. The page is
        // on the transaction's list already.
        let before = versions.len();
        versions.retain(|v| v.txn != txn || v.committed);
        if versions.len() == before {
            self.logged.entry(txn).or_default().push(page);
        }
        versions.push(WplVersion { lsn, txn, committed: false });
    }

    /// Commit processing: walk the transaction's logged-page list, mark its
    /// versions committed, and drop versions superseded by the newly
    /// committed copies (rule C1/C2).
    pub fn on_commit(&mut self, txn: TxnId) {
        for page in self.logged.remove(&txn).unwrap_or_default() {
            if let Some(versions) = self.pages.get_mut(&page) {
                for v in versions.iter_mut() {
                    if v.txn == txn {
                        v.committed = true;
                    }
                }
                Self::drop_superseded(versions);
            }
        }
    }

    /// Abort processing, first step: take the pages `txn` logged images of,
    /// for [`WplTable::on_abort`] to drop one at a time.
    pub fn take_logged(&mut self, txn: TxnId) -> Vec<PageId> {
        self.logged.remove(&txn).unwrap_or_default()
    }

    /// Abort processing, one logged page at a time: the transaction's
    /// uncommitted image of `page` is garbage.
    pub fn on_abort(&mut self, txn: TxnId, page: PageId) {
        if let Some(versions) = self.pages.get_mut(&page) {
            versions.retain(|v| v.txn != txn || v.committed);
            if versions.is_empty() {
                self.pages.remove(&page);
            }
        }
    }

    /// Keep only versions still needed: everything from the newest
    /// committed version onward (older committed copies are superseded;
    /// newer uncommitted copies are still needed for same-txn re-reads).
    fn drop_superseded(versions: &mut Vec<WplVersion>) {
        if let Some(newest_committed) = versions.iter().rposition(|v| v.committed) {
            versions.drain(..newest_committed);
        }
    }

    /// The newest logged version of `page` (committed or not) — the copy a
    /// server read should see, subject to locking.
    pub fn newest(&self, page: PageId) -> Option<&WplVersion> {
        self.pages.get(&page).and_then(|v| v.last())
    }

    /// The newest *committed* version of `page`.
    pub fn newest_committed(&self, page: PageId) -> Option<&WplVersion> {
        self.pages.get(&page).and_then(|v| v.iter().rev().find(|v| v.committed))
    }

    /// Remove a specific version once its image has been written to the
    /// permanent location (or is superseded). Cleans up empty chains.
    pub fn remove_version(&mut self, page: PageId, lsn: Lsn) {
        if let Some(versions) = self.pages.get_mut(&page) {
            versions.retain(|v| v.lsn != lsn);
            if versions.is_empty() {
                self.pages.remove(&page);
            }
        }
    }

    /// Oldest LSN still referenced (log-truncation bound), if any.
    pub fn min_needed_lsn(&self) -> Option<Lsn> {
        self.pages.values().flat_map(|v| v.iter().map(|v| v.lsn)).min()
    }

    /// The reclaim thread's next candidate: the *oldest committed* version
    /// in the table. Returns `(page, lsn, superseded)` where `superseded`
    /// means a newer committed version exists and the image need not be
    /// written out at all.
    pub fn reclaim_candidate(&self) -> Option<(PageId, Lsn, bool)> {
        let mut best: Option<(PageId, Lsn, bool)> = None;
        for (&page, versions) in &self.pages {
            let newest_committed = versions.iter().rev().find(|v| v.committed);
            for v in versions.iter().filter(|v| v.committed) {
                let superseded = newest_committed.map(|nc| nc.lsn > v.lsn).unwrap_or(false);
                if best.map(|(_, l, _)| v.lsn < l).unwrap_or(true) {
                    best = Some((page, v.lsn, superseded));
                }
            }
        }
        best
    }

    /// Does `page` carry a version newer than `lsn` whose transaction has
    /// not yet committed? Reclaim defers live write-homes in that case:
    /// whether the candidate is superseded is about to be decided by that
    /// transaction's commit or abort, and deferring keeps the reclaim I/O
    /// count a function of commit order alone rather than of how the
    /// reclaim pass interleaves with in-flight commits.
    pub fn has_newer_uncommitted(&self, page: PageId, lsn: Lsn) -> bool {
        self.pages
            .get(&page)
            .map(|versions| versions.iter().any(|v| !v.committed && v.lsn > lsn))
            .unwrap_or(false)
    }

    /// Is a version of this page held by an uncommitted transaction older
    /// than everything committed? (Then reclaim cannot advance past it.)
    pub fn oldest_is_uncommitted(&self) -> bool {
        let oldest_any = self.min_needed_lsn();
        let oldest_committed = self.reclaim_candidate().map(|(_, l, _)| l);
        match (oldest_any, oldest_committed) {
            (Some(a), Some(c)) => a < c,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Serialize for a checkpoint record (§3.4.3).
    pub fn checkpoint_entries(&self) -> Vec<WplCheckpointEntry> {
        let mut out = Vec::new();
        for (&page, versions) in &self.pages {
            for v in versions {
                out.push(WplCheckpointEntry {
                    page,
                    lsn: v.lsn,
                    txn: v.txn,
                    committed: v.committed,
                });
            }
        }
        out.sort_by_key(|e| e.lsn);
        out
    }

    /// The inverse of [`WplTable::checkpoint_entries`], one entry at a
    /// time and in their LSN order: the image is logged again, and a
    /// committed one's transaction commits again.
    pub fn restore(&mut self, e: &WplCheckpointEntry) {
        self.log_page(e.page, e.lsn, e.txn);
        if e.committed {
            self.on_commit(e.txn);
        }
    }

    /// Transactions with images logged and neither committed nor aborted.
    pub fn open_txns(&self) -> Vec<TxnId> {
        self.logged.keys().copied().collect()
    }

    /// Take over `other`'s pages, none of them in this table.
    pub fn merge(&mut self, other: WplTable) {
        debug_assert!(other.logged.is_empty(), "an open transaction's images");
        self.pages.extend(other.pages);
    }

    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains_key(&page)
    }

    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageId = PageId(1);
    const Q: PageId = PageId(2);

    #[test]
    fn log_and_commit_lifecycle() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        assert!(!t.newest(P).unwrap().committed);
        assert!(t.newest_committed(P).is_none());
        t.on_commit(TxnId(1));
        assert!(t.newest_committed(P).is_some());
        assert_eq!(t.newest_committed(P).unwrap().lsn, Lsn(100));
    }

    #[test]
    fn same_txn_reship_supersedes_own_image() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.log_page(P, Lsn(300), TxnId(1)); // evicted + re-shipped
        t.on_commit(TxnId(1));
        assert_eq!(t.newest_committed(P).unwrap().lsn, Lsn(300));
        assert_eq!(t.min_needed_lsn(), Some(Lsn(300)), "old image dropped");
    }

    #[test]
    fn c1_retained_until_c2_commits() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.on_commit(TxnId(1)); // C1 committed
        t.log_page(P, Lsn(500), TxnId(2)); // C2 logged, uncommitted
                                           // Both needed: crash now must recover C1.
        assert_eq!(t.min_needed_lsn(), Some(Lsn(100)));
        t.on_commit(TxnId(2));
        // C1 superseded by committed C2.
        assert_eq!(t.min_needed_lsn(), Some(Lsn(500)));
    }

    #[test]
    fn abort_drops_only_uncommitted() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.on_commit(TxnId(1));
        t.log_page(P, Lsn(500), TxnId(2));
        t.log_page(Q, Lsn(600), TxnId(2));
        assert_eq!(t.take_logged(TxnId(2)), [P, Q]);
        t.on_abort(TxnId(2), P);
        t.on_abort(TxnId(2), Q);
        assert_eq!(t.newest(P).unwrap().lsn, Lsn(100));
        assert!(!t.contains(Q));
    }

    #[test]
    fn reclaim_candidate_picks_oldest_committed_and_flags_superseded() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.log_page(Q, Lsn(200), TxnId(1));
        t.on_commit(TxnId(1));
        let (page, lsn, superseded) = t.reclaim_candidate().unwrap();
        assert_eq!((page, lsn, superseded), (P, Lsn(100), false));
        t.remove_version(P, Lsn(100));
        let (page, lsn, _) = t.reclaim_candidate().unwrap();
        assert_eq!((page, lsn), (Q, Lsn(200)));
    }

    #[test]
    fn uncommitted_blocks_reclaim_detection() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(9)); // active txn
        t.log_page(Q, Lsn(200), TxnId(1));
        t.on_commit(TxnId(1));
        assert!(t.oldest_is_uncommitted());
        t.on_commit(TxnId(9));
        assert!(!t.oldest_is_uncommitted());
    }

    #[test]
    fn has_newer_uncommitted_tracks_in_flight_supersession() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.on_commit(TxnId(1));
        assert!(!t.has_newer_uncommitted(P, Lsn(100)), "no in-flight writer");
        t.log_page(P, Lsn(500), TxnId(2)); // newer, uncommitted
        assert!(t.has_newer_uncommitted(P, Lsn(100)), "supersession undecided");
        assert!(!t.has_newer_uncommitted(Q, Lsn(100)), "other pages unaffected");
        t.on_commit(TxnId(2));
        assert!(!t.has_newer_uncommitted(P, Lsn(100)), "commit settled it");
        let mut u = WplTable::new();
        u.log_page(P, Lsn(100), TxnId(1));
        u.on_commit(TxnId(1));
        u.log_page(P, Lsn(500), TxnId(2));
        u.take_logged(TxnId(2));
        u.on_abort(TxnId(2), P);
        assert!(!u.has_newer_uncommitted(P, Lsn(100)), "abort settled it");
    }

    #[test]
    fn checkpoint_round_trip_shape() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.on_commit(TxnId(1));
        t.log_page(Q, Lsn(300), TxnId(2));
        let entries = t.checkpoint_entries();
        assert_eq!(entries.len(), 2);
        assert!(entries[0].committed && !entries[1].committed);

        let mut r = WplTable::new();
        for e in entries.iter().filter(|e| e.committed) {
            r.restore(e);
        }
        assert_eq!(r.newest_committed(P).unwrap().lsn, Lsn(100));
        assert!(!r.contains(Q));

        // Every entry restored: the same table, its open transaction too.
        let mut r = WplTable::new();
        entries.iter().for_each(|e| r.restore(e));
        assert_eq!(r.checkpoint_entries(), entries);
        assert_eq!(r.open_txns(), [TxnId(2)]);
    }

    #[test]
    fn restore_keeps_only_newest() {
        let entry = |lsn, txn| WplCheckpointEntry { page: P, lsn, txn, committed: true };
        let mut t = WplTable::new();
        t.restore(&entry(Lsn(100), TxnId(1)));
        t.restore(&entry(Lsn(500), TxnId(3)));
        assert_eq!(t.newest_committed(P).unwrap().lsn, Lsn(500));
        assert_eq!(t.min_needed_lsn(), Some(Lsn(500)));
        assert!(t.open_txns().is_empty());
    }

    #[test]
    fn a_reshipped_page_is_listed_once() {
        let mut t = WplTable::new();
        t.log_page(P, Lsn(100), TxnId(1));
        t.log_page(Q, Lsn(200), TxnId(1));
        t.log_page(P, Lsn(300), TxnId(1));
        assert_eq!(t.take_logged(TxnId(1)), [P, Q]);
        assert!(t.take_logged(TxnId(1)).is_empty(), "taken");
    }
}
