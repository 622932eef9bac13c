//! The server's transaction table.

use crate::protocol::Protocol;
use qs_types::{IdMap, IdSet, Lsn, PageId, QsError, QsResult, TxnId};

/// Lifecycle of a transaction at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    Active,
    Committed,
    Aborted,
}

/// Per-transaction server state.
#[derive(Debug)]
pub struct TxnState {
    pub id: TxnId,
    pub status: TxnStatus,
    /// Most recent log record written by this transaction (backward chain
    /// head for undo).
    pub last_lsn: Lsn,
    /// First log record written by this transaction (log truncation bound).
    pub first_lsn: Lsn,
    /// What the server does with this transaction's updates: the flavor's
    /// base protocol from `begin`, re-resolved when a `TxnScheme` mark
    /// arrives (always before the transaction's first page record).
    pub protocol: Protocol,
    /// Log-before-page rule enforcement: pages for which this transaction
    /// has already shipped log records (or declared none needed). Its
    /// storage came from a finished transaction ([`TxnTable::remove`]).
    pub log_shipped: IdSet<PageId>,
}

impl TxnState {
    fn new(id: TxnId, protocol: Protocol, log_shipped: IdSet<PageId>) -> TxnState {
        TxnState {
            id,
            status: TxnStatus::Active,
            last_lsn: Lsn::NULL,
            first_lsn: Lsn::NULL,
            protocol,
            log_shipped,
        }
    }

    /// Record that this transaction wrote a log record at `lsn`.
    pub fn note_logged(&mut self, lsn: Lsn) {
        if self.first_lsn.is_null() {
            self.first_lsn = lsn;
        }
        self.last_lsn = lsn;
    }
}

/// The transaction table: id assignment plus per-transaction state. A
/// finished transaction's `log_shipped` set is emptied and handed to the
/// next one to begin, so steady-state transactions allocate nothing here.
#[derive(Debug, Default)]
pub struct TxnTable {
    next_id: u64,
    txns: IdMap<TxnId, TxnState>,
    /// Emptied `log_shipped` sets of finished transactions.
    spare_shipped: Vec<IdSet<PageId>>,
}

impl TxnTable {
    pub fn new() -> TxnTable {
        TxnTable::resuming_after(TxnId::INVALID)
    }

    /// Restart constructor: id assignment resumes above anything in the log.
    pub fn resuming_after(max_seen: TxnId) -> TxnTable {
        let next = if max_seen == TxnId::INVALID { 1 } else { max_seen.0 + 1 };
        TxnTable { next_id: next, ..TxnTable::default() }
    }

    pub fn begin(&mut self, protocol: Protocol) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        let shipped = self.spare_shipped.pop().unwrap_or_default();
        self.txns.insert(id, TxnState::new(id, protocol, shipped));
        id
    }

    /// Re-register a loser transaction found by restart analysis so the
    /// ordinary undo machinery can roll it back (only `Steal` transactions
    /// are ever undone).
    pub fn restore(&mut self, id: TxnId, last_lsn: Lsn) {
        let mut t = TxnState::new(id, Protocol::Steal, IdSet::default());
        t.last_lsn = last_lsn;
        self.txns.insert(id, t);
        self.next_id = self.next_id.max(id.0 + 1);
    }

    pub fn get(&self, id: TxnId) -> QsResult<&TxnState> {
        self.txns.get(&id).ok_or(QsError::NoSuchTransaction(id))
    }

    pub fn get_mut(&mut self, id: TxnId) -> QsResult<&mut TxnState> {
        self.txns.get_mut(&id).ok_or(QsError::NoSuchTransaction(id))
    }

    /// Fetch an *active* transaction mutably; error if finished or unknown.
    pub fn active_mut(&mut self, id: TxnId) -> QsResult<&mut TxnState> {
        let t = self.txns.get_mut(&id).ok_or(QsError::NoSuchTransaction(id))?;
        if t.status != TxnStatus::Active {
            return Err(QsError::TransactionNotActive(id));
        }
        Ok(t)
    }

    /// Drop a finished transaction's state, keeping its `log_shipped`
    /// storage for the next transaction.
    pub fn remove(&mut self, id: TxnId) {
        if let Some(mut t) = self.txns.remove(&id) {
            t.log_shipped.clear();
            self.spare_shipped.push(t.log_shipped);
        }
    }

    /// All currently active transactions.
    pub fn active(&self) -> impl Iterator<Item = &TxnState> {
        self.txns.values().filter(|t| t.status == TxnStatus::Active)
    }

    /// Earliest `first_lsn` among the transactions in the table — the log
    /// truncation bound. Committed ones count: a no-steal transaction stays
    /// here, its deferred ops only in the log, from its commit record until
    /// they are applied.
    pub fn min_first_lsn(&self) -> Option<Lsn> {
        self.txns.values().filter(|t| !t.first_lsn.is_null()).map(|t| t.first_lsn).min()
    }

    pub fn len(&self) -> usize {
        self.txns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_assigns_monotonic_ids() {
        let mut tt = TxnTable::new();
        let a = tt.begin(Protocol::Steal);
        let b = tt.begin(Protocol::Steal);
        assert!(b.0 > a.0);
        assert_eq!(tt.len(), 2);
    }

    #[test]
    fn note_logged_tracks_first_and_last() {
        let mut tt = TxnTable::new();
        let id = tt.begin(Protocol::Steal);
        let t = tt.active_mut(id).unwrap();
        t.note_logged(Lsn(100));
        t.note_logged(Lsn(250));
        assert_eq!(t.first_lsn, Lsn(100));
        assert_eq!(t.last_lsn, Lsn(250));
    }

    #[test]
    fn active_mut_rejects_finished() {
        let mut tt = TxnTable::new();
        let id = tt.begin(Protocol::Steal);
        tt.get_mut(id).unwrap().status = TxnStatus::Committed;
        assert!(matches!(tt.active_mut(id), Err(QsError::TransactionNotActive(_))));
        assert!(matches!(tt.active_mut(TxnId(999)), Err(QsError::NoSuchTransaction(_))));
    }

    #[test]
    fn min_first_lsn_skips_unlogged_and_counts_committed_until_removed() {
        let mut tt = TxnTable::new();
        let a = tt.begin(Protocol::Steal);
        let b = tt.begin(Protocol::NoSteal);
        let _quiet = tt.begin(Protocol::Steal); // never logs
        tt.active_mut(a).unwrap().note_logged(Lsn(300));
        tt.active_mut(b).unwrap().note_logged(Lsn(200));
        assert_eq!(tt.min_first_lsn(), Some(Lsn(200)));
        // `commit_append` flips the status; the deferred ops are applied,
        // and the entry removed, only in `commit_finish`.
        tt.get_mut(b).unwrap().status = TxnStatus::Committed;
        assert_eq!(tt.min_first_lsn(), Some(Lsn(200)));
        tt.remove(b);
        assert_eq!(tt.min_first_lsn(), Some(Lsn(300)));
    }

    #[test]
    fn a_finished_transaction_hands_its_log_shipped_storage_on() {
        let mut tt = TxnTable::new();
        let a = tt.begin(Protocol::Steal);
        tt.active_mut(a).unwrap().log_shipped.extend((0..64).map(PageId));
        tt.remove(a);
        let b = tt.begin(Protocol::Steal);
        let shipped = &tt.get(b).unwrap().log_shipped;
        assert!(shipped.is_empty(), "handed on empty");
        assert!(shipped.capacity() >= 64, "with the storage the last one grew");
    }

    #[test]
    fn resuming_after_continues_ids() {
        let mut tt = TxnTable::resuming_after(TxnId(41));
        assert_eq!(tt.begin(Protocol::Steal), TxnId(42));
        let mut tt2 = TxnTable::resuming_after(TxnId::INVALID);
        assert_eq!(tt2.begin(Protocol::Steal), TxnId(1));
    }
}
