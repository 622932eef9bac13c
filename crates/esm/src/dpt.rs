//! The server's dirty-page table.
//!
//! Per page it keeps the recovery LSN (the earliest record whose effect
//! may be missing from the page's volume image) and the last LSN logged
//! for the page. The second is what makes retiring an entry safe while
//! transactions run: a flush proves only that the volume holds the page as
//! of the flushed image's pageLSN, and a record for the page may have been
//! logged since — under ESM-style shipping the log record reaches the
//! server before the page that carries its effect. So [`DirtyPages::flushed`]
//! drops the entry only when the flushed image covers everything logged.
//!
//! The invariant the checkpoint and restart stand on (DESIGN.md §6b):
//! whenever the txn-table lock is free, every logged update of a `Steal`
//! transaction that is not yet in its page's volume image has that page
//! listed here at a recLSN ≤ its LSN. (A `NoSteal` transaction's updates
//! are listed when they are applied, at commit; until it leaves the
//! transaction table its first LSN pins the log instead.)

use qs_types::{IdMap, Lsn, PageId};
use std::collections::hash_map::Entry;

#[derive(Debug, Clone, Copy)]
struct DirtyPage {
    rec_lsn: Lsn,
    /// Highest LSN logged for the page ([`Lsn::NULL`] for a page that
    /// entered dirty without a record of its own).
    last_lsn: Lsn,
}

/// Page → (recLSN, last logged LSN).
#[derive(Debug, Default)]
pub(crate) struct DirtyPages {
    pages: IdMap<PageId, DirtyPage>,
}

impl DirtyPages {
    /// A record for `pid` sits in the log at `lsn`.
    pub(crate) fn logged(&mut self, pid: PageId, lsn: Lsn) {
        self.logged_span(pid, lsn, lsn);
    }

    /// Records for `pid` sit in the log from `first` to `last`, in that
    /// order. One lookup: this is on the path of every received run.
    #[inline]
    pub(crate) fn logged_span(&mut self, pid: PageId, first: Lsn, last: Lsn) {
        self.pages
            .entry(pid)
            .and_modify(|p| {
                // Deferred ops are listed at their commit, so not in LSN
                // order across transactions sharing a page.
                p.rec_lsn = p.rec_lsn.min(first);
                p.last_lsn = p.last_lsn.max(last);
            })
            .or_insert(DirtyPage { rec_lsn: first, last_lsn: last });
    }

    /// `pid` became dirty in the pool by something other than a record
    /// logged just now — a shipped page (its records were [`logged`] when
    /// they arrived), a page restart redid. List it from `rec_lsn` unless
    /// it is listed already.
    ///
    /// [`logged`]: DirtyPages::logged
    pub(crate) fn dirtied(&mut self, pid: PageId, rec_lsn: Lsn) {
        self.pages.entry(pid).or_insert(DirtyPage { rec_lsn, last_lsn: Lsn::NULL });
    }

    /// The image of `pid` with pageLSN `page_lsn` is on the volume. Retires
    /// the entry only if that image holds everything logged for the page.
    pub(crate) fn flushed(&mut self, pid: PageId, page_lsn: Lsn) {
        if let Entry::Occupied(e) = self.pages.entry(pid) {
            if e.get().last_lsn <= page_lsn {
                e.remove();
            }
        }
    }

    /// `(page, recLSN)` for every entry, in page-id order (a checkpoint
    /// body must be deterministic, and the drain wants elevator order).
    pub(crate) fn snapshot(&self) -> Vec<(PageId, Lsn)> {
        let mut pages: Vec<(PageId, Lsn)> =
            self.pages.iter().map(|(&pid, p)| (pid, p.rec_lsn)).collect();
        pages.sort_unstable_by_key(|&(pid, _)| pid.0);
        pages
    }

    /// `(page, recLSN, last logged LSN)` for every entry, in page-id order.
    #[cfg(test)]
    pub(crate) fn spans(&self) -> Vec<(PageId, Lsn, Lsn)> {
        let mut pages: Vec<_> =
            self.pages.iter().map(|(&pid, p)| (pid, p.rec_lsn, p.last_lsn)).collect();
        pages.sort_unstable_by_key(|&(pid, ..)| pid.0);
        pages
    }

    /// The earliest recLSN: redo never starts below it, so the log may be
    /// truncated up to it.
    pub(crate) fn min_rec_lsn(&self) -> Option<Lsn> {
        self.pages.values().map(|p| p.rec_lsn).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PageId = PageId(7);

    #[test]
    fn a_flush_retires_an_entry_only_if_it_wrote_everything_logged() {
        let mut dpt = DirtyPages::default();
        dpt.logged(P, Lsn(100));
        dpt.logged(P, Lsn(300));
        assert_eq!(dpt.snapshot(), [(P, Lsn(100))], "recLSN is the first record");
        // An image older than the last record: the entry stays, recLSN and all.
        dpt.flushed(P, Lsn(200));
        assert_eq!(dpt.snapshot(), [(P, Lsn(100))]);
        assert_eq!(dpt.min_rec_lsn(), Some(Lsn(100)));
        // The image that holds the last record retires it.
        dpt.flushed(P, Lsn(300));
        assert!(dpt.snapshot().is_empty());
        assert_eq!(dpt.min_rec_lsn(), None);
        // Flushing an unlisted page is a no-op.
        dpt.flushed(P, Lsn(300));
        assert!(dpt.snapshot().is_empty());
    }

    #[test]
    fn a_shipped_page_is_listed_once_and_any_flush_of_it_retires_it() {
        let mut dpt = DirtyPages::default();
        dpt.dirtied(P, Lsn(500));
        dpt.dirtied(P, Lsn(900));
        assert_eq!(dpt.snapshot(), [(P, Lsn(500))]);
        dpt.flushed(P, Lsn(10));
        assert!(dpt.snapshot().is_empty());
        // Listed by its records first: the shipped page changes nothing,
        // and the records still decide when it is retired.
        dpt.logged(P, Lsn(100));
        dpt.dirtied(P, Lsn(500));
        dpt.flushed(P, Lsn(50));
        assert_eq!(dpt.snapshot(), [(P, Lsn(100))]);
    }

    #[test]
    fn records_listed_out_of_lsn_order_keep_the_earliest_and_the_latest() {
        let mut dpt = DirtyPages::default();
        dpt.logged(P, Lsn(150));
        dpt.logged(P, Lsn(100));
        dpt.logged(PageId(3), Lsn(120));
        assert_eq!(dpt.snapshot(), [(PageId(3), Lsn(120)), (P, Lsn(100))], "page-id order");
        dpt.flushed(P, Lsn(120));
        assert_eq!(dpt.min_rec_lsn(), Some(Lsn(100)), "150 is not in a 120 image");
    }
}
