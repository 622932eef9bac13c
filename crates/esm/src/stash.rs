//! The deferred-frame store: verified frames whose transaction's fate is
//! open, kept until its commit lays them onto their pages or its abort
//! drops them. The server keeps one for its uncommitted no-steal
//! transactions, each restart worker one for the transactions whose end it
//! has not reached. Both settle a transaction the same way: page by page,
//! ascending, each page's frames in log order ([`Arena::lay_run`]), and the
//! pageLSN never moves back ([`Laid`]).

use crate::server::pages::apply_after_image;
use qs_storage::Page;
use qs_types::{IdMap, Lsn, PageId, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag};
use std::ops::Range;

/// A stashed frame: its page and LSN, and where it is kept — at `at` of
/// the arena's bytes or, a whole-page frame, as image `at`.
#[derive(Clone, Copy)]
struct Entry {
    page: PageId,
    lsn: Lsn,
    at: usize,
    image: bool,
}

/// A stashed frame as a reader sees it: a small frame as it was logged, or
/// a whole-page frame's image.
pub(crate) enum Stashed<'a> {
    Frame(&'a [u8]),
    Image(&'a Page),
}

/// One transaction's stashed frames: small frames back to back in `bytes`,
/// a whole-page frame's image in a page buffer the apply swaps in instead
/// of copying it a second time, and one index entry per frame. Clearing
/// keeps every buffer, so an arena allocates for the largest transaction it
/// held, never per frame.
#[derive(Default)]
pub(crate) struct Arena {
    bytes: Vec<u8>,
    /// Page buffers: the first `staged` hold images, the rest are spares.
    images: Vec<Page>,
    staged: usize,
    index: Vec<Entry>,
}

/// The entries `range` of a sorted arena: one page's frames, logged from
/// `first` to `last`.
pub(crate) struct Run {
    pub(crate) page: PageId,
    pub(crate) range: Range<usize>,
    pub(crate) first: Lsn,
    pub(crate) last: Lsn,
}

impl Arena {
    /// Stash `frame`, of `page` and logged at `lsn`, verified by the caller.
    pub(crate) fn push(&mut self, page: PageId, frame: &[u8], lsn: Lsn) -> QsResult<()> {
        let image = record::frame_tag(frame)? == tag::WHOLE_PAGE;
        let at = if image {
            if self.staged == self.images.len() {
                self.images.push(Page::new());
            }
            let image = record::frame_whole_page_image(frame)?;
            self.images[self.staged].bytes_mut().copy_from_slice(image);
            self.staged += 1;
            self.staged - 1
        } else {
            self.bytes.extend_from_slice(frame);
            self.bytes.len() - frame.len()
        };
        self.index.push(Entry { page, lsn, at, image });
        Ok(())
    }

    /// Every stashed frame with its page and LSN, in the index's order.
    pub(crate) fn frames(&self) -> impl Iterator<Item = (PageId, Stashed<'_>, Lsn)> {
        self.index.iter().map(|e| {
            let stashed = if e.image {
                Stashed::Image(&self.images[e.at])
            } else {
                Stashed::Frame(self.frame(e.at))
            };
            (e.page, stashed, e.lsn)
        })
    }

    fn frame(&self, at: usize) -> &[u8] {
        let rest = &self.bytes[at..];
        &rest[..record::frame_len(rest).expect("stashed frames are verified")]
    }

    /// Order the index by (page, LSN): LSNs are unique and grow in log
    /// order, so that is the stable sort by page without its scratch
    /// buffer, and frames stashed in ascending page order — a client's —
    /// are one sorted pass.
    pub(crate) fn by_page(&mut self) {
        self.index.sort_unstable_by_key(|e| (e.page, e.lsn));
    }

    /// The run of the sorted index that starts at entry `start`, if any.
    pub(crate) fn run_from(&self, start: usize) -> Option<Run> {
        let first = self.index.get(start)?;
        let len = self.index[start..].iter().take_while(|e| e.page == first.page).count();
        let last = self.index[start + len - 1].lsn;
        Some(Run { page: first.page, range: start..start + len, first: first.lsn, last })
    }

    /// Lay `run`'s frames onto `page` in log order, but those `on_page`
    /// says the page holds already. A stashed image is swapped in, leaving
    /// the page's old buffer behind as a spare.
    pub(crate) fn lay_run(
        &mut self,
        run: &Run,
        page: &mut Page,
        on_page: impl Fn(Lsn) -> bool,
    ) -> QsResult<Laid> {
        let mut laid = Laid::default();
        for e in self.index[run.range.clone()].iter().filter(|e| !on_page(e.lsn)) {
            let before = page.lsn();
            if e.image {
                std::mem::swap(page, &mut self.images[e.at]);
                page.set_lsn(e.lsn);
            } else {
                let frame = self.frame(e.at);
                apply_after_image(page, run.page, record::frame_tag(frame)?, frame, e.lsn)?;
            }
            laid.keep(page, before, e.lsn);
        }
        Ok(laid)
    }
}

/// What laying frames onto one page did: how many it laid, and the lowest
/// LSN among those that landed *late*, below the pageLSN the page had.
#[derive(Default)]
pub(crate) struct Laid {
    pub(crate) count: u64,
    pub(crate) late: Option<Lsn>,
}

impl Laid {
    /// Lay `frames`, in log order, onto `page` (`pid`), as
    /// [`Arena::lay_run`] does.
    pub(crate) fn frames<'a>(
        page: &mut Page,
        pid: PageId,
        frames: impl IntoIterator<Item = (&'a [u8], Lsn)>,
    ) -> QsResult<Laid> {
        let mut laid = Laid::default();
        for (frame, lsn) in frames {
            let before = page.lsn();
            apply_after_image(page, pid, record::frame_tag(frame)?, frame, lsn)?;
            laid.keep(page, before, lsn);
        }
        Ok(laid)
    }

    /// The pageLSN never moves back: a late frame changes the page under
    /// the LSN it had (DESIGN.md §6b "Late ops").
    fn keep(&mut self, page: &mut Page, before: Lsn, lsn: Lsn) {
        self.count += 1;
        if lsn < before {
            page.set_lsn(before);
            self.late = Some(self.late.map_or(lsn, |l| l.min(lsn)));
        }
    }
}

/// The open transactions' arenas, and the emptied arenas of settled ones,
/// which the next transactions to stash reuse.
#[derive(Default)]
pub(crate) struct Stash {
    live: IdMap<TxnId, Arena>,
    spare: Vec<Arena>,
}

impl Stash {
    /// `txn`'s arena, a recycled one at its first frame.
    pub(crate) fn arena(&mut self, txn: TxnId) -> &mut Arena {
        let spare = &mut self.spare;
        self.live.entry(txn).or_insert_with(|| spare.pop().unwrap_or_default())
    }

    pub(crate) fn get(&self, txn: TxnId) -> Option<&Arena> {
        self.live.get(&txn)
    }

    /// The transactions with frames stashed.
    pub(crate) fn open(&self) -> Vec<TxnId> {
        self.live.keys().copied().collect()
    }

    pub(crate) fn take(&mut self, txn: TxnId) -> Option<Arena> {
        self.live.remove(&txn)
    }

    /// Empty `arena` and keep its buffers for the next transaction.
    pub(crate) fn recycle(&mut self, mut arena: Arena) {
        arena.bytes.clear();
        arena.index.clear();
        arena.staged = 0;
        self.spare.push(arena);
    }

    /// Drop `txn`'s stashed frames, keeping the buffers.
    pub(crate) fn discard(&mut self, txn: TxnId) {
        if let Some(arena) = self.take(txn) {
            self.recycle(arena);
        }
    }

    /// `(open arenas, arenas, bytes)`: how many arenas hold frames, how
    /// many exist, and the bytes of their frame and page buffers.
    pub(crate) fn held(&self) -> (usize, usize, usize) {
        let arenas = self.live.values().chain(&self.spare);
        let bytes = arenas.map(|a| a.bytes.capacity() + a.images.len() * PAGE_SIZE).sum();
        (self.live.len(), self.live.len() + self.spare.len(), bytes)
    }
}
