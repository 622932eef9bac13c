//! A page buffer pool with O(1) true-LRU replacement, pin counts, and dirty
//! tracking. Used by both the server (STEAL/NO-FORCE) and the clients
//! (inter-transaction caching, §3.1: "Clients can cache pages in their
//! local buffer pools across transaction boundaries").
//!
//! The pool never does I/O itself: on overflow it *returns* the evicted
//! frame ([`Evicted`]) and the caller decides what shipping / logging /
//! write-back the recovery scheme requires. That inversion is essential
//! here — under PD an evicted dirty client page must be diffed first, under
//! WPL it must be shipped whole, and at the server a stolen page must obey
//! WAL — all policy that lives above the pool.

use qs_storage::Page;
use qs_types::{IdMap, Lsn, PageId, QsError, QsResult};

/// Doubly-linked LRU list over a slab of nodes; O(1) touch/insert/remove.
/// A node names the pool slot it tracks.
#[derive(Debug, Default)]
struct LruList {
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: Option<usize>, // most-recently used
    tail: Option<usize>, // least-recently used
}

#[derive(Debug, Clone, Copy)]
struct LruNode {
    slot: u32,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruList {
    fn push_front(&mut self, slot: u32) -> usize {
        let node = LruNode { slot, prev: None, next: self.head };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
        if self.tail.is_none() {
            self.tail = Some(idx);
        }
        idx
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.nodes[n].prev = prev,
            None => self.tail = prev,
        }
        self.free.push(idx);
    }

    fn touch(&mut self, idx: usize) -> usize {
        if self.head == Some(idx) {
            return idx; // already most-recently used
        }
        let slot = self.nodes[idx].slot;
        self.unlink(idx);
        self.push_front(slot)
    }

    /// Walk from the LRU end, returning the first slot accepted by `f`.
    fn lru_find(&self, mut f: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut cur = self.tail;
        while let Some(i) = cur {
            if f(self.nodes[i].slot) {
                return Some(self.nodes[i].slot);
            }
            cur = self.nodes[i].prev;
        }
        None
    }
}

/// One cached page.
#[derive(Debug)]
struct Frame {
    page_id: PageId,
    page: Page,
    dirty: bool,
    /// Bumped every time the page is marked dirty or replaced: what tells
    /// a flush that snapshotted the page whether it changed since (its
    /// pageLSN cannot — a deferred op applied out of log order leaves it).
    version: u64,
    pins: u32,
    lru_idx: usize,
}

/// A frame pushed out of the pool, handed back to the caller.
#[derive(Debug)]
pub struct Evicted {
    pub page_id: PageId,
    pub page: Page,
    pub dirty: bool,
}

/// A cached page found by one lookup ([`BufferPool::slot`] or
/// [`BufferPool::slot_at`]): inspect it, then either drop the handle (a
/// peek — recency untouched) or commit to an in-place update with
/// [`PoolSlot::update`]. This is what lets an object access validate its
/// range against the page *before* the access counts as a use, without
/// looking the page up a second time.
pub struct PoolSlot<'a> {
    frame: &'a mut Frame,
    lru: &'a mut LruList,
    at: u32,
}

impl<'a> PoolSlot<'a> {
    #[inline]
    pub fn page(&self) -> &Page {
        &self.frame.page
    }

    /// The slot's index: [`BufferPool::slot_at`] finds the page there for
    /// as long as it stays resident.
    #[inline]
    pub fn index(&self) -> u32 {
        self.at
    }

    /// The page for an in-place update: refreshes its recency and marks it
    /// dirty, exactly as [`BufferPool::get_mut`] + [`BufferPool::mark_dirty`].
    pub fn update(self) -> &'a mut Page {
        self.frame.lru_idx = self.lru.touch(self.frame.lru_idx);
        self.frame.dirty = true;
        self.frame.version += 1;
        &mut self.frame.page
    }
}

/// Fixed-capacity page cache with LRU replacement.
///
/// Frames live in a slab: a page keeps its slot for as long as it stays
/// resident, so a caller that remembered the slot ([`PoolSlot::index`])
/// reads the page back by index ([`BufferPool::slot_at`],
/// [`BufferPool::peek_at`]), with no hash probe. Those calls check that
/// the slot still holds the page they name, so a remembered slot can go
/// stale but never reads another page.
pub struct BufferPool {
    capacity: usize,
    /// Page → its slot in `slab`.
    index: IdMap<PageId, u32>,
    /// The frames; `None` is a free slot, listed in `free`.
    slab: Vec<Option<Frame>>,
    free: Vec<u32>,
    lru: LruList,
    evictions: u64,
}

impl BufferPool {
    /// `capacity` in pages (e.g. 8 MB / 8 KB = 1024).
    pub fn new(capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool must hold at least one page");
        BufferPool {
            capacity,
            index: IdMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            lru: LruList::default(),
            evictions: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn contains(&self, pid: PageId) -> bool {
        self.index.contains_key(&pid)
    }

    fn frame(&self, pid: PageId) -> Option<&Frame> {
        let &at = self.index.get(&pid)?;
        self.slab[at as usize].as_ref()
    }

    fn frame_mut(&mut self, pid: PageId) -> Option<&mut Frame> {
        let &at = self.index.get(&pid)?;
        self.slab[at as usize].as_mut()
    }

    /// Borrow a cached page, refreshing its recency.
    pub fn get(&mut self, pid: PageId) -> Option<&Page> {
        self.get_mut(pid).map(|p| &*p)
    }

    /// Borrow a cached page mutably (does not set the dirty bit — callers
    /// mark dirtiness explicitly, because "dirty" means *must be recovered*,
    /// not merely *was touched*).
    pub fn get_mut(&mut self, pid: PageId) -> Option<&mut Page> {
        let &at = self.index.get(&pid)?;
        let f = self.slab[at as usize].as_mut()?;
        f.lru_idx = self.lru.touch(f.lru_idx);
        Some(&mut f.page)
    }

    /// Look a cached page up once, without touching recency (see
    /// [`PoolSlot`]).
    pub fn slot(&mut self, pid: PageId) -> Option<PoolSlot<'_>> {
        let &at = self.index.get(&pid)?;
        self.slot_at(at, pid)
    }

    /// [`BufferPool::slot`] by slot index: `None` unless slot `at` holds
    /// `pid`.
    #[inline]
    pub fn slot_at(&mut self, at: u32, pid: PageId) -> Option<PoolSlot<'_>> {
        let frame = self.slab.get_mut(at as usize)?.as_mut().filter(|f| f.page_id == pid)?;
        Some(PoolSlot { frame, lru: &mut self.lru, at })
    }

    /// Peek without touching recency (used by diff/ship passes that must
    /// not perturb replacement behaviour).
    pub fn peek(&self, pid: PageId) -> Option<&Page> {
        self.frame(pid).map(|f| &f.page)
    }

    /// [`BufferPool::peek`] by slot index: `None` unless slot `at` holds
    /// `pid`.
    #[inline]
    pub fn peek_at(&self, at: u32, pid: PageId) -> Option<&Page> {
        let f = self.slab.get(at as usize)?.as_ref().filter(|f| f.page_id == pid)?;
        Some(&f.page)
    }

    pub fn is_dirty(&self, pid: PageId) -> bool {
        self.frame(pid).map(|f| f.dirty).unwrap_or(false)
    }

    /// The caller changed the page (under the same hold of the pool).
    pub fn mark_dirty(&mut self, pid: PageId) {
        if let Some(f) = self.frame_mut(pid) {
            f.dirty = true;
            f.version += 1;
        }
    }

    /// How many times a cached page has been marked dirty or replaced.
    pub fn version(&self, pid: PageId) -> Option<u64> {
        self.frame(pid).map(|f| f.version)
    }

    pub fn clear_dirty(&mut self, pid: PageId) {
        if let Some(f) = self.frame_mut(pid) {
            f.dirty = false;
        }
    }

    pub fn pin(&mut self, pid: PageId) {
        if let Some(f) = self.frame_mut(pid) {
            f.pins += 1;
        }
    }

    pub fn unpin(&mut self, pid: PageId) {
        if let Some(f) = self.frame_mut(pid) {
            debug_assert!(f.pins > 0, "unpin of unpinned page {pid}");
            f.pins = f.pins.saturating_sub(1);
        }
    }

    /// Insert (or replace) a page. If the pool is full, the LRU unpinned
    /// frame is evicted and returned; the caller must deal with it *before*
    /// using the pool again if it was dirty.
    pub fn insert(&mut self, pid: PageId, page: Page, dirty: bool) -> QsResult<Option<Evicted>> {
        if let Some(resident) = self.replace(pid, dirty) {
            *resident = page;
            return Ok(None);
        }
        self.insert_new(pid, page, dirty)
    }

    /// Copy `page` into `pid`'s frame as a dirty image with pageLSN `lsn`:
    /// what [`BufferPool::insert`] of a stamped copy does, but a resident
    /// frame is overwritten in place, and only a miss makes a new one.
    pub fn insert_copy(&mut self, pid: PageId, page: &Page, lsn: Lsn) -> QsResult<Option<Evicted>> {
        if let Some(resident) = self.replace(pid, true) {
            resident.bytes_mut().copy_from_slice(page.bytes());
            resident.set_lsn(lsn);
            return Ok(None);
        }
        let mut copy = page.clone();
        copy.set_lsn(lsn);
        self.insert_new(pid, copy, true)
    }

    /// The resident page of `pid`, about to be replaced: it becomes the
    /// most recently used and its version moves on.
    fn replace(&mut self, pid: PageId, dirty: bool) -> Option<&mut Page> {
        let &at = self.index.get(&pid)?;
        let f = self.slab[at as usize].as_mut()?;
        f.dirty = f.dirty || dirty;
        f.version += 1;
        f.lru_idx = self.lru.touch(f.lru_idx);
        Some(&mut f.page)
    }

    /// A frame for `pid`, which is not resident.
    fn insert_new(&mut self, pid: PageId, page: Page, dirty: bool) -> QsResult<Option<Evicted>> {
        let evicted =
            if self.index.len() >= self.capacity { Some(self.evict_lru()?) } else { None };
        let at = match self.free.pop() {
            Some(at) => at,
            None => {
                self.slab.push(None);
                (self.slab.len() - 1) as u32
            }
        };
        let lru_idx = self.lru.push_front(at);
        self.slab[at as usize] =
            Some(Frame { page_id: pid, page, dirty, version: 0, pins: 0, lru_idx });
        self.index.insert(pid, at);
        Ok(evicted)
    }

    /// Empty slot `at` (its page leaves the pool).
    fn take_slot(&mut self, at: u32) -> Evicted {
        let f = self.slab[at as usize].take().expect("slot in use");
        self.index.remove(&f.page_id);
        self.lru.unlink(f.lru_idx);
        self.free.push(at);
        Evicted { page_id: f.page_id, page: f.page, dirty: f.dirty }
    }

    /// The slot the LRU policy would evict next: the first unpinned from
    /// the cold end.
    fn lru_victim_slot(&self) -> Option<u32> {
        let slab = &self.slab;
        self.lru.lru_find(|at| slab[at as usize].as_ref().is_some_and(|f| f.pins == 0))
    }

    fn evict_lru(&mut self) -> QsResult<Evicted> {
        let at = self
            .lru_victim_slot()
            .ok_or(QsError::BufferPoolExhausted { capacity: self.capacity })?;
        self.evictions += 1;
        Ok(self.take_slot(at))
    }

    /// The page the LRU policy would evict next (first unpinned from the
    /// cold end), without removing it.
    pub fn lru_victim(&self) -> Option<PageId> {
        let at = self.lru_victim_slot()?;
        self.slab[at as usize].as_ref().map(|f| f.page_id)
    }

    /// Remove a specific page from the pool (e.g. abort invalidation).
    pub fn remove(&mut self, pid: PageId) -> Option<Evicted> {
        let &at = self.index.get(&pid)?;
        Some(self.take_slot(at))
    }

    /// Ids of all dirty pages (unsorted).
    pub fn dirty_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.slab.iter().flatten().filter(|f| f.dirty).map(|f| f.page_id)
    }

    /// Mark every page clean.
    pub fn clear_all_dirty(&mut self) {
        self.slab.iter_mut().flatten().for_each(|f| f.dirty = false);
    }

    /// Ids of all cached pages (unsorted).
    pub fn cached_pages(&self) -> Vec<PageId> {
        self.slab.iter().flatten().map(|f| f.page_id).collect()
    }

    /// Change the pool's capacity (the §7 future-work extension: shifting
    /// memory between the buffer pool and the recovery buffer between
    /// transactions). Shrinking evicts LRU unpinned frames and returns
    /// them; growing returns nothing.
    pub fn set_capacity(&mut self, capacity: usize) -> QsResult<Vec<Evicted>> {
        assert!(capacity > 0);
        let mut out = Vec::new();
        while self.index.len() > capacity {
            out.push(self.evict_lru()?);
        }
        self.capacity = capacity;
        Ok(out)
    }

    /// Drop every frame (client cache flush in tests).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        self.free.clear();
        self.lru = LruList::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(tag: u8) -> Page {
        let mut p = Page::new();
        p.insert(PageId(0), &[tag; 16]).unwrap();
        p
    }

    #[test]
    fn insert_get_round_trip() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        assert!(bp.contains(PageId(1)));
        assert_eq!(bp.get(PageId(1)).unwrap().object(PageId(0), 0).unwrap(), &[1u8; 16]);
        assert!(bp.get(PageId(9)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        // Touch 1 so 2 becomes LRU.
        bp.get(PageId(1));
        let ev = bp.insert(PageId(3), page_with(3), false).unwrap().unwrap();
        assert_eq!(ev.page_id, PageId(2));
        assert!(bp.contains(PageId(1)) && bp.contains(PageId(3)));
    }

    #[test]
    fn pinned_pages_skip_eviction() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        bp.pin(PageId(1)); // 1 is LRU but pinned
        bp.get(PageId(2)); // wait, this makes 1 LRU
        let ev = bp.insert(PageId(3), page_with(3), false).unwrap().unwrap();
        assert_eq!(ev.page_id, PageId(2), "pinned LRU page skipped, next victim chosen");
        bp.unpin(PageId(1));
        let ev = bp.insert(PageId(4), page_with(4), false).unwrap().unwrap();
        assert_eq!(ev.page_id, PageId(1));
    }

    #[test]
    fn all_pinned_is_an_error() {
        let mut bp = BufferPool::new(1);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.pin(PageId(1));
        assert!(matches!(
            bp.insert(PageId(2), page_with(2), false),
            Err(QsError::BufferPoolExhausted { .. })
        ));
    }

    #[test]
    fn dirty_flag_propagates_through_eviction() {
        let mut bp = BufferPool::new(1);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.mark_dirty(PageId(1));
        let ev = bp.insert(PageId(2), page_with(2), false).unwrap().unwrap();
        assert!(ev.dirty);
        assert_eq!(bp.evictions(), 1);
    }

    #[test]
    fn reinsert_merges_dirty_and_does_not_evict() {
        let mut bp = BufferPool::new(1);
        bp.insert(PageId(1), page_with(1), true).unwrap();
        let ev = bp.insert(PageId(1), page_with(9), false).unwrap();
        assert!(ev.is_none());
        assert!(bp.is_dirty(PageId(1)), "dirty bit sticky across reinsert");
        assert_eq!(bp.get(PageId(1)).unwrap().object(PageId(0), 0).unwrap(), &[9u8; 16]);
    }

    #[test]
    fn remove_and_dirty_listing() {
        let mut bp = BufferPool::new(4);
        bp.insert(PageId(1), page_with(1), true).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        bp.insert(PageId(3), page_with(3), true).unwrap();
        let mut d: Vec<PageId> = bp.dirty_pages().collect();
        d.sort();
        assert_eq!(d, vec![PageId(1), PageId(3)]);
        let ev = bp.remove(PageId(3)).unwrap();
        assert!(ev.dirty);
        assert!(!bp.contains(PageId(3)));
        assert!(bp.remove(PageId(3)).is_none());
    }

    #[test]
    fn insert_copy_overwrites_a_resident_frame_and_fills_a_miss() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        let v = bp.version(PageId(1)).unwrap();
        // A hit: same frame, new bytes and pageLSN, dirty, most recent.
        assert!(bp.insert_copy(PageId(1), &page_with(9), Lsn(40)).unwrap().is_none());
        let p = bp.peek(PageId(1)).unwrap();
        assert_eq!((p.object(PageId(0), 0).unwrap(), p.lsn()), (&[9u8; 16][..], Lsn(40)));
        assert!(bp.is_dirty(PageId(1)) && bp.version(PageId(1)) == Some(v + 1));
        assert_eq!(bp.lru_victim(), Some(PageId(2)));
        // A miss: a new frame, pushing the LRU one out.
        let ev = bp.insert_copy(PageId(3), &page_with(3), Lsn(50)).unwrap().unwrap();
        assert_eq!(ev.page_id, PageId(2));
        assert_eq!(bp.peek(PageId(3)).unwrap().lsn(), Lsn(50));
        assert!(bp.is_dirty(PageId(3)));
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        bp.peek(PageId(1)); // 1 stays LRU
        let ev = bp.insert(PageId(3), page_with(3), false).unwrap().unwrap();
        assert_eq!(ev.page_id, PageId(1));
    }

    #[test]
    fn slot_peeks_until_updated() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        assert!(bp.slot(PageId(9)).is_none());
        // Looking and dropping the handle is a peek: 1 stays LRU and clean.
        assert_eq!(bp.slot(PageId(1)).unwrap().page().object(PageId(0), 0).unwrap(), &[1u8; 16]);
        assert!(!bp.is_dirty(PageId(1)));
        assert_eq!(bp.lru_victim(), Some(PageId(1)));
        // Updating through it is get_mut + mark_dirty: 1 becomes MRU, dirty.
        bp.slot(PageId(1)).unwrap().update().object_mut(PageId(0), 0).unwrap().fill(7);
        assert!(bp.is_dirty(PageId(1)));
        assert_eq!(bp.lru_victim(), Some(PageId(2)));
        assert_eq!(bp.peek(PageId(1)).unwrap().object(PageId(0), 0).unwrap(), &[7u8; 16]);
    }

    #[test]
    fn a_slot_index_reads_its_page_until_the_page_leaves() {
        let mut bp = BufferPool::new(2);
        bp.insert(PageId(1), page_with(1), false).unwrap();
        bp.insert(PageId(2), page_with(2), false).unwrap();
        let at = bp.slot(PageId(1)).unwrap().index();
        assert!(bp.slot_at(at, PageId(2)).is_none(), "the slot holds page 1");
        assert_eq!(bp.peek_at(at, PageId(1)).unwrap().object(PageId(0), 0).unwrap(), &[1u8; 16]);
        bp.get(PageId(2)); // 1 becomes LRU and its slot goes to page 3
        bp.insert(PageId(3), page_with(3), false).unwrap();
        assert!(bp.slot_at(at, PageId(1)).is_none() && bp.peek_at(at, PageId(1)).is_none());
        assert_eq!(bp.slot(PageId(3)).unwrap().index(), at);
        assert!(bp.peek_at(u32::MAX, PageId(3)).is_none());
    }

    #[test]
    fn heavy_churn_is_consistent() {
        let mut bp = BufferPool::new(16);
        for i in 0..1000u32 {
            bp.insert(PageId(i), page_with((i % 251) as u8), i % 3 == 0).unwrap();
        }
        assert_eq!(bp.len(), 16);
        assert_eq!(bp.evictions(), 1000 - 16);
        // The 16 most recent pages are resident.
        for i in 984..1000u32 {
            assert!(bp.contains(PageId(i)), "missing {i}");
        }
    }

    #[test]
    fn set_capacity_shrinks_and_grows() {
        let mut bp = BufferPool::new(4);
        for i in 0..4u32 {
            bp.insert(PageId(i), page_with(i as u8), i == 1).unwrap();
        }
        bp.get(PageId(0)); // 0 becomes MRU
        let evicted = bp.set_capacity(2).unwrap();
        assert_eq!(evicted.len(), 2);
        assert!(bp.contains(PageId(0)), "MRU survives the shrink");
        assert_eq!(bp.capacity(), 2);
        // Growing is free.
        assert!(bp.set_capacity(8).unwrap().is_empty());
        bp.insert(PageId(9), page_with(9), false).unwrap();
        assert_eq!(bp.len(), 3);
    }

    #[test]
    fn clear_empties_pool() {
        let mut bp = BufferPool::new(4);
        bp.insert(PageId(1), page_with(1), true).unwrap();
        bp.clear();
        assert!(bp.is_empty());
        bp.insert(PageId(2), page_with(2), false).unwrap();
        assert_eq!(bp.len(), 1);
    }
}
