//! The recovery buffer (paper §3.2.1, Figure 1).
//!
//! A fixed-size area of client memory holding *before-images*: whole pages
//! under page differencing, individual blocks under the sub-page schemes.
//! When it fills, space is reclaimed in FIFO order by generating log
//! records early for the oldest copied page ("Space in the recovery buffer
//! is managed using a simple FIFO replacement policy") — the caller runs
//! the diff and then frees the copy. In the constrained-cache experiments
//! this overflow is precisely what drives PD's extra log traffic (Fig. 14).
//!
//! ## Physical layout vs. logical accounting
//!
//! Capacity accounting is *logical* and matches the paper exactly: a full
//! copy costs `PAGE_SIZE` bytes, a block copy costs `block_size` per
//! copied block. Physically, every copy — full or block — is backed by one
//! pooled page-sized buffer, with block before-images stored at their
//! natural page offsets and a presence bitmap recording which blocks are
//! held. That layout makes the before-image of any contiguous block range
//! a contiguous slice (no per-page reconstruction at diff time), yields
//! copied ranges in sorted order straight from the bitmap, and lets freed
//! buffers return to a free list so steady-state commits never touch the
//! allocator. The cost is physical overhead for sparsely-copied pages,
//! which is invisible to every simulated figure (see DESIGN.md).

use qs_storage::Page;
use qs_types::{IdMap, PageId, PAGE_SIZE};
use std::collections::VecDeque;

/// Smallest supported block size; bounds the bitmap at `PAGE_SIZE / 8 / 64`
/// words.
const MIN_BLOCK: usize = 8;
const BITS_WORDS: usize = PAGE_SIZE / MIN_BLOCK / 64;

/// Block-granularity before-images for one page (SD/SL), stored at their
/// natural offsets inside a pooled page-sized buffer.
#[derive(Debug)]
pub struct BlockCopy {
    block_size: usize,
    /// Presence bitmap: bit `i` set ⇔ block `i` is copied.
    bits: [u64; BITS_WORDS],
    count: usize,
    data: Box<[u8; PAGE_SIZE]>,
}

impl BlockCopy {
    fn new(block_size: usize, data: Box<[u8; PAGE_SIZE]>) -> BlockCopy {
        assert!(
            (MIN_BLOCK..=PAGE_SIZE).contains(&block_size) && block_size.is_power_of_two(),
            "bad block size {block_size}"
        );
        BlockCopy { block_size, bits: [0; BITS_WORDS], count: 0, data }
    }

    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Copied blocks on this page.
    pub fn count(&self) -> usize {
        self.count
    }

    pub fn contains(&self, index: u16) -> bool {
        let i = index as usize;
        i < PAGE_SIZE / self.block_size && self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    fn insert(&mut self, index: u16, data: &[u8]) {
        assert_eq!(data.len(), self.block_size);
        assert!(!self.contains(index), "block {index} already copied");
        let off = index as usize * self.block_size;
        self.data[off..off + self.block_size].copy_from_slice(data);
        self.bits[index as usize / 64] |= 1 << (index as usize % 64);
        self.count += 1;
    }

    /// The backing page-sized buffer; copied blocks sit at their natural
    /// offsets, so `&data()[a..b]` is the before-image of byte range
    /// `a..b` whenever every block overlapping it is copied.
    pub fn data(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable access, used by the commit path to fill small *clean* gaps
    /// between copied blocks from the current page so a combined region's
    /// before-image stays one contiguous slice.
    pub fn data_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Append the maximal contiguous copied byte ranges to `out`, in
    /// ascending order (the bitmap scan is naturally sorted — no per-page
    /// sort needed on the SubPageLog path).
    pub fn append_ranges(&self, out: &mut Vec<(usize, usize)>) {
        let nblocks = PAGE_SIZE / self.block_size;
        let mut i = 0usize;
        while i < nblocks {
            let w = self.bits[i / 64] >> (i % 64);
            if w & 1 == 0 {
                if w == 0 {
                    i = (i / 64 + 1) * 64; // whole remaining word clear
                } else {
                    i += w.trailing_zeros() as usize;
                }
                continue;
            }
            let start = i;
            while i < nblocks && self.bits[i / 64] >> (i % 64) & 1 == 1 {
                i += 1;
            }
            out.push((start * self.block_size, i * self.block_size));
        }
    }
}

/// Before-image of one page, at the granularity the scheme copies.
#[derive(Debug)]
pub enum Copied {
    /// PD: the complete page as of recovery-enable time.
    Full(Box<[u8; PAGE_SIZE]>),
    /// SD/SL: copied blocks (the paper's per-page array of block pointers,
    /// Figure 3).
    Blocks(BlockCopy),
}

impl Copied {
    /// Bytes of recovery-buffer space this copy occupies (logical
    /// accounting, per the paper — not physical footprint).
    pub fn bytes(&self) -> usize {
        match self {
            Copied::Full(_) => PAGE_SIZE,
            Copied::Blocks(bc) => bc.block_size * bc.count,
        }
    }

    /// The page-sized buffer backing this copy.
    fn into_buf(self) -> Box<[u8; PAGE_SIZE]> {
        match self {
            Copied::Full(b) => b,
            Copied::Blocks(bc) => bc.data,
        }
    }
}

/// One page's copy and the stamp its FIFO entry carries.
#[derive(Debug)]
struct Held {
    copied: Copied,
    stamp: u64,
}

/// The fixed-capacity recovery buffer.
#[derive(Debug)]
pub struct RecoveryBuffer {
    capacity: usize,
    used: usize,
    copies: IdMap<PageId, Held>,
    /// FIFO order of first copy per page, each entry stamped at insert. A
    /// removed copy's entry is not searched for: it stays behind, dead (no
    /// copy of that page carries its stamp), until it reaches the front or
    /// the dead outnumber the live.
    fifo: VecDeque<(PageId, u64)>,
    next_stamp: u64,
    overflows: u64,
    /// Recycled page-sized buffers; steady-state copies draw from here
    /// instead of the allocator.
    free_bufs: Vec<Box<[u8; PAGE_SIZE]>>,
}

impl RecoveryBuffer {
    /// `capacity` in bytes (e.g. 4 MB or 0.5 MB in the paper's experiments).
    pub fn new(capacity: usize) -> RecoveryBuffer {
        RecoveryBuffer {
            capacity,
            used: 0,
            copies: IdMap::default(),
            fifo: VecDeque::new(),
            next_stamp: 0,
            overflows: 0,
            free_bufs: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn pages(&self) -> usize {
        self.copies.len()
    }

    /// Times a copy request had to evict older copies.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Buffers waiting in the free list (visible for pooling tests).
    pub fn pooled(&self) -> usize {
        self.free_bufs.len()
    }

    pub fn contains(&self, pid: PageId) -> bool {
        self.copies.contains_key(&pid)
    }

    pub fn get(&self, pid: PageId) -> Option<&Copied> {
        self.copies.get(&pid).map(|h| &h.copied)
    }

    pub fn get_mut(&mut self, pid: PageId) -> Option<&mut Copied> {
        self.copies.get_mut(&pid).map(|h| &mut h.copied)
    }

    /// The copy a FIFO entry stands for, unless it has been removed.
    fn live<'a>(
        copies: &'a IdMap<PageId, Held>,
        &(pid, stamp): &(PageId, u64),
    ) -> Option<&'a Copied> {
        copies.get(&pid).filter(|h| h.stamp == stamp).map(|h| &h.copied)
    }

    /// Fill `victims` (emptied first; a buffer the caller reuses) with the
    /// pages that must be flushed (log records generated) to free at least
    /// `need` bytes, FIFO order. The caller diffs each and then calls
    /// [`RecoveryBuffer::remove`]; this method only *plans* the eviction.
    pub fn overflow_victims(&mut self, need: usize, victims: &mut Vec<PageId>) {
        victims.clear();
        let mut free = self.capacity - self.used;
        if free >= need {
            return;
        }
        self.overflows += 1;
        for entry in self.fifo.iter() {
            if free >= need {
                break;
            }
            if let Some(c) = Self::live(&self.copies, entry) {
                free += c.bytes();
                victims.push(entry.0);
            }
        }
    }

    fn push_fifo(&mut self, pid: PageId) -> u64 {
        self.next_stamp += 1;
        self.fifo.push_back((pid, self.next_stamp));
        self.next_stamp
    }

    fn take_buf(&mut self) -> Box<[u8; PAGE_SIZE]> {
        self.free_bufs.pop().unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Return a copy's backing buffer to the free list. Call after the
    /// copy's log records have been generated.
    pub fn recycle(&mut self, copied: Copied) {
        self.free_bufs.push(copied.into_buf());
    }

    /// Store the full-page before-image (PD). Panics if space was not made
    /// first (callers must use [`RecoveryBuffer::overflow_victims`]).
    pub fn insert_full(&mut self, pid: PageId, page: &Page) {
        assert!(!self.copies.contains_key(&pid), "page {pid} already copied");
        assert!(self.used + PAGE_SIZE <= self.capacity, "recovery buffer overflow");
        let mut buf = self.take_buf();
        buf.copy_from_slice(page.bytes());
        self.used += PAGE_SIZE;
        let stamp = self.push_fifo(pid);
        self.copies.insert(pid, Held { copied: Copied::Full(buf), stamp });
    }

    /// Store one block's before-image (SD/SL). Creates the page's entry on
    /// first block.
    pub fn insert_block(&mut self, pid: PageId, block_size: usize, index: u16, data: &[u8]) {
        assert!(self.used + block_size <= self.capacity, "recovery buffer overflow");
        if !self.copies.contains_key(&pid) {
            let buf = self.take_buf();
            let stamp = self.push_fifo(pid);
            let copied = Copied::Blocks(BlockCopy::new(block_size, buf));
            self.copies.insert(pid, Held { copied, stamp });
        }
        match &mut self.copies.get_mut(&pid).unwrap().copied {
            Copied::Blocks(bc) => {
                assert_eq!(bc.block_size, block_size);
                bc.insert(index, data);
                self.used += block_size;
            }
            Copied::Full(_) => panic!("mixing block and full copies for {pid}"),
        }
    }

    /// Is this block already copied? (The SD update function's cheap check,
    /// §3.3.1.)
    pub fn block_copied(&self, pid: PageId, index: u16) -> bool {
        match self.get(pid) {
            Some(Copied::Blocks(bc)) => bc.contains(index),
            Some(Copied::Full(_)) => true,
            None => false,
        }
    }

    /// Drop a page's copy (after its log records have been generated). The
    /// caller should hand the returned copy back via
    /// [`RecoveryBuffer::recycle`] once done with the before-images.
    ///
    /// The page's FIFO entry is not looked for. The overflow victim is the
    /// front, which goes at once, with any dead entries behind it; a commit
    /// draining a full buffer in page-id order leaves dead entries, swept
    /// out each time they outnumber the live ones — constant amortized
    /// work per removal either way.
    pub fn remove(&mut self, pid: PageId) -> Option<Copied> {
        let c = self.copies.remove(&pid)?.copied;
        self.used -= c.bytes();
        let copies = &self.copies;
        while self.fifo.front().is_some_and(|e| Self::live(copies, e).is_none()) {
            self.fifo.pop_front();
        }
        if self.fifo.len() > 2 * copies.len() {
            self.fifo.retain(|e| Self::live(copies, e).is_some());
        }
        Some(c)
    }

    /// Drop everything (transaction boundary); backing buffers go to the
    /// free list.
    pub fn clear(&mut self) {
        self.free_bufs.extend(self.copies.drain().map(|(_, held)| held.copied.into_buf()));
        self.fifo.clear();
        self.used = 0;
    }

    /// Pages currently copied, FIFO order.
    pub fn pages_fifo(&self) -> impl Iterator<Item = PageId> + '_ {
        self.fifo.iter().filter(|e| Self::live(&self.copies, e).is_some()).map(|e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::new()
    }

    fn victims(rb: &mut RecoveryBuffer, need: usize) -> Vec<PageId> {
        let mut v = vec![PageId(u32::MAX)]; // emptied by the call
        rb.overflow_victims(need, &mut v);
        v
    }

    #[test]
    fn full_copies_account_page_size() {
        let mut rb = RecoveryBuffer::new(3 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        rb.insert_full(PageId(2), &page());
        assert_eq!(rb.used(), 2 * PAGE_SIZE);
        assert_eq!(rb.pages(), 2);
        assert!(rb.contains(PageId(1)));
        rb.remove(PageId(1)).unwrap();
        assert_eq!(rb.used(), PAGE_SIZE);
    }

    #[test]
    fn fifo_overflow_planning() {
        let mut rb = RecoveryBuffer::new(2 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        rb.insert_full(PageId(2), &page());
        // Need one more page: the oldest copy (1) must be flushed.
        let planned = victims(&mut rb, PAGE_SIZE);
        assert_eq!(planned, vec![PageId(1)]);
        assert_eq!(rb.overflows(), 1);
        for v in planned {
            rb.remove(v).unwrap();
        }
        rb.insert_full(PageId(3), &page());
        assert_eq!(rb.pages(), 2);
        // Next overflow evicts 2 (FIFO), not 3.
        assert_eq!(victims(&mut rb, PAGE_SIZE), vec![PageId(2)]);
    }

    #[test]
    fn no_victims_when_space_exists() {
        let mut rb = RecoveryBuffer::new(4 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        assert!(victims(&mut rb, PAGE_SIZE).is_empty());
        assert_eq!(rb.overflows(), 0);
    }

    #[test]
    fn block_copies_accumulate_per_page() {
        let mut rb = RecoveryBuffer::new(1024);
        rb.insert_block(PageId(7), 64, 0, &[0; 64]);
        rb.insert_block(PageId(7), 64, 3, &[1; 64]);
        rb.insert_block(PageId(9), 64, 0, &[2; 64]);
        assert_eq!(rb.used(), 192);
        assert_eq!(rb.pages(), 2);
        assert!(rb.block_copied(PageId(7), 0));
        assert!(rb.block_copied(PageId(7), 3));
        assert!(!rb.block_copied(PageId(7), 1));
        assert!(!rb.block_copied(PageId(11), 0));
        match rb.remove(PageId(7)).unwrap() {
            Copied::Blocks(bc) => {
                assert_eq!(bc.count(), 2);
                // Before-images live at their natural page offsets.
                assert_eq!(&bc.data()[0..64], &[0u8; 64][..]);
                assert_eq!(&bc.data()[192..256], &[1u8; 64][..]);
            }
            _ => panic!("expected blocks"),
        }
        assert_eq!(rb.used(), 64);
    }

    #[test]
    fn blocks_need_less_space_than_pages() {
        // The SD advantage in the constrained experiments: a 0.5 MB buffer
        // holds before-images for far more sparsely-updated pages as
        // blocks than as full pages.
        let mut rb_blocks = RecoveryBuffer::new(PAGE_SIZE);
        for i in 0..100u32 {
            rb_blocks.insert_block(PageId(i), 64, 0, &[0; 64]);
        }
        assert_eq!(rb_blocks.pages(), 100, "100 sparse pages fit as blocks");
        assert!(rb_blocks.used() <= PAGE_SIZE);
        let mut rb_pages = RecoveryBuffer::new(PAGE_SIZE);
        rb_pages.insert_full(PageId(0), &page());
        assert!(!victims(&mut rb_pages, PAGE_SIZE).is_empty(), "only 1 full page fits");
    }

    #[test]
    fn clear_resets_everything() {
        let mut rb = RecoveryBuffer::new(2 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        rb.insert_block(PageId(2), 32, 0, &[0; 32]);
        rb.clear();
        assert_eq!(rb.used(), 0);
        assert_eq!(rb.pages(), 0);
        assert!(!rb.contains(PageId(1)));
        assert_eq!(rb.pooled(), 2, "clear returns buffers to the pool");
    }

    #[test]
    #[should_panic(expected = "already copied")]
    fn double_full_copy_panics() {
        let mut rb = RecoveryBuffer::new(4 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        rb.insert_full(PageId(1), &page());
    }

    #[test]
    fn fifo_order_exposed() {
        let mut rb = RecoveryBuffer::new(4 * PAGE_SIZE);
        rb.insert_full(PageId(3), &page());
        rb.insert_full(PageId(1), &page());
        rb.insert_full(PageId(2), &page());
        let order: Vec<_> = rb.pages_fifo().collect();
        assert_eq!(order, vec![PageId(3), PageId(1), PageId(2)]);
    }

    #[test]
    fn removal_anywhere_keeps_fifo_order_and_leaves_no_pile_of_dead_entries() {
        let mut rb = RecoveryBuffer::new(64 * PAGE_SIZE);
        for i in 0..64 {
            rb.insert_full(PageId(i), &page());
        }
        // The overflow victim is the front: it goes at once.
        rb.remove(PageId(0)).unwrap();
        assert_eq!(rb.fifo.len(), 63);
        // A commit drains in page-id order, which here is FIFO order from
        // the back: every removal is an interior one, none is searched for,
        // and the dead never outnumber the live.
        for i in (32..64).rev() {
            rb.remove(PageId(i)).unwrap();
            assert!(rb.fifo.len() <= 2 * rb.pages(), "{} entries, {} live", rb.fifo.len(), i - 1);
            assert!(rb.pages_fifo().eq((1..i).map(PageId)), "order after removing {i}");
        }
        // A page copied again after its copy went queues at the back; its
        // dead entry further up does not make it a victim early.
        rb.remove(PageId(5)).unwrap();
        rb.insert_full(PageId(5), &page());
        let order: Vec<u32> = rb.pages_fifo().map(|p| p.0).collect();
        assert_eq!(order, (1..5).chain(6..32).chain([5]).collect::<Vec<_>>());
        rb.insert_full(PageId(99), &page());
        assert_eq!(rb.used(), 32 * PAGE_SIZE);
        assert_eq!(victims(&mut rb, 35 * PAGE_SIZE), [1, 2, 3].map(PageId));
        // The same page going round and round under a live front entry.
        for _ in 0..1000 {
            rb.remove(PageId(99)).unwrap();
            rb.insert_full(PageId(99), &page());
        }
        assert!(rb.fifo.len() <= 2 * rb.pages() + 1);
        assert_eq!(rb.pages_fifo().last(), Some(PageId(99)));
        rb.clear();
        assert_eq!((rb.pages(), rb.fifo.len(), rb.used()), (0, 0, 0));
    }

    #[test]
    fn recycled_buffers_are_reused() {
        let mut rb = RecoveryBuffer::new(4 * PAGE_SIZE);
        rb.insert_full(PageId(1), &page());
        let c = rb.remove(PageId(1)).unwrap();
        rb.recycle(c);
        assert_eq!(rb.pooled(), 1);
        rb.insert_full(PageId(2), &page());
        assert_eq!(rb.pooled(), 0, "insert drew from the pool");
        // A recycled buffer holds stale bytes; full insert overwrites all
        // of them.
        let mut p = page();
        p.bytes_mut()[100] = 42;
        let c = rb.remove(PageId(2)).unwrap();
        rb.recycle(c);
        rb.insert_full(PageId(3), &p);
        match rb.get(PageId(3)).unwrap() {
            Copied::Full(b) => assert_eq!(b[100], 42),
            _ => panic!("expected full"),
        }
    }

    #[test]
    fn block_ranges_sorted_and_maximal() {
        let mut rb = RecoveryBuffer::new(PAGE_SIZE);
        // Insert out of order; ranges must come back sorted and merged.
        for idx in [5u16, 3, 4, 9, 0] {
            rb.insert_block(PageId(1), 64, idx, &[idx as u8; 64]);
        }
        let mut ranges = Vec::new();
        match rb.get(PageId(1)).unwrap() {
            Copied::Blocks(bc) => bc.append_ranges(&mut ranges),
            _ => panic!("expected blocks"),
        }
        assert_eq!(ranges, vec![(0, 64), (3 * 64, 6 * 64), (9 * 64, 10 * 64)]);
    }

    #[test]
    fn block_ranges_cross_bitmap_words() {
        // 8-byte blocks -> 1024 blocks -> spans all 16 bitmap words.
        let mut rb = RecoveryBuffer::new(PAGE_SIZE);
        for idx in [0u16, 63, 64, 65, 1023] {
            rb.insert_block(PageId(1), 8, idx, &[1; 8]);
        }
        let mut ranges = Vec::new();
        match rb.get(PageId(1)).unwrap() {
            Copied::Blocks(bc) => bc.append_ranges(&mut ranges),
            _ => panic!("expected blocks"),
        }
        assert_eq!(ranges, vec![(0, 8), (63 * 8, 66 * 8), (1023 * 8, 1024 * 8)]);
    }
}
