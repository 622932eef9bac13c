//! Page descriptors and the in-memory descriptor table (paper §3.2.1).
//!
//! QuickStore keeps one descriptor per virtual frame that has been
//! associated with a database page. The fault handler's first act is to
//! search "an in-memory table … implemented as a height balanced binary
//! tree" with the faulting address; we use our own [`crate::avl::AvlMap`]
//! keyed by frame base address, exactly as described.
//!
//! The frame ↔ page binding is permanent for the life of the store (the
//! address space is large; QuickStore likewise leaves mappings in place so
//! swizzled pointers stay valid). Eviction merely drops residency and
//! protection; a later dereference faults and reloads the same page into
//! the same frame.

use crate::avl::AvlMap;
use qs_types::{FrameId, IdMap, PageId, QsError, QsResult, VAddr, PAGE_SIZE};

/// Status of one mapped page (Figure 1's page-descriptor entry).
#[derive(Debug, Clone)]
pub struct PageDescriptor {
    pub page: PageId,
    pub frame: FrameId,
    /// Recovery actions for the current transaction are complete (page or
    /// blocks copied / dirty-marked, lock held, write enabled as needed).
    pub recovery_enabled: bool,
    /// This transaction holds an exclusive lock on the page.
    pub x_locked: bool,
    /// This transaction holds at least a shared lock (ESM caches pages
    /// across transactions but never locks, §3.1 — so the first touch per
    /// transaction re-faults and re-locks).
    pub s_locked: bool,
    /// Page was created by the current transaction (flushed as a whole-page
    /// image, the way ESM logs new pages).
    pub created_this_txn: bool,
}

impl PageDescriptor {
    fn new(page: PageId, frame: FrameId) -> PageDescriptor {
        PageDescriptor {
            page,
            frame,
            recovery_enabled: false,
            x_locked: false,
            s_locked: false,
            created_this_txn: false,
        }
    }

    /// Base virtual address of the frame this page maps to.
    pub fn base_vaddr(&self) -> VAddr {
        VAddr::new(self.frame, 0)
    }

    /// Reset per-transaction state (commit/abort boundary: locks released,
    /// recovery must be re-enabled by the next update).
    pub fn end_txn(&mut self) {
        self.recovery_enabled = false;
        self.x_locked = false;
        self.s_locked = false;
        self.created_this_txn = false;
    }
}

/// The descriptor table: page → descriptor plus the AVL index by address.
#[derive(Debug, Default)]
pub struct DescriptorTable {
    by_page: IdMap<PageId, PageDescriptor>,
    by_vaddr: AvlMap<u64, PageId>,
}

impl DescriptorTable {
    pub fn new() -> DescriptorTable {
        DescriptorTable::default()
    }

    pub fn len(&self) -> usize {
        self.by_page.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_page.is_empty()
    }

    /// Bind `page` to `frame` (first touch). Returns the new descriptor.
    pub fn bind(&mut self, page: PageId, frame: FrameId) -> &mut PageDescriptor {
        let d = PageDescriptor::new(page, frame);
        self.by_vaddr.insert(d.base_vaddr().0, page);
        self.by_page.entry(page).or_insert(d)
    }

    pub fn get(&self, page: PageId) -> Option<&PageDescriptor> {
        self.by_page.get(&page)
    }

    pub fn get_mut(&mut self, page: PageId) -> Option<&mut PageDescriptor> {
        self.by_page.get_mut(&page)
    }

    /// The fault handler's search: which descriptor covers this address?
    pub fn lookup_vaddr(&self, va: VAddr) -> QsResult<&PageDescriptor> {
        let (&base, &page) = self.by_vaddr.floor(&va.0).ok_or_else(|| {
            QsError::UnmappedAddress { detail: format!("{va} below every mapped frame") }
        })?;
        if va.0 - base >= PAGE_SIZE as u64 {
            return Err(QsError::UnmappedAddress {
                detail: format!("{va} past the frame mapped at 0x{base:x}"),
            });
        }
        self.by_page.get(&page).ok_or_else(|| QsError::UnmappedAddress {
            detail: format!("descriptor index desynchronized at {va}"),
        })
    }

    /// Iterate all descriptors, in no particular order (invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = &PageDescriptor> {
        self.by_page.values()
    }

    /// AVL height (diagnostics: must stay logarithmic in mapped pages).
    pub fn index_height(&self) -> usize {
        self.by_vaddr.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_lookup_by_address() {
        let mut t = DescriptorTable::new();
        t.bind(PageId(10), FrameId(0));
        t.bind(PageId(20), FrameId(1));
        t.bind(PageId(30), FrameId(2));
        // An address in the middle of frame 1 resolves to page 20.
        let va = VAddr::new(FrameId(1), 4000);
        assert_eq!(t.lookup_vaddr(va).unwrap().page, PageId(20));
        // Frame base and last byte also resolve.
        assert_eq!(t.lookup_vaddr(VAddr::new(FrameId(2), 0)).unwrap().page, PageId(30));
        assert_eq!(t.lookup_vaddr(VAddr::new(FrameId(0), PAGE_SIZE - 1)).unwrap().page, PageId(10));
    }

    #[test]
    fn lookup_outside_mapped_space_fails() {
        let mut t = DescriptorTable::new();
        assert!(t.lookup_vaddr(VAddr::new(FrameId(0), 0)).is_err());
        t.bind(PageId(10), FrameId(5));
        // Below the only mapping.
        assert!(t.lookup_vaddr(VAddr::new(FrameId(4), 100)).is_err());
        // Above it (frame 6 was never bound).
        assert!(t.lookup_vaddr(VAddr::new(FrameId(6), 0)).is_err());
    }

    #[test]
    fn end_txn_resets_flags() {
        let mut t = DescriptorTable::new();
        let d = t.bind(PageId(1), FrameId(0));
        d.recovery_enabled = true;
        d.x_locked = true;
        d.s_locked = true;
        d.created_this_txn = true;
        d.end_txn();
        assert!(!d.recovery_enabled && !d.x_locked && !d.s_locked && !d.created_this_txn);
    }

    #[test]
    fn rebind_is_idempotent() {
        let mut t = DescriptorTable::new();
        t.bind(PageId(1), FrameId(0)).recovery_enabled = true;
        // Binding again keeps the existing descriptor.
        let d = t.bind(PageId(1), FrameId(0));
        assert!(d.recovery_enabled);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn index_stays_balanced_over_many_pages() {
        let mut t = DescriptorTable::new();
        for i in 0..4096u32 {
            t.bind(PageId(i), FrameId(i));
        }
        assert!(t.index_height() <= 24, "AVL height {}", t.index_height());
        assert_eq!(t.len(), 4096);
    }
}
