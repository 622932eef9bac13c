//! A volume: an array of pages on a stable medium, plus a tiny durable
//! header recording how many pages have been allocated.
//!
//! Layout on the medium: one header page (allocation count + magic) followed
//! by `capacity` data pages. Allocation is append-only, as in ESM volumes;
//! page allocation during normal operation is additionally logged by the
//! server so that restart can reconcile a header that lags the log.

use crate::page::Page;
use crate::stable::StableMedia;
use qs_types::{PageId, QsError, QsResult, PAGE_SIZE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: u64 = 0x51_5356_4F4C_u64; // "QSVOL"

/// A page array on stable storage.
pub struct Volume {
    media: Arc<dyn StableMedia>,
    capacity: usize,
    allocated: AtomicUsize,
}

impl Volume {
    /// Bytes of stable storage needed for a volume of `capacity` pages.
    pub fn required_bytes(capacity: usize) -> usize {
        (capacity + 1) * PAGE_SIZE
    }

    /// Format a fresh volume on `media`.
    pub fn format(media: Arc<dyn StableMedia>, capacity: usize) -> QsResult<Volume> {
        if media.len() < Self::required_bytes(capacity) {
            return Err(QsError::Config {
                detail: format!(
                    "media of {} bytes too small for {} pages (+header)",
                    media.len(),
                    capacity
                ),
            });
        }
        let v = Volume { media, capacity, allocated: AtomicUsize::new(0) };
        v.write_header()?;
        Ok(v)
    }

    /// Re-open a previously formatted volume (after a crash/restart).
    pub fn open(media: Arc<dyn StableMedia>) -> QsResult<Volume> {
        let mut hdr = [0u8; 24];
        media.read_at(0, &mut hdr)?;
        let magic = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        if magic != MAGIC {
            return Err(QsError::RecoveryFailed { detail: "volume header magic mismatch".into() });
        }
        let capacity = u64::from_le_bytes(hdr[8..16].try_into().unwrap()) as usize;
        let allocated = u64::from_le_bytes(hdr[16..24].try_into().unwrap()) as usize;
        if media.len() < Self::required_bytes(capacity) || allocated > capacity {
            return Err(QsError::RecoveryFailed { detail: "volume header inconsistent".into() });
        }
        Ok(Volume { media, capacity, allocated: AtomicUsize::new(allocated) })
    }

    fn write_header(&self) -> QsResult<()> {
        let mut hdr = [0u8; 24];
        hdr[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        hdr[8..16].copy_from_slice(&(self.capacity as u64).to_le_bytes());
        hdr[16..24].copy_from_slice(&(self.allocated.load(Ordering::SeqCst) as u64).to_le_bytes());
        self.media.write_at(0, &hdr)
    }

    /// Persist the allocation count (called at checkpoint/commit points).
    pub fn sync_header(&self) -> QsResult<()> {
        self.write_header()?;
        self.media.sync()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages allocated so far.
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::SeqCst)
    }

    fn byte_offset(&self, page: PageId) -> QsResult<usize> {
        if page.index() >= self.capacity {
            return Err(QsError::PageOutOfBounds { page, volume_pages: self.capacity });
        }
        Ok((page.index() + 1) * PAGE_SIZE)
    }

    /// Allocate the next page. The page's on-media content is whatever was
    /// there (zeroes on a fresh volume); callers format it.
    pub fn allocate(&self) -> QsResult<PageId> {
        let idx = self.allocated.fetch_add(1, Ordering::SeqCst);
        if idx >= self.capacity {
            self.allocated.store(self.capacity, Ordering::SeqCst);
            return Err(QsError::PageOutOfBounds {
                page: PageId(idx as u32),
                volume_pages: self.capacity,
            });
        }
        Ok(PageId(idx as u32))
    }

    /// Force the allocation count to at least `n` (restart reconciliation:
    /// the log may record allocations the header missed).
    pub fn ensure_allocated(&self, n: usize) -> QsResult<()> {
        if n > self.capacity {
            return Err(QsError::PageOutOfBounds {
                page: PageId(n as u32),
                volume_pages: self.capacity,
            });
        }
        self.allocated.fetch_max(n, Ordering::SeqCst);
        Ok(())
    }

    /// Read a page from the permanent location (the caller meters disk I/O).
    pub fn read_page(&self, page: PageId) -> QsResult<Page> {
        let off = self.byte_offset(page)?;
        // Straight into the page's own buffer: one allocation, one copy.
        let mut p = Page::new();
        self.media.read_at(off, p.bytes_mut())?;
        Ok(p)
    }

    /// Write a page to its permanent location.
    pub fn write_page(&self, page: PageId, p: &Page) -> QsResult<()> {
        let off = self.byte_offset(page)?;
        self.media.write_at(off, p.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::MemDisk;

    fn vol(pages: usize) -> Volume {
        let media = Arc::new(MemDisk::new(Volume::required_bytes(pages)));
        Volume::format(media, pages).unwrap()
    }

    #[test]
    fn allocate_read_write() {
        let v = vol(4);
        let p0 = v.allocate().unwrap();
        let p1 = v.allocate().unwrap();
        assert_eq!(p0, PageId(0));
        assert_eq!(p1, PageId(1));
        let mut pg = Page::new();
        pg.insert(p1, b"stored").unwrap();
        v.write_page(p1, &pg).unwrap();
        let back = v.read_page(p1).unwrap();
        assert_eq!(back.object(p1, 0).unwrap(), b"stored");
    }

    #[test]
    fn allocation_exhausts_at_capacity() {
        let v = vol(2);
        v.allocate().unwrap();
        v.allocate().unwrap();
        assert!(v.allocate().is_err());
        assert_eq!(v.allocated(), 2);
    }

    #[test]
    fn out_of_bounds_page_rejected() {
        let v = vol(2);
        assert!(v.read_page(PageId(2)).is_err());
        assert!(v.write_page(PageId(99), &Page::new()).is_err());
    }

    #[test]
    fn reopen_after_crash_preserves_pages_and_count() {
        let media: Arc<dyn StableMedia> = Arc::new(MemDisk::new(Volume::required_bytes(3)));
        {
            let v = Volume::format(Arc::clone(&media), 3).unwrap();
            let p = v.allocate().unwrap();
            let mut pg = Page::new();
            pg.insert(p, b"survives").unwrap();
            v.write_page(p, &pg).unwrap();
            v.sync_header().unwrap();
            // v dropped here = crash of all volatile state.
        }
        let v = Volume::open(media).unwrap();
        assert_eq!(v.allocated(), 1);
        let pg = v.read_page(PageId(0)).unwrap();
        assert_eq!(pg.object(PageId(0), 0).unwrap(), b"survives");
    }

    #[test]
    fn open_rejects_unformatted_media() {
        let media: Arc<dyn StableMedia> = Arc::new(MemDisk::new(Volume::required_bytes(1)));
        assert!(Volume::open(media).is_err());
    }

    #[test]
    fn ensure_allocated_reconciles_upward_only() {
        let v = vol(5);
        v.allocate().unwrap();
        v.ensure_allocated(3).unwrap();
        assert_eq!(v.allocated(), 3);
        v.ensure_allocated(2).unwrap(); // no shrink
        assert_eq!(v.allocated(), 3);
        assert!(v.ensure_allocated(6).is_err());
    }
}
