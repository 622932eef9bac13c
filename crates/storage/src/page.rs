//! The 8 KB slotted page.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! 0        8        10       12      16                              8192
//! +--------+--------+--------+-------+------- objects → ... ← slots -+
//! | pageLSN| nslots | freeOff| rsvd  |                                |
//! +--------+--------+--------+-------+--------------------------------+
//! ```
//!
//! Object data grows upward from [`PAGE_HEADER_SIZE`]; the slot directory
//! grows downward from the end of the page, 4 bytes per slot
//! (`offset: u16, len: u16`). A slot with `len == 0` is free.
//!
//! QuickStore maps pages into application frames, so **object offsets are
//! stable once allocated**: compaction is provided (and tested) but the
//! QuickStore runtime never compacts a page that is mapped, because
//! swizzled pointers embed offsets.

use qs_types::{Lsn, PageId, QsError, QsResult, PAGE_SIZE};

/// Bytes reserved at the front of every page for the header.
pub const PAGE_HEADER_SIZE: usize = 16;
/// Bytes per slot-directory entry.
const SLOT_SIZE: usize = 4;
/// Largest object a page can store (one slot entry + header overhead).
pub const MAX_OBJECT_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE - SLOT_SIZE;

const OFF_LSN: usize = 0;
const OFF_NSLOTS: usize = 8;
const OFF_FREE: usize = 10;

/// One 8 KB page. Boxed internally so moves are cheap and pools can hold
/// thousands without blowing the stack.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("lsn", &self.lsn())
            .field("nslots", &self.num_slots())
            .field("free", &self.free_space())
            .finish()
    }
}

impl Page {
    /// A fresh, formatted, empty page.
    pub fn new() -> Page {
        let mut p = Page { buf: Box::new([0u8; PAGE_SIZE]) };
        p.format();
        p
    }

    /// (Re)format: zero slots, data area empty. Does not clear the LSN.
    pub fn format(&mut self) {
        self.set_u16(OFF_NSLOTS, 0);
        self.set_u16(OFF_FREE, PAGE_HEADER_SIZE as u16);
    }

    /// Construct from raw bytes (e.g. read back from a volume or the log).
    pub fn from_bytes(bytes: &[u8]) -> QsResult<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(QsError::LogCorrupt {
                detail: format!("page image of {} bytes, expected {PAGE_SIZE}", bytes.len()),
            });
        }
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf.copy_from_slice(bytes);
        Ok(Page { buf })
    }

    /// The full raw image (for shipping / logging whole pages).
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Mutable raw image. Callers are trusted to preserve the layout; this
    /// is how mapped frames and redo application write through.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    // -- header ------------------------------------------------------------

    /// ARIES pageLSN: the LSN of the last log record applied to this page.
    pub fn lsn(&self) -> Lsn {
        Lsn(u64::from_le_bytes(self.buf[OFF_LSN..OFF_LSN + 8].try_into().unwrap()))
    }

    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.buf[OFF_LSN..OFF_LSN + 8].copy_from_slice(&lsn.0.to_le_bytes());
    }

    #[inline]
    pub fn num_slots(&self) -> u16 {
        self.get_u16(OFF_NSLOTS)
    }

    fn free_off(&self) -> usize {
        self.get_u16(OFF_FREE) as usize
    }

    fn slot_table_start(&self) -> usize {
        PAGE_SIZE - self.num_slots() as usize * SLOT_SIZE
    }

    /// Contiguous free bytes between the data area and the slot directory.
    pub fn free_space(&self) -> usize {
        self.slot_table_start() - self.free_off()
    }

    // -- slot directory ------------------------------------------------------

    #[inline]
    fn slot_entry(&self, slot: u16) -> Option<(usize, usize)> {
        if slot >= self.num_slots() {
            return None;
        }
        let at = PAGE_SIZE - (slot as usize + 1) * SLOT_SIZE;
        let off = self.get_u16(at) as usize;
        let len = self.get_u16(at + 2) as usize;
        if len == 0 {
            None
        } else {
            Some((off, len))
        }
    }

    fn set_slot_entry(&mut self, slot: u16, off: u16, len: u16) {
        let at = PAGE_SIZE - (slot as usize + 1) * SLOT_SIZE;
        self.set_u16(at, off);
        self.set_u16(at + 2, len);
    }

    /// Insert an object, returning its slot. Fails with [`QsError::PageFull`]
    /// if there is not enough contiguous free space (no implicit compaction:
    /// see the module docs for why).
    pub fn insert(&mut self, page_id: PageId, data: &[u8]) -> QsResult<u16> {
        if data.is_empty() || data.len() > MAX_OBJECT_SIZE {
            return Err(QsError::ObjectTooLarge { size: data.len(), max: MAX_OBJECT_SIZE });
        }
        // Reuse a freed slot if one exists, else grow the directory.
        let nslots = self.num_slots();
        let reuse = (0..nslots).find(|&s| self.slot_entry(s).is_none());
        let need_slot_bytes = if reuse.is_some() { 0 } else { SLOT_SIZE };
        if data.len() + need_slot_bytes > self.free_space() {
            return Err(QsError::PageFull {
                page: page_id,
                need: data.len() + need_slot_bytes,
                free: self.free_space(),
            });
        }
        let off = self.free_off();
        self.buf[off..off + data.len()].copy_from_slice(data);
        self.set_u16(OFF_FREE, (off + data.len()) as u16);
        let slot = match reuse {
            Some(s) => s,
            None => {
                self.set_u16(OFF_NSLOTS, nslots + 1);
                nslots
            }
        };
        self.set_slot_entry(slot, off as u16, data.len() as u16);
        Ok(slot)
    }

    /// Read an object.
    pub fn object(&self, page_id: PageId, slot: u16) -> QsResult<&[u8]> {
        match self.slot_entry(slot) {
            Some((off, len)) => Ok(&self.buf[off..off + len]),
            None => Err(QsError::NoSuchObject(qs_types::Oid::new(page_id, slot))),
        }
    }

    /// Mutable view of an object (in-place update — this is what a mapped
    /// frame write ultimately performs).
    pub fn object_mut(&mut self, page_id: PageId, slot: u16) -> QsResult<&mut [u8]> {
        match self.slot_entry(slot) {
            Some((off, len)) => Ok(&mut self.buf[off..off + len]),
            None => Err(QsError::NoSuchObject(qs_types::Oid::new(page_id, slot))),
        }
    }

    /// Byte offset of an object within the page (for virtual-address
    /// computation when the page is mapped into a frame).
    #[inline]
    pub fn object_offset(&self, page_id: PageId, slot: u16) -> QsResult<(usize, usize)> {
        self.slot_entry(slot).ok_or(QsError::NoSuchObject(qs_types::Oid::new(page_id, slot)))
    }

    /// Overwrite an object with same-length data.
    pub fn write(&mut self, page_id: PageId, slot: u16, data: &[u8]) -> QsResult<()> {
        let dst = self.object_mut(page_id, slot)?;
        if dst.len() != data.len() {
            return Err(QsError::Protocol {
                detail: format!(
                    "in-place write of {} bytes over object of {} bytes",
                    data.len(),
                    dst.len()
                ),
            });
        }
        dst.copy_from_slice(data);
        Ok(())
    }

    /// Free a slot. Space is not reclaimed until [`Page::compact`].
    pub fn free(&mut self, page_id: PageId, slot: u16) -> QsResult<()> {
        if self.slot_entry(slot).is_none() {
            return Err(QsError::NoSuchObject(qs_types::Oid::new(page_id, slot)));
        }
        self.set_slot_entry(slot, 0, 0);
        Ok(())
    }

    /// Slide live objects together, preserving slot numbers (offsets move!).
    /// Never called on a mapped page.
    pub fn compact(&mut self) {
        let nslots = self.num_slots();
        let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
        for s in 0..nslots {
            if let Some((off, len)) = self.slot_entry(s) {
                live.push((s, self.buf[off..off + len].to_vec()));
            }
        }
        let mut off = PAGE_HEADER_SIZE;
        for (s, data) in &live {
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot_entry(*s, off as u16, data.len() as u16);
            off += data.len();
        }
        self.set_u16(OFF_FREE, off as u16);
    }

    /// Iterate (slot, offset, len) of live objects — the diff algorithm
    /// walks this to diff object-by-object (log records cannot span
    /// objects, §3.2.2).
    pub fn live_objects(&self) -> impl Iterator<Item = (u16, usize, usize)> + '_ {
        (0..self.num_slots()).filter_map(move |s| self.slot_entry(s).map(|(o, l)| (s, o, l)))
    }

    /// Total bytes of live object data.
    pub fn live_bytes(&self) -> usize {
        self.live_objects().map(|(_, _, l)| l).sum()
    }

    // -- little-endian helpers ----------------------------------------------

    #[inline]
    fn get_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn set_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PID: PageId = PageId(42);

    #[test]
    fn insert_and_read_round_trip() {
        let mut p = Page::new();
        let s1 = p.insert(PID, b"hello").unwrap();
        let s2 = p.insert(PID, b"world!").unwrap();
        assert_eq!(p.object(PID, s1).unwrap(), b"hello");
        assert_eq!(p.object(PID, s2).unwrap(), b"world!");
        assert_eq!(p.num_slots(), 2);
    }

    #[test]
    fn lsn_round_trip_survives_inserts() {
        let mut p = Page::new();
        p.set_lsn(Lsn(0xDEAD_BEEF));
        p.insert(PID, &[1; 100]).unwrap();
        assert_eq!(p.lsn(), Lsn(0xDEAD_BEEF));
    }

    #[test]
    fn in_place_write() {
        let mut p = Page::new();
        let s = p.insert(PID, &[0u8; 8]).unwrap();
        p.write(PID, s, &[9u8; 8]).unwrap();
        assert_eq!(p.object(PID, s).unwrap(), &[9u8; 8]);
        // Length mismatch is rejected.
        assert!(p.write(PID, s, &[1u8; 4]).is_err());
    }

    #[test]
    fn free_and_slot_reuse() {
        let mut p = Page::new();
        let s0 = p.insert(PID, &[1; 10]).unwrap();
        let _s1 = p.insert(PID, &[2; 10]).unwrap();
        p.free(PID, s0).unwrap();
        assert!(p.object(PID, s0).is_err());
        let s2 = p.insert(PID, &[3; 10]).unwrap();
        assert_eq!(s2, s0, "freed slot is reused");
        assert_eq!(p.num_slots(), 2);
    }

    #[test]
    fn double_free_is_error() {
        let mut p = Page::new();
        let s = p.insert(PID, &[1; 4]).unwrap();
        p.free(PID, s).unwrap();
        assert!(p.free(PID, s).is_err());
    }

    #[test]
    fn page_full_reports_need_and_free() {
        let mut p = Page::new();
        let big = vec![7u8; MAX_OBJECT_SIZE];
        p.insert(PID, &big).unwrap();
        match p.insert(PID, &[1]) {
            Err(QsError::PageFull { free, .. }) => assert_eq!(free, 0),
            other => panic!("expected PageFull, got {other:?}"),
        }
    }

    #[test]
    fn oversized_object_rejected() {
        let mut p = Page::new();
        assert!(matches!(
            p.insert(PID, &vec![0u8; MAX_OBJECT_SIZE + 1]),
            Err(QsError::ObjectTooLarge { .. })
        ));
        assert!(matches!(p.insert(PID, &[]), Err(QsError::ObjectTooLarge { .. })));
    }

    #[test]
    fn compact_reclaims_space_and_preserves_slots() {
        let mut p = Page::new();
        let s0 = p.insert(PID, &[1; 1000]).unwrap();
        let s1 = p.insert(PID, &[2; 1000]).unwrap();
        let s2 = p.insert(PID, &[3; 1000]).unwrap();
        let before = p.free_space();
        p.free(PID, s1).unwrap();
        p.compact();
        assert_eq!(p.free_space(), before + 1000);
        assert_eq!(p.object(PID, s0).unwrap(), &[1u8; 1000][..]);
        assert_eq!(p.object(PID, s2).unwrap(), &[3u8; 1000][..]);
        assert!(p.object(PID, s1).is_err());
    }

    #[test]
    fn live_objects_iterates_in_slot_order() {
        let mut p = Page::new();
        p.insert(PID, &[1; 8]).unwrap();
        let s1 = p.insert(PID, &[2; 16]).unwrap();
        p.insert(PID, &[3; 24]).unwrap();
        p.free(PID, s1).unwrap();
        let v: Vec<_> = p.live_objects().map(|(s, _, l)| (s, l)).collect();
        assert_eq!(v, vec![(0, 8), (2, 24)]);
        assert_eq!(p.live_bytes(), 32);
    }

    #[test]
    fn from_bytes_round_trip() {
        let mut p = Page::new();
        p.set_lsn(Lsn(5));
        p.insert(PID, b"abc").unwrap();
        let q = Page::from_bytes(p.bytes()).unwrap();
        assert_eq!(p, q);
        assert!(Page::from_bytes(&[0u8; 17]).is_err());
    }

    #[test]
    fn fills_to_capacity_with_small_objects() {
        let mut p = Page::new();
        let mut n = 0usize;
        while p.insert(PID, &[0xAB; 60]).is_ok() {
            n += 1;
        }
        // 60-byte objects + 4-byte slots = 64 bytes each; (8192-16)/64 = 127.
        assert_eq!(n, (PAGE_SIZE - PAGE_HEADER_SIZE) / 64);
    }
}
