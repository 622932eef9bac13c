//! The log's one encoder: allocation-free serialization of log records
//! into a batch buffer.
//!
//! [`RecordWriter`] appends encoded records directly to a caller-provided
//! `Vec<u8>`, building each record in place from borrowed slices. Each
//! method below is the one place its tag's body layout is written
//! ([`LogRecord::encode`](crate::LogRecord::encode) dispatches onto them;
//! `record.rs` reads the same layouts back). On the steady-state commit
//! path the backing buffer is reused across transactions, so writing a
//! record performs zero heap allocations once the buffer has grown to its
//! high-water mark.

use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};

use crate::record::{
    frame_seal, tag, CheckpointBody, SchemeCode, LEN_RANGE, PREFIX, PREV_RANGE, TAG_AT, TRAILER,
    TXN_RANGE,
};

/// Streams encoded log records into a borrowed batch buffer.
pub struct RecordWriter<'a> {
    buf: &'a mut Vec<u8>,
    records: usize,
}

/// Cursor over the body bytes of the frame being written.
struct Put<'a>(&'a mut [u8]);

impl Put<'_> {
    #[inline]
    fn bytes(&mut self, v: &[u8]) -> &mut Self {
        let (head, rest) = std::mem::take(&mut self.0).split_at_mut(v.len());
        head.copy_from_slice(v);
        self.0 = rest;
        self
    }
    fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }
    #[inline]
    fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    #[inline]
    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

impl<'a> RecordWriter<'a> {
    /// Wrap `buf`, appending after any bytes already present.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        RecordWriter { buf, records: 0 }
    }

    /// Number of records written through this writer.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Append one frame: the fixed fields, `body` bytes written by `fill`,
    /// zero padding up to the paper's size model — `LOG_HEADER_SIZE` plus
    /// the `payload` bytes §3.2.2 counts (images, a page, table entries),
    /// never less than the wire fields need — the trailer, the checksum.
    /// Returns the frame's length.
    #[inline]
    fn frame(
        &mut self,
        tag: u8,
        (txn, prev): (TxnId, Lsn),
        (body, payload): (usize, usize),
        fill: impl FnOnce(&mut Put<'_>),
    ) -> usize {
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + payload);
        let at = self.buf.len();
        self.buf.resize(at + total, 0);
        let rec = &mut self.buf[at..];
        let len = (total as u32).to_le_bytes();
        rec[LEN_RANGE].copy_from_slice(&len);
        rec[TAG_AT] = tag;
        rec[TXN_RANGE].copy_from_slice(&txn.0.to_le_bytes());
        rec[PREV_RANGE].copy_from_slice(&prev.0.to_le_bytes());
        let mut put = Put(&mut rec[PREFIX..PREFIX + body]);
        fill(&mut put);
        debug_assert!(put.0.is_empty(), "tag {tag} wrote less than its declared body");
        rec[total - TRAILER..].copy_from_slice(&len);
        frame_seal(rec);
        self.records += 1;
        total
    }

    /// Append an `Update` record built from borrowed images. Returns its
    /// encoded length.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        before: &[u8],
        after: &[u8],
    ) -> usize {
        let images = before.len() + after.len();
        self.frame(tag::UPDATE, (txn, prev), (12 + images, images), |b| {
            b.u32(page.0).u16(slot).u16(offset);
            b.u16(before.len() as u16).u16(after.len() as u16).bytes(before).bytes(after);
        })
    }

    /// Append an `UpdateLogical` record (REDO-only: no before image) built
    /// from a borrowed after image. Returns its encoded length.
    pub fn update_logical(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        after: &[u8],
    ) -> usize {
        self.frame(tag::UPDATE_LOGICAL, (txn, prev), (10 + after.len(), after.len()), |b| {
            b.u32(page.0).u16(slot).u16(offset).u16(after.len() as u16).bytes(after);
        })
    }

    /// Append a `Clr` record compensating one undone update: `after` is
    /// the before-image that undo put back, `undo_next` where rollback
    /// continues. Returns its encoded length.
    #[allow(clippy::too_many_arguments)]
    pub fn clr(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        after: &[u8],
        undo_next: Lsn,
    ) -> usize {
        self.frame(tag::CLR, (txn, prev), (18 + after.len(), after.len() + 8), |b| {
            b.u32(page.0)
                .u16(slot)
                .u16(offset)
                .u16(after.len() as u16)
                .bytes(after)
                .u64(undo_next.0);
        })
    }

    /// Append a `TxnScheme` record declaring the transaction's elected
    /// logging scheme (the first record of an adaptively-logged chain).
    /// Returns its encoded length.
    pub fn scheme_mark(&mut self, txn: TxnId, prev: Lsn, scheme: SchemeCode) -> usize {
        self.frame(tag::TXN_SCHEME, (txn, prev), (1, 0), |b| {
            b.u8(scheme as u8);
        })
    }

    /// Append a `WholePage` record from a borrowed page image. Returns its
    /// encoded length.
    pub fn whole_page(
        &mut self,
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        image: &[u8; PAGE_SIZE],
    ) -> usize {
        self.frame(tag::WHOLE_PAGE, (txn, prev), (4 + PAGE_SIZE, PAGE_SIZE), |b| {
            b.u32(page.0).bytes(image);
        })
    }

    /// Append a `PageAlloc` record. Returns its encoded length.
    pub fn page_alloc(&mut self, txn: TxnId, prev: Lsn, page: PageId) -> usize {
        self.frame(tag::PAGE_ALLOC, (txn, prev), (4, 0), |b| {
            b.u32(page.0);
        })
    }

    /// Append a `Commit` record. Returns its encoded length.
    pub fn commit(&mut self, txn: TxnId, prev: Lsn) -> usize {
        self.frame(tag::COMMIT, (txn, prev), (0, 0), |_| {})
    }

    /// Append an `Abort` record. Returns its encoded length.
    pub fn abort(&mut self, txn: TxnId, prev: Lsn) -> usize {
        self.frame(tag::ABORT, (txn, prev), (0, 0), |_| {})
    }

    /// Append a `Checkpoint` record. It belongs to no transaction, and all
    /// of its body counts as payload. Returns its encoded length.
    pub fn checkpoint(&mut self, body: &CheckpointBody) -> usize {
        let CheckpointBody { active_txns, dirty_pages, wpl_entries, allocated_pages } = body;
        let len = 4
            + 16 * active_txns.len()
            + 4
            + 12 * dirty_pages.len()
            + 4
            + 21 * wpl_entries.len()
            + 8;
        self.frame(tag::CHECKPOINT, (TxnId::INVALID, Lsn::NULL), (len, len), |b| {
            b.u32(active_txns.len() as u32);
            for (txn, last) in active_txns {
                b.u64(txn.0).u64(last.0);
            }
            b.u32(dirty_pages.len() as u32);
            for (page, rec_lsn) in dirty_pages {
                b.u32(page.0).u64(rec_lsn.0);
            }
            b.u32(wpl_entries.len() as u32);
            for e in wpl_entries {
                b.u32(e.page.0).u64(e.lsn.0).u64(e.txn.0).u8(e.committed as u8);
            }
            b.u64(*allocated_pages);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::frame_len;

    #[test]
    fn frames_are_appended_whole_and_counted() {
        let mut buf = vec![0xAA, 0xBB]; // the writer must append, not overwrite
        let mut w = RecordWriter::new(&mut buf);
        let a = w.commit(TxnId(1), Lsn::NULL);
        let b = w.update(TxnId(1), Lsn::NULL, PageId(1), 0, 0, &[1; 3], &[2; 3]);
        assert_eq!(w.records(), 2);
        assert_eq!(buf[..2], [0xAA, 0xBB]);
        assert_eq!(buf.len(), 2 + a + b);
        assert_eq!(frame_len(&buf[2..]).unwrap(), a);
        assert_eq!(frame_len(&buf[2 + a..]).unwrap(), b);
    }

    #[test]
    fn steady_state_writes_do_not_allocate_past_high_water_mark() {
        let mut buf = Vec::new();
        let before = [1u8; 32];
        let after = [2u8; 32];
        {
            let mut w = RecordWriter::new(&mut buf);
            w.update(TxnId(1), Lsn::NULL, PageId(1), 0, 0, &before, &after);
        }
        let cap = buf.capacity();
        for _ in 0..100 {
            buf.clear();
            let mut w = RecordWriter::new(&mut buf);
            w.update(TxnId(1), Lsn::NULL, PageId(1), 0, 0, &before, &after);
        }
        assert_eq!(buf.capacity(), cap);
    }
}
