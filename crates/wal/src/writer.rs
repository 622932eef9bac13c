//! Allocation-free serialization of log records into a batch buffer.
//!
//! [`RecordWriter`] appends encoded records directly to a caller-provided
//! `Vec<u8>`, building each record in place from borrowed before/after
//! slices. The bytes produced are identical to
//! [`LogRecord::encode`](crate::LogRecord::encode) — asserted by tests —
//! so a batch built here can be framed, shipped, and decoded by the same
//! codec. On the steady-state commit path the backing buffer is reused
//! across transactions, so writing a record performs zero heap
//! allocations once the buffer has grown to its high-water mark.

use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};

use crate::record::{frame_seal, tag, PREFIX, TRAILER};

/// Streams encoded log records into a borrowed batch buffer.
pub struct RecordWriter<'a> {
    buf: &'a mut Vec<u8>,
    records: usize,
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

    /// Reserve `total` bytes of zeroed space and fill the fixed header.
    /// Returns the offset of the new record within the buffer.
    fn begin(&mut self, total: usize, tag: u8, txn: TxnId, prev: Lsn) -> usize {
        let at = self.buf.len();
        self.buf.resize(at + total, 0);
        let rec = &mut self.buf[at..];
        rec[0..4].copy_from_slice(&(total as u32).to_le_bytes());
        rec[8] = tag;
        rec[9..17].copy_from_slice(&txn.0.to_le_bytes());
        rec[17..25].copy_from_slice(&prev.0.to_le_bytes());
        at
    }

    /// Write the trailer and checksum for the record starting at `at`.
    fn finish(&mut self, at: usize, total: usize) {
        let rec = &mut self.buf[at..at + total];
        rec[total - 4..].copy_from_slice(&(total as u32).to_le_bytes());
        frame_seal(rec);
        self.records += 1;
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
        let body = 12 + before.len() + after.len();
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + before.len() + after.len());
        let at = self.begin(total, tag::UPDATE, txn, prev);
        let b = &mut self.buf[at + PREFIX..];
        b[0..4].copy_from_slice(&page.0.to_le_bytes());
        b[4..6].copy_from_slice(&slot.to_le_bytes());
        b[6..8].copy_from_slice(&offset.to_le_bytes());
        b[8..10].copy_from_slice(&(before.len() as u16).to_le_bytes());
        b[10..12].copy_from_slice(&(after.len() as u16).to_le_bytes());
        b[12..12 + before.len()].copy_from_slice(before);
        b[12 + before.len()..body].copy_from_slice(after);
        self.finish(at, total);
        total
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
        let body = 10 + after.len();
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + after.len());
        let at = self.begin(total, tag::UPDATE_LOGICAL, txn, prev);
        let b = &mut self.buf[at + PREFIX..];
        b[0..4].copy_from_slice(&page.0.to_le_bytes());
        b[4..6].copy_from_slice(&slot.to_le_bytes());
        b[6..8].copy_from_slice(&offset.to_le_bytes());
        b[8..10].copy_from_slice(&(after.len() as u16).to_le_bytes());
        b[10..body].copy_from_slice(after);
        self.finish(at, total);
        total
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
        let body = 18 + after.len();
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + after.len() + 8);
        let at = self.begin(total, tag::CLR, txn, prev);
        let b = &mut self.buf[at + PREFIX..];
        b[0..4].copy_from_slice(&page.0.to_le_bytes());
        b[4..6].copy_from_slice(&slot.to_le_bytes());
        b[6..8].copy_from_slice(&offset.to_le_bytes());
        b[8..10].copy_from_slice(&(after.len() as u16).to_le_bytes());
        b[10..10 + after.len()].copy_from_slice(after);
        b[10 + after.len()..body].copy_from_slice(&undo_next.0.to_le_bytes());
        self.finish(at, total);
        total
    }

    /// Append a `TxnScheme` record declaring the transaction's elected
    /// logging scheme (the first record of an adaptively-logged chain).
    /// Returns its encoded length.
    pub fn scheme_mark(&mut self, txn: TxnId, prev: Lsn, scheme: crate::SchemeCode) -> usize {
        let body = 1;
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE);
        let at = self.begin(total, tag::TXN_SCHEME, txn, prev);
        self.buf[at + PREFIX] = scheme as u8;
        self.finish(at, total);
        total
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
        let body = 4 + PAGE_SIZE;
        let total = (PREFIX + body + TRAILER).max(LOG_HEADER_SIZE + PAGE_SIZE);
        let at = self.begin(total, tag::WHOLE_PAGE, txn, prev);
        let b = &mut self.buf[at + PREFIX..];
        b[0..4].copy_from_slice(&page.0.to_le_bytes());
        b[4..4 + PAGE_SIZE].copy_from_slice(image);
        self.finish(at, total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;

    #[test]
    fn update_bytes_identical_to_encode() {
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![], vec![]),
            (vec![1, 2, 3], vec![4, 5, 6]),
            (vec![7; 40], vec![8; 40]),
            ((0..255u8).collect(), (0..255u8).rev().collect()),
        ];
        let mut buf = Vec::new();
        let mut w = RecordWriter::new(&mut buf);
        let mut expect = Vec::new();
        for (i, (before, after)) in cases.iter().enumerate() {
            let rec = LogRecord::Update {
                txn: TxnId(3 + i as u64),
                prev: Lsn(if i % 2 == 0 { Lsn::NULL.0 } else { 99 + i as u64 }),
                page: PageId(7 + i as u32),
                slot: i as u16,
                offset: 16 * i as u16,
                before: before.clone(),
                after: after.clone(),
            };
            let enc = rec.encode();
            let n = w.update(
                rec.txn(),
                rec.prev(),
                rec.page().unwrap(),
                i as u16,
                16 * i as u16,
                before,
                after,
            );
            assert_eq!(n, enc.len());
            assert_eq!(n, rec.encoded_len());
            expect.extend_from_slice(&enc);
        }
        assert_eq!(w.records(), cases.len());
        assert_eq!(buf, expect);
    }

    #[test]
    fn update_logical_bytes_identical_to_encode() {
        let cases: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![7; 40], (0..255u8).collect()];
        let mut buf = Vec::new();
        let mut w = RecordWriter::new(&mut buf);
        let mut expect = Vec::new();
        for (i, after) in cases.iter().enumerate() {
            let rec = LogRecord::UpdateLogical {
                txn: TxnId(3 + i as u64),
                prev: Lsn(if i % 2 == 0 { Lsn::NULL.0 } else { 99 + i as u64 }),
                page: PageId(7 + i as u32),
                slot: i as u16,
                offset: 16 * i as u16,
                after: after.clone(),
            };
            let enc = rec.encode();
            let n = w.update_logical(
                rec.txn(),
                rec.prev(),
                rec.page().unwrap(),
                i as u16,
                16 * i as u16,
                after,
            );
            assert_eq!(n, enc.len());
            assert_eq!(n, rec.encoded_len());
            expect.extend_from_slice(&enc);
        }
        assert_eq!(w.records(), cases.len());
        assert_eq!(buf, expect);
    }

    #[test]
    fn clr_bytes_identical_to_encode() {
        let cases: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![7; 40], (0..255u8).collect()];
        let mut buf = Vec::new();
        let mut w = RecordWriter::new(&mut buf);
        let mut expect = Vec::new();
        for (i, after) in cases.iter().enumerate() {
            let undo_next = if i % 2 == 0 { Lsn::NULL } else { Lsn(50 + i as u64) };
            let rec = LogRecord::Clr {
                txn: TxnId(3 + i as u64),
                prev: Lsn(99 + i as u64),
                page: PageId(7 + i as u32),
                slot: i as u16,
                offset: 16 * i as u16,
                after: after.clone(),
                undo_next,
            };
            let enc = rec.encode();
            let n = w.clr(
                rec.txn(),
                rec.prev(),
                rec.page().unwrap(),
                i as u16,
                16 * i as u16,
                after,
                undo_next,
            );
            assert_eq!(n, enc.len());
            assert_eq!(n, rec.encoded_len());
            assert_eq!(crate::record::frame_undo_next(&enc).unwrap(), undo_next);
            expect.extend_from_slice(&enc);
        }
        assert_eq!(buf, expect);
    }

    #[test]
    fn whole_page_bytes_identical_to_encode() {
        let mut image = [0u8; PAGE_SIZE];
        for (i, b) in image.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let rec = LogRecord::WholePage {
            txn: TxnId(11),
            prev: Lsn(42),
            page: PageId(5),
            image: image.to_vec(),
        };
        let mut buf = vec![0xAA, 0xBB]; // writer must append, not overwrite
        let mut w = RecordWriter::new(&mut buf);
        let n = w.whole_page(TxnId(11), Lsn(42), PageId(5), &image);
        let enc = rec.encode();
        assert_eq!(n, enc.len());
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(&buf[2..], &enc[..]);
    }

    #[test]
    fn scheme_mark_bytes_identical_to_encode() {
        use crate::record::SchemeCode;
        for (i, scheme) in
            [SchemeCode::Pd, SchemeCode::Sd, SchemeCode::Wpl, SchemeCode::Rlog].iter().enumerate()
        {
            let rec = LogRecord::TxnScheme {
                txn: TxnId(20 + i as u64),
                prev: if i % 2 == 0 { Lsn::NULL } else { Lsn(5 + i as u64) },
                scheme: *scheme,
            };
            let mut buf = Vec::new();
            let mut w = RecordWriter::new(&mut buf);
            let n = w.scheme_mark(rec.txn(), rec.prev(), *scheme);
            let enc = rec.encode();
            assert_eq!(n, enc.len());
            assert_eq!(buf, enc);
        }
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
