//! Streamed and cached log reading for restart.
//!
//! [`ChunkedScanner`] replaces the per-record `scan_forward` in the
//! restart paths: it reads the log in large page-aligned chunks (one
//! state-lock acquisition and one media pass per chunk instead of per
//! record) and splits each chunk into frame references; consumers decode
//! straight out of the shared chunk buffer, so a record is decoded at
//! most once across the whole restart. [`stream_chunks`] runs the scanner
//! on a reader thread feeding a bounded channel, overlapping log reads
//! with decoding/applying.
//!
//! [`LogReadCache`] is the undo phase's log-page cache: `undo_chain`
//! walks backward chains in random order, and caching whole log pages
//! both stops the re-reads from hitting the log disk once per record and
//! lets the restart report count *distinct* log pages touched
//! ([`LogReadCache::pages_fetched`]).

use crate::log::LogManager;
use crate::record::{LogRecord, PREFIX, TRAILER};
use qs_trace::{StageClock, StageWall};
use qs_types::{Lsn, QsError, QsResult, PAGE_SIZE};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// One encoded record within a [`FrameChunk`]'s buffer.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef {
    /// The record's LSN.
    pub lsn: Lsn,
    /// Byte offset of the frame within the chunk buffer.
    pub offset: u32,
    /// Encoded length of the frame.
    pub len: u32,
}

/// A batch of whole frames read in one bulk log access. The buffer is
/// shared (`Arc`) so redo workers borrow frames without copying.
#[derive(Debug, Clone)]
pub struct FrameChunk {
    pub buf: Arc<Vec<u8>>,
    /// The whole frames in this chunk, in LSN order.
    pub frames: Vec<FrameRef>,
}

impl FrameChunk {
    /// The encoded bytes of one frame.
    pub fn frame(&self, r: &FrameRef) -> &[u8] {
        &self.buf[r.offset as usize..(r.offset + r.len) as usize]
    }
}

/// Forward scanner yielding [`FrameChunk`]s over `[from, end)`.
///
/// A frame that straddles a chunk boundary is not split: the chunk ends
/// before it and the next read restarts at its LSN (a small re-read). A
/// single record larger than the chunk size gets a dedicated exact-size
/// read, so any `chunk_bytes` makes progress.
pub struct ChunkedScanner<'a> {
    log: &'a LogManager,
    at: Lsn,
    end: Lsn,
    chunk_bytes: usize,
}

impl<'a> ChunkedScanner<'a> {
    pub fn new(log: &'a LogManager, from: Lsn, end: Lsn, chunk_bytes: usize) -> ChunkedScanner<'a> {
        ChunkedScanner {
            log,
            at: from.max(log.start_lsn()),
            end,
            chunk_bytes: chunk_bytes.max(PREFIX + TRAILER),
        }
    }

    /// The next batch of whole frames, or `None` at the end of the span.
    pub fn next_chunk(&mut self) -> QsResult<Option<FrameChunk>> {
        if self.at >= self.end {
            return Ok(None);
        }
        let span = (self.end.0 - self.at.0) as usize;
        let mut want = self.chunk_bytes.min(span);
        if want < span {
            // Align the read end down to a log-page boundary when that
            // still makes progress: chunks then cover whole pages.
            let aligned = (self.at.0 + want as u64) / PAGE_SIZE as u64 * PAGE_SIZE as u64;
            if aligned > self.at.0 {
                want = (aligned - self.at.0) as usize;
            }
        }
        let mut buf = vec![0u8; want];
        self.log.read_bytes(self.at, &mut buf)?;

        let mut frames = Vec::new();
        let mut off = 0usize;
        while off + 4 <= buf.len() {
            let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
            if len < PREFIX + TRAILER || self.at.0 + (off + len) as u64 > self.end.0 {
                return Err(QsError::LogCorrupt {
                    detail: format!("implausible frame length {len} at {}", self.at.advance(off)),
                });
            }
            if off + len > buf.len() {
                break; // partial frame: the next chunk restarts at it
            }
            frames.push(FrameRef {
                lsn: self.at.advance(off),
                offset: off as u32,
                len: len as u32,
            });
            off += len;
        }
        if frames.is_empty() {
            // One record larger than the chunk: read exactly that record.
            if buf.len() < 4 {
                return Err(QsError::LogCorrupt {
                    detail: format!("log span at {} too short for a frame", self.at),
                });
            }
            let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
            let mut big = vec![0u8; len];
            self.log.read_bytes(self.at, &mut big)?;
            frames.push(FrameRef { lsn: self.at, offset: 0, len: len as u32 });
            buf = big;
            off = len;
        }
        self.at = self.at.advance(off);
        Ok(Some(FrameChunk { buf: Arc::new(buf), frames }))
    }
}

/// Run a [`ChunkedScanner`] on a scoped reader thread, yielding chunks
/// through a bounded channel of depth `depth` (the restart pipeline's
/// producer stage). The reader stops early if the receiver is dropped;
/// a read error is delivered in-band and ends the stream.
pub fn stream_chunks<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    log: &'env LogManager,
    from: Lsn,
    end: Lsn,
    chunk_bytes: usize,
    depth: usize,
) -> Receiver<QsResult<FrameChunk>> {
    stream_chunks_timed(scope, log, from, end, chunk_bytes, depth).0
}

/// [`stream_chunks`], also handing back the reader thread: joining it
/// (after the receiver is dropped or drained) yields the reader's wall
/// time, busy reading and splitting chunks vs blocked on the full channel.
pub fn stream_chunks_timed<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    log: &'env LogManager,
    from: Lsn,
    end: Lsn,
    chunk_bytes: usize,
    depth: usize,
) -> (Receiver<QsResult<FrameChunk>>, ScopedJoinHandle<'scope, StageWall>) {
    let (tx, rx) = sync_channel(depth.max(1));
    let mut scanner = ChunkedScanner::new(log, from, end, chunk_bytes);
    let reader = scope.spawn(move || {
        let mut clock = StageClock::start();
        loop {
            let next = scanner.next_chunk().transpose();
            clock.busy();
            let Some(item) = next else { break };
            let more = item.is_ok();
            // A failed send means the consumer stopped early.
            let delivered = tx.send(item).is_ok();
            clock.blocked();
            if !(more && delivered) {
                break;
            }
        }
        clock.wall()
    });
    (rx, reader)
}

/// A cached whole log page (see [`LogReadCache`]).
struct CachedPage {
    data: Box<[u8; PAGE_SIZE]>,
    /// Valid byte range within the page (the window clip at fetch time).
    valid: (usize, usize),
}

/// Read-only record cache keyed by logical log page, for the random reads
/// of the undo phase (and of abort rollback). Never evicts: its footprint
/// is bounded by the loser chains one rollback walks. Safe to keep across
/// appends because the log is append-only — bytes below the tail at fetch
/// time never change.
#[derive(Default)]
pub struct LogReadCache {
    pages: HashMap<u64, CachedPage>,
    fetches: u64,
}

impl LogReadCache {
    pub fn new() -> LogReadCache {
        LogReadCache::default()
    }

    /// Distinct log pages fetched so far (== cache misses).
    pub fn pages_fetched(&self) -> u64 {
        self.fetches
    }

    /// [`LogManager::read_record`], served through the page cache.
    pub fn read_record(&mut self, log: &LogManager, lsn: Lsn) -> QsResult<(LogRecord, Lsn)> {
        let mut lenb = [0u8; 4];
        self.read_span(log, lsn, &mut lenb)?;
        let len = u32::from_le_bytes(lenb) as usize;
        if len < PREFIX + TRAILER || len > log.body_capacity() {
            return Err(QsError::LogCorrupt { detail: format!("implausible length {len}") });
        }
        let mut buf = vec![0u8; len];
        self.read_span(log, lsn, &mut buf)?;
        Ok((LogRecord::decode(&buf)?, lsn.advance(len)))
    }

    /// Copy `buf.len()` bytes starting at `from`, stitching cached pages.
    fn read_span(&mut self, log: &LogManager, from: Lsn, buf: &mut [u8]) -> QsResult<()> {
        let mut at = from.0;
        let mut done = 0usize;
        while done < buf.len() {
            let index = at / PAGE_SIZE as u64;
            let off = (at % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let page = match self.pages.entry(index) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let mut data = Box::new([0u8; PAGE_SIZE]);
                    let valid = log.read_log_page(index, &mut data)?;
                    self.fetches += 1;
                    e.insert(CachedPage { data, valid })
                }
            };
            if off < page.valid.0 || off + n > page.valid.1 {
                return Err(QsError::LogCorrupt {
                    detail: format!(
                        "cached log page {index} read [{off}, {}) outside valid [{}, {})",
                        off + n,
                        page.valid.0,
                        page.valid.1
                    ),
                });
            }
            buf[done..done + n].copy_from_slice(&page.data[off..off + n]);
            done += n;
            at += n as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CheckpointBody;
    use qs_storage::{MemDisk, StableMedia};
    use qs_types::{PageId, TxnId};

    fn fresh(body: usize) -> LogManager {
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
        LogManager::format(media as Arc<dyn StableMedia>, body).unwrap()
    }

    fn mixed_log(lm: &LogManager, force_prefix: bool) -> Vec<(Lsn, LogRecord)> {
        let mut expect = Vec::new();
        for i in 0..40u32 {
            let rec = match i % 5 {
                0 => LogRecord::Update {
                    txn: TxnId(i as u64 + 1),
                    prev: Lsn::NULL,
                    page: PageId(i),
                    slot: 0,
                    offset: 0,
                    before: vec![0u8; (i % 7) as usize * 9],
                    after: vec![i as u8; (i % 7) as usize * 9],
                },
                1 => LogRecord::WholePage {
                    txn: TxnId(i as u64 + 1),
                    prev: Lsn::NULL,
                    page: PageId(i),
                    image: vec![i as u8; PAGE_SIZE],
                },
                2 => LogRecord::PageAlloc {
                    txn: TxnId(i as u64 + 1),
                    prev: Lsn::NULL,
                    page: PageId(i),
                },
                3 => LogRecord::Commit { txn: TxnId(i as u64 + 1), prev: Lsn::NULL },
                _ => LogRecord::Checkpoint { body: CheckpointBody::default() },
            };
            let lsn = lm.append(&rec).unwrap();
            expect.push((lsn, rec));
            if force_prefix && i == 20 {
                lm.force(lm.tail_lsn()).unwrap();
            }
        }
        expect
    }

    #[test]
    fn chunked_scan_matches_scan_forward_across_chunk_sizes() {
        // Half the records durable, half in the volatile tail buffer;
        // chunk sizes below one frame, mid-size (forces the big-record
        // fallback on whole-page records), page-size, and huge.
        for chunk in [29usize, 300, PAGE_SIZE, 1 << 20] {
            let lm = fresh(1 << 20);
            let expect = mixed_log(&lm, true);
            let mut got = Vec::new();
            let mut sc = ChunkedScanner::new(&lm, Lsn(0), lm.tail_lsn(), chunk);
            while let Some(c) = sc.next_chunk().unwrap() {
                for r in &c.frames {
                    got.push((r.lsn, LogRecord::decode(c.frame(r)).unwrap()));
                }
            }
            assert_eq!(got, expect, "chunk={chunk}");
        }
    }

    #[test]
    fn stream_chunks_delivers_everything_through_the_channel() {
        let lm = fresh(1 << 20);
        let expect = mixed_log(&lm, false);
        let mut got = Vec::new();
        std::thread::scope(|s| {
            let rx = stream_chunks(s, &lm, Lsn(0), lm.tail_lsn(), 4 * PAGE_SIZE, 2);
            for chunk in rx {
                let chunk = chunk.unwrap();
                for r in &chunk.frames {
                    got.push((r.lsn, LogRecord::decode(chunk.frame(r)).unwrap()));
                }
            }
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn read_bytes_rejects_out_of_window_spans() {
        let lm = fresh(1 << 16);
        let l = lm.append(&LogRecord::Commit { txn: TxnId(1), prev: Lsn::NULL }).unwrap();
        let mut buf = vec![0u8; 8];
        assert!(lm.read_bytes(Lsn(0), &mut buf).is_err(), "below start");
        assert!(lm.read_bytes(lm.tail_lsn(), &mut buf).is_err(), "past tail");
        let mut one = vec![0u8; (lm.tail_lsn().0 - l.0) as usize];
        lm.read_bytes(l, &mut one).unwrap();
        assert_eq!(LogRecord::decode(&one).unwrap().txn(), TxnId(1));
    }

    #[test]
    fn cache_serves_records_and_counts_distinct_pages() {
        let lm = fresh(1 << 20);
        let expect = mixed_log(&lm, true);
        let mut cache = LogReadCache::new();
        // Random-order reads (newest first, like undo), twice over.
        for _ in 0..2 {
            for (lsn, rec) in expect.iter().rev() {
                let (got, next) = cache.read_record(&lm, *lsn).unwrap();
                assert_eq!(&got, rec);
                assert_eq!(next, lsn.advance(got.encoded_len()));
            }
        }
        // Every log page holding records was fetched exactly once.
        let first = expect[0].0 .0 / PAGE_SIZE as u64;
        let last = (lm.tail_lsn().0 - 1) / PAGE_SIZE as u64;
        assert_eq!(cache.pages_fetched(), last - first + 1);
    }
}
