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
//! ([`LogReadCache::pages_fetched`]). It hands frames out as borrowed,
//! verified slices of the cached pages.

use crate::log::LogManager;
use crate::record::{frame_declared_len, frame_verify, FRAME_LEN_MIN};
use qs_trace::{StageClock, StageWall};
use qs_types::{Lsn, QsError, QsResult, PAGE_SIZE};
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
    /// Every buffer handed out so far. One whose consumers have all
    /// dropped their clones is taken back for the next chunk instead of
    /// mapping and zeroing a fresh one; a consumer that keeps chunks alive
    /// simply never gives its buffers back.
    handed_out: Vec<Arc<Vec<u8>>>,
    /// Frames in the previous chunk: the next one's capacity hint.
    frames_hint: usize,
    bytes_read: u64,
    /// Buffers allocated because none was free.
    buffers: u64,
}

impl<'a> ChunkedScanner<'a> {
    pub fn new(log: &'a LogManager, from: Lsn, end: Lsn, chunk_bytes: usize) -> ChunkedScanner<'a> {
        ChunkedScanner {
            log,
            at: from.max(log.start_lsn()),
            end,
            chunk_bytes: chunk_bytes.max(FRAME_LEN_MIN),
            handed_out: Vec::new(),
            frames_hint: 0,
            bytes_read: 0,
            buffers: 0,
        }
    }

    /// Bytes pulled from the log so far, re-reads of a frame that
    /// straddled a chunk boundary included.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Chunk buffers allocated so far: about as many as the consumers
    /// hold at once, if they give each back when they are done with it.
    pub fn buffers(&self) -> u64 {
        self.buffers
    }

    /// A chunk buffer nobody else holds any more, or a new empty one.
    fn free_buffer(&mut self) -> Arc<Vec<u8>> {
        match self.handed_out.iter_mut().position(|buf| Arc::get_mut(buf).is_some()) {
            Some(free) => self.handed_out.swap_remove(free),
            None => {
                self.buffers += 1;
                Arc::default()
            }
        }
    }

    /// Make `buf` the `len` log bytes at the scan position.
    fn fill(&mut self, buf: &mut Vec<u8>, len: usize) -> QsResult<()> {
        if buf.capacity() < len {
            // Growing: zeroed pages from the allocator, not a memset.
            *buf = vec![0; len];
        } else {
            buf.resize(len, 0);
        }
        self.bytes_read += len as u64;
        self.log.read_bytes(self.at, buf)
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
            // still leaves room for a frame's fixed fields (progress):
            // chunks then cover whole pages.
            let aligned = (self.at.0 + want as u64) / PAGE_SIZE as u64 * PAGE_SIZE as u64;
            if aligned >= self.at.0 + FRAME_LEN_MIN as u64 {
                want = (aligned - self.at.0) as usize;
            }
        }
        let mut shared = self.free_buffer();
        let buf = Arc::get_mut(&mut shared).expect("a free buffer has one owner");
        self.fill(buf, want)?;

        let mut frames = Vec::with_capacity(self.frames_hint);
        let mut off = 0usize;
        // A remainder shorter than the shortest frame is a partial frame.
        while off + FRAME_LEN_MIN <= buf.len() {
            let len = frame_declared_len(&buf[off..])?;
            if self.at.0 + (off + len) as u64 > self.end.0 {
                return Err(QsError::LogCorrupt {
                    detail: format!(
                        "frame length {len} at {} runs past the scan end",
                        self.at.advance(off)
                    ),
                });
            }
            if off + len > buf.len() {
                if off == 0 {
                    // One record larger than the chunk: read exactly it.
                    self.fill(buf, len)?;
                    continue;
                }
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
            return Err(QsError::LogCorrupt {
                detail: format!("log span at {} too short for a frame", self.at),
            });
        }
        self.at = self.at.advance(off);
        self.frames_hint = frames.len();
        self.handed_out.push(Arc::clone(&shared));
        Ok(Some(FrameChunk { buf: shared, frames }))
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

/// A joined reader thread's wall time, log bytes read and chunk buffers
/// allocated.
pub type ReaderTally = (StageWall, u64, u64);

/// [`stream_chunks`], also handing back the reader thread: joining it
/// (after the receiver is dropped or drained) yields the reader's wall
/// time, busy reading and splitting chunks vs blocked on the full channel,
/// the bytes it read from the log and the chunk buffers it allocated.
pub fn stream_chunks_timed<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    log: &'env LogManager,
    from: Lsn,
    end: Lsn,
    chunk_bytes: usize,
    depth: usize,
) -> (Receiver<QsResult<FrameChunk>>, ScopedJoinHandle<'scope, ReaderTally>) {
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
        (clock.wall(), scanner.bytes_read(), scanner.buffers())
    });
    (rx, reader)
}

/// A cached whole log page (see [`LogReadCache`]).
struct CachedPage {
    index: u64,
    data: Box<[u8; PAGE_SIZE]>,
    /// Valid byte range within the page (the window clip at fetch time).
    valid: (usize, usize),
}

impl CachedPage {
    fn bytes(&self, off: usize, n: usize) -> QsResult<&[u8]> {
        if off < self.valid.0 || off + n > self.valid.1 {
            return Err(QsError::LogCorrupt {
                detail: format!(
                    "cached log page {} read [{off}, {}) outside valid [{}, {})",
                    self.index,
                    off + n,
                    self.valid.0,
                    self.valid.1
                ),
            });
        }
        Ok(&self.data[off..off + n])
    }
}

/// Read-only frame cache keyed by logical log page, for the random reads
/// of the undo phase (and of abort rollback). Never evicts: its footprint
/// is bounded by the loser chains one rollback walks. Safe to keep across
/// appends because the log is append-only — bytes below the tail at fetch
/// time never change.
#[derive(Default)]
pub struct LogReadCache {
    pages: Vec<CachedPage>,
    /// Log page index → position in `pages`.
    slot_of: HashMap<u64, usize>,
    /// The last page looked up: a chain's neighbours share log pages.
    last: Option<(u64, usize)>,
    /// Where a frame that straddles log pages is stitched together.
    scratch: Vec<u8>,
}

impl LogReadCache {
    pub fn new() -> LogReadCache {
        LogReadCache::default()
    }

    /// Distinct log pages fetched so far (== cache misses).
    pub fn pages_fetched(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The encoded record starting at `lsn`, checksum-verified, borrowed
    /// from its cached log page (copied only when it straddles two). Any
    /// `lsn` — off a frame boundary, outside the window — fails with
    /// `LogCorrupt`.
    pub fn frame(&mut self, log: &LogManager, lsn: Lsn) -> QsResult<&[u8]> {
        let len = frame_declared_len(self.span(log, lsn, FRAME_LEN_MIN)?)?;
        if len > log.body_capacity() {
            return Err(QsError::LogCorrupt {
                detail: format!("frame length {len} at {lsn} exceeds the log"),
            });
        }
        let frame = self.span(log, lsn, len)?;
        frame_verify(frame)?;
        Ok(frame)
    }

    /// Position in `pages` of log page `index`, fetching it on a miss.
    fn slot(&mut self, log: &LogManager, index: u64) -> QsResult<usize> {
        if let Some((_, slot)) = self.last.filter(|&(last, _)| last == index) {
            return Ok(slot);
        }
        let slot = match self.slot_of.get(&index) {
            Some(&slot) => slot,
            None => {
                let mut data = Box::new([0u8; PAGE_SIZE]);
                let valid = log.read_log_page(index, &mut data)?;
                self.pages.push(CachedPage { index, data, valid });
                self.slot_of.insert(index, self.pages.len() - 1);
                self.pages.len() - 1
            }
        };
        self.last = Some((index, slot));
        Ok(slot)
    }

    /// The `n` log bytes starting at `from`.
    fn span(&mut self, log: &LogManager, from: Lsn, n: usize) -> QsResult<&[u8]> {
        let (index, off) = (from.0 / PAGE_SIZE as u64, (from.0 % PAGE_SIZE as u64) as usize);
        if off + n <= PAGE_SIZE {
            let slot = self.slot(log, index)?;
            return self.pages[slot].bytes(off, n);
        }
        let mut stitched = std::mem::take(&mut self.scratch);
        stitched.clear();
        while stitched.len() < n {
            let at = from.0 + stitched.len() as u64;
            let off = (at % PAGE_SIZE as u64) as usize;
            let take = (PAGE_SIZE - off).min(n - stitched.len());
            let slot = self.slot(log, at / PAGE_SIZE as u64)?;
            stitched.extend_from_slice(self.pages[slot].bytes(off, take)?);
        }
        self.scratch = stitched;
        Ok(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointBody, LogRecord};
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
            // One chunk reads the span exactly once; smaller chunks read
            // the frame that straddles each boundary again.
            let span = lm.tail_lsn().0 - lm.start_lsn().0;
            assert!(sc.bytes_read() >= span, "chunk={chunk}");
            assert_eq!(sc.bytes_read() == span, chunk == 1 << 20, "chunk={chunk}");
        }
    }

    #[test]
    fn chunk_buffers_are_reused_once_dropped_and_left_alone_while_held() {
        let lm = fresh(1 << 20);
        let expect = mixed_log(&lm, true);
        // Dropping each chunk before asking for the next: one allocation
        // serves the whole scan.
        let mut sc = ChunkedScanner::new(&lm, Lsn(0), lm.tail_lsn(), PAGE_SIZE);
        let mut buffers = std::collections::HashSet::new();
        let mut frames = 0;
        while let Some(c) = sc.next_chunk().unwrap() {
            buffers.insert(Arc::as_ptr(&c.buf));
            frames += c.frames.len();
        }
        assert_eq!((buffers.len(), sc.buffers(), frames), (1, 1, expect.len()));
        // A consumer that keeps its chunks keeps their bytes.
        let mut sc = ChunkedScanner::new(&lm, Lsn(0), lm.tail_lsn(), PAGE_SIZE);
        let mut held = Vec::new();
        while let Some(c) = sc.next_chunk().unwrap() {
            held.push(c);
        }
        let got: Vec<(Lsn, LogRecord)> = held
            .iter()
            .flat_map(|c| c.frames.iter().map(|r| (r.lsn, LogRecord::decode(c.frame(r)).unwrap())))
            .collect();
        assert_eq!(got, expect);
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
                let frame = cache.frame(&lm, *lsn).unwrap();
                assert_eq!(frame.len(), rec.encode().len());
                assert_eq!(&LogRecord::decode(frame).unwrap(), rec);
            }
        }
        // Every log page holding records was fetched exactly once.
        let first = expect[0].0 .0 / PAGE_SIZE as u64;
        let last = (lm.tail_lsn().0 - 1) / PAGE_SIZE as u64;
        assert_eq!(cache.pages_fetched(), last - first + 1);
    }
}
