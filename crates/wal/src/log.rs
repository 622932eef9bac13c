//! The circular, append-only log manager (paper §3.1: "The ESM server
//! manages a circular, append-only log on secondary storage").
//!
//! LSNs are byte offsets in an *unbounded logical* address space; the
//! physical log body (everything past one header page on the medium) holds
//! the window `[start_lsn, tail_lsn)`, wrapped modulo its capacity.
//! Appends go to a volatile tail buffer; [`LogManager::force`] makes a
//! prefix durable (the WAL discipline). `truncate_to` releases space —
//! driven by the WPL reclaim thread or ordinary checkpointing.
//!
//! The header page stores `{start, written, checkpoint}` LSNs and is
//! rewritten on every force, before the force's one `sync()`, so a
//! restarted manager knows exactly where the recoverable log ends. Its
//! magic carries the format revision (DESIGN.md "log on-disk format").
//!
//! A media write is volatile until `sync()` returns ([`StableMedia`]), so
//! the manager keeps two LSNs: what forces have *written* (the header
//! names it) and what the medium has *synced*. Only the second is
//! durable: [`LogManager::durable_lsn`] answers it, and acknowledgements,
//! the WAL check before a page goes home and truncation wait for it.

use crate::record::{self, LogRecord};
use crate::writer::RecordWriter;
use qs_storage::StableMedia;
use qs_trace::{TraceCat, Tracer};
use qs_types::sync::{Mutex, RwLock};
use qs_types::{Lsn, QsError, QsResult, PAGE_SIZE};
use std::sync::Arc;

/// Low five bytes of the header magic: "QSLOG".
const MAGIC: u64 = 0x51_534c_4f47;
const MAGIC_BITS: u32 = 40;
/// Format revision, stored in the magic's sixth byte. 0: frames carried a
/// 32-bit FNV-1a; 1: [`record::checksum`]; 2: the begin/end checkpoint
/// pair (tags 9 and 10) is gone, the header names a `Checkpoint` record.
/// A log of another revision is refused at open rather than failing at
/// its first frame.
const REVISION: u64 = 2;

struct LogState {
    /// Oldest LSN still needed (log space before it is reclaimable).
    start: Lsn,
    /// Everything below this LSN has been written to the medium by a
    /// force, and the header names it. Ahead of `synced` only while that
    /// force waits for its `sync()`.
    written: Lsn,
    /// Everything below this LSN is durable: a `sync()` that began after
    /// its bytes and the header naming them were written has returned.
    synced: Lsn,
    /// Next append position.
    tail: Lsn,
    /// LSN of the most recent checkpoint record (named in the header).
    checkpoint: Lsn,
    /// Unforced tail: bytes for LSNs `[written, tail)` — minus, while a
    /// force is writing, the prefix it detached into
    /// [`LogManager::writing`].
    buffer: Vec<u8>,
    /// Where the most recently appended frame starts: a force through it
    /// or beyond takes the whole tail without looking for a boundary.
    last_frame: Lsn,
}

/// Statistics of one force, for the caller to meter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForceStats {
    /// 8 KB pages worth of log data written to the medium.
    pub pages_written: u64,
    /// Whether any write happened (a no-op force costs nothing).
    pub wrote: bool,
}

/// Server-side log-pressure signal, piggybacked on commit replies so
/// adaptively-logging clients can shift toward compact logical records as
/// the log fills (DESIGN.md §6g). Both components are normalized to
/// `[0, 1]`:
///
/// * `fill` — how far log occupancy sits between the low and high
///   maintenance watermarks (distance to the truncation anchor);
/// * `queue` — log-disk force queue depth (forces in flight), saturating
///   at [`LogPressure::QUEUE_SATURATION`] concurrent forces.
///
/// The wire format is two little-endian `u16` per-mille values (4 bytes),
/// pinned by [`LogPressure::encode`]/[`LogPressure::decode`] and their
/// round-trip test.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LogPressure {
    pub fill: f64,
    pub queue: f64,
}

impl LogPressure {
    /// Forces in flight at which the queue component reads 1.0.
    pub const QUEUE_SATURATION: u64 = 4;

    pub fn new(fill: f64, queue: f64) -> LogPressure {
        LogPressure { fill: fill.clamp(0.0, 1.0), queue: queue.clamp(0.0, 1.0) }
    }

    /// Combined pressure in `[0, 1]`: fill dominates (it predicts
    /// truncation stalls), queue adds up to a 25% kicker.
    pub fn combined(&self) -> f64 {
        (0.75 * self.fill + 0.25 * self.queue).clamp(0.0, 1.0)
    }

    /// The 4-byte commit-reply piggyback: `fill‰ (u16 LE) | queue‰ (u16 LE)`.
    pub fn encode(&self) -> [u8; 4] {
        let mille = |v: f64| (v.clamp(0.0, 1.0) * 1000.0).round() as u16;
        let mut out = [0u8; 4];
        out[0..2].copy_from_slice(&mille(self.fill).to_le_bytes());
        out[2..4].copy_from_slice(&mille(self.queue).to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8; 4]) -> LogPressure {
        let fill = u16::from_le_bytes(bytes[0..2].try_into().unwrap()) as f64 / 1000.0;
        let queue = u16::from_le_bytes(bytes[2..4].try_into().unwrap()) as f64 / 1000.0;
        LogPressure::new(fill, queue)
    }
}

/// Circular log over a stable medium.
pub struct LogManager {
    media: Arc<dyn StableMedia>,
    /// Bytes of log body on the medium (capacity of the circular window).
    body_capacity: usize,
    state: Mutex<LogState>,
    /// The prefix of the tail a force in flight is writing to the medium,
    /// detached from `LogState::buffer` so it is neither copied nor held
    /// under `state` for the length of the write; empty between forces
    /// (its capacity is what the buffer is swapped for, so steady-state
    /// forces allocate nothing). Until the force's `sync()` returns and it
    /// publishes `synced`, it is still the front of `[synced, tail)` to
    /// every reader. Written only by a force holding `state`; read under
    /// `state`, and by that force alone without it.
    writing: RwLock<Vec<u8>>,
    /// Serializes forces with each other so the media write and `sync()`
    /// can run *outside* `state`: appends and reads proceed while a force
    /// is waiting on the disk, which is what lets a group-commit leader
    /// sleep in `sync()` without stalling the next batch's appends.
    force_serial: Mutex<()>,
    /// Observability hook (disabled by default: one branch per append/force).
    tracer: Arc<Tracer>,
}

impl LogManager {
    /// Bytes of stable storage needed for a log with `body_capacity` bytes.
    pub fn required_bytes(body_capacity: usize) -> usize {
        PAGE_SIZE + body_capacity
    }

    /// Format a fresh log on `media`.
    pub fn format(media: Arc<dyn StableMedia>, body_capacity: usize) -> QsResult<LogManager> {
        if media.len() < Self::required_bytes(body_capacity) {
            return Err(QsError::Config {
                detail: format!(
                    "log media of {} bytes too small for body of {body_capacity}",
                    media.len()
                ),
            });
        }
        // Logical LSNs start at PAGE_SIZE, never 0: `Lsn::NULL` is therefore
        // unambiguous as "no record" (checkpoint absent, end of a
        // transaction's backward chain).
        let origin = Lsn(PAGE_SIZE as u64);
        let lm = LogManager {
            media,
            body_capacity,
            state: Mutex::new(LogState {
                start: origin,
                written: origin,
                synced: origin,
                tail: origin,
                checkpoint: Lsn::NULL,
                buffer: Vec::new(),
                last_frame: Lsn::NULL,
            }),
            writing: RwLock::new(Vec::new()),
            force_serial: Mutex::new(()),
            tracer: Tracer::disabled(),
        };
        lm.write_header(&lm.state.lock())?;
        Ok(lm)
    }

    /// Re-open after a crash: the tail buffer is gone; the durable prefix
    /// recorded in the header is the whole recoverable log.
    pub fn open(media: Arc<dyn StableMedia>) -> QsResult<LogManager> {
        let mut hdr = [0u8; 48];
        media.read_at(0, &mut hdr)?;
        let magic = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        if magic & ((1 << MAGIC_BITS) - 1) != MAGIC {
            return Err(QsError::RecoveryFailed { detail: "log header magic mismatch".into() });
        }
        let revision = magic >> MAGIC_BITS;
        if revision != REVISION {
            return Err(QsError::RecoveryFailed {
                detail: format!(
                    "log format revision {revision}; this build reads revision {REVISION} only"
                ),
            });
        }
        let body_capacity = u64::from_le_bytes(hdr[8..16].try_into().unwrap()) as usize;
        let start = Lsn(u64::from_le_bytes(hdr[16..24].try_into().unwrap()));
        let written = Lsn(u64::from_le_bytes(hdr[24..32].try_into().unwrap()));
        let checkpoint = Lsn(u64::from_le_bytes(hdr[32..40].try_into().unwrap()));
        Self::check_header(media.len(), body_capacity, start, written, checkpoint)?;
        Ok(LogManager {
            media,
            body_capacity,
            state: Mutex::new(LogState {
                start,
                // The header a crash left behind is one the medium synced.
                written,
                synced: written,
                tail: written, // unforced appends died with the crash
                checkpoint,
                buffer: Vec::new(),
                last_frame: Lsn::NULL,
            }),
            writing: RwLock::new(Vec::new()),
            force_serial: Mutex::new(()),
            tracer: Tracer::disabled(),
        })
    }

    /// The header's fields must describe a log that fits its medium: a
    /// window `[start, written)` no longer than a non-zero body that the
    /// medium holds, and a checkpoint that is absent or inside the window.
    /// Anything else is a corrupt header, refused before a body offset is
    /// computed from it.
    fn check_header(
        media_len: usize,
        body_capacity: usize,
        start: Lsn,
        written: Lsn,
        checkpoint: Lsn,
    ) -> QsResult<()> {
        let fault = if body_capacity == 0 {
            Some("a body capacity of 0".to_string())
        } else if body_capacity.checked_add(PAGE_SIZE).is_none_or(|need| need > media_len) {
            Some(format!("a body capacity of {body_capacity} on a {media_len}-byte medium"))
        } else if start > written || written.0 - start.0 > body_capacity as u64 {
            Some(format!("a window [{start}, {written}) over a {body_capacity}-byte body"))
        } else if !(checkpoint.is_null() || (start..written).contains(&checkpoint)) {
            Some(format!("a checkpoint at {checkpoint} outside the window [{start}, {written})"))
        } else {
            None
        };
        match fault {
            Some(fault) => Err(QsError::LogCorrupt { detail: format!("log header names {fault}") }),
            None => Ok(()),
        }
    }

    /// Install a tracer (the server wires its own through right after
    /// `format`/`open`, before the log sees any traffic).
    pub fn set_tracer(&mut self, tracer: Arc<Tracer>) {
        self.tracer = tracer;
    }

    fn write_header(&self, st: &LogState) -> QsResult<()> {
        let mut hdr = [0u8; 48];
        hdr[0..8].copy_from_slice(&(MAGIC | REVISION << MAGIC_BITS).to_le_bytes());
        hdr[8..16].copy_from_slice(&(self.body_capacity as u64).to_le_bytes());
        hdr[16..24].copy_from_slice(&st.start.0.to_le_bytes());
        hdr[24..32].copy_from_slice(&st.written.0.to_le_bytes());
        hdr[32..40].copy_from_slice(&st.checkpoint.0.to_le_bytes());
        self.media.write_at(0, &hdr)
    }

    /// Write `bytes` at logical position `lsn`, wrapping physically.
    fn write_body(&self, lsn: Lsn, bytes: &[u8]) -> QsResult<()> {
        let mut off = (lsn.0 as usize) % self.body_capacity;
        let mut rest = bytes;
        while !rest.is_empty() {
            let n = rest.len().min(self.body_capacity - off);
            self.media.write_at(PAGE_SIZE + off, &rest[..n])?;
            rest = &rest[n..];
            off = (off + n) % self.body_capacity;
        }
        Ok(())
    }

    /// Read `buf.len()` bytes at logical position `lsn`, wrapping physically.
    fn read_body(&self, lsn: Lsn, buf: &mut [u8]) -> QsResult<()> {
        let mut off = (lsn.0 as usize) % self.body_capacity;
        let mut at = 0usize;
        while at < buf.len() {
            let n = (buf.len() - at).min(self.body_capacity - off);
            self.media.read_at(PAGE_SIZE + off, &mut buf[at..at + n])?;
            at += n;
            off = (off + n) % self.body_capacity;
        }
        Ok(())
    }

    /// Append what `encode` adds to the volatile tail buffer — whole
    /// frames — or nothing if the window cannot take it or `encode` fails.
    /// `encode` is told the LSN its first byte gets and returns the offset,
    /// within what it added, of its last frame. Returns the LSNs of the
    /// first and of the last frame appended.
    fn append_encoded(
        &self,
        encode: impl FnOnce(Lsn, &mut Vec<u8>) -> QsResult<usize>,
    ) -> QsResult<(Lsn, Lsn)> {
        let mut st = self.state.lock();
        let at = st.buffer.len();
        let first = st.tail;
        let last_at = match encode(first, &mut st.buffer) {
            Ok(last_at) => last_at,
            Err(e) => {
                st.buffer.truncate(at);
                return Err(e);
            }
        };
        let need = st.buffer.len() - at;
        let used = (st.tail.0 - st.start.0) as usize;
        if used + need > self.body_capacity {
            st.buffer.truncate(at);
            return Err(QsError::LogFull { capacity: self.body_capacity, need });
        }
        let last = first.advance(last_at);
        st.tail = first.advance(need);
        st.last_frame = last;
        Ok((first, last))
    }

    /// Append a record to the volatile tail. Returns its LSN.
    pub fn append(&self, rec: &LogRecord) -> QsResult<Lsn> {
        self.append_with(|w| rec.write_to(w))
    }

    /// Append a run of already-encoded, already-verified records — `frames`
    /// is their concatenation — under one hold of the state lock, rewriting
    /// each `prev` LSN in place: the first record's to `prev`, every later
    /// one's to the LSN its predecessor just got (clients ship records with
    /// `prev = NULL`; the server chains them here without re-encoding).
    /// All of the run is appended or none of it. Returns the LSNs of its
    /// first and last record.
    pub fn append_rechained_run(&self, frames: &[u8], prev: Lsn) -> QsResult<(Lsn, Lsn)> {
        let span = self.append_encoded(|first, tail| {
            let base = tail.len();
            tail.extend_from_slice(frames);
            let (mut at, mut last_at, mut prev) = (0usize, 0usize, prev);
            while at < frames.len() {
                let len = record::frame_len(&frames[at..])?;
                record::frame_set_prev(&mut tail[base + at..base + at + len], prev);
                prev = first.advance(at);
                last_at = at;
                at += len;
            }
            Ok(last_at)
        })?;
        if self.tracer.is_enabled() {
            let mut at = 0usize;
            while at < frames.len() {
                let len = record::frame_len(&frames[at..])?;
                self.tracer.event(TraceCat::WalAppend, "append", span.0.advance(at).0, len as u64);
                at += len;
            }
        }
        Ok(span)
    }

    /// Append the one record `write` encodes (and returns the length of,
    /// as every `RecordWriter` method does), built in place in the tail
    /// buffer (no intermediate `LogRecord` or `Vec`). Returns its LSN.
    pub fn append_with(&self, write: impl FnOnce(&mut RecordWriter<'_>) -> usize) -> QsResult<Lsn> {
        let mut len = 0usize;
        let (lsn, _) = self.append_encoded(|_, tail| {
            let at = tail.len();
            len = write(&mut RecordWriter::new(tail));
            debug_assert_eq!(tail.len() - at, len, "append_with takes exactly one record");
            Ok(0)
        })?;
        self.tracer.event(TraceCat::WalAppend, "append", lsn.0, len as u64);
        Ok(lsn)
    }

    fn noop_force(&self) -> QsResult<ForceStats> {
        self.tracer.event(TraceCat::WalForce, "noop", 0, 1);
        Ok(ForceStats { pages_written: 0, wrote: false })
    }

    /// Make everything up to **and including** the record starting at
    /// `upto` durable. (Forcing `tail_lsn()` forces the whole buffer.)
    /// This is the WAL hook: stealing a page with pageLSN `l` calls
    /// `force(l)` first.
    ///
    /// Runs in four phases so the media write and `sync()` happen outside
    /// the state lock (appends keep flowing while the disk spins):
    ///
    /// 1. under `state`: find the target boundary — the tail itself when
    ///    `upto` reaches the last appended frame, as every commit force
    ///    does; only an interior LSN walks frame lengths — and *detach* the
    ///    prefix `[written, target)` into `writing`: what lies beyond the
    ///    target moves to the emptied spare, which becomes the buffer;
    /// 2. no lock: write the prefix to the medium. Nobody reads it there
    ///    (reads at LSN ≥ synced are served from `writing`, then the
    ///    buffer), nobody else writes it (`force_serial` admits one force,
    ///    truncation never moves `start` past `synced`);
    /// 3. under `state`: publish `written`, rewrite the header naming it;
    /// 4. no lock: `sync()` — the one sync covers body and header — then
    ///    under `state` publish `synced` and empty `writing`.
    ///
    /// Nothing reads `synced` before the sync has returned, so nobody
    /// acknowledges, writes a page home or truncates on bytes a crash could
    /// still take. A header written meanwhile (`truncate_to`,
    /// `set_checkpoint`) names `written`, never less than this force did. A
    /// failed write, header write or sync puts the prefix back in front of
    /// the buffer instead: `written`, `synced`, `tail` and every readable
    /// byte are as before the call.
    pub fn force(&self, upto: Lsn) -> QsResult<ForceStats> {
        let _one_force = self.force_serial.lock();
        // Phase 1: decide what to write and detach it. Between forces
        // `written` and `synced` are equal.
        let mut st = self.state.lock();
        let base = st.synced;
        let target = if upto < base {
            base
        } else if upto >= st.last_frame {
            st.tail
        } else {
            // End of the last record whose start is ≤ upto.
            let mut end = base;
            let mut idx = 0usize;
            while end <= upto {
                let len = record::frame_len(&st.buffer[idx..])?;
                end = end.advance(len);
                idx += len;
            }
            end
        };
        if target <= base {
            drop(st);
            return self.noop_force();
        }
        let n = (target.0 - base.0) as usize;
        // `n` may exceed the buffer only through logic bugs; be strict.
        assert!(n <= st.buffer.len(), "force past buffered tail");
        {
            let mut detached = self.writing.write();
            debug_assert!(detached.is_empty(), "one force at a time");
            detached.extend_from_slice(&st.buffer[n..]);
            st.buffer.truncate(n);
            std::mem::swap(&mut st.buffer, &mut *detached);
        }
        drop(st);

        // Phase 2: stream the body without blocking appenders or readers.
        let wrote = self.write_body(base, &self.writing.read());

        // Phases 3 and 4. Only forces mutate `written`, `synced` or the
        // front of `[synced, tail)`, and `force_serial` keeps this one
        // alone in flight, so `writing` holds exactly `[base, target)`
        // until it is emptied here.
        let synced = wrote
            .and_then(|()| {
                let mut st = self.state.lock();
                st.written = target;
                self.write_header(&st)
            })
            .and_then(|()| self.media.sync());
        let mut st = self.state.lock();
        let mut detached = self.writing.write();
        if let Err(e) = synced {
            st.written = base;
            detached.extend_from_slice(&st.buffer);
            std::mem::swap(&mut st.buffer, &mut *detached);
            detached.clear();
            return Err(e);
        }
        st.synced = target;
        detached.clear();
        drop((detached, st));
        // Sequential pages touched: the force streams `n` bytes.
        let pages = (n as u64).div_ceil(PAGE_SIZE as u64).max(1);
        self.tracer.event(TraceCat::WalForce, "force", pages, 0);
        Ok(ForceStats { pages_written: pages, wrote: true })
    }

    /// Read the record starting at `lsn` (from the durable body or the
    /// volatile tail buffer). Returns the record and the LSN just past it.
    pub fn read_record(&self, lsn: Lsn) -> QsResult<(LogRecord, Lsn)> {
        let frame = self.read_frame(lsn)?;
        Ok((LogRecord::decode(&frame)?, lsn.advance(frame.len())))
    }

    /// The encoded frame starting at `lsn`, verified. One window-checked
    /// read path for the durable body and the volatile tail: an `lsn` that
    /// is not a frame boundary declares a garbage length, which must fail
    /// typed, not index out of the tail buffer or size an allocation.
    pub fn read_frame(&self, lsn: Lsn) -> QsResult<Vec<u8>> {
        let st = self.state.lock();
        let mut head = [0u8; record::FRAME_LEN_MIN];
        self.read_span_locked(&st, lsn, &mut head)?;
        let len = record::frame_declared_len(&head)?;
        if len as u64 > st.tail.0 - lsn.0 {
            return Err(QsError::LogCorrupt {
                detail: format!("frame length {len} at {lsn} runs past the log tail"),
            });
        }
        let mut frame = vec![0u8; len];
        self.read_span_locked(&st, lsn, &mut frame)?;
        drop(st);
        record::frame_verify(&frame)?;
        Ok(frame)
    }

    /// Copy the raw encoded bytes of the span `[from, from + buf.len())`
    /// out of the log, splicing the durable body and the volatile tail
    /// buffer as needed. One lock acquisition regardless of span size —
    /// the restart streamer's bulk read.
    pub fn read_bytes(&self, from: Lsn, buf: &mut [u8]) -> QsResult<()> {
        let st = self.state.lock();
        self.read_span_locked(&st, from, buf)
    }

    /// [`LogManager::read_bytes`] with the state lock already held.
    fn read_span_locked(&self, st: &LogState, from: Lsn, buf: &mut [u8]) -> QsResult<()> {
        let end = from.advance(buf.len());
        if from < st.start || end > st.tail {
            return Err(QsError::LogCorrupt {
                detail: format!(
                    "raw read [{from}, {end}) outside log window [{}, {})",
                    st.start, st.tail
                ),
            });
        }
        // Synced part straight from the medium…
        let media_end = end.min(st.synced);
        if from < media_end {
            let n = (media_end.0 - from.0) as usize;
            self.read_body(from, &mut buf[..n])?;
        }
        // …and the rest from memory: what a force in flight detached, if
        // one is, then the tail buffer.
        if end > st.synced && end > from {
            let b_from = from.max(st.synced);
            let mut skip = (b_from.0 - st.synced.0) as usize;
            let mut out = &mut buf[(b_from.0 - from.0) as usize..];
            for part in [&self.writing.read()[..], &st.buffer[..]] {
                if skip >= part.len() {
                    skip -= part.len();
                    continue;
                }
                let n = (part.len() - skip).min(out.len());
                let (dst, rest) = out.split_at_mut(n);
                dst.copy_from_slice(&part[skip..skip + n]);
                out = rest;
                skip = 0;
            }
        }
        Ok(())
    }

    /// Fill `buf` with logical log page `index` (the byte range
    /// `[index·PAGE_SIZE, (index+1)·PAGE_SIZE)`) clipped to the live
    /// window; returns the valid `(from, to)` byte offsets within the
    /// page. The undo-phase record cache fetches whole log pages through
    /// this, which is also what lets the restart report count *distinct*
    /// log pages touched.
    pub fn read_log_page(&self, index: u64, buf: &mut [u8; PAGE_SIZE]) -> QsResult<(usize, usize)> {
        let st = self.state.lock();
        let base = index * PAGE_SIZE as u64;
        let lo = base.max(st.start.0);
        let hi = (base + PAGE_SIZE as u64).min(st.tail.0);
        if lo >= hi {
            return Err(QsError::LogCorrupt {
                detail: format!("log page {index} outside log window [{}, {})", st.start, st.tail),
            });
        }
        let (from, to) = ((lo - base) as usize, (hi - base) as usize);
        self.read_span_locked(&st, Lsn(lo), &mut buf[from..to])?;
        Ok((from, to))
    }

    /// Release log space: records before `lsn` are no longer needed.
    pub fn truncate_to(&self, lsn: Lsn) -> QsResult<()> {
        let mut st = self.state.lock();
        if lsn > st.synced {
            return Err(QsError::Protocol {
                detail: format!("truncate to {lsn} past durable {}", st.synced),
            });
        }
        if lsn > st.start {
            st.start = lsn;
            self.write_header(&st)?;
        }
        Ok(())
    }

    /// Advance the truncation low-water mark to `keep`, clamped to what is
    /// actually releasable: never past what is durable, never backwards. Unlike
    /// [`LogManager::truncate_to`], which treats an over-advanced request
    /// as a protocol error, this is the concurrent-checkpoint entry point —
    /// foreground appends may land between computing `keep` and calling
    /// here, so the clamp is part of the contract. Returns the effective
    /// start LSN after the advance.
    pub fn advance_low_water_mark(&self, keep: Lsn) -> QsResult<Lsn> {
        let mut st = self.state.lock();
        let clamped = keep.min(st.synced);
        if clamped > st.start {
            st.start = clamped;
            self.write_header(&st)?;
        }
        Ok(st.start)
    }

    /// Record the checkpoint LSN durably.
    pub fn set_checkpoint(&self, lsn: Lsn) -> QsResult<()> {
        let mut st = self.state.lock();
        st.checkpoint = lsn;
        self.write_header(&st)
    }

    pub fn checkpoint_lsn(&self) -> Lsn {
        self.state.lock().checkpoint
    }

    /// Next append position (also: one past the last record).
    pub fn tail_lsn(&self) -> Lsn {
        self.state.lock().tail
    }

    /// Everything below this LSN is on stable storage: a force wrote it and
    /// the medium's `sync()` has since returned. It only lands on record
    /// boundaries.
    pub fn durable_lsn(&self) -> Lsn {
        self.state.lock().synced
    }

    pub fn start_lsn(&self) -> Lsn {
        self.state.lock().start
    }

    /// Bytes currently occupied in the circular window.
    pub fn used_bytes(&self) -> usize {
        let st = self.state.lock();
        (st.tail.0 - st.start.0) as usize
    }

    pub fn body_capacity(&self) -> usize {
        self.body_capacity
    }

    /// Forward scan of the durable+buffered log from `from` (inclusive) to
    /// the tail, yielding `(lsn, record)`.
    pub fn scan_forward(&self, from: Lsn) -> LogScan<'_> {
        LogScan { log: self, at: from.max(self.start_lsn()) }
    }
}

/// Iterator for [`LogManager::scan_forward`].
pub struct LogScan<'a> {
    log: &'a LogManager,
    at: Lsn,
}

impl Iterator for LogScan<'_> {
    type Item = QsResult<(Lsn, LogRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.at >= self.log.tail_lsn() {
            return None;
        }
        match self.log.read_record(self.at) {
            Ok((rec, next)) => {
                let lsn = self.at;
                self.at = next;
                Some(Ok((lsn, rec)))
            }
            Err(e) => {
                self.at = self.log.tail_lsn(); // stop after an error
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_storage::MemDisk;
    use qs_types::{PageId, TxnId};

    fn fresh(body: usize) -> (Arc<MemDisk>, LogManager) {
        let media = Arc::new(MemDisk::new(LogManager::required_bytes(body)));
        let lm = LogManager::format(Arc::clone(&media) as Arc<dyn StableMedia>, body).unwrap();
        (media, lm)
    }

    fn commit(t: u64) -> LogRecord {
        LogRecord::Commit { txn: TxnId(t), prev: Lsn::NULL }
    }

    #[test]
    fn log_pressure_wire_round_trip() {
        for (fill, queue) in [(0.0, 0.0), (0.25, 0.5), (1.0, 1.0), (0.333, 0.667)] {
            let p = LogPressure::new(fill, queue);
            let rt = LogPressure::decode(&p.encode());
            // Per-mille quantization: round trip within 0.0005.
            assert!((rt.fill - p.fill).abs() < 0.0006, "{fill}");
            assert!((rt.queue - p.queue).abs() < 0.0006, "{queue}");
        }
        // Out-of-range inputs clamp rather than wrap on the wire.
        let p = LogPressure::new(7.0, -3.0);
        assert_eq!(p.fill, 1.0);
        assert_eq!(p.queue, 0.0);
        assert_eq!(LogPressure::decode(&p.encode()).fill, 1.0);
        assert!(LogPressure::default().combined() == 0.0);
        assert!((LogPressure::new(1.0, 1.0).combined() - 1.0).abs() < 1e-12);
    }

    fn update(t: u64, p: u32, val: u8) -> LogRecord {
        LogRecord::Update {
            txn: TxnId(t),
            prev: Lsn::NULL,
            page: PageId(p),
            slot: 0,
            offset: 0,
            before: vec![0; 8],
            after: vec![val; 8],
        }
    }

    #[test]
    fn append_rechained_equals_append_with_prev_set() {
        let (_m, a) = fresh(1 << 16);
        let (_m2, b) = fresh(1 << 16);
        // Path A: encode with prev=NULL (as a client would), rechain on append.
        let client_bytes = update(1, 10, 7).encode();
        let (la, last) = a.append_rechained_run(&client_bytes, Lsn(123)).unwrap();
        assert_eq!(la, last, "a run of one");
        // Path B: the old route — build the record with prev already set.
        let mut rec = update(1, 10, 7);
        if let LogRecord::Update { prev, .. } = &mut rec {
            *prev = Lsn(123);
        }
        let lb = b.append(&rec).unwrap();
        assert_eq!(la, lb);
        assert_eq!(a.read_record(la).unwrap(), b.read_record(lb).unwrap());
        assert_eq!(a.read_record(la).unwrap().0.prev(), Lsn(123));
    }

    /// Client-side frames (prev = NULL): `n` updates spread over `pages`.
    fn client_frames(n: u32, pages: u32) -> Vec<Vec<u8>> {
        (0..n).map(|i| update(1, i % pages, i as u8).encode()).collect()
    }

    /// Every byte of `[start, tail)`, as a reader sees it.
    fn log_bytes(lm: &LogManager) -> Vec<u8> {
        let mut out = vec![0u8; (lm.tail_lsn().0 - lm.start_lsn().0) as usize];
        lm.read_bytes(lm.start_lsn(), &mut out).unwrap();
        out
    }

    #[test]
    fn a_run_is_the_log_its_frames_make_appended_one_at_a_time() {
        let frames = client_frames(40, 3);
        let (_m, run) = fresh(1 << 16);
        let (_m2, singles) = fresh(1 << 16);
        // Something ahead of the run, so `prev` is not the log's first LSN.
        let head = run.append(&commit(9)).unwrap();
        assert_eq!(singles.append(&commit(9)).unwrap(), head);

        let (first, last) = run.append_rechained_run(&frames.concat(), head).unwrap();
        let mut prev = head;
        for f in &frames {
            let (lsn, same) = singles.append_rechained_run(f, prev).unwrap();
            assert_eq!(lsn, same);
            prev = lsn;
        }
        assert_eq!((first, last), (head.advance(commit(9).encode().len()), prev));
        assert_eq!(run.tail_lsn(), singles.tail_lsn());
        assert_eq!(log_bytes(&run), log_bytes(&singles), "LSNs, prev chain and checksums");
        // The chain really is the predecessor's LSN, frame by frame.
        let chain: Vec<(Lsn, Lsn)> =
            run.scan_forward(first).map(|r| r.unwrap()).map(|(l, r)| (l, r.prev())).collect();
        assert_eq!(chain.len(), frames.len());
        assert_eq!(chain[0].1, head);
        assert!(chain.windows(2).all(|w| w[1].1 == w[0].0));
        // A force through the run's last frame takes the whole tail.
        run.force(last).unwrap();
        assert_eq!(run.durable_lsn(), run.tail_lsn());
    }

    #[test]
    fn a_run_that_does_not_fit_leaves_the_tail_as_it_was() {
        let frames = client_frames(6, 2);
        let len = frames[0].len();
        let (_m, lm) = fresh(len * 8);
        let (first, last) = lm.append_rechained_run(&frames[..4].concat(), Lsn::NULL).unwrap();
        let (tail, before) = (lm.tail_lsn(), log_bytes(&lm));
        // Five more do not fit in what is left (four do): none goes in.
        let err = lm.append_rechained_run(&frames[..5].concat(), last).unwrap_err();
        assert!(matches!(err, QsError::LogFull { need, .. } if need == 5 * len), "{err}");
        assert_eq!(lm.tail_lsn(), tail);
        assert_eq!(log_bytes(&lm), before);
        // Neither does anything of a run holding bytes that are no frame.
        let mut torn = frames[..2].concat();
        torn.truncate(len + 10);
        assert!(matches!(lm.append_rechained_run(&torn, last), Err(QsError::LogCorrupt { .. })));
        assert_eq!((lm.tail_lsn(), log_bytes(&lm)), (tail, before.clone()));
        // The force boundary is still the run that did go in.
        lm.force(last).unwrap();
        assert_eq!(lm.durable_lsn(), tail);
        let (next, _) = lm.append_rechained_run(&frames[4..].concat(), last).unwrap();
        assert_eq!(next, tail);
        assert_eq!(lm.read_record(first).unwrap().0.prev(), Lsn::NULL);
        assert_eq!(lm.read_record(next).unwrap().0.prev(), last);
    }

    #[test]
    fn force_to_an_interior_lsn_stops_at_that_records_end() {
        let (media, lm) = fresh(1 << 16);
        let lsns: Vec<Lsn> = (0..5).map(|i| lm.append(&update(1, i, i as u8)).unwrap()).collect();
        let tail = lm.tail_lsn();
        let all = log_bytes(&lm);
        // WAL-before-steal: through the second record, and no further —
        // also when `upto` points into the record rather than at its start.
        for (upto, durable) in [(lsns[1], lsns[2]), (lsns[3].advance(7), lsns[4])] {
            let stats = lm.force(upto).unwrap();
            assert!(stats.wrote);
            assert_eq!((lm.durable_lsn(), lm.tail_lsn()), (durable, tail));
            assert_eq!(log_bytes(&lm), all, "what stayed behind is still readable");
        }
        assert!(!lm.force(lsns[2]).unwrap().wrote, "already durable");
        let l5 = lm.append(&commit(1)).unwrap();
        assert_eq!(l5, tail);
        lm.force(lsns[4]).unwrap(); // the last frame before the commit: interior again
        assert_eq!(lm.durable_lsn(), l5);
        drop(lm); // crash: the commit record was never forced
        let lm2 = LogManager::open(media).unwrap();
        assert_eq!(lm2.tail_lsn(), l5);
        assert_eq!(log_bytes(&lm2), all);
        assert!(lm2.read_record(l5).is_err());
    }

    #[test]
    fn append_read_round_trip() {
        let (_m, lm) = fresh(1 << 16);
        let r1 = update(1, 10, 7);
        let r2 = commit(1);
        let l1 = lm.append(&r1).unwrap();
        let l2 = lm.append(&r2).unwrap();
        assert!(l1 < l2);
        // Readable from the volatile buffer before any force.
        let (got1, next1) = lm.read_record(l1).unwrap();
        assert_eq!(got1, r1);
        assert_eq!(next1, l2);
        let (got2, _) = lm.read_record(l2).unwrap();
        assert_eq!(got2, r2);
    }

    #[test]
    fn force_makes_records_durable_across_crash() {
        let (media, lm) = fresh(1 << 16);
        let l1 = lm.append(&update(1, 10, 7)).unwrap();
        let l2 = lm.append(&commit(1)).unwrap();
        let stats = lm.force(lm.tail_lsn()).unwrap();
        assert!(stats.wrote);
        // Unforced record after the force:
        let l3 = lm.append(&commit(2)).unwrap();
        drop(lm); // crash

        let lm2 = LogManager::open(media).unwrap();
        assert_eq!(lm2.durable_lsn(), lm2.tail_lsn());
        let (r1, _) = lm2.read_record(l1).unwrap();
        assert_eq!(r1.txn(), TxnId(1));
        let (r2, _) = lm2.read_record(l2).unwrap();
        assert!(matches!(r2, LogRecord::Commit { .. }));
        // The unforced record is gone.
        assert!(lm2.read_record(l3).is_err());
    }

    #[test]
    fn force_is_idempotent_and_counts_pages() {
        let (_m, lm) = fresh(1 << 20);
        for i in 0..100 {
            lm.append(&update(1, i, 1)).unwrap();
        }
        let s1 = lm.force(lm.tail_lsn()).unwrap();
        assert!(s1.pages_written >= 1);
        let s2 = lm.force(lm.tail_lsn()).unwrap();
        assert!(!s2.wrote);
        assert_eq!(s2.pages_written, 0);
    }

    #[test]
    fn wraps_around_after_truncate() {
        // Body barely bigger than two records; write/truncate repeatedly to
        // force physical wrap-around.
        let rec = update(1, 1, 9);
        let rl = rec.encode().len();
        let (_m, lm) = fresh(rl * 2 + 10);
        let mut lsns = Vec::new();
        for i in 0..10 {
            let l = lm.append(&update(1, i, i as u8)).unwrap();
            lm.force(lm.tail_lsn()).unwrap();
            lsns.push(l);
            // keep only the latest record
            lm.truncate_to(l).unwrap();
        }
        // The final record is readable and intact despite many wraps.
        let (rec, _) = lm.read_record(*lsns.last().unwrap()).unwrap();
        match rec {
            LogRecord::Update { page, .. } => assert_eq!(page, PageId(9)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn log_full_when_not_truncated() {
        let rec = commit(1);
        let rl = rec.encode().len();
        let (_m, lm) = fresh(rl * 3);
        lm.append(&rec).unwrap();
        let l1 = lm.append(&rec).unwrap();
        lm.append(&rec).unwrap();
        assert!(matches!(lm.append(&rec), Err(QsError::LogFull { .. })));
        // Freeing one record's space lets the append succeed.
        lm.force(lm.tail_lsn()).unwrap();
        lm.truncate_to(l1).unwrap();
        lm.append(&rec).unwrap();
    }

    #[test]
    fn forward_scan_yields_all_records_in_order() {
        let (_m, lm) = fresh(1 << 16);
        for i in 0..20u32 {
            lm.append(&update(1, i, 0)).unwrap();
        }
        lm.force(lm.tail_lsn()).unwrap();
        let pages: Vec<u32> =
            lm.scan_forward(Lsn(0)).map(|r| r.unwrap().1.page().unwrap().0).collect();
        assert_eq!(pages, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn checkpoint_lsn_survives_crash() {
        let (media, lm) = fresh(1 << 16);
        assert_eq!(lm.checkpoint_lsn(), Lsn::NULL, "fresh log has no checkpoint");
        let l = lm.append(&commit(1)).unwrap();
        assert!(!l.is_null(), "real LSNs are never the NULL sentinel");
        lm.force(lm.tail_lsn()).unwrap();
        lm.set_checkpoint(l).unwrap();
        drop(lm);
        let lm2 = LogManager::open(media).unwrap();
        assert_eq!(lm2.checkpoint_lsn(), l);
    }

    #[test]
    fn truncate_past_durable_rejected() {
        let (_m, lm) = fresh(1 << 16);
        lm.append(&commit(1)).unwrap();
        assert!(lm.truncate_to(lm.tail_lsn()).is_err()); // not durable yet
        lm.force(lm.tail_lsn()).unwrap();
        lm.truncate_to(lm.tail_lsn()).unwrap();
    }

    #[test]
    fn advance_low_water_mark_clamps_and_is_monotonic() {
        let (media, lm) = fresh(1 << 16);
        let l1 = lm.append(&commit(1)).unwrap();
        let l2 = lm.append(&commit(2)).unwrap();
        // Nothing durable yet: any request clamps to the format origin.
        assert_eq!(lm.advance_low_water_mark(l2).unwrap(), lm.start_lsn());
        lm.force(lm.tail_lsn()).unwrap();
        // Past-durable requests clamp to durable instead of erroring.
        assert_eq!(lm.advance_low_water_mark(Lsn(u64::MAX)).unwrap(), lm.durable_lsn());
        // Backwards requests are ignored.
        assert_eq!(lm.advance_low_water_mark(l1).unwrap(), lm.durable_lsn());
        assert_eq!(lm.start_lsn(), lm.durable_lsn());
        // The advance is durable across a reopen.
        let start = lm.start_lsn();
        drop(lm);
        let lm2 = LogManager::open(media).unwrap();
        assert_eq!(lm2.start_lsn(), start);
    }

    #[test]
    fn read_off_a_frame_boundary_fails_typed() {
        let (_m, lm) = fresh(1 << 16);
        let first = lm.append(&update(1, 10, 7)).unwrap();
        lm.append(&update(1, 11, 8)).unwrap();
        lm.append(&commit(1)).unwrap();
        let mut cache = crate::LogReadCache::new();
        for forced in [false, true] {
            if forced {
                lm.force(lm.tail_lsn()).unwrap();
            }
            for lsn in [first.advance(1), Lsn(lm.tail_lsn().0 - 2)] {
                let err = lm.read_record(lsn).unwrap_err();
                assert!(matches!(err, QsError::LogCorrupt { .. }), "forced={forced} {lsn}: {err}");
                let err = cache.frame(&lm, lsn).unwrap_err();
                assert!(matches!(err, QsError::LogCorrupt { .. }), "forced={forced} {lsn}: {err}");
            }
            assert_eq!(lm.read_record(first).unwrap().0, update(1, 10, 7));
        }
    }

    #[test]
    fn a_log_of_another_format_revision_is_refused_by_name() {
        let (media, lm) = fresh(1 << 16);
        lm.append(&commit(1)).unwrap();
        lm.force(lm.tail_lsn()).unwrap();
        drop(lm);
        // Revision 0 is the bare "QSLOG" magic (the pre-checksum-change
        // header); revision 1 logs may hold the begin/end checkpoint pair.
        for old in 0..REVISION {
            media.write_at(0, &(MAGIC | old << MAGIC_BITS).to_le_bytes()).unwrap();
            let Err(err) = LogManager::open(Arc::clone(&media) as Arc<dyn StableMedia>) else {
                panic!("opened a revision-{old} log");
            };
            assert!(matches!(err, QsError::RecoveryFailed { .. }), "{err}");
            assert!(err.to_string().contains(&format!("log format revision {old};")), "{err}");
        }
        // Not a log at all: still the magic error.
        media.write_at(0, &[0xAB; 8]).unwrap();
        let Err(err) = LogManager::open(media) else { panic!("opened garbage") };
        assert!(err.to_string().contains("magic mismatch"), "{err}");
    }

    /// A 64 KB log of 49 forced commits (a 72 KB medium) whose header
    /// fields at the given byte offsets are then rewritten: what `open` and
    /// a scan of the reopened log make of it.
    fn reopen_with_header(fields: &[(usize, u64)]) -> QsResult<usize> {
        let (media, lm) = fresh(1 << 16);
        for t in 0..49 {
            lm.append(&commit(t)).unwrap();
        }
        lm.force(lm.tail_lsn()).unwrap();
        drop(lm);
        for &(at, value) in fields {
            media.write_at(at, &value.to_le_bytes()).unwrap();
        }
        let lm = LogManager::open(media)?;
        let scanned = lm.scan_forward(lm.start_lsn()).collect::<QsResult<Vec<_>>>()?;
        Ok(scanned.len())
    }

    /// Byte offsets of the header fields.
    const CAPACITY_AT: usize = 8;
    const START_AT: usize = 16;
    const WRITTEN_AT: usize = 24;
    const CHECKPOINT_AT: usize = 32;

    fn assert_corrupt(fields: &[(usize, u64)]) {
        match reopen_with_header(fields) {
            Err(QsError::LogCorrupt { .. }) => {}
            other => panic!("{fields:?}: {other:?}, not a LogCorrupt error"),
        }
    }

    #[test]
    fn an_unaltered_header_reopens_and_scans_every_record() {
        assert_eq!(reopen_with_header(&[]).unwrap(), 49);
    }

    #[test]
    fn a_header_with_a_body_capacity_of_zero_is_corrupt() {
        assert_corrupt(&[(CAPACITY_AT, 0)]);
    }

    #[test]
    fn a_header_whose_start_passes_written_is_corrupt() {
        assert_corrupt(&[(START_AT, 1000), (WRITTEN_AT, 10)]);
    }

    #[test]
    fn a_header_capacity_past_the_medium_is_corrupt() {
        assert_corrupt(&[(CAPACITY_AT, 1 << 40)]);
        assert_corrupt(&[(CAPACITY_AT, u64::MAX)]);
    }

    #[test]
    fn a_header_checkpoint_outside_the_window_is_corrupt() {
        assert_corrupt(&[(CHECKPOINT_AT, 1 << 50)]);
    }

    #[test]
    fn a_flipped_bit_in_the_header_start_is_corrupt() {
        // The 49 records start at the origin, LSN 8192: bit 0 names the
        // middle of the first frame, which the scan refuses; bit 40 a start
        // past `written`, which `open` refuses.
        for bit in [0, 40] {
            assert_corrupt(&[(START_AT, PAGE_SIZE as u64 ^ (1 << bit))]);
        }
    }

    #[test]
    fn append_with_equals_append_and_leaves_no_bytes_when_full() {
        let clr = LogRecord::Clr {
            txn: TxnId(4),
            prev: Lsn(77),
            page: PageId(9),
            slot: 1,
            offset: 8,
            after: vec![5; 12],
            undo_next: Lsn(33),
        };
        let (_m, a) = fresh(clr.encode().len() + 10);
        let (_m2, b) = fresh(clr.encode().len() + 10);
        let write =
            |w: &mut RecordWriter<'_>| w.clr(TxnId(4), Lsn(77), PageId(9), 1, 8, &[5; 12], Lsn(33));
        let la = a.append_with(write).unwrap();
        let lb = b.append(&clr).unwrap();
        assert_eq!((la, a.tail_lsn()), (lb, b.tail_lsn()));
        assert_eq!(a.read_record(la).unwrap().0, clr);
        // A second one does not fit: typed error, tail unchanged.
        assert!(matches!(a.append_with(write), Err(QsError::LogFull { .. })));
        assert_eq!(a.tail_lsn(), b.tail_lsn());
        assert_eq!(a.read_record(la).unwrap().0, clr);
    }

    #[test]
    fn read_outside_window_rejected() {
        let (_m, lm) = fresh(1 << 16);
        assert!(lm.read_record(Lsn(0)).is_err()); // empty log
        lm.append(&commit(1)).unwrap();
        assert!(lm.read_record(lm.tail_lsn()).is_err());
    }
}
