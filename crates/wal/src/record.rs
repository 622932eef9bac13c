//! Log-record types and their binary codec.
//!
//! This file and `writer.rs` are the only code that knows a frame's byte
//! layout: [`RecordWriter`] is the one encoder (every tag's body is
//! written by one of its methods), the frame views below are the one
//! decoder ([`LogRecord::decode`] copies out what they lend), and
//! [`frame_len`] is the one boundary check. DESIGN.md "Log on-disk
//! format" has the per-tag table.
//!
//! Encoded layout of every record:
//!
//! ```text
//! 0      4       8    9      17        25            len-4      len
//! +------+-------+----+------+---------+---- body ---+----------+
//! | len  | cksum | tag| txn  | prevLsn |  ... pad ...| len(trlr)|
//! +------+-------+----+------+---------+-------------+----------+
//! ```
//!
//! * `len` appears both first and last (the paper's WPL restart scans
//!   backward, §3.4.3; here the trailer echo is the torn-frame check).
//! * `cksum` is [`checksum`] over `bytes[8..len-4]`; decode rejects
//!   corruption (DESIGN.md "log on-disk format" states the guarantee).
//! * The record is padded so `len == LOG_HEADER_SIZE + variable payload`,
//!   making our log-space accounting identical to the paper's
//!   "≈50-byte header + images" model.

use crate::writer::RecordWriter;
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use std::ops::Range;

// The fixed fields, in frame order.
pub(crate) const LEN_RANGE: Range<usize> = 0..4;
const CKSUM_RANGE: Range<usize> = 4..8;
pub(crate) const TAG_AT: usize = 8;
pub(crate) const TXN_RANGE: Range<usize> = 9..17;
pub(crate) const PREV_RANGE: Range<usize> = 17..25;
/// Fixed bytes before the body: len(4) + cksum(4) + tag(1) + txn(8) + prev(8).
pub(crate) const PREFIX: usize = PREV_RANGE.end;
/// Trailer bytes: the repeated length.
pub(crate) const TRAILER: usize = 4;
/// The shortest frame: the fixed fields and the trailer around an empty
/// body. Less than this is never a frame.
pub const FRAME_LEN_MIN: usize = PREFIX + TRAILER;

/// Encoded record tags (byte 8 of a frame), for code that routes or
/// filters frames without decoding them.
pub mod tag {
    pub const UPDATE: u8 = 1;
    pub const WHOLE_PAGE: u8 = 2;
    pub const PAGE_ALLOC: u8 = 3;
    pub const COMMIT: u8 = 4;
    pub const ABORT: u8 = 5;
    pub const CLR: u8 = 6;
    pub const CHECKPOINT: u8 = 7;
    pub const UPDATE_LOGICAL: u8 = 8;
    // 9 and 10 were the begin/end pair of the two-phase checkpoint (log
    // format revision 1); they are not reused.
    pub const TXN_SCHEME: u8 = 11;
}

/// The per-transaction logging scheme a [`LogRecord::TxnScheme`] record
/// declares — the adaptive controller's election, encoded as one byte so a
/// single log can legally interleave transactions logged in different
/// formats. `Pd`/`Sd` transactions follow the physical (ESM-ARIES, steal +
/// undo) protocol; `Wpl`/`Rlog` transactions are logical: no-steal,
/// deferred apply at commit, never undone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SchemeCode {
    /// Exact page-diff regions as physical `Update` records.
    Pd = 0,
    /// Block-rounded (sub-page) regions as physical `Update` records.
    Sd = 1,
    /// One whole-page after image per dirty page, applied at commit.
    Wpl = 2,
    /// Exact regions as REDO-only `UpdateLogical` records.
    Rlog = 3,
}

impl SchemeCode {
    pub fn from_u8(v: u8) -> Option<SchemeCode> {
        match v {
            0 => Some(SchemeCode::Pd),
            1 => Some(SchemeCode::Sd),
            2 => Some(SchemeCode::Wpl),
            3 => Some(SchemeCode::Rlog),
            _ => None,
        }
    }

    /// Logical schemes defer apply to commit and are never undone.
    pub fn is_logical(self) -> bool {
        matches!(self, SchemeCode::Wpl | SchemeCode::Rlog)
    }

    pub fn name(self) -> &'static str {
        match self {
            SchemeCode::Pd => "pd",
            SchemeCode::Sd => "sd",
            SchemeCode::Wpl => "wpl",
            SchemeCode::Rlog => "rlog",
        }
    }
}

/// The frame checksum: 32-bit little-endian words fed round-robin to four
/// independent rotate-xor-multiply lanes (four dependency chains instead
/// of FNV-1a's one multiply per byte), the lanes folded over the length,
/// the last 0–3 bytes folded in one at a time.
///
/// Every step — a lane taking a word, the fold taking a lane or a tail
/// byte, the final shift — is a bijection of the running state for a fixed
/// input and injective in the input for a fixed state. So two inputs of
/// one length that differ only inside one 4-byte-aligned word (any
/// single-bit or single-byte error among them) never share a checksum.
/// The length seeds the fold, so a zero-padded prefix of an input does
/// not inherit its checksum.
pub fn checksum(bytes: &[u8]) -> u32 {
    // Odd, so multiplying by it permutes the u32s (the FNV prime).
    const M: u32 = 0x0100_0193;
    fn mix(state: u32, rotate: u32, input: u32) -> u32 {
        (state.rotate_left(rotate) ^ input).wrapping_mul(M)
    }
    fn word(w: &[u8]) -> u32 {
        u32::from_le_bytes(w.try_into().expect("chunks_exact(4)"))
    }
    let mut lanes = [0x811c_9dc5u32, 0x9e37_79b9, 0x85eb_ca6b, 0xc2b2_ae35];
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = mix(*lane, 13, word(w));
        }
    }
    let mut words = blocks.remainder().chunks_exact(4);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = mix(*lane, 13, word(w));
    }
    let mut h = bytes.len() as u32;
    for lane in lanes {
        h = mix(h, 5, lane);
    }
    for &b in words.remainder() {
        h = mix(h, 5, b as u32);
    }
    h ^ (h >> 16)
}

/// [`checksum`] of the bytes a frame's checksum field covers.
fn frame_checksum(frame: &[u8]) -> u32 {
    checksum(&frame[CKSUM_RANGE.end..frame.len() - TRAILER])
}

/// Store the checksum of a complete frame in its checksum field — the
/// last step of the encoder.
pub(crate) fn frame_seal(frame: &mut [u8]) {
    let ck = frame_checksum(frame);
    frame[CKSUM_RANGE].copy_from_slice(&ck.to_le_bytes());
}

/// One entry of the WPL table as persisted in a checkpoint (§3.4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WplCheckpointEntry {
    pub page: PageId,
    /// LSN of the whole-page record holding the page's latest logged image.
    pub lsn: Lsn,
    /// Transaction that dirtied the page.
    pub txn: TxnId,
    /// Whether that transaction had committed by checkpoint time.
    pub committed: bool,
}

/// Body of a checkpoint record. Carries what each recovery flavor needs:
/// ARIES restart uses the active-transaction and dirty-page tables; WPL
/// restart uses the serialized WPL table; both use `allocated_pages` to
/// reconcile the volume header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointBody {
    /// Active transactions and their most recent log record.
    pub active_txns: Vec<(TxnId, Lsn)>,
    /// Server dirty-page table: page → recovery LSN (first dirtying record).
    pub dirty_pages: Vec<(PageId, Lsn)>,
    /// WPL table snapshot (empty under ARIES-style schemes).
    pub wpl_entries: Vec<WplCheckpointEntry>,
    /// Volume allocation count at checkpoint time.
    pub allocated_pages: u64,
}

/// The log-record vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// Byte-range update with redo (`after`) and undo (`before`) images —
    /// the unit the diffing schemes generate (§3.2.2). `offset` is relative
    /// to the start of the object in `page.slot`.
    Update {
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        before: Vec<u8>,
        after: Vec<u8>,
    },
    /// Whole-page after-image. Used by WPL for every dirty page (§3.4) and
    /// by ESM for newly created pages (§3.6 notes ESM already supported
    /// this for new pages).
    WholePage { txn: TxnId, prev: Lsn, page: PageId, image: Vec<u8> },
    /// Page allocation (so restart can reconcile the volume header).
    PageAlloc { txn: TxnId, prev: Lsn, page: PageId },
    /// Transaction commit.
    Commit { txn: TxnId, prev: Lsn },
    /// Transaction abort (end of rollback).
    Abort { txn: TxnId, prev: Lsn },
    /// ARIES compensation record: `after` is the undo image that was
    /// applied; `undo_next` continues rollback before the compensated
    /// record.
    Clr {
        txn: TxnId,
        prev: Lsn,
        page: PageId,
        slot: u16,
        offset: u16,
        after: Vec<u8>,
        undo_next: Lsn,
    },
    /// Checkpoint: the server's tables at the instant the record was
    /// appended, taken after the checkpoint's drain. It is the restart
    /// anchor once the log header names it — a crash before that leaves
    /// the header on the previous checkpoint.
    Checkpoint { body: CheckpointBody },
    /// Logical (REDO-only) byte-range update: like `Update` but with no
    /// before image — the no-steal rule of `RecoveryFlavor::RedoLogical`
    /// guarantees uncommitted data never reaches disk, so undo images are
    /// never needed (DESIGN.md §6e).
    UpdateLogical { txn: TxnId, prev: Lsn, page: PageId, slot: u16, offset: u16, after: Vec<u8> },
    /// Per-transaction scheme election (DESIGN.md §6g): the *first* record
    /// of an adaptively-logged transaction's chain, declaring which format
    /// the rest of the chain uses so the server and restart can classify
    /// the transaction before any page-bearing record arrives.
    TxnScheme { txn: TxnId, prev: Lsn, scheme: SchemeCode },
}

impl LogRecord {
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::Update { txn, .. }
            | LogRecord::WholePage { txn, .. }
            | LogRecord::PageAlloc { txn, .. }
            | LogRecord::Commit { txn, .. }
            | LogRecord::Abort { txn, .. }
            | LogRecord::Clr { txn, .. }
            | LogRecord::UpdateLogical { txn, .. }
            | LogRecord::TxnScheme { txn, .. } => *txn,
            LogRecord::Checkpoint { .. } => TxnId::INVALID,
        }
    }

    /// Per-transaction backward chain pointer.
    pub fn prev(&self) -> Lsn {
        match self {
            LogRecord::Update { prev, .. }
            | LogRecord::WholePage { prev, .. }
            | LogRecord::PageAlloc { prev, .. }
            | LogRecord::Commit { prev, .. }
            | LogRecord::Abort { prev, .. }
            | LogRecord::Clr { prev, .. }
            | LogRecord::UpdateLogical { prev, .. }
            | LogRecord::TxnScheme { prev, .. } => *prev,
            LogRecord::Checkpoint { .. } => Lsn::NULL,
        }
    }

    /// The page this record touches, if any.
    pub fn page(&self) -> Option<PageId> {
        match self {
            LogRecord::Update { page, .. }
            | LogRecord::WholePage { page, .. }
            | LogRecord::PageAlloc { page, .. }
            | LogRecord::Clr { page, .. }
            | LogRecord::UpdateLogical { page, .. } => Some(*page),
            _ => None,
        }
    }

    /// This record's wire tag (the [`tag`] constants).
    pub fn tag(&self) -> u8 {
        match self {
            LogRecord::Update { .. } => tag::UPDATE,
            LogRecord::WholePage { .. } => tag::WHOLE_PAGE,
            LogRecord::PageAlloc { .. } => tag::PAGE_ALLOC,
            LogRecord::Commit { .. } => tag::COMMIT,
            LogRecord::Abort { .. } => tag::ABORT,
            LogRecord::Clr { .. } => tag::CLR,
            LogRecord::Checkpoint { .. } => tag::CHECKPOINT,
            LogRecord::UpdateLogical { .. } => tag::UPDATE_LOGICAL,
            LogRecord::TxnScheme { .. } => tag::TXN_SCHEME,
        }
    }

    /// Append this record's frame through `w` — the one encoder
    /// ([`RecordWriter`] owns every tag's layout). Returns the frame's
    /// length. A `WholePage` image must be exactly one page.
    pub fn write_to(&self, w: &mut RecordWriter<'_>) -> usize {
        match self {
            LogRecord::Update { txn, prev, page, slot, offset, before, after } => {
                w.update(*txn, *prev, *page, *slot, *offset, before, after)
            }
            LogRecord::WholePage { txn, prev, page, image } => {
                let image = image[..].try_into().expect("a whole-page image is one page");
                w.whole_page(*txn, *prev, *page, image)
            }
            LogRecord::PageAlloc { txn, prev, page } => w.page_alloc(*txn, *prev, *page),
            LogRecord::Commit { txn, prev } => w.commit(*txn, *prev),
            LogRecord::Abort { txn, prev } => w.abort(*txn, *prev),
            LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next } => {
                w.clr(*txn, *prev, *page, *slot, *offset, after, *undo_next)
            }
            LogRecord::Checkpoint { body } => w.checkpoint(body),
            LogRecord::UpdateLogical { txn, prev, page, slot, offset, after } => {
                w.update_logical(*txn, *prev, *page, *slot, *offset, after)
            }
            LogRecord::TxnScheme { txn, prev, scheme } => w.scheme_mark(*txn, *prev, *scheme),
        }
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut RecordWriter::new(&mut out));
        out
    }

    /// Decode one record from `bytes` (exactly one frame): verify it, then
    /// copy out what the frame views lend.
    pub fn decode(bytes: &[u8]) -> QsResult<LogRecord> {
        frame_verify(bytes)?;
        let (txn, prev) = (frame_txn(bytes)?, frame_prev(bytes)?);
        let (t, mut body) = checked(bytes)?;
        Ok(match t {
            tag::UPDATE => {
                let UpdateImages { page, slot, offset, before, after } = body.update_images()?;
                let (before, after) = (before.to_vec(), after.to_vec());
                LogRecord::Update { txn, prev, page, slot, offset, before, after }
            }
            tag::WHOLE_PAGE => {
                let image = frame_whole_page_image(bytes)?.to_vec();
                LogRecord::WholePage { txn, prev, page: body.page()?, image }
            }
            tag::PAGE_ALLOC => LogRecord::PageAlloc { txn, prev, page: body.page()? },
            tag::COMMIT => LogRecord::Commit { txn, prev },
            tag::ABORT => LogRecord::Abort { txn, prev },
            tag::CLR => {
                let (page, slot, offset, after) = body.after_image()?;
                let (after, undo_next) = (after.to_vec(), frame_undo_next(bytes)?);
                LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next }
            }
            tag::CHECKPOINT => LogRecord::Checkpoint { body: frame_checkpoint_body(bytes)? },
            tag::UPDATE_LOGICAL => {
                let (page, slot, offset, after) = body.after_image()?;
                LogRecord::UpdateLogical { txn, prev, page, slot, offset, after: after.to_vec() }
            }
            tag::TXN_SCHEME => LogRecord::TxnScheme { txn, prev, scheme: body.scheme()? },
            t => return Err(corrupt(format_args!("unknown record tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------
// Frame views: read *encoded* records without decoding them. The client
// batches encoded records back-to-back in one scratch buffer and the
// server re-chains `prev` in place; restart routes, redoes and undoes out
// of the scan's chunk buffers; no steady-state path materializes a
// `LogRecord`. Every view takes exactly one frame, runs the boundary
// check ([`frame_len`]) and bounds-checks what it reads, so bytes that are
// not a frame — truncated, torn, the wrong tag for the view — come back as
// `LogCorrupt`, never a panic. None of them checks the checksum: that is
// [`frame_verify`], which callers run once per frame they act on.
// ---------------------------------------------------------------------

/// Formatting and allocation stay out of the views' inlined fast paths.
#[cold]
#[inline(never)]
fn corrupt(detail: std::fmt::Arguments<'_>) -> QsError {
    QsError::LogCorrupt { detail: detail.to_string() }
}

/// The length prefix in `head`, if `head` holds a frame's fixed fields
/// and the prefix is a possible frame length.
#[inline(always)]
fn declared(head: &[u8]) -> Option<usize> {
    let fixed = head.get(..FRAME_LEN_MIN)?;
    let len = u32::from_le_bytes(fixed[LEN_RANGE].try_into().unwrap()) as usize;
    (len >= FRAME_LEN_MIN).then_some(len)
}

/// The boundary check proper: the length of the frame `bytes` starts
/// with, if that is a possible frame length, lies fully within `bytes`
/// and is echoed by the trailer (a torn frame fails here).
#[inline(always)]
fn boundary(bytes: &[u8]) -> Option<usize> {
    let len = declared(bytes)?;
    let trailer = bytes.get(len - TRAILER..len)?;
    (u32::from_le_bytes(trailer.try_into().unwrap()) as usize == len).then_some(len)
}

/// Why `bytes` failed the boundary check. The one slow path behind every
/// fast one: it looks again to say what it saw.
#[cold]
#[inline(never)]
fn refused(bytes: &[u8]) -> QsError {
    let have = bytes.len();
    match (declared(bytes), boundary(bytes)) {
        (None, _) => corrupt(format_args!("{have} bytes do not start with a frame's fixed fields")),
        (Some(len), None) => corrupt(format_args!(
            "frame length {len} is outside the {have} bytes given or not echoed by its trailer"
        )),
        (_, Some(len)) => corrupt(format_args!("{have} bytes given for a frame of {len}")),
    }
}

/// The length prefix of the frame whose first bytes are `head` (at least
/// [`FRAME_LEN_MIN`] of them), checked to be a possible frame length — the
/// half of the boundary check open to a reader that has yet to fetch the
/// rest of the frame.
#[inline(always)]
pub fn frame_declared_len(head: &[u8]) -> QsResult<usize> {
    declared(head).ok_or_else(|| refused(head))
}

/// The boundary check: length of the frame starting at `bytes[0]`,
/// validated to be a possible frame length, to lie fully within `bytes`,
/// and to be echoed by the frame's trailer.
#[inline(always)]
pub fn frame_len(bytes: &[u8]) -> QsResult<usize> {
    boundary(bytes).ok_or_else(|| refused(bytes))
}

/// Validate one encoded record's framing without decoding it: the
/// boundary check, then [`checksum`]. It is [`LogRecord::decode`]'s own
/// first step; restart and undo use it on frames whose bodies they never
/// materialize.
pub fn frame_verify(bytes: &[u8]) -> QsResult<()> {
    checked(bytes)?;
    let ck = u32::from_le_bytes(bytes[CKSUM_RANGE].try_into().unwrap());
    if ck != frame_checksum(bytes) {
        return Err(corrupt(format_args!("checksum mismatch")));
    }
    Ok(())
}

/// Cursor over one frame's body: the bytes between the fixed fields and
/// the trailer (padding included). Its methods are the one place each
/// tag's body layout is read.
struct Body<'a>(&'a [u8]);

/// `bytes` as exactly one frame — what every view takes — behind the
/// boundary check: its tag and its body.
#[inline(always)]
fn checked(bytes: &[u8]) -> QsResult<(u8, Body<'_>)> {
    if boundary(bytes) != Some(bytes.len()) {
        return Err(refused(bytes));
    }
    Ok((bytes[TAG_AT], Body(&bytes[PREFIX..bytes.len() - TRAILER])))
}

/// [`checked`] for a view that reads one tag's layout.
#[inline]
fn checked_as<'a>(bytes: &'a [u8], tag: u8, what: &str) -> QsResult<Body<'a>> {
    let (t, body) = checked(bytes)?;
    if t != tag {
        return Err(corrupt(format_args!("tag {t} is not {what} frame")));
    }
    Ok(body)
}

#[cold]
#[inline(never)]
fn truncated() -> QsError {
    corrupt(format_args!("record body truncated"))
}

impl<'a> Body<'a> {
    #[inline]
    fn bytes(&mut self, n: usize) -> QsResult<&'a [u8]> {
        if n > self.0.len() {
            return Err(truncated());
        }
        let (taken, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(taken)
    }
    fn u8(&mut self) -> QsResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    #[inline]
    fn u16(&mut self) -> QsResult<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    #[inline]
    fn u32(&mut self) -> QsResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> QsResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// The page field every page-bearing body starts with.
    #[inline]
    fn page(&mut self) -> QsResult<PageId> {
        self.u32().map(PageId)
    }

    /// `page | slot u16 | offset u16 | blen u16 | alen u16 | before |
    /// after`: an `Update` body.
    #[inline(always)]
    fn update_images(mut self) -> QsResult<UpdateImages<'a>> {
        let page = self.page()?;
        let (slot, offset, blen, alen) = (self.u16()?, self.u16()?, self.u16()?, self.u16()?);
        let (before, after) = (self.bytes(blen as usize)?, self.bytes(alen as usize)?);
        Ok(UpdateImages { page, slot, offset, before, after })
    }

    /// `page | slot u16 | offset u16 | alen u16 | after`: a logical
    /// update's body and the head of a CLR's.
    #[inline(always)]
    fn after_image(&mut self) -> QsResult<(PageId, u16, u16, &'a [u8])> {
        let (page, slot, offset, alen) = (self.page()?, self.u16()?, self.u16()?, self.u16()?);
        Ok((page, slot, offset, self.bytes(alen as usize)?))
    }

    /// `scheme u8`: a `TxnScheme` body.
    fn scheme(&mut self) -> QsResult<SchemeCode> {
        let v = self.u8()?;
        SchemeCode::from_u8(v).ok_or_else(|| corrupt(format_args!("unknown scheme code {v}")))
    }
}

/// Record tag of the encoded record `bytes`.
#[inline]
pub fn frame_tag(bytes: &[u8]) -> QsResult<u8> {
    Ok(checked(bytes)?.0)
}

/// Transaction id of the encoded record `bytes`.
#[inline]
pub fn frame_txn(bytes: &[u8]) -> QsResult<TxnId> {
    checked(bytes)?;
    Ok(TxnId(u64::from_le_bytes(bytes[TXN_RANGE].try_into().unwrap())))
}

/// The `prev` LSN of the encoded record `bytes`.
#[inline]
pub fn frame_prev(bytes: &[u8]) -> QsResult<Lsn> {
    checked(bytes)?;
    Ok(Lsn(u64::from_le_bytes(bytes[PREV_RANGE].try_into().unwrap())))
}

/// Rewrite the `prev` LSN of one encoded record in place and fix its
/// checksum. Clients encode records with `prev = NULL` (they cannot know
/// the transaction's backward chain); the server patches the real value
/// here — the result is byte-identical to encoding with `prev` set.
pub fn frame_set_prev(bytes: &mut [u8], prev: Lsn) {
    debug_assert!(checked(bytes).is_ok(), "wants exactly one record");
    bytes[PREV_RANGE].copy_from_slice(&prev.0.to_le_bytes());
    frame_seal(bytes);
}

/// The page an encoded record touches, if any (tags with a leading page
/// field in the body: update, whole-page, page-alloc, CLR, logical update).
#[inline]
pub fn frame_page(bytes: &[u8]) -> QsResult<Option<PageId>> {
    let (t, mut body) = checked(bytes)?;
    match t {
        tag::UPDATE | tag::WHOLE_PAGE | tag::PAGE_ALLOC | tag::CLR | tag::UPDATE_LOGICAL => {
            body.page().map(Some)
        }
        _ => Ok(None),
    }
}

/// Zero-copy view of an encoded `Update` record's body.
pub struct UpdateImages<'a> {
    pub page: PageId,
    pub slot: u16,
    pub offset: u16,
    pub before: &'a [u8],
    pub after: &'a [u8],
}

/// The body of an encoded `Update` record, straight out of the frame.
/// Undo walks chains through this (and [`frame_undo_next`]) without
/// materializing a `LogRecord`.
#[inline]
pub fn frame_update_images(bytes: &[u8]) -> QsResult<UpdateImages<'_>> {
    checked_as(bytes, tag::UPDATE, "an update")?.update_images()
}

/// Zero-copy view of an encoded update or CLR record's redo fields:
/// `(slot, offset, after-image)`, straight out of the frame. `None` for
/// every other tag. Restart redo uses this to repeat history without
/// materializing a `LogRecord` (two image allocations per record).
#[inline]
pub fn frame_redo_slice(bytes: &[u8]) -> QsResult<Option<(u16, u16, &[u8])>> {
    let (t, mut body) = checked(bytes)?;
    match t {
        tag::UPDATE => body.update_images().map(|u| Some((u.slot, u.offset, u.after))),
        tag::CLR | tag::UPDATE_LOGICAL => body.after_image().map(|(_, s, o, a)| Some((s, o, a))),
        _ => Ok(None),
    }
}

/// For an encoded update record, `before.len() + after.len()` (the
/// paper's log-image bytes; just `after.len()` for a logical update,
/// which carries no before image); 0 for every other tag.
pub fn frame_update_image_bytes(bytes: &[u8]) -> QsResult<u64> {
    let (t, mut body) = checked(bytes)?;
    Ok(match t {
        tag::UPDATE => {
            let u = body.update_images()?;
            (u.before.len() + u.after.len()) as u64
        }
        tag::UPDATE_LOGICAL => body.after_image()?.3.len() as u64,
        _ => 0,
    })
}

/// Where rollback continues after an encoded CLR: the `undo_next` LSN
/// behind its after-image.
pub fn frame_undo_next(bytes: &[u8]) -> QsResult<Lsn> {
    let mut body = checked_as(bytes, tag::CLR, "a CLR")?;
    body.after_image()?;
    body.u64().map(Lsn)
}

/// The scheme code carried by an encoded `TxnScheme` record; `None` for
/// every other tag.
#[inline]
pub fn frame_scheme(bytes: &[u8]) -> QsResult<Option<SchemeCode>> {
    let (t, mut body) = checked(bytes)?;
    if t != tag::TXN_SCHEME {
        return Ok(None);
    }
    body.scheme().map(Some)
}

/// Zero-copy view of an encoded whole-page record's image.
pub fn frame_whole_page_image(bytes: &[u8]) -> QsResult<&[u8]> {
    let mut body = checked_as(bytes, tag::WHOLE_PAGE, "a whole-page")?;
    body.page()?;
    body.bytes(PAGE_SIZE)
}

/// The table snapshot in an encoded `Checkpoint` record.
pub fn frame_checkpoint_body(bytes: &[u8]) -> QsResult<CheckpointBody> {
    let mut b = checked_as(bytes, tag::CHECKPOINT, "a checkpoint")?;
    let mut body = CheckpointBody::default();
    for _ in 0..b.u32()? {
        body.active_txns.push((TxnId(b.u64()?), Lsn(b.u64()?)));
    }
    for _ in 0..b.u32()? {
        body.dirty_pages.push((PageId(b.u32()?), Lsn(b.u64()?)));
    }
    for _ in 0..b.u32()? {
        body.wpl_entries.push(WplCheckpointEntry {
            page: PageId(b.u32()?),
            lsn: Lsn(b.u64()?),
            txn: TxnId(b.u64()?),
            committed: b.u8()? != 0,
        });
    }
    body.allocated_pages = b.u64()?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_types::LOG_HEADER_SIZE;

    fn round_trip(r: &LogRecord) {
        let enc = r.encode();
        let dec = LogRecord::decode(&enc).unwrap();
        assert_eq!(&dec, r);
    }

    #[test]
    fn update_round_trip_and_paper_size_model() {
        let r = LogRecord::Update {
            txn: TxnId(7),
            prev: Lsn(100),
            page: PageId(3),
            slot: 2,
            offset: 16,
            before: vec![1, 2, 3, 4],
            after: vec![5, 6, 7, 8],
        };
        round_trip(&r);
        // Paper §3.2.2: one word updated → 50 + 4 + 4 = 58 bytes.
        assert_eq!(r.encode().len(), LOG_HEADER_SIZE + 8);
    }

    #[test]
    fn paper_116_vs_74_byte_example() {
        // First and third words of an object updated. Two separate records:
        let sep: usize = 2 * (LOG_HEADER_SIZE + 4 + 4);
        // One combined record spanning words 1..3 (12-byte images):
        let comb: usize = LOG_HEADER_SIZE + 12 + 12;
        assert_eq!(sep, 116);
        assert_eq!(comb, 74);
    }

    #[test]
    fn update_logical_round_trip_and_size() {
        let r = LogRecord::UpdateLogical {
            txn: TxnId(7),
            prev: Lsn(100),
            page: PageId(3),
            slot: 2,
            offset: 16,
            after: vec![5, 6, 7, 8],
        };
        round_trip(&r);
        // Half the image bytes of the equivalent physical update: the
        // before image is gone, only the header + after remain.
        assert_eq!(r.encode().len(), LOG_HEADER_SIZE + 4);
    }

    #[test]
    fn whole_page_round_trip() {
        let r = LogRecord::WholePage {
            txn: TxnId(1),
            prev: Lsn::NULL,
            page: PageId(9),
            image: (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect(),
        };
        round_trip(&r);
        assert_eq!(r.encode().len(), LOG_HEADER_SIZE + PAGE_SIZE);
    }

    #[test]
    fn control_records_round_trip() {
        round_trip(&LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) });
        round_trip(&LogRecord::Abort { txn: TxnId(5), prev: Lsn(44) });
        round_trip(&LogRecord::PageAlloc { txn: TxnId(5), prev: Lsn(44), page: PageId(77) });
        round_trip(&LogRecord::Clr {
            txn: TxnId(5),
            prev: Lsn(44),
            page: PageId(8),
            slot: 0,
            offset: 4,
            after: vec![9; 16],
            undo_next: Lsn(12),
        });
    }

    #[test]
    fn checkpoint_round_trip() {
        let r = LogRecord::Checkpoint {
            body: CheckpointBody {
                active_txns: vec![(TxnId(1), Lsn(10)), (TxnId(2), Lsn(20))],
                dirty_pages: vec![(PageId(5), Lsn(8))],
                wpl_entries: vec![
                    WplCheckpointEntry {
                        page: PageId(3),
                        lsn: Lsn(99),
                        txn: TxnId(1),
                        committed: true,
                    },
                    WplCheckpointEntry {
                        page: PageId(4),
                        lsn: Lsn(120),
                        txn: TxnId(2),
                        committed: false,
                    },
                ],
                allocated_pages: 1234,
            },
        };
        round_trip(&r);
    }

    #[test]
    fn txn_scheme_round_trip_and_size() {
        for scheme in [SchemeCode::Pd, SchemeCode::Sd, SchemeCode::Wpl, SchemeCode::Rlog] {
            let r = LogRecord::TxnScheme { txn: TxnId(12), prev: Lsn(7), scheme };
            round_trip(&r);
            // Pure control record: costs exactly one log header, like Commit.
            assert_eq!(r.encode().len(), LOG_HEADER_SIZE);
            let enc = r.encode();
            assert_eq!(frame_scheme(&enc).unwrap(), Some(scheme));
            assert_eq!(frame_page(&enc).unwrap(), None);
            assert_eq!(SchemeCode::from_u8(scheme as u8), Some(scheme));
        }
        // A scheme byte outside the vocabulary is rejected, not mapped.
        let mut enc =
            LogRecord::TxnScheme { txn: TxnId(1), prev: Lsn::NULL, scheme: SchemeCode::Pd }
                .encode();
        enc[PREFIX] = 9;
        frame_seal(&mut enc);
        assert!(LogRecord::decode(&enc).unwrap_err().to_string().contains("unknown scheme"));
        assert!(frame_scheme(&enc).unwrap_err().to_string().contains("unknown scheme"));
        assert_eq!(SchemeCode::from_u8(9), None);
    }

    /// The frames the kernel tests flip bits in: one of every tag, the
    /// update carrying distinct bytes in every word.
    fn one_frame_per_tag() -> Vec<Vec<u8>> {
        let mut frames = vec![LogRecord::Update {
            txn: TxnId(0x0102_0304_0506),
            prev: Lsn(0x1112_1314),
            page: PageId(77),
            slot: 3,
            offset: 40,
            before: (0..61u8).collect(),
            after: (100..161u8).collect(),
        }
        .encode()];
        let mut seen = vec![tag::UPDATE];
        for r in every_variant() {
            if !seen.contains(&r.tag()) {
                seen.push(r.tag());
                frames.push(r.encode());
            }
        }
        assert_eq!(seen.len(), 9, "a tag has no frame");
        frames
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for frame in one_frame_per_tag() {
            assert!(frame_verify(&frame).is_ok());
            // Exhaustive, except over the 8 KB image: every 97th bit.
            let t = frame_tag(&frame).unwrap();
            let step = if t == tag::WHOLE_PAGE { 97 } else { 1 };
            let mut bad = frame.clone();
            for bit in (0..frame.len() * 8).step_by(step) {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(frame_verify(&bad).is_err(), "tag {t} bit {bit}");
                assert!(LogRecord::decode(&bad).is_err(), "tag {t} bit {bit}");
                bad[bit / 8] = frame[bit / 8];
            }
        }
    }

    #[test]
    fn swapped_words_are_rejected() {
        let frame = one_frame_per_tag().swap_remove(0);
        // Words of the checksummed range, which starts at byte 8.
        let words = (frame.len() - TRAILER - 8) / 4;
        // Neighbours feed adjacent lanes, words four apart the same lane.
        for distance in [1, 4, 8] {
            for w in 0..words - distance {
                let (a, b) = (8 + 4 * w, 8 + 4 * (w + distance));
                if frame[a..a + 4] == frame[b..b + 4] {
                    continue;
                }
                let mut bad = frame.clone();
                bad.copy_within(b..b + 4, a);
                bad[b..b + 4].copy_from_slice(&frame[a..a + 4]);
                assert!(frame_verify(&bad).is_err(), "words {w} and {}", w + distance);
            }
        }
    }

    #[test]
    fn a_zero_padded_prefix_does_not_inherit_the_checksum() {
        // An update frame ends in the zero padding that brings it up to
        // the paper's 50-byte header: cut the frame short inside the
        // padding, keep the checksum, and restate both lengths.
        let frame = one_frame_per_tag().swap_remove(0);
        let wire = PREFIX + 12 + 61 + 61 + TRAILER;
        assert!(wire < frame.len());
        assert!(frame[wire - TRAILER..frame.len() - TRAILER].iter().all(|&b| b == 0));
        for len in wire..frame.len() {
            let mut cut = frame[..len].to_vec();
            cut[0..4].copy_from_slice(&(len as u32).to_le_bytes());
            cut[len - 4..].copy_from_slice(&(len as u32).to_le_bytes());
            assert!(frame_verify(&cut).is_err(), "cut to {len}");
            // Sealed for its own length it is a valid frame again.
            frame_seal(&mut cut);
            assert!(frame_verify(&cut).is_ok());
        }
        // The kernel itself, at every tail length and through the lanes.
        let zeros = [0u8; 64];
        let sums: Vec<u32> = (0..=64).map(|n| checksum(&zeros[..n])).collect();
        for (n, sum) in sums.iter().enumerate() {
            assert!(!sums[..n].contains(sum), "zeros[..{n}] collides with a shorter run");
        }
    }

    /// The checksum is part of the log format: a kernel change that moves
    /// these values needs a new log format revision (`log.rs`).
    #[test]
    fn checksum_known_answers() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let got: Vec<u32> = [0, 1, 3, 4, 15, 16, 17, 50, 256].map(|n| checksum(&bytes[..n])).into();
        assert_eq!(got, KNOWN_ANSWERS);
    }

    const KNOWN_ANSWERS: [u32; 9] = [
        2430211096, 2403224678, 4033199763, 2131028768, 1256391996, 972975736, 281492601,
        1687649585, 364571337,
    ];

    #[test]
    fn corruption_detected() {
        let r = LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) };
        let mut enc = r.encode();
        enc[10] ^= 0xFF; // flip a bit in the txn id
        assert!(matches!(LogRecord::decode(&enc), Err(QsError::LogCorrupt { .. })));
    }

    #[test]
    fn truncated_input_rejected() {
        let r = LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) };
        let enc = r.encode();
        assert!(LogRecord::decode(&enc[..enc.len() - 1]).is_err());
        assert!(LogRecord::decode(&[]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let r = LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) };
        let mut enc = r.encode();
        enc[8] = 200;
        // Fix the checksum so only the tag is wrong.
        frame_seal(&mut enc);
        let err = LogRecord::decode(&enc).unwrap_err();
        assert!(err.to_string().contains("unknown record tag"));
    }

    fn every_variant() -> Vec<LogRecord> {
        vec![
            LogRecord::Update {
                txn: TxnId(7),
                prev: Lsn(100),
                page: PageId(3),
                slot: 2,
                offset: 16,
                before: vec![1; 7],
                after: vec![2; 7],
            },
            LogRecord::Update {
                txn: TxnId(7),
                prev: Lsn::NULL,
                page: PageId(3),
                slot: 0,
                offset: 0,
                before: vec![],
                after: vec![],
            },
            LogRecord::WholePage {
                txn: TxnId(1),
                prev: Lsn(9),
                page: PageId(9),
                image: vec![3; PAGE_SIZE],
            },
            LogRecord::PageAlloc { txn: TxnId(5), prev: Lsn(44), page: PageId(77) },
            LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) },
            LogRecord::Abort { txn: TxnId(5), prev: Lsn(44) },
            LogRecord::Clr {
                txn: TxnId(5),
                prev: Lsn(44),
                page: PageId(8),
                slot: 0,
                offset: 4,
                after: vec![9; 16],
                undo_next: Lsn(12),
            },
            LogRecord::UpdateLogical {
                txn: TxnId(8),
                prev: Lsn(200),
                page: PageId(4),
                slot: 3,
                offset: 24,
                after: vec![5; 9],
            },
            LogRecord::UpdateLogical {
                txn: TxnId(8),
                prev: Lsn::NULL,
                page: PageId(4),
                slot: 0,
                offset: 0,
                after: vec![],
            },
            LogRecord::Checkpoint { body: CheckpointBody::default() },
            LogRecord::Checkpoint {
                body: CheckpointBody {
                    active_txns: vec![(TxnId(1), Lsn(10))],
                    dirty_pages: vec![(PageId(5), Lsn(8)), (PageId(6), Lsn(9))],
                    wpl_entries: vec![WplCheckpointEntry {
                        page: PageId(3),
                        lsn: Lsn(99),
                        txn: TxnId(1),
                        committed: true,
                    }],
                    allocated_pages: 1234,
                },
            },
            LogRecord::TxnScheme { txn: TxnId(9), prev: Lsn::NULL, scheme: SchemeCode::Pd },
            LogRecord::TxnScheme { txn: TxnId(10), prev: Lsn(33), scheme: SchemeCode::Rlog },
        ]
    }

    #[test]
    fn frame_set_prev_matches_reencoding() {
        for r in every_variant() {
            if matches!(r, LogRecord::Checkpoint { .. }) {
                continue; // checkpoint records have no prev
            }
            let mut enc = r.encode();
            frame_set_prev(&mut enc, Lsn(0xFEED));
            let want = Self_with_prev(&r, Lsn(0xFEED)).encode();
            assert_eq!(enc, want, "{r:?}");
            assert_eq!(LogRecord::decode(&enc).unwrap().prev(), Lsn(0xFEED));
        }
    }

    /// Rebuild `r` with `prev` replaced (mirror of the server's rechain).
    #[allow(non_snake_case)]
    fn Self_with_prev(r: &LogRecord, prev: Lsn) -> LogRecord {
        match r.clone() {
            LogRecord::Update { txn, page, slot, offset, before, after, .. } => {
                LogRecord::Update { txn, prev, page, slot, offset, before, after }
            }
            LogRecord::WholePage { txn, page, image, .. } => {
                LogRecord::WholePage { txn, prev, page, image }
            }
            LogRecord::PageAlloc { txn, page, .. } => LogRecord::PageAlloc { txn, prev, page },
            LogRecord::Commit { txn, .. } => LogRecord::Commit { txn, prev },
            LogRecord::Abort { txn, .. } => LogRecord::Abort { txn, prev },
            LogRecord::Clr { txn, page, slot, offset, after, undo_next, .. } => {
                LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next }
            }
            LogRecord::UpdateLogical { txn, page, slot, offset, after, .. } => {
                LogRecord::UpdateLogical { txn, prev, page, slot, offset, after }
            }
            LogRecord::TxnScheme { txn, scheme, .. } => LogRecord::TxnScheme { txn, prev, scheme },
            c @ LogRecord::Checkpoint { .. } => c,
        }
    }

    #[test]
    fn accessors() {
        let r = LogRecord::Update {
            txn: TxnId(9),
            prev: Lsn(5),
            page: PageId(2),
            slot: 0,
            offset: 0,
            before: vec![0],
            after: vec![1],
        };
        assert_eq!(r.txn(), TxnId(9));
        assert_eq!(r.prev(), Lsn(5));
        assert_eq!(r.page(), Some(PageId(2)));
        let c = LogRecord::Checkpoint { body: CheckpointBody::default() };
        assert_eq!(c.txn(), TxnId::INVALID);
        assert_eq!(c.page(), None);
    }
}
