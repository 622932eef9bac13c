//! Log-record types and their binary codec.
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

use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};

/// Fixed bytes before the body: len(4) + cksum(4) + tag(1) + txn(8) + prev(8).
pub(crate) const PREFIX: usize = 25;
/// Trailer bytes: the repeated length.
pub(crate) const TRAILER: usize = 4;
/// Byte range of the `prev` LSN within an encoded record.
pub(crate) const PREV_RANGE: std::ops::Range<usize> = 17..25;

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
    pub const BEGIN_CHECKPOINT: u8 = 9;
    pub const END_CHECKPOINT: u8 = 10;
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
    checksum(&frame[8..frame.len() - TRAILER])
}

/// Store the checksum of a complete frame in its checksum field — the
/// last step of every encoder.
pub(crate) fn frame_seal(frame: &mut [u8]) {
    let ck = frame_checksum(frame);
    frame[4..8].copy_from_slice(&ck.to_le_bytes());
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
    /// Sharp checkpoint (legacy single-record form; the quiesced default
    /// path still writes these so existing logs and figures are
    /// unchanged).
    Checkpoint { body: CheckpointBody },
    /// First half of a two-phase fuzzy checkpoint: the table snapshot
    /// taken while foreground traffic keeps running. Restart anchors
    /// here; the checkpoint only *counts* once the matching
    /// [`LogRecord::EndCheckpoint`] is durable and the header points at
    /// this record — a crash between the pair falls back to the previous
    /// complete checkpoint automatically.
    BeginCheckpoint { body: CheckpointBody },
    /// Second half of a two-phase fuzzy checkpoint: written after the
    /// claimed dirty set has been drained to the data disk. `begin`
    /// points back at the matching begin record.
    EndCheckpoint { begin: Lsn },
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
            LogRecord::Checkpoint { .. }
            | LogRecord::BeginCheckpoint { .. }
            | LogRecord::EndCheckpoint { .. } => TxnId::INVALID,
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
            LogRecord::Checkpoint { .. }
            | LogRecord::BeginCheckpoint { .. }
            | LogRecord::EndCheckpoint { .. } => Lsn::NULL,
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
            LogRecord::Update { .. } => 1,
            LogRecord::WholePage { .. } => 2,
            LogRecord::PageAlloc { .. } => 3,
            LogRecord::Commit { .. } => 4,
            LogRecord::Abort { .. } => 5,
            LogRecord::Clr { .. } => 6,
            LogRecord::Checkpoint { .. } => 7,
            LogRecord::UpdateLogical { .. } => 8,
            LogRecord::BeginCheckpoint { .. } => 9,
            LogRecord::EndCheckpoint { .. } => 10,
            LogRecord::TxnScheme { .. } => 11,
        }
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            LogRecord::Update { page, slot, offset, before, after, .. } => {
                b.extend_from_slice(&page.0.to_le_bytes());
                b.extend_from_slice(&slot.to_le_bytes());
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&(before.len() as u16).to_le_bytes());
                b.extend_from_slice(&(after.len() as u16).to_le_bytes());
                b.extend_from_slice(before);
                b.extend_from_slice(after);
            }
            LogRecord::WholePage { page, image, .. } => {
                b.extend_from_slice(&page.0.to_le_bytes());
                b.extend_from_slice(image);
            }
            LogRecord::PageAlloc { page, .. } => {
                b.extend_from_slice(&page.0.to_le_bytes());
            }
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => {}
            LogRecord::Clr { page, slot, offset, after, undo_next, .. } => {
                b.extend_from_slice(&page.0.to_le_bytes());
                b.extend_from_slice(&slot.to_le_bytes());
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&(after.len() as u16).to_le_bytes());
                b.extend_from_slice(after);
                b.extend_from_slice(&undo_next.0.to_le_bytes());
            }
            LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => {
                encode_checkpoint_body(body, &mut b);
            }
            LogRecord::EndCheckpoint { begin } => {
                b.extend_from_slice(&begin.0.to_le_bytes());
            }
            LogRecord::UpdateLogical { page, slot, offset, after, .. } => {
                b.extend_from_slice(&page.0.to_le_bytes());
                b.extend_from_slice(&slot.to_le_bytes());
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&(after.len() as u16).to_le_bytes());
                b.extend_from_slice(after);
            }
            LogRecord::TxnScheme { scheme, .. } => {
                b.push(*scheme as u8);
            }
        }
        b
    }

    /// Body length in bytes, computed arithmetically — must agree with
    /// `body_bytes().len()` for every variant (asserted by tests). Keeping
    /// this allocation-free matters: the commit path calls
    /// [`LogRecord::encoded_len`] per record per page.
    fn body_len(&self) -> usize {
        match self {
            LogRecord::Update { before, after, .. } => 12 + before.len() + after.len(),
            LogRecord::WholePage { .. } => 4 + PAGE_SIZE,
            LogRecord::PageAlloc { .. } => 4,
            LogRecord::Commit { .. } | LogRecord::Abort { .. } => 0,
            LogRecord::Clr { after, .. } => 18 + after.len(),
            LogRecord::Checkpoint { body } | LogRecord::BeginCheckpoint { body } => {
                4 + 16 * body.active_txns.len()
                    + 4
                    + 12 * body.dirty_pages.len()
                    + 4
                    + 21 * body.wpl_entries.len()
                    + 8
            }
            LogRecord::EndCheckpoint { .. } => 8,
            LogRecord::UpdateLogical { after, .. } => 10 + after.len(),
            LogRecord::TxnScheme { .. } => 1,
        }
    }

    /// The record's "variable payload" for the paper's accounting model:
    /// before/after images for updates, the full page for whole-page
    /// records, the table entries for checkpoints.
    fn variable_payload(&self) -> usize {
        match self {
            LogRecord::Update { before, after, .. } => before.len() + after.len(),
            LogRecord::WholePage { .. } => PAGE_SIZE,
            LogRecord::Clr { after, .. } => after.len() + 8,
            LogRecord::Checkpoint { .. }
            | LogRecord::BeginCheckpoint { .. }
            | LogRecord::EndCheckpoint { .. } => self.body_len(),
            LogRecord::UpdateLogical { after, .. } => after.len(),
            _ => 0,
        }
    }

    /// Encoded size: exactly `LOG_HEADER_SIZE + variable payload` (§3.2.2's
    /// model), never smaller than the wire fields require. Pure arithmetic
    /// — no temporary encode, no allocation.
    pub fn encoded_len(&self) -> usize {
        let wire = PREFIX + self.body_len() + TRAILER;
        wire.max(LOG_HEADER_SIZE + self.variable_payload())
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let total = (PREFIX + body.len() + TRAILER).max(LOG_HEADER_SIZE + self.variable_payload());
        let mut out = vec![0u8; total];
        out[0..4].copy_from_slice(&(total as u32).to_le_bytes());
        out[8] = self.tag();
        out[9..17].copy_from_slice(&self.txn().0.to_le_bytes());
        out[17..25].copy_from_slice(&self.prev().0.to_le_bytes());
        out[PREFIX..PREFIX + body.len()].copy_from_slice(&body);
        out[total - 4..].copy_from_slice(&(total as u32).to_le_bytes());
        frame_seal(&mut out);
        out
    }

    /// Decode one record from `bytes` (which must contain the full record).
    pub fn decode(bytes: &[u8]) -> QsResult<LogRecord> {
        let corrupt = |d: &str| QsError::LogCorrupt { detail: d.to_string() };
        frame_verify(bytes)?;
        let tag = bytes[8];
        let txn = TxnId(u64::from_le_bytes(bytes[9..17].try_into().unwrap()));
        let prev = Lsn(u64::from_le_bytes(bytes[17..25].try_into().unwrap()));
        let mut r = Reader { b: bytes, at: PREFIX };
        let rec = match tag {
            1 => {
                let page = PageId(r.u32()?);
                let slot = r.u16()?;
                let offset = r.u16()?;
                let blen = r.u16()? as usize;
                let alen = r.u16()? as usize;
                let before = r.bytes(blen)?.to_vec();
                let after = r.bytes(alen)?.to_vec();
                LogRecord::Update { txn, prev, page, slot, offset, before, after }
            }
            2 => {
                let page = PageId(r.u32()?);
                let image = r.bytes(PAGE_SIZE)?.to_vec();
                LogRecord::WholePage { txn, prev, page, image }
            }
            3 => LogRecord::PageAlloc { txn, prev, page: PageId(r.u32()?) },
            4 => LogRecord::Commit { txn, prev },
            5 => LogRecord::Abort { txn, prev },
            6 => {
                let page = PageId(r.u32()?);
                let slot = r.u16()?;
                let offset = r.u16()?;
                let alen = r.u16()? as usize;
                let after = r.bytes(alen)?.to_vec();
                let undo_next = Lsn(r.u64()?);
                LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next }
            }
            7 => LogRecord::Checkpoint { body: decode_checkpoint_body(&mut r)? },
            8 => {
                let page = PageId(r.u32()?);
                let slot = r.u16()?;
                let offset = r.u16()?;
                let alen = r.u16()? as usize;
                let after = r.bytes(alen)?.to_vec();
                LogRecord::UpdateLogical { txn, prev, page, slot, offset, after }
            }
            9 => LogRecord::BeginCheckpoint { body: decode_checkpoint_body(&mut r)? },
            10 => LogRecord::EndCheckpoint { begin: Lsn(r.u64()?) },
            11 => {
                let v = r.u8()?;
                let scheme = SchemeCode::from_u8(v)
                    .ok_or_else(|| corrupt(&format!("unknown scheme code {v}")))?;
                LogRecord::TxnScheme { txn, prev, scheme }
            }
            t => return Err(corrupt(&format!("unknown record tag {t}"))),
        };
        Ok(rec)
    }
}

/// Checkpoint-body wire format, shared by the legacy sharp record (tag 7)
/// and the fuzzy begin record (tag 9): both carry identical snapshots.
fn encode_checkpoint_body(body: &CheckpointBody, b: &mut Vec<u8>) {
    b.extend_from_slice(&(body.active_txns.len() as u32).to_le_bytes());
    for (t, l) in &body.active_txns {
        b.extend_from_slice(&t.0.to_le_bytes());
        b.extend_from_slice(&l.0.to_le_bytes());
    }
    b.extend_from_slice(&(body.dirty_pages.len() as u32).to_le_bytes());
    for (p, l) in &body.dirty_pages {
        b.extend_from_slice(&p.0.to_le_bytes());
        b.extend_from_slice(&l.0.to_le_bytes());
    }
    b.extend_from_slice(&(body.wpl_entries.len() as u32).to_le_bytes());
    for e in &body.wpl_entries {
        b.extend_from_slice(&e.page.0.to_le_bytes());
        b.extend_from_slice(&e.lsn.0.to_le_bytes());
        b.extend_from_slice(&e.txn.0.to_le_bytes());
        b.push(e.committed as u8);
    }
    b.extend_from_slice(&body.allocated_pages.to_le_bytes());
}

fn decode_checkpoint_body(r: &mut Reader<'_>) -> QsResult<CheckpointBody> {
    let mut body = CheckpointBody::default();
    let na = r.u32()? as usize;
    for _ in 0..na {
        body.active_txns.push((TxnId(r.u64()?), Lsn(r.u64()?)));
    }
    let nd = r.u32()? as usize;
    for _ in 0..nd {
        body.dirty_pages.push((PageId(r.u32()?), Lsn(r.u64()?)));
    }
    let nw = r.u32()? as usize;
    for _ in 0..nw {
        body.wpl_entries.push(WplCheckpointEntry {
            page: PageId(r.u32()?),
            lsn: Lsn(r.u64()?),
            txn: TxnId(r.u64()?),
            committed: r.u8()? != 0,
        });
    }
    body.allocated_pages = r.u64()?;
    Ok(body)
}

// ---------------------------------------------------------------------
// Frame helpers: operate on *encoded* records without decoding them.
// The client batches encoded records back-to-back in one scratch buffer
// and the server re-chains `prev` in place; neither side materializes a
// `LogRecord` on the steady-state commit path.
// ---------------------------------------------------------------------

/// Length of the encoded record starting at `bytes[0]`, validated to lie
/// fully within `bytes`.
pub fn frame_len(bytes: &[u8]) -> QsResult<usize> {
    if bytes.len() < PREFIX + TRAILER {
        return Err(QsError::LogCorrupt { detail: "frame shorter than fixed header".into() });
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if len < PREFIX + TRAILER || len > bytes.len() {
        return Err(QsError::LogCorrupt {
            detail: format!("frame length {len} outside buffer of {}", bytes.len()),
        });
    }
    Ok(len)
}

/// Validate one encoded record's framing without decoding it: length
/// prefix matching the slice, trailer echo, [`checksum`]. It is
/// [`LogRecord::decode`]'s own first step; restart and undo use it on
/// frames whose bodies they never materialize.
pub fn frame_verify(bytes: &[u8]) -> QsResult<()> {
    let corrupt = |d: String| QsError::LogCorrupt { detail: d };
    if bytes.len() < PREFIX + TRAILER {
        return Err(corrupt("frame shorter than fixed header".into()));
    }
    let total = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if total != bytes.len() {
        return Err(corrupt(format!("length prefix {total} != {} bytes given", bytes.len())));
    }
    let trailer = u32::from_le_bytes(bytes[total - 4..].try_into().unwrap()) as usize;
    if trailer != total {
        return Err(corrupt("trailer length mismatch".into()));
    }
    let ck = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if ck != frame_checksum(bytes) {
        return Err(corrupt("checksum mismatch".into()));
    }
    Ok(())
}

/// Transaction id of the encoded record starting at `bytes[0]`.
pub fn frame_txn(bytes: &[u8]) -> TxnId {
    TxnId(u64::from_le_bytes(bytes[9..17].try_into().unwrap()))
}

/// Record tag of the encoded record starting at `bytes[0]`.
pub fn frame_tag(bytes: &[u8]) -> u8 {
    bytes[8]
}

/// The `prev` LSN of the encoded record starting at `bytes[0]`.
pub fn frame_prev(bytes: &[u8]) -> Lsn {
    Lsn(u64::from_le_bytes(bytes[PREV_RANGE].try_into().unwrap()))
}

/// The page an encoded record touches, if any (tags with a leading page
/// field in the body: update, whole-page, page-alloc, CLR, logical update).
pub fn frame_page(bytes: &[u8]) -> Option<PageId> {
    match bytes[8] {
        1 | 2 | 3 | 6 | 8 => {
            Some(PageId(u32::from_le_bytes(bytes[PREFIX..PREFIX + 4].try_into().unwrap())))
        }
        _ => None,
    }
}

/// For an encoded update record, `before.len() + after.len()` (the
/// paper's log-image bytes; just `after.len()` for a logical update,
/// which carries no before image); 0 for every other tag.
pub fn frame_update_image_bytes(bytes: &[u8]) -> u64 {
    match bytes[8] {
        1 => {
            let blen =
                u16::from_le_bytes(bytes[PREFIX + 8..PREFIX + 10].try_into().unwrap()) as u64;
            let alen =
                u16::from_le_bytes(bytes[PREFIX + 10..PREFIX + 12].try_into().unwrap()) as u64;
            blen + alen
        }
        8 => u16::from_le_bytes(bytes[PREFIX + 8..PREFIX + 10].try_into().unwrap()) as u64,
        _ => 0,
    }
}

/// Little-endian `u16` at `at`, or the truncated-body error.
fn u16_at(bytes: &[u8], at: usize) -> QsResult<u16> {
    let b = bytes.get(at..at + 2).ok_or_else(body_truncated)?;
    Ok(u16::from_le_bytes(b.try_into().unwrap()))
}

fn body_truncated() -> QsError {
    QsError::LogCorrupt { detail: "record body truncated".into() }
}

/// Zero-copy view of an encoded `Update` record's body.
pub struct UpdateImages<'a> {
    pub slot: u16,
    pub offset: u16,
    pub before: &'a [u8],
    pub after: &'a [u8],
}

/// The body of an encoded `Update` record, straight out of the frame.
/// Undo walks chains through this (and [`frame_undo_next`]) without
/// materializing a `LogRecord`.
pub fn frame_update_images(bytes: &[u8]) -> QsResult<UpdateImages<'_>> {
    debug_assert_eq!(bytes[8], tag::UPDATE, "not an update frame");
    // page u32 | slot u16 | offset u16 | blen u16 | alen u16 | before | after
    let slot = u16_at(bytes, PREFIX + 4)?;
    let offset = u16_at(bytes, PREFIX + 6)?;
    let blen = u16_at(bytes, PREFIX + 8)? as usize;
    let alen = u16_at(bytes, PREFIX + 10)? as usize;
    let at = PREFIX + 12;
    let before = bytes.get(at..at + blen).ok_or_else(body_truncated)?;
    let after = bytes.get(at + blen..at + blen + alen).ok_or_else(body_truncated)?;
    Ok(UpdateImages { slot, offset, before, after })
}

/// Zero-copy view of an encoded update or CLR record's redo fields:
/// `(slot, offset, after-image)`, straight out of the frame. `None` for
/// every other tag. Restart redo uses this to repeat history without
/// materializing a `LogRecord` (two image allocations per record).
pub fn frame_redo_slice(bytes: &[u8]) -> QsResult<Option<(u16, u16, &[u8])>> {
    match bytes[8] {
        tag::UPDATE => {
            let u = frame_update_images(bytes)?;
            Ok(Some((u.slot, u.offset, u.after)))
        }
        // CLR: page u32 | slot u16 | offset u16 | alen u16 | after | undo_next
        // Logical update: same leading layout, no undo_next.
        tag::CLR | tag::UPDATE_LOGICAL => {
            let slot = u16_at(bytes, PREFIX + 4)?;
            let offset = u16_at(bytes, PREFIX + 6)?;
            let alen = u16_at(bytes, PREFIX + 8)? as usize;
            let after = bytes.get(PREFIX + 10..PREFIX + 10 + alen).ok_or_else(body_truncated)?;
            Ok(Some((slot, offset, after)))
        }
        _ => Ok(None),
    }
}

/// Where rollback continues after an encoded CLR: the `undo_next` LSN
/// behind its after-image.
pub fn frame_undo_next(bytes: &[u8]) -> QsResult<Lsn> {
    debug_assert_eq!(bytes[8], tag::CLR, "not a CLR frame");
    let at = PREFIX + 10 + u16_at(bytes, PREFIX + 8)? as usize;
    let b = bytes.get(at..at + 8).ok_or_else(body_truncated)?;
    Ok(Lsn(u64::from_le_bytes(b.try_into().unwrap())))
}

/// The scheme code carried by an encoded `TxnScheme` record; `None` for
/// every other tag (and for a corrupt scheme byte).
pub fn frame_scheme(bytes: &[u8]) -> Option<SchemeCode> {
    if bytes[8] != tag::TXN_SCHEME {
        return None;
    }
    bytes.get(PREFIX).copied().and_then(SchemeCode::from_u8)
}

/// Zero-copy view of an encoded whole-page record's image.
pub fn frame_whole_page_image(bytes: &[u8]) -> QsResult<&[u8]> {
    debug_assert_eq!(bytes[8], 2, "not a whole-page frame");
    bytes
        .get(PREFIX + 4..PREFIX + 4 + PAGE_SIZE)
        .ok_or_else(|| QsError::LogCorrupt { detail: "whole-page body truncated".into() })
}

/// Rewrite the `prev` LSN of one encoded record in place and fix its
/// checksum. Clients encode records with `prev = NULL` (they cannot know
/// the transaction's backward chain); the server patches the real value
/// here — the result is byte-identical to encoding with `prev` set.
pub fn frame_set_prev(bytes: &mut [u8], prev: Lsn) {
    debug_assert_eq!(frame_len(bytes).ok(), Some(bytes.len()), "wants exactly one record");
    bytes[PREV_RANGE].copy_from_slice(&prev.0.to_le_bytes());
    frame_seal(bytes);
}

/// Minimal cursor over a byte slice.
struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> QsResult<&'a [u8]> {
        if self.at + n > self.b.len() {
            return Err(QsError::LogCorrupt { detail: "body truncated".into() });
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u8(&mut self) -> QsResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> QsResult<u16> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> QsResult<u32> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> QsResult<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(r: &LogRecord) {
        let enc = r.encode();
        assert_eq!(enc.len(), r.encoded_len());
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
        assert_eq!(r.encoded_len(), LOG_HEADER_SIZE + 8);
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
    fn frame_redo_slices_agree_with_decode() {
        let upd = LogRecord::Update {
            txn: TxnId(7),
            prev: Lsn(100),
            page: PageId(3),
            slot: 2,
            offset: 16,
            before: vec![1, 2, 3, 4, 5],
            after: vec![6, 7, 8, 9, 10],
        };
        let enc = upd.encode();
        let (slot, offset, after) = frame_redo_slice(&enc).unwrap().unwrap();
        assert_eq!((slot, offset), (2, 16));
        assert_eq!(after, &[6, 7, 8, 9, 10]);

        let clr = LogRecord::Clr {
            txn: TxnId(5),
            prev: Lsn(44),
            page: PageId(8),
            slot: 1,
            offset: 4,
            after: vec![9; 16],
            undo_next: Lsn(12),
        };
        let enc = clr.encode();
        let (slot, offset, after) = frame_redo_slice(&enc).unwrap().unwrap();
        assert_eq!((slot, offset), (1, 4));
        assert_eq!(after, &[9u8; 16][..]);

        let wp = LogRecord::WholePage {
            txn: TxnId(1),
            prev: Lsn::NULL,
            page: PageId(9),
            image: (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect(),
        };
        let enc = wp.encode();
        assert_eq!(frame_redo_slice(&enc).unwrap(), None);
        let LogRecord::WholePage { image, .. } = LogRecord::decode(&enc).unwrap() else {
            panic!("decoded to a different variant");
        };
        assert_eq!(frame_whole_page_image(&enc).unwrap(), &image[..]);

        let logical = LogRecord::UpdateLogical {
            txn: TxnId(7),
            prev: Lsn(100),
            page: PageId(3),
            slot: 6,
            offset: 32,
            after: vec![11, 12, 13],
        };
        let enc = logical.encode();
        let (slot, offset, after) = frame_redo_slice(&enc).unwrap().unwrap();
        assert_eq!((slot, offset), (6, 32));
        assert_eq!(after, &[11, 12, 13]);

        // No redo payload on control records.
        let commit = LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) }.encode();
        assert_eq!(frame_redo_slice(&commit).unwrap(), None);
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
        assert_eq!(r.encoded_len(), LOG_HEADER_SIZE + 4);
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
        assert_eq!(r.encoded_len(), LOG_HEADER_SIZE + PAGE_SIZE);
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
    fn begin_end_checkpoint_round_trip() {
        let begin = LogRecord::BeginCheckpoint {
            body: CheckpointBody {
                active_txns: vec![(TxnId(1), Lsn(10))],
                dirty_pages: vec![(PageId(5), Lsn(8)), (PageId(6), Lsn(9))],
                wpl_entries: vec![],
                allocated_pages: 42,
            },
        };
        round_trip(&begin);
        // Begin carries the same body as the legacy sharp record and
        // must cost the same log bytes.
        let LogRecord::BeginCheckpoint { body } = begin.clone() else { unreachable!() };
        assert_eq!(begin.encoded_len(), LogRecord::Checkpoint { body }.encoded_len());

        let end = LogRecord::EndCheckpoint { begin: Lsn(4096) };
        round_trip(&end);
        assert_eq!(end.encoded_len(), LOG_HEADER_SIZE + 8);
        assert_eq!(end.txn(), TxnId::INVALID);
        assert_eq!(end.prev(), Lsn::NULL);
        assert_eq!(end.page(), None);
    }

    #[test]
    fn txn_scheme_round_trip_and_size() {
        for scheme in [SchemeCode::Pd, SchemeCode::Sd, SchemeCode::Wpl, SchemeCode::Rlog] {
            let r = LogRecord::TxnScheme { txn: TxnId(12), prev: Lsn(7), scheme };
            round_trip(&r);
            // Pure control record: costs exactly one log header, like Commit.
            assert_eq!(r.encoded_len(), LOG_HEADER_SIZE);
            let enc = r.encode();
            assert_eq!(frame_scheme(&enc), Some(scheme));
            assert_eq!(frame_page(&enc), None);
            assert_eq!(SchemeCode::from_u8(scheme as u8), Some(scheme));
        }
        // A scheme byte outside the vocabulary is rejected, not mapped.
        let mut enc =
            LogRecord::TxnScheme { txn: TxnId(1), prev: Lsn::NULL, scheme: SchemeCode::Pd }
                .encode();
        enc[PREFIX] = 9;
        frame_seal(&mut enc);
        assert!(LogRecord::decode(&enc).unwrap_err().to_string().contains("unknown scheme"));
        assert_eq!(frame_scheme(&enc), None);
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
        assert_eq!(seen.len(), 11, "a tag has no frame");
        frames
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        for frame in one_frame_per_tag() {
            assert!(frame_verify(&frame).is_ok());
            // Exhaustive, except over the 8 KB image: every 97th bit.
            let step = if frame_tag(&frame) == tag::WHOLE_PAGE { 97 } else { 1 };
            let mut bad = frame.clone();
            for bit in (0..frame.len() * 8).step_by(step) {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(frame_verify(&bad).is_err(), "tag {} bit {bit}", frame_tag(&frame));
                assert!(LogRecord::decode(&bad).is_err(), "tag {} bit {bit}", frame_tag(&frame));
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
            LogRecord::BeginCheckpoint { body: CheckpointBody::default() },
            LogRecord::BeginCheckpoint {
                body: CheckpointBody {
                    active_txns: vec![(TxnId(3), Lsn(30))],
                    dirty_pages: vec![(PageId(7), Lsn(11))],
                    wpl_entries: vec![WplCheckpointEntry {
                        page: PageId(2),
                        lsn: Lsn(45),
                        txn: TxnId(3),
                        committed: false,
                    }],
                    allocated_pages: 77,
                },
            },
            LogRecord::EndCheckpoint { begin: Lsn(4096) },
            LogRecord::TxnScheme { txn: TxnId(9), prev: Lsn::NULL, scheme: SchemeCode::Pd },
            LogRecord::TxnScheme { txn: TxnId(10), prev: Lsn(33), scheme: SchemeCode::Rlog },
        ]
    }

    #[test]
    fn encoded_len_is_pure_arithmetic_for_every_variant() {
        // encoded_len must never encode; it and encode() are maintained
        // in parallel, so pin their agreement across all variants
        // (including the per-record tracer call site in store.rs).
        for r in every_variant() {
            assert_eq!(r.encoded_len(), r.encode().len(), "{r:?}");
            assert_eq!(r.body_len(), r.body_bytes().len(), "{r:?}");
        }
    }

    #[test]
    fn frame_helpers_agree_with_decode() {
        for r in every_variant() {
            let enc = r.encode();
            assert_eq!(frame_len(&enc).unwrap(), enc.len(), "{r:?}");
            assert_eq!(frame_txn(&enc), r.txn(), "{r:?}");
            assert_eq!(frame_page(&enc), r.page(), "{r:?}");
            let expect = match &r {
                LogRecord::Update { before, after, .. } => (before.len() + after.len()) as u64,
                LogRecord::UpdateLogical { after, .. } => after.len() as u64,
                _ => 0,
            };
            assert_eq!(frame_update_image_bytes(&enc), expect, "{r:?}");
        }
        assert!(frame_len(&[0u8; 4]).is_err());
        // A length prefix past the buffer is rejected.
        let mut enc = LogRecord::Commit { txn: TxnId(5), prev: Lsn(44) }.encode();
        let bogus = (enc.len() as u32 + 1).to_le_bytes();
        enc[0..4].copy_from_slice(&bogus);
        assert!(frame_len(&enc).is_err());
    }

    #[test]
    fn frame_set_prev_matches_reencoding() {
        for r in every_variant() {
            if matches!(
                r,
                LogRecord::Checkpoint { .. }
                    | LogRecord::BeginCheckpoint { .. }
                    | LogRecord::EndCheckpoint { .. }
            ) {
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
            c @ (LogRecord::Checkpoint { .. }
            | LogRecord::BeginCheckpoint { .. }
            | LogRecord::EndCheckpoint { .. }) => c,
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
