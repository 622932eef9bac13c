//! The log's on-disk frame format, pinned: one frame per tag, as hex.
//!
//! The hex was produced by the encoder at log format revision 1 (the
//! commit before `RecordWriter` became the only encoder); revision 2
//! retired tags 9 and 10 (the begin/end checkpoint pair) and moved none
//! of the nine frames below. A change that moves any of it is a format
//! change and needs a new revision in `log.rs`, not a new constant here. The same frames then stand in for
//! every way bytes can fail to be a frame: each cut and each tampered
//! length must come back as `LogCorrupt` from the decoder and from every
//! frame view, never as a panic.

use qs_storage::{MemDisk, StableMedia};
use qs_types::{Lsn, PageId, QsError, QsResult, TxnId, PAGE_SIZE};
use qs_wal::record::{self, tag, UpdateImages};
use qs_wal::{CheckpointBody, LogManager, LogRecord, SchemeCode, WplCheckpointEntry};
use std::sync::Arc;

const TXN: TxnId = TxnId(0x0102_0304_0506_0708);
const PREV: Lsn = Lsn(0x1112_1314_1516_1718);
const PAGE: PageId = PageId(0x2122_2324);

fn image() -> Vec<u8> {
    (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
}

/// One record per tag and its frame. The whole-page frame is pinned as
/// the 29 bytes before the image and the 21 after it; the checksum among
/// the former covers the image.
fn golden() -> Vec<(LogRecord, Vec<u8>)> {
    let whole_page = [
        unhex("322000001b1f82d6020807060504030201181716151413121124232221"),
        image(),
        unhex("000000000000000000000000000000000032200000"),
    ]
    .concat();
    vec![
        (
            LogRecord::Update {
                txn: TXN,
                prev: PREV,
                page: PAGE,
                slot: 0x3132,
                offset: 0x4142,
                before: vec![0xB0, 0xB1, 0xB2, 0xB3, 0xB4],
                after: vec![0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6],
            },
            unhex(
                "3e000000dcb5f1670108070605040302011817161514131211242322213231424105000700\
                 b0b1b2b3b4a0a1a2a3a4a5a60000000000000000003e000000",
            ),
        ),
        (LogRecord::WholePage { txn: TXN, prev: PREV, page: PAGE, image: image() }, whole_page),
        (
            LogRecord::PageAlloc { txn: TXN, prev: PREV, page: PAGE },
            unhex(
                "32000000d8e7d5fe0308070605040302011817161514131211242322210000000000000000\
                 00000000000000000032000000",
            ),
        ),
        (
            LogRecord::Commit { txn: TXN, prev: PREV },
            unhex(
                "320000004c1d60bb0408070605040302011817161514131211000000000000000000000000\
                 00000000000000000032000000",
            ),
        ),
        (
            LogRecord::Abort { txn: TXN, prev: PREV },
            unhex(
                "32000000475a86090508070605040302011817161514131211000000000000000000000000\
                 00000000000000000032000000",
            ),
        ),
        (
            LogRecord::Clr {
                txn: TXN,
                prev: PREV,
                page: PAGE,
                slot: 0x3132,
                offset: 0x4142,
                after: vec![0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5],
                undo_next: Lsn(0x5152_5354_5556_5758),
            },
            unhex(
                "40000000f65cd651060807060504030201181716151413121124232221323142410600c0c1\
                 c2c3c4c55857565554535251000000000000000000000040000000",
            ),
        ),
        (
            LogRecord::Checkpoint {
                body: CheckpointBody {
                    active_txns: vec![(TxnId(0x61), Lsn(0x6263)), (TxnId(0x64), Lsn(0x6566))],
                    dirty_pages: vec![(PageId(0x71), Lsn(0x7273))],
                    wpl_entries: vec![
                        WplCheckpointEntry {
                            page: PageId(0x81),
                            lsn: Lsn(0x8283),
                            txn: TxnId(0x84),
                            committed: true,
                        },
                        WplCheckpointEntry {
                            page: PageId(0x85),
                            lsn: Lsn(0x8687),
                            txn: TxnId(0x88),
                            committed: false,
                        },
                    ],
                    allocated_pages: 0x9192_9394,
                },
            },
            unhex(
                "9c0000005916638f07ffffffffffffffff0000000000000000020000006100000000000000\
                 6362000000000000640000000000000066650000000000000100000071000000737200000000\
                 0000020000008100000083820000000000008400000000000000018500000087860000000000\
                 008800000000000000009493929100000000000000000000000000000000000000000000000000\
                 9c000000",
            ),
        ),
        (
            LogRecord::UpdateLogical {
                txn: TXN,
                prev: PREV,
                page: PAGE,
                slot: 0x3132,
                offset: 0x4142,
                after: vec![0xD0, 0xD1, 0xD2],
            },
            unhex(
                "35000000ee1d990a080807060504030201181716151413121124232221323142410300d0d1\
                 d2000000000000000000000035000000",
            ),
        ),
        (
            LogRecord::TxnScheme { txn: TXN, prev: PREV, scheme: SchemeCode::Rlog },
            unhex(
                "32000000f8a1ed8e0b08070605040302011817161514131211030000000000000000000000\
                 00000000000000000032000000",
            ),
        ),
    ]
}

#[test]
fn every_tag_encodes_to_its_golden_frame_and_decodes_back() {
    let frames = golden();
    let tags: Vec<u8> = frames.iter().map(|(rec, _)| rec.tag()).collect();
    let all = [
        tag::UPDATE,
        tag::WHOLE_PAGE,
        tag::PAGE_ALLOC,
        tag::COMMIT,
        tag::ABORT,
        tag::CLR,
        tag::CHECKPOINT,
        tag::UPDATE_LOGICAL,
        tag::TXN_SCHEME,
    ];
    assert_eq!(tags, all, "one frame per tag");
    let media = Arc::new(MemDisk::new(LogManager::required_bytes(1 << 16)));
    let log = LogManager::format(media as Arc<dyn StableMedia>, 1 << 16).unwrap();
    for (rec, frame) in &frames {
        assert_eq!(&rec.encode(), frame, "{rec:?}");
        assert_eq!(&LogRecord::decode(frame).unwrap(), rec);
        // The log's own append is the same encoder.
        let lsn = log.append(rec).unwrap();
        assert_eq!(&log.read_frame(lsn).unwrap(), frame, "{rec:?}");
    }
}

/// What the views lend must be the record's own fields — pinned against
/// the known values, not against `decode`, which is built from the views.
#[test]
fn views_lend_the_golden_fields() {
    for (rec, frame) in &golden() {
        assert_eq!(record::frame_len(frame).unwrap(), frame.len());
        record::frame_verify(frame).unwrap();
        assert_eq!(record::frame_tag(frame).unwrap(), rec.tag());
        assert_eq!(record::frame_txn(frame).unwrap(), rec.txn());
        assert_eq!(record::frame_prev(frame).unwrap(), rec.prev());
        assert_eq!(record::frame_page(frame).unwrap(), rec.page());
        let redo = record::frame_redo_slice(frame).unwrap();
        let image_bytes = record::frame_update_image_bytes(frame).unwrap();
        let scheme = record::frame_scheme(frame).unwrap();
        match rec {
            LogRecord::Update { slot, offset, before, after, .. } => {
                let u = record::frame_update_images(frame).unwrap();
                assert_eq!(
                    (u.slot, u.offset, u.before, u.after),
                    (*slot, *offset, &before[..], &after[..])
                );
                assert_eq!(redo, Some((*slot, *offset, &after[..])));
                assert_eq!(image_bytes, (before.len() + after.len()) as u64);
            }
            LogRecord::Clr { slot, offset, after, undo_next, .. } => {
                assert_eq!(redo, Some((*slot, *offset, &after[..])));
                assert_eq!(record::frame_undo_next(frame).unwrap(), *undo_next);
                assert_eq!(image_bytes, 0);
            }
            LogRecord::UpdateLogical { slot, offset, after, .. } => {
                assert_eq!(redo, Some((*slot, *offset, &after[..])));
                assert_eq!(image_bytes, after.len() as u64);
            }
            LogRecord::WholePage { image, .. } => {
                assert_eq!(record::frame_whole_page_image(frame).unwrap(), &image[..]);
                assert_eq!((redo, image_bytes), (None, 0));
            }
            LogRecord::Checkpoint { body } => {
                assert_eq!(&record::frame_checkpoint_body(frame).unwrap(), body);
                assert_eq!((redo, image_bytes), (None, 0));
            }
            _ => assert_eq!((redo, image_bytes), (None, 0)),
        }
        match rec {
            LogRecord::TxnScheme { scheme: elected, .. } => assert_eq!(scheme, Some(*elected)),
            _ => assert_eq!(scheme, None),
        }
    }
}

/// A reader reduced to "did it take these bytes".
type Reader = fn(&[u8]) -> QsResult<()>;

/// The decoder and every view.
fn readers() -> Vec<(&'static str, Reader)> {
    fn images(u: UpdateImages<'_>) {
        let _ = (u.slot, u.offset, u.before, u.after);
    }
    vec![
        ("decode", |b| LogRecord::decode(b).map(drop)),
        ("frame_verify", |b| record::frame_verify(b)),
        ("frame_tag", |b| record::frame_tag(b).map(drop)),
        ("frame_txn", |b| record::frame_txn(b).map(drop)),
        ("frame_prev", |b| record::frame_prev(b).map(drop)),
        ("frame_page", |b| record::frame_page(b).map(drop)),
        ("frame_update_images", |b| record::frame_update_images(b).map(images)),
        ("frame_redo_slice", |b| record::frame_redo_slice(b).map(drop)),
        ("frame_update_image_bytes", |b| record::frame_update_image_bytes(b).map(drop)),
        ("frame_undo_next", |b| record::frame_undo_next(b).map(drop)),
        ("frame_scheme", |b| record::frame_scheme(b).map(drop)),
        ("frame_whole_page_image", |b| record::frame_whole_page_image(b).map(drop)),
        ("frame_checkpoint_body", |b| record::frame_checkpoint_body(b).map(drop)),
    ]
}

fn assert_refused_by_all(bytes: &[u8], what: &str) {
    for (name, read) in readers() {
        match read(bytes) {
            Err(QsError::LogCorrupt { .. }) => {}
            other => panic!("{name} on {what}: {other:?}"),
        }
    }
}

#[test]
fn every_proper_prefix_of_a_frame_is_log_corrupt_to_every_reader() {
    for (rec, frame) in &golden() {
        for cut in 0..frame.len() {
            assert_refused_by_all(&frame[..cut], &format!("tag {} cut to {cut}", rec.tag()));
            // A frame followed by more bytes is `frame_len`'s case alone.
            assert!(record::frame_len(&frame[..cut]).is_err(), "tag {} cut to {cut}", rec.tag());
        }
    }
}

#[test]
fn every_tampered_length_is_log_corrupt_to_every_reader() {
    for (rec, frame) in &golden() {
        let len = frame.len();
        let mut lengths: Vec<u32> = (0..32).map(|bit| len as u32 ^ 1 << bit).collect();
        lengths.extend([0, 1, record::FRAME_LEN_MIN as u32 - 1, len as u32 - 1, len as u32 + 1]);
        lengths.push(u32::MAX);
        // The prefix alone, the trailer alone, and both agreeing on the
        // wrong length.
        for fields in [&[0usize][..], &[len - 4], &[0, len - 4]] {
            for &wrong in &lengths {
                let mut bad = frame.clone();
                for &at in fields {
                    bad[at..at + 4].copy_from_slice(&wrong.to_le_bytes());
                }
                assert_refused_by_all(
                    &bad,
                    &format!("tag {} length {wrong} at {fields:?}", rec.tag()),
                );
            }
        }
    }
}

/// A view asked for another tag's layout refuses by type; the views that
/// answer "none" for other tags are covered in `views_lend_the_golden_fields`.
#[test]
fn a_view_refuses_a_frame_of_another_tag() {
    for (rec, frame) in &golden() {
        let t = rec.tag();
        let corrupt = |r: QsResult<()>| matches!(r, Err(QsError::LogCorrupt { .. }));
        if t != tag::UPDATE {
            assert!(corrupt(record::frame_update_images(frame).map(drop)), "tag {t}");
        }
        if t != tag::CLR {
            assert!(corrupt(record::frame_undo_next(frame).map(drop)), "tag {t}");
        }
        if t != tag::WHOLE_PAGE {
            assert!(corrupt(record::frame_whole_page_image(frame).map(drop)), "tag {t}");
        }
        if t != tag::CHECKPOINT {
            assert!(corrupt(record::frame_checkpoint_body(frame).map(drop)), "tag {t}");
        }
    }
}

/// Revision 1's begin/end checkpoint frames (tags 9 and 10), as that
/// revision's encoder wrote them: intact frames of tags this build does
/// not read. The decoder and the checkpoint-body view refuse them by type.
#[test]
fn the_retired_checkpoint_pair_is_not_decoded() {
    let begin = unhex(
        "6e000000ce16726409ffffffffffffffff0000000000000000010000006700000000000000\
         6968000000000000020000007400000076750000000000007700000079780000000000000000\
         000095000000000000000000000000000000000000000000000000000000006e000000",
    );
    let end = unhex(
        "3a000000b9bde1af0affffffffffffffff00000000000000005d5c5b5a0000000000000000\
         00000000000000000000000000000000003a000000",
    );
    for (t, frame) in [(9, begin), (10, end)] {
        record::frame_verify(&frame).unwrap();
        assert_eq!(record::frame_tag(&frame).unwrap(), t);
        for refused in
            [LogRecord::decode(&frame).map(drop), record::frame_checkpoint_body(&frame).map(drop)]
        {
            assert!(matches!(refused, Err(QsError::LogCorrupt { .. })), "tag {t}: {refused:?}");
        }
    }
}

/// Such frames can only sit in a revision-1 log, and that is refused at
/// `open`, by name, before any frame is read.
#[test]
fn a_revision_1_log_is_refused_by_name() {
    let media: Arc<dyn StableMedia> = Arc::new(MemDisk::new(LogManager::required_bytes(1 << 16)));
    let log = LogManager::format(Arc::clone(&media), 1 << 16).unwrap();
    log.append(&LogRecord::Commit { txn: TXN, prev: PREV }).unwrap();
    log.force(log.tail_lsn()).unwrap();
    drop(log);
    // The revision is the sixth byte of the header magic.
    let mut revision = [0u8];
    media.read_at(5, &mut revision).unwrap();
    assert_eq!(revision, [2], "this build writes revision 2");
    LogManager::open(Arc::clone(&media)).unwrap();
    media.write_at(5, &[1]).unwrap();
    let Err(err) = LogManager::open(media) else { panic!("opened a revision-1 log") };
    assert!(matches!(err, QsError::RecoveryFailed { .. }), "{err}");
    assert!(
        err.to_string().contains("log format revision 1; this build reads revision 2"),
        "{err}"
    );
}
