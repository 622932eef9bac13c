//! Codec round-trip and size-model properties for every log-record type.
//!
//! Formerly a proptest suite; now driven by `qs-prng` under fixed seeds so
//! the exact same cases replay on every run, with no external crates.

use qs_prng::Prng;
use qs_types::{Lsn, PageId, TxnId, LOG_HEADER_SIZE, PAGE_SIZE};
use qs_wal::{CheckpointBody, LogRecord, SchemeCode, WplCheckpointEntry};

fn update_record(rng: &mut Prng) -> LogRecord {
    let img_len = rng.gen_range(0..256);
    let img = rng.bytes(img_len);
    LogRecord::Update {
        txn: TxnId(rng.next_u64()),
        prev: Lsn(rng.next_u64()),
        page: PageId(rng.next_u32()),
        slot: (rng.next_u32() & 0xFFFF) as u16,
        offset: rng.gen_range(0..4096) as u16,
        before: img.clone(),
        after: img.iter().map(|b| b.wrapping_add(1)).collect(),
    }
}

fn checkpoint_body(rng: &mut Prng) -> CheckpointBody {
    CheckpointBody {
        active_txns: (0..rng.gen_range(0..4))
            .map(|_| (TxnId(rng.next_u64()), Lsn(rng.next_u64())))
            .collect(),
        dirty_pages: (0..rng.gen_range(0..6))
            .map(|_| (PageId(rng.next_u32()), Lsn(rng.next_u64())))
            .collect(),
        wpl_entries: (0..rng.gen_range(0..20))
            .map(|_| WplCheckpointEntry {
                page: PageId(rng.next_u32()),
                lsn: Lsn(rng.next_u64()),
                txn: TxnId(rng.next_u64()),
                committed: rng.gen_bool(0.5),
            })
            .collect(),
        allocated_pages: rng.next_u64(),
    }
}

/// A record of any of the nine tags.
fn any_record(rng: &mut Prng) -> LogRecord {
    let (txn, prev, page) = (TxnId(rng.next_u64()), Lsn(rng.next_u64()), PageId(rng.next_u32()));
    let (slot, offset) = ((rng.next_u32() & 0xFFFF) as u16, rng.gen_range(0..4096) as u16);
    match rng.gen_range(0..9) {
        0 => update_record(rng),
        1 => LogRecord::WholePage { txn, prev, page, image: rng.bytes(PAGE_SIZE) },
        2 => LogRecord::PageAlloc { txn, prev, page },
        3 => LogRecord::Commit { txn, prev },
        4 => LogRecord::Abort { txn, prev },
        5 => {
            let after = rng.gen_range(0..64);
            let (after, undo_next) = (rng.bytes(after), Lsn(rng.next_u64()));
            LogRecord::Clr { txn, prev, page, slot, offset, after, undo_next }
        }
        6 => LogRecord::Checkpoint { body: checkpoint_body(rng) },
        7 => {
            let after = rng.gen_range(0..256);
            LogRecord::UpdateLogical { txn, prev, page, slot, offset, after: rng.bytes(after) }
        }
        _ => {
            let scheme = SchemeCode::from_u8(rng.gen_range(0..4) as u8).unwrap();
            LogRecord::TxnScheme { txn, prev, scheme }
        }
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0001);
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..512 {
        let rec = any_record(&mut rng);
        seen.insert(rec.tag());
        let dec = LogRecord::decode(&rec.encode()).unwrap();
        assert_eq!(dec, rec, "case {case}");
    }
    // Tags 9 and 10 were retired with log format revision 2.
    assert_eq!(seen.into_iter().collect::<Vec<u8>>(), [1, 2, 3, 4, 5, 6, 7, 8, 11]);
}

#[test]
fn update_size_matches_paper_model() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0002);
    for case in 0..512 {
        let rec = update_record(&mut rng);
        if let LogRecord::Update { ref before, ref after, .. } = rec {
            assert_eq!(
                rec.encode().len(),
                LOG_HEADER_SIZE + before.len() + after.len(),
                "case {case}"
            );
        }
    }
}

#[test]
fn single_bitflip_detected() {
    let mut rng = Prng::seed_from_u64(0x5EED_C0DE_0003);
    for case in 0..512 {
        let rec = any_record(&mut rng);
        let mut enc = rec.encode();
        // Flip one bit somewhere in the checksummed region [8, len-4).
        let span = enc.len() - 12;
        if span == 0 {
            continue;
        }
        let pos = 8 + rng.gen_range(0..span);
        enc[pos] ^= 1;
        assert!(LogRecord::decode(&enc).is_err(), "case {case}: flip at {pos}");
    }
}
