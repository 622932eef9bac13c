//! Randomized tests for the region-combining diff algorithm: patch
//! round-trip, coverage, and log-byte minimality against brute force.
//!
//! Formerly a proptest suite; now driven by `qs-prng` under fixed seeds so
//! the exact same cases replay on every run, with no external crates.

use qs_prng::Prng;
use qs_types::{LOG_HEADER_SIZE, PAGE_SIZE};
use quickstore::diff::{
    append_modified_runs, brute_force_min_log_bytes, combine_regions, diff_object, log_bytes,
    raw_modified_runs, raw_modified_runs_scalar, Region,
};

/// An object up to 512 bytes plus a set of point mutations.
fn object_pair(rng: &mut Prng) -> (Vec<u8>, Vec<u8>) {
    let len = rng.gen_range(1..512);
    let before = rng.bytes(len);
    let mut after = before.clone();
    for _ in 0..rng.gen_range(0..40) {
        let i = rng.gen_range(0..len);
        after[i] = (rng.next_u32() & 0xFF) as u8;
    }
    (before, after)
}

#[test]
fn patch_round_trip() {
    // Applying the after-images of the diff regions to the before-image
    // must reproduce the after-image (this is what redo does), and
    // applying before-images to the after-image must reproduce the
    // before-image (undo).
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0001);
    for case in 0..256 {
        let (before, after) = object_pair(&mut rng);
        let regions = diff_object(&before, &after);
        let mut redo = before.clone();
        for r in &regions {
            redo[r.start..r.end].copy_from_slice(&after[r.start..r.end]);
        }
        assert_eq!(&redo, &after, "case {case}");
        let mut undo = after.clone();
        for r in &regions {
            undo[r.start..r.end].copy_from_slice(&before[r.start..r.end]);
        }
        assert_eq!(&undo, &before, "case {case}");
    }
}

#[test]
fn all_differences_covered() {
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0002);
    for case in 0..256 {
        let (before, after) = object_pair(&mut rng);
        let regions = diff_object(&before, &after);
        for i in 0..before.len() {
            if before[i] != after[i] {
                assert!(
                    regions.iter().any(|r| r.start <= i && i < r.end),
                    "case {case}: differing byte {i} not covered"
                );
            }
        }
    }
}

#[test]
fn greedy_is_minimal() {
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0003);
    let mut checked = 0;
    for case in 0..512 {
        let (before, after) = object_pair(&mut rng);
        let runs = raw_modified_runs(&before, &after);
        if runs.len() > 16 {
            continue; // brute force is exponential
        }
        checked += 1;
        let greedy = combine_regions(&runs, LOG_HEADER_SIZE);
        assert_eq!(
            log_bytes(&greedy, LOG_HEADER_SIZE),
            brute_force_min_log_bytes(&runs, LOG_HEADER_SIZE),
            "case {case}"
        );
    }
    assert!(checked >= 128, "only {checked} cases were brute-force comparable");
}

/// Run the word-parallel kernel against the scalar oracle on one pair of
/// equally-sized slices and demand identical maximal runs.
fn assert_kernel_matches(before: &[u8], after: &[u8], ctx: &str) {
    let expect = raw_modified_runs_scalar(before, after);
    // Exercise non-zero bases too: the kernel must just translate.
    for base in [0usize, 7, 4096] {
        let mut got: Vec<Region> = Vec::new();
        append_modified_runs(before, after, base, &mut got);
        let shifted: Vec<Region> =
            expect.iter().map(|r| Region { start: r.start + base, end: r.end + base }).collect();
        assert_eq!(got, shifted, "{ctx}, base {base}");
    }
}

#[test]
fn kernel_matches_scalar_on_random_pages() {
    // Random lengths spanning 0..=PAGE_SIZE at every slice alignment 0..8,
    // with mutation densities from "untouched" to "rewritten".
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0005);
    for case in 0..400 {
        let len = rng.gen_range(0..PAGE_SIZE + 1);
        let align = rng.gen_range(0..8);
        let backing_before = rng.bytes(len + align);
        let mut backing_after = backing_before.clone();
        let flips = match case % 4 {
            0 => 0,
            1 => rng.gen_range(0..8),
            2 => rng.gen_range(0..len.max(1)),
            _ => len, // rewrite everything (some bytes may land equal)
        };
        for _ in 0..flips {
            if len == 0 {
                break;
            }
            let i = align + rng.gen_range(0..len);
            backing_after[i] = (rng.next_u32() & 0xFF) as u8;
        }
        assert_kernel_matches(
            &backing_before[align..],
            &backing_after[align..],
            &format!("case {case} len {len} align {align}"),
        );
    }
}

#[test]
fn kernel_matches_scalar_adversarial() {
    // Deterministic worst cases aimed at the word-boundary logic.
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0006);
    for &len in &[0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, PAGE_SIZE] {
        for align in 0..8 {
            let backing = rng.bytes(len + align);
            let before = &backing[align..];

            // All bytes equal: must produce no runs.
            assert_kernel_matches(before, before, &format!("all-equal len {len} align {align}"));

            // Every byte differs: one maximal run covering the slice.
            let mut inv = backing.clone();
            for b in &mut inv[align..] {
                *b = !*b;
            }
            assert_kernel_matches(
                before,
                &inv[align..],
                &format!("all-diff len {len} align {align}"),
            );

            // Single-byte flips at and around every u64 word boundary.
            for word in 0..=(len / 8) {
                for delta in [0isize, -1, 1] {
                    let Some(i) = (word * 8).checked_add_signed(delta) else { continue };
                    if i >= len {
                        continue;
                    }
                    let mut one = backing.clone();
                    one[align + i] ^= 0x80;
                    assert_kernel_matches(
                        before,
                        &one[align..],
                        &format!("flip {i} len {len} align {align}"),
                    );
                }
            }

            // Runs straddling the unaligned head and tail: modify a window
            // crossing the first and last word boundaries.
            if len > 12 {
                for (s, e) in [(0usize, 12usize), (len - 12, len), (5, len - 5)] {
                    let mut w = backing.clone();
                    for b in &mut w[align + s..align + e] {
                        *b ^= 0xFF;
                    }
                    assert_kernel_matches(
                        before,
                        &w[align..],
                        &format!("window {s}..{e} len {len} align {align}"),
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_matches_scalar_sparse_word_patterns() {
    // Alternating equal/unequal bytes inside single words defeat bulk-skip
    // shortcuts; sweep a handful of fixed masks across a full page.
    for mask in [0xAAu8, 0x11, 0x01, 0x80, 0xFF] {
        let before = vec![0u8; PAGE_SIZE];
        let mut after = before.clone();
        for (i, b) in after.iter_mut().enumerate() {
            if mask & (1 << (i % 8)) != 0 {
                *b = 1;
            }
        }
        assert_kernel_matches(&before, &after, &format!("mask {mask:#x}"));
    }
}

/// `before` with every byte of `range` changed (inverted, so none lands
/// equal).
fn rewritten(before: &[u8], range: std::ops::Range<usize>) -> Vec<u8> {
    let mut after = before.to_vec();
    for b in &mut after[range] {
        *b = !*b;
    }
    after
}

#[test]
fn kernel_matches_scalar_on_fully_changed_stretches() {
    // A stretch of every length 0..=64 starting at every offset 0..8 of the
    // word grid, ending anywhere from the middle of a word to the scalar
    // tail; alone, then with a changed byte touching each end (the dense
    // run must merge with the runs the other loops push) and with a clean
    // byte between.
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0007);
    for align in 0..8 {
        for len in 0..=64 {
            for tail in 0..=9 {
                let (start, end) = (8 + align, 8 + align + len);
                let before = rng.bytes(end + tail + 2);
                let n = end + tail;
                let ctx = format!("stretch {start}..{end} of {n}");
                let after = rewritten(&before, start..end);
                assert_kernel_matches(&before[..n], &after[..n], &ctx);
                for gap in [1usize, 2] {
                    let mut edged = after.clone();
                    edged[start - gap] ^= 0x01;
                    edged[end + gap - 1] ^= 0x80;
                    assert_kernel_matches(&before[..n], &edged[..n], &format!("{ctx}, gap {gap}"));
                }
            }
        }
    }
}

#[test]
fn kernel_matches_scalar_on_words_with_one_equal_byte() {
    // A fully changed 64-byte stretch in which one word keeps exactly one
    // byte equal: that word must leave the dense loop and split the run
    // there — for every byte position, in the first, a middle and the last
    // word of the stretch, at every word alignment.
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0008);
    for align in 0..8 {
        let before = rng.bytes(64 + 24);
        let start = 8 + align;
        let after = rewritten(&before, start..start + 64);
        for word in [0usize, 3, 7] {
            for pos in 0..8 {
                let at = start + 8 * word + pos;
                let mut one_equal = after.clone();
                one_equal[at] = before[at];
                assert_kernel_matches(
                    &before,
                    &one_equal,
                    &format!("align {align} word {word} byte {pos}"),
                );
            }
        }
    }
}

#[test]
fn kernel_matches_scalar_on_striped_pages() {
    // The striped manual edit: 160 of every 512 bytes changed, stripes
    // starting at every offset of the word grid so they cross word
    // boundaries at both ends; rewritten whole, and rewritten with random
    // bytes (some of which land equal and break the stripe up).
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0009);
    for shift in 0..8 {
        let before = rng.bytes(PAGE_SIZE);
        let mut inverted = before.clone();
        let mut random = before.clone();
        for s in (64 + shift..PAGE_SIZE - 160).step_by(512) {
            for i in s..s + 160 {
                inverted[i] = !before[i];
                random[i] = (rng.next_u32() & 0xFF) as u8;
            }
        }
        assert_kernel_matches(&before, &inverted, &format!("inverted stripes, shift {shift}"));
        assert_kernel_matches(&before, &random, &format!("random stripes, shift {shift}"));
    }
}

#[test]
fn regions_sorted_and_disjoint() {
    let mut rng = Prng::seed_from_u64(0x5EED_D1FF_0004);
    for case in 0..256 {
        let (before, after) = object_pair(&mut rng);
        let regions = diff_object(&before, &after);
        for w in regions.windows(2) {
            assert!(w[0].end < w[1].start, "case {case}: regions must be disjoint with a gap");
        }
        for r in &regions {
            assert!(!r.is_empty(), "case {case}");
        }
    }
}
