//! The differencing algorithm (paper §3.2.2).
//!
//! Given the before-image of an object and its updated in-place value, find
//! the modified regions and decide which adjacent regions to combine into a
//! single log record. With `H` the log-record header size, two consecutive
//! modified regions separated by a clean gap `D` cost:
//!
//! * separate: `2H + 2·(s1 + s2)` bytes of log,
//! * combined: `H + 2·(s1 + D + s2)` bytes,
//!
//! so separate records win exactly when `2·D > H` — the paper's rule. The
//! decision depends only on the gap, so a left-to-right greedy pass yields
//! the global minimum ("the algorithm is guaranteed to generate the minimum
//! amount of log traffic"), a fact the property tests check against brute
//! force.

use qs_types::LOG_HEADER_SIZE;

/// A modified byte range `[start, end)` within an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub start: usize,
    pub end: usize,
}

impl Region {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Maximal runs of bytes that differ between `before` and `after`.
/// Both slices must be the same length (in-place updates never resize).
///
/// Word-parallel: see [`append_modified_runs`] for the kernel. The
/// reference byte-at-a-time loop survives as
/// [`raw_modified_runs_scalar`], the oracle the property tests compare
/// against.
pub fn raw_modified_runs(before: &[u8], after: &[u8]) -> Vec<Region> {
    let mut runs = Vec::new();
    append_modified_runs(before, after, 0, &mut runs);
    runs
}

/// The original byte-at-a-time run finder. Kept verbatim as the test
/// oracle for the u64 kernel — its output defines "maximal runs".
pub fn raw_modified_runs_scalar(before: &[u8], after: &[u8]) -> Vec<Region> {
    debug_assert_eq!(before.len(), after.len());
    let mut runs = Vec::new();
    let mut i = 0;
    let n = before.len();
    while i < n {
        if before[i] != after[i] {
            let start = i;
            while i < n && before[i] != after[i] {
                i += 1;
            }
            runs.push(Region { start, end: i });
        } else {
            i += 1;
        }
    }
    runs
}

/// Bit `k` of the result is set iff byte `k` (little-endian) of `x` is
/// nonzero — i.e. iff byte `k` of the two compared words differs. The
/// byte-to-bit collapse is a SWAR OR-fold; the gather multiply places
/// byte `k`'s indicator at bit `56 + k` (positions `8k + 7 + 7j` collide
/// for no two `(k, j)` pairs, and only `k + j = 7` terms land in the top
/// byte, so no carries pollute the mask).
#[inline]
fn diff_byte_mask(x: u64) -> u32 {
    let m = x | (x >> 4);
    let m = m | (m >> 2);
    let m = m | (m >> 1);
    let m = m & 0x0101_0101_0101_0101;
    (m.wrapping_mul(0x0102_0408_1020_4080) >> 56) as u32
}

/// True iff no byte of `x` is zero — i.e. iff all 8 bytes of the two
/// compared words differ. The classic zero-byte test: a zero byte is the
/// only byte whose `x - 0x01` borrows into a set top bit where `x`'s own
/// top bit is clear, and the lowest zero byte always does, so the word
/// test is exact (only the per-byte flags above a real zero byte can be
/// false positives, and they do not change whether the word has one).
#[inline]
fn all_bytes_differ(x: u64) -> bool {
    x.wrapping_sub(0x0101_0101_0101_0101) & !x & 0x8080_8080_8080_8080 == 0
}

/// The u64 diff kernel: append the maximal modified runs of
/// `before[..] != after[..]` to `out`, shifting every offset by `base`
/// (run coordinates are `base + i`). If the first new run starts exactly
/// where `out`'s last run ends, the two are merged — this is what keeps
/// runs maximal across word boundaries and across consecutive kernel
/// invocations on adjacent sub-ranges.
///
/// Strategy: compare 8 bytes at a time via XOR (`u64::from_le_bytes`
/// performs an unaligned load, so the slices may start anywhere), skip
/// clean words in 32-byte gulps, consume a stretch of fully changed words
/// ([`all_bytes_differ`]) in one tight loop and push it as one run, and
/// resolve exact byte boundaries inside any other dirty word with
/// `trailing_zeros` on the XOR word's byte-collapse mask
/// ([`diff_byte_mask`]). The scalar tail handles the last `len % 8`
/// bytes. Output is exactly [`raw_modified_runs_scalar`]'s.
pub fn append_modified_runs(before: &[u8], after: &[u8], base: usize, out: &mut Vec<Region>) {
    debug_assert_eq!(before.len(), after.len());
    let n = before.len();
    #[inline]
    fn push(out: &mut Vec<Region>, start: usize, end: usize) {
        if let Some(last) = out.last_mut() {
            if last.end == start {
                last.end = end;
                return;
            }
        }
        out.push(Region { start, end });
    }
    #[inline]
    fn xor_at(before: &[u8], after: &[u8], i: usize) -> u64 {
        let b = u64::from_le_bytes(before[i..i + 8].try_into().unwrap());
        let a = u64::from_le_bytes(after[i..i + 8].try_into().unwrap());
        a ^ b
    }
    // One length for both slices, so no word read is checked twice.
    let after = &after[..n];
    let mut i = 0;
    while i + 8 <= n {
        // Bulk-skip: four clean words at a time, read from one 32-byte
        // window of each slice (one bounds check per window, not per word).
        while let (Some(b), Some(a)) = (before.get(i..i + 32), after.get(i..i + 32)) {
            let any = xor_at(b, a, 0) | xor_at(b, a, 8) | xor_at(b, a, 16) | xor_at(b, a, 24);
            if any != 0 {
                break;
            }
            i += 32;
        }
        if i + 8 > n {
            break;
        }
        let x = xor_at(before, after, i);
        if all_bytes_differ(x) {
            // A fully changed word: it and every fully changed word after
            // it are one run (the bulk manual rewrite is pages of them).
            let start = i;
            i += 8;
            while i + 8 <= n && all_bytes_differ(xor_at(before, after, i)) {
                i += 8;
            }
            push(out, base + start, base + i);
            continue;
        }
        if x != 0 {
            // Walk the 1-runs of the byte mask: each is a maximal run of
            // differing bytes inside this word.
            let mut mask = diff_byte_mask(x);
            while mask != 0 {
                let s = mask.trailing_zeros() as usize;
                let len = (!(mask >> s)).trailing_zeros() as usize;
                push(out, base + i + s, base + i + s + len);
                mask &= !(((1u32 << len) - 1) << s);
            }
        }
        i += 8;
    }
    // Scalar tail (< 8 bytes).
    while i < n {
        if before[i] != after[i] {
            let start = i;
            while i < n && before[i] != after[i] {
                i += 1;
            }
            push(out, base + start, base + i);
        } else {
            i += 1;
        }
    }
}

/// Combine adjacent runs per the `2·gap > H` rule (header size `h`).
pub fn combine_regions(runs: &[Region], h: usize) -> Vec<Region> {
    let mut out = Vec::new();
    combine_regions_into(runs, h, &mut out);
    out
}

/// [`combine_regions`] into a caller-provided scratch vector (cleared
/// first) — the commit hot path reuses one across all pages of a
/// transaction so steady-state diffing never allocates.
pub fn combine_regions_into(runs: &[Region], h: usize, out: &mut Vec<Region>) {
    out.clear();
    let mut iter = runs.iter();
    let Some(first) = iter.next() else {
        return;
    };
    let mut pending = *first;
    for r in iter {
        let gap = r.start - pending.end;
        if 2 * gap > h {
            out.push(pending);
            pending = *r;
        } else {
            pending.end = r.end;
        }
    }
    out.push(pending);
}

/// Diff one object: modified regions, already combined for minimal log
/// traffic with the standard header size.
pub fn diff_object(before: &[u8], after: &[u8]) -> Vec<Region> {
    combine_regions(&raw_modified_runs(before, after), LOG_HEADER_SIZE)
}

/// [`diff_object`] with caller-provided scratch: `runs` holds the raw
/// runs, `out` the combined regions (both cleared first). Allocation-free
/// once the scratch vectors have warmed up.
pub fn diff_object_into(
    before: &[u8],
    after: &[u8],
    runs: &mut Vec<Region>,
    out: &mut Vec<Region>,
) {
    runs.clear();
    append_modified_runs(before, after, 0, runs);
    combine_regions_into(runs, LOG_HEADER_SIZE, out);
}

/// Total log bytes a set of regions would occupy (header + before + after
/// per region) — the quantity the algorithm minimizes.
pub fn log_bytes(regions: &[Region], h: usize) -> usize {
    regions.iter().map(|r| h + 2 * r.len()).sum()
}

/// Modified bytes only (no headers, no before-images): the payload a
/// REDO-only logical record set carries for these regions.
pub fn after_bytes(regions: &[Region]) -> usize {
    regions.iter().map(Region::len).sum()
}

/// Log bytes a REDO-only logical record set would occupy: header plus the
/// after-image per region (logical records carry no before half).
pub fn redo_only_log_bytes(regions: &[Region], h: usize) -> usize {
    regions.iter().map(|r| h + r.len()).sum()
}

/// Number of distinct `block`-byte blocks the regions touch — the
/// sub-page schemes' write-set granularity. `regions` must be sorted and
/// non-overlapping (what the diff pipeline produces).
pub fn distinct_blocks(regions: &[Region], block: usize) -> usize {
    debug_assert!(block.is_power_of_two());
    let mut count = 0usize;
    let mut last: Option<usize> = None;
    for r in regions {
        if r.is_empty() {
            continue;
        }
        let mut first = r.start / block;
        let end = (r.end - 1) / block;
        if let Some(l) = last {
            debug_assert!(first >= l, "regions must be sorted");
            first = first.max(l + 1);
            if end < first {
                continue;
            }
        }
        count += end - first + 1;
        last = Some(end);
    }
    count
}

/// Log bytes under block-rounded (sub-page) logging: each touched block
/// costs a header plus its before+after images, whatever the actual
/// modified span inside it.
pub fn block_rounded_log_bytes(regions: &[Region], h: usize, block: usize) -> usize {
    distinct_blocks(regions, block) * (h + 2 * block)
}

/// Expand each region to `block`-byte boundaries (clipped to `len`) and
/// merge any overlaps — the record spans an SD-format emission uses when
/// the write set was captured at page granularity. `regions` must be
/// sorted and non-overlapping; the output is too.
pub fn block_align_regions(regions: &[Region], block: usize, len: usize, out: &mut Vec<Region>) {
    debug_assert!(block.is_power_of_two());
    out.clear();
    for r in regions {
        if r.is_empty() {
            continue;
        }
        let start = (r.start / block * block).min(len);
        let end = ((r.end - 1) / block + 1) * block;
        let end = end.min(len);
        if let Some(last) = out.last_mut() {
            if start <= last.end {
                last.end = last.end.max(end);
                continue;
            }
        }
        out.push(Region { start, end });
    }
}

/// Exhaustive minimum over all ways of merging the raw runs into
/// consecutive groups (exponential; test oracle only).
pub fn brute_force_min_log_bytes(runs: &[Region], h: usize) -> usize {
    fn rec(runs: &[Region], h: usize, i: usize, open: Option<Region>) -> usize {
        match (i == runs.len(), open) {
            (true, None) => 0,
            (true, Some(r)) => h + 2 * r.len(),
            (false, None) => rec(runs, h, i + 1, Some(runs[i])),
            (false, Some(r)) => {
                // Close the open group before runs[i] …
                let close = h + 2 * r.len() + rec(runs, h, i + 1, Some(runs[i]));
                // … or extend it through the gap.
                let extend = rec(runs, h, i + 1, Some(Region { start: r.start, end: runs[i].end }));
                close.min(extend)
            }
        }
    }
    rec(runs, h, 0, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions(v: &[(usize, usize)]) -> Vec<Region> {
        v.iter().map(|&(s, e)| Region { start: s, end: e }).collect()
    }

    #[test]
    fn identical_objects_produce_nothing() {
        let a = vec![7u8; 100];
        assert!(diff_object(&a, &a).is_empty());
    }

    #[test]
    fn single_changed_word() {
        let before = vec![0u8; 64];
        let mut after = before.clone();
        after[8..12].fill(9);
        assert_eq!(diff_object(&before, &after), regions(&[(8, 12)]));
    }

    #[test]
    fn papers_first_and_third_word_example() {
        // §3.2.2: words 1 and 3 of an object updated (1 word = 4 bytes).
        // Gap D = 4 bytes; 2·4 = 8 ≤ H = 50 → combine into one region
        // covering words 1–3 (12 bytes), for 74 total log bytes vs 116.
        let before = vec![0u8; 64];
        let mut after = before.clone();
        after[0..4].fill(1); // word 1
        after[8..12].fill(3); // word 3
        let combined = diff_object(&before, &after);
        assert_eq!(combined, regions(&[(0, 12)]));
        assert_eq!(log_bytes(&combined, LOG_HEADER_SIZE), 74);
        let separate = raw_modified_runs(&before, &after);
        assert_eq!(log_bytes(&separate, LOG_HEADER_SIZE), 116);
    }

    #[test]
    fn large_gap_keeps_regions_separate() {
        // Gap of 26 bytes: 2·26 = 52 > 50 → separate records.
        let before = vec![0u8; 64];
        let mut after = before.clone();
        after[0..4].fill(1);
        after[30..34].fill(1);
        assert_eq!(diff_object(&before, &after), regions(&[(0, 4), (30, 34)]));
        // Gap of 25 bytes: 2·25 = 50 = H → combine (strict inequality).
        let mut after2 = before.clone();
        after2[0..4].fill(1);
        after2[29..33].fill(1);
        assert_eq!(diff_object(&before, &after2), regions(&[(0, 33)]));
    }

    #[test]
    fn figure2_three_regions() {
        // Figure 2: R1, R2 close together (combine), R3 far away (separate).
        let before = vec![0u8; 200];
        let mut after = before.clone();
        after[0..8].fill(1); // R1
        after[12..20].fill(2); // R2: gap 4 → combine with R1
        after[120..128].fill(3); // R3: gap 100 → separate
        assert_eq!(diff_object(&before, &after), regions(&[(0, 20), (120, 128)]));
    }

    #[test]
    fn whole_object_changed() {
        let before = vec![0u8; 256];
        let after = vec![1u8; 256];
        assert_eq!(diff_object(&before, &after), regions(&[(0, 256)]));
    }

    #[test]
    fn greedy_matches_brute_force_on_tricky_layouts() {
        // Several region layouts around the threshold; the greedy result
        // must always equal the exhaustive optimum.
        let layouts: &[&[(usize, usize)]] = &[
            &[(0, 4), (8, 12), (40, 44)],
            &[(0, 2), (27, 29), (56, 58), (85, 87)],
            &[(0, 10), (11, 21), (60, 61)],
            &[(5, 6), (32, 33), (59, 60), (86, 87), (113, 114)],
            &[(0, 1), (26, 27), (53, 54)],
        ];
        for l in layouts {
            let runs = regions(l);
            let greedy = combine_regions(&runs, LOG_HEADER_SIZE);
            assert_eq!(
                log_bytes(&greedy, LOG_HEADER_SIZE),
                brute_force_min_log_bytes(&runs, LOG_HEADER_SIZE),
                "layout {l:?}"
            );
        }
    }

    #[test]
    fn kernel_matches_scalar_on_word_boundary_patterns() {
        // Hand-picked adversarial layouts; the seeded property loop in
        // tests/prop_diff.rs covers the general case.
        let n = 64;
        let before = vec![0u8; n];
        let layouts: &[&[usize]] = &[
            &[],
            &[0],
            &[7],
            &[8],
            &[15, 16],                 // run straddling a word boundary
            &[6, 7, 8, 9],             // run across words 0 and 1
            &[0, 1, 2, 3, 4, 5, 6, 7], // exactly one full word
            &[31, 32, 33],
            &[56, 63],         // last word, both edges
            &[60, 61, 62, 63], // tail-adjacent
        ];
        for l in layouts {
            let mut after = before.clone();
            for &i in *l {
                after[i] ^= 0xA5;
            }
            assert_eq!(
                raw_modified_runs(&before, &after),
                raw_modified_runs_scalar(&before, &after),
                "layout {l:?}"
            );
        }
        // All-diff and all-equal whole pages.
        let a = vec![1u8; 8192];
        let b = vec![2u8; 8192];
        assert_eq!(raw_modified_runs(&a, &b), raw_modified_runs_scalar(&a, &b));
        assert_eq!(raw_modified_runs(&a, &a), Vec::new());
    }

    #[test]
    fn all_bytes_differ_is_the_bytewise_definition() {
        // Every zero/non-zero pattern of a word's 8 bytes, the non-zero
        // bytes drawn from the values at the test's borrow and top-bit
        // edges: all one value, then mixed so each byte meets each value.
        let values = [0x01u8, 0x7F, 0x80, 0xFF];
        let n = values.len();
        for pattern in 0..=255u32 {
            for pick in 0..2 * n {
                let bytes: [u8; 8] = std::array::from_fn(|k| match pattern & (1 << k) {
                    0 => 0,
                    _ if pick < n => values[pick],
                    _ => values[(k + pick) % n],
                });
                let x = u64::from_le_bytes(bytes);
                assert_eq!(
                    all_bytes_differ(x),
                    bytes.iter().all(|&b| b != 0),
                    "pattern {pattern:#04x} pick {pick}: {x:#018x}"
                );
            }
        }
    }

    #[test]
    fn append_merges_contiguous_runs_across_calls() {
        // Diffing adjacent sub-ranges (the SD block path) must yield the
        // same maximal runs as diffing the whole span at once.
        let before = vec![0u8; 128];
        let mut after = before.clone();
        after[60..68].fill(9); // straddles the 64-byte split below
        let mut split = Vec::new();
        append_modified_runs(&before[..64], &after[..64], 0, &mut split);
        append_modified_runs(&before[64..], &after[64..], 64, &mut split);
        assert_eq!(split, raw_modified_runs_scalar(&before, &after));
    }

    #[test]
    fn diff_object_into_reuses_scratch() {
        let before = vec![0u8; 256];
        let mut after = before.clone();
        after[10..14].fill(1);
        after[200..210].fill(2);
        let mut runs = Vec::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            diff_object_into(&before, &after, &mut runs, &mut out);
            assert_eq!(out, diff_object(&before, &after));
        }
    }

    #[test]
    fn density_stats() {
        let rs = regions(&[(0, 4), (60, 68), (128, 192)]);
        assert_eq!(after_bytes(&rs), 4 + 8 + 64);
        assert_eq!(redo_only_log_bytes(&rs, 50), 3 * 50 + 76);
        // Blocks of 64: region 1 → block 0; region 2 → blocks 0–1 (block 0
        // already counted); region 3 → block 2.
        assert_eq!(distinct_blocks(&rs, 64), 3);
        assert_eq!(block_rounded_log_bytes(&rs, 50, 64), 3 * (50 + 128));
        assert_eq!(distinct_blocks(&[], 64), 0);
        // A region ending exactly on a block boundary stays in its block.
        assert_eq!(distinct_blocks(&regions(&[(0, 64)]), 64), 1);
        assert_eq!(distinct_blocks(&regions(&[(63, 65)]), 64), 2);
    }

    #[test]
    fn block_alignment_expands_and_merges() {
        let mut out = Vec::new();
        // Two regions inside the same block collapse into it; the third
        // touches the adjacent block, so the whole span merges into one
        // record clipped to the object length.
        block_align_regions(&regions(&[(2, 6), (10, 12), (70, 100)]), 64, 90, &mut out);
        assert_eq!(out, regions(&[(0, 90)]));
        // Adjacent aligned spans merge into one.
        block_align_regions(&regions(&[(0, 4), (66, 68)]), 64, 128, &mut out);
        assert_eq!(out, regions(&[(0, 128)]));
        // Distant regions stay separate.
        block_align_regions(&regions(&[(0, 4), (200, 204)]), 64, 512, &mut out);
        assert_eq!(out, regions(&[(0, 64), (192, 256)]));
        block_align_regions(&[], 64, 512, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn regions_cover_all_raw_runs() {
        let before: Vec<u8> = (0..255u8).collect();
        let mut after = before.clone();
        for i in (0..255).step_by(17) {
            after[i] ^= 0xFF;
        }
        let combined = diff_object(&before, &after);
        for run in raw_modified_runs(&before, &after) {
            assert!(
                combined.iter().any(|r| r.start <= run.start && run.end <= r.end),
                "run {run:?} not covered"
            );
        }
    }
}
