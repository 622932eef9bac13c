//! Sample estimators. The gated latency metrics use the *floor* — the
//! ⌈n/100⌉-th smallest sample — because on a shared host the fast tail of
//! a distribution repeats run to run while its median and slow tail move
//! with whatever the co-tenant is doing (see README, "Why floors").

/// The ⌈n/100⌉-th smallest sample (the minimum when n < 100). Sorts in
/// place.
pub fn floor(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "floor of an empty sample");
    samples.sort_unstable();
    samples[samples.len().div_ceil(100) - 1]
}

/// Nearest-rank percentile of an already sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `rank`-th highest value (1 = highest), clamped to the sample size.
pub fn nth_highest(values: &mut [f64], rank: usize) -> f64 {
    assert!(!values.is_empty(), "rank of an empty sample");
    values.sort_by(|a, b| b.partial_cmp(a).expect("rates are finite"));
    values[rank.min(values.len()) - 1]
}

/// 64-bit FNV-1a, continued from `state` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
