//! Shared identifiers, constants, and error types for the QuickStore
//! crash-recovery reproduction (White & DeWitt, SIGMOD 1995).
//!
//! Everything in this crate is deliberately tiny and dependency-free: it is
//! the vocabulary spoken by every other crate in the workspace.

pub mod error;
pub mod hash;
pub mod ids;
pub mod sync;

pub use error::{QsError, QsResult};
pub use hash::{IdMap, IdSet};
pub use ids::{ClientId, FrameId, Lsn, Oid, PageId, TxnId, VAddr};

/// Size of a database page and of a virtual-memory frame, in bytes.
///
/// The paper uses 8 KB pages throughout ("Virtual memory frames are
/// contiguous and uniform in size (8 Kb)").
pub const PAGE_SIZE: usize = 8192;

/// Size of an ESM log-record header in bytes.
///
/// §3.2.2: "each ESM log record contains a header of approximately 50
/// bytes". The region-combining rule of the diff algorithm ("emit separate
/// records iff `2 * gap > H`") is stated in terms of this constant.
pub const LOG_HEADER_SIZE: usize = 50;

/// Machine word used by the paper's examples (1 word = 4 bytes).
pub const WORD: usize = 4;

/// Number of pages that fit in `bytes` bytes, rounding up.
#[inline]
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

/// Convert a number of 8 KB pages to megabytes (floating point, for reports).
#[inline]
pub fn pages_to_mb(pages: usize) -> f64 {
    (pages * PAGE_SIZE) as f64 / (1024.0 * 1024.0)
}

/// Convert megabytes to a whole number of 8 KB pages (rounding down).
#[inline]
pub fn mb_to_pages(mb: f64) -> usize {
    ((mb * 1024.0 * 1024.0) / PAGE_SIZE as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_8k() {
        assert_eq!(PAGE_SIZE, 8 * 1024);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
        assert_eq!(pages_for(3 * PAGE_SIZE - 1), 3);
    }

    #[test]
    fn mb_round_trip() {
        // 4 MB recovery buffer = 512 pages of 8 KB.
        assert_eq!(mb_to_pages(4.0), 512);
        assert!((pages_to_mb(512) - 4.0).abs() < 1e-9);
        // 0.5 MB = 64 pages (constrained-cache experiments).
        assert_eq!(mb_to_pages(0.5), 64);
    }
}
