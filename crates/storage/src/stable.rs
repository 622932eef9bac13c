//! Stable media: the durable layer that survives a simulated crash.
//!
//! The paper's server used raw disk partitions (a Sun1.3G for the database,
//! a Sun0424 for the transaction log). Here a [`StableMedia`] is a flat
//! byte array with explicit read/write; a crash in the test harness drops
//! every in-memory structure *except* the media, then hands the same media
//! to a freshly constructed server — exactly what a reboot does.
//!
//! [`MemDisk`] is the medium every server runs on (deterministic, fast);
//! [`crate::CrashDisk`] adds a volatile write cache for crash tests.

use qs_types::sync::RwLock;
use qs_types::{QsError, QsResult};

/// A crash-surviving, randomly addressable byte device.
pub trait StableMedia: Send + Sync {
    /// Total capacity in bytes.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `buf.len()` bytes starting at `off`.
    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()>;

    /// Write `buf` starting at `off`. Reads see it at once, but it is
    /// *volatile* until a later [`StableMedia::sync`] returns: a crash may
    /// keep it or lose it. (The engine above decides when to write and when
    /// to sync — that is the WAL discipline.)
    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()>;

    /// Make every write that returned before this call durable. `MemDisk`
    /// keeps every write, so its sync only waits out its latency;
    /// [`crate::CrashDisk`] keeps only what a sync folded in.
    fn sync(&self) -> QsResult<()>;
}

pub(crate) fn check_bounds(len: usize, off: usize, n: usize) -> QsResult<()> {
    if off.checked_add(n).is_none_or(|end| end > len) {
        return Err(QsError::Protocol {
            detail: format!("media access [{off}, {off}+{n}) out of bounds (len {len})"),
        });
    }
    Ok(())
}

/// In-memory stable medium.
pub struct MemDisk {
    data: RwLock<Vec<u8>>,
    /// Wall-clock sleep per `sync()` call — zero by default so the normal
    /// figure runs stay instantaneous. The contention benchmarks set this
    /// to model a real disk's synchronous-write latency, which is what
    /// group commit amortizes.
    sync_latency: std::time::Duration,
    /// Wall-clock sleep per `write_at()` call — zero by default. The
    /// checkpoint benchmark sets this on the *data* disk so a dirty-page
    /// flush costs device time per page, which is what a quiesced
    /// checkpoint serializes behind and an elevator drain overlaps. The
    /// sleep happens under the write lock: one spindle, one arm.
    write_latency: std::time::Duration,
}

impl MemDisk {
    /// A zero-filled device of `len` bytes.
    pub fn new(len: usize) -> MemDisk {
        MemDisk::with_latencies(len, std::time::Duration::ZERO, std::time::Duration::ZERO)
    }

    /// A zero-filled device whose `sync()` blocks for `latency` wall-clock
    /// time, so commit forces cost something real to batch away.
    pub fn with_sync_latency(len: usize, latency: std::time::Duration) -> MemDisk {
        MemDisk::with_latencies(len, latency, std::time::Duration::ZERO)
    }

    /// A zero-filled device with both a `sync()` latency and a per-call
    /// `write_at()` latency.
    pub fn with_latencies(
        len: usize,
        sync_latency: std::time::Duration,
        write_latency: std::time::Duration,
    ) -> MemDisk {
        MemDisk { data: RwLock::new(vec![0u8; len]), sync_latency, write_latency }
    }
}

impl StableMedia for MemDisk {
    fn len(&self) -> usize {
        self.data.read().len()
    }

    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()> {
        let d = self.data.read();
        check_bounds(d.len(), off, buf.len())?;
        buf.copy_from_slice(&d[off..off + buf.len()]);
        Ok(())
    }

    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()> {
        let mut d = self.data.write();
        check_bounds(d.len(), off, buf.len())?;
        if !self.write_latency.is_zero() {
            std::thread::sleep(self.write_latency);
        }
        d[off..off + buf.len()].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> QsResult<()> {
        if !self.sync_latency.is_zero() {
            std::thread::sleep(self.sync_latency);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memdisk_read_write() {
        let d = MemDisk::new(64);
        d.write_at(10, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        d.read_at(10, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn memdisk_bounds_checked() {
        let d = MemDisk::new(16);
        assert!(d.write_at(12, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(d.read_at(usize::MAX, &mut buf).is_err());
        // Exactly at the end is fine.
        d.write_at(8, &[1u8; 8]).unwrap();
    }

    #[test]
    fn memdisk_sync_latency_sleeps() {
        let d = MemDisk::with_sync_latency(16, std::time::Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        d.sync().unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(5));
        // Default construction stays instantaneous (no sleep path).
        assert!(MemDisk::new(16).sync_latency.is_zero());
    }

    #[test]
    fn memdisk_write_latency_sleeps() {
        let lat = std::time::Duration::from_millis(5);
        let d = MemDisk::with_latencies(16, std::time::Duration::ZERO, lat);
        let t0 = std::time::Instant::now();
        d.write_at(0, &[1u8; 4]).unwrap();
        assert!(t0.elapsed() >= lat);
        // Sync stays free; only writes pay.
        let t0 = std::time::Instant::now();
        d.sync().unwrap();
        assert!(t0.elapsed() < lat);
        assert!(MemDisk::new(16).write_latency.is_zero());
    }

    #[test]
    fn memdisk_initially_zeroed() {
        let d = MemDisk::new(32);
        let mut buf = [9u8; 32];
        d.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 32]);
    }

    #[test]
    fn trait_object_usable() {
        let d: Box<dyn StableMedia> = Box::new(MemDisk::new(8));
        assert_eq!(d.len(), 8);
        assert!(!d.is_empty());
    }
}
