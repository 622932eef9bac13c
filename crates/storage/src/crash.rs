//! [`CrashDisk`]: an in-memory medium with a volatile write cache, for
//! tests that crash between a write and the sync that would make it
//! durable.
//!
//! A write lands in the cache, where reads see it. A sync folds the cache
//! into the stable image. [`CrashDisk::crash`] returns what a power cut at
//! that instant leaves: a disk holding the stable image alone. A test can
//! also hold every sync at its start ([`CrashDisk::hold_syncs`]) to look at
//! the system while a force waits on the disk, and to crash it there.
//!
//! This is the first piece of a fault-injecting medium. The server's own
//! medium is [`crate::MemDisk`] (a disk that keeps every write at once,
//! which the contract allows).

use crate::stable::{check_bounds, StableMedia};
use qs_types::sync::{Condvar, Mutex};
use qs_types::QsResult;

/// An in-memory medium that keeps, across [`CrashDisk::crash`], only what
/// a [`StableMedia::sync`] folded in.
pub struct CrashDisk {
    images: Mutex<Images>,
    syncs: Mutex<Syncs>,
    /// Signals both ways: a sync parked, the syncs were released.
    cv: Condvar,
}

struct Images {
    /// What reads see: the stable image plus every write since the last
    /// sync.
    current: Vec<u8>,
    /// What survives a crash.
    stable: Vec<u8>,
    /// The byte ranges written since the last sync, as `(offset, len)`.
    cached: Vec<(usize, usize)>,
}

#[derive(Default)]
struct Syncs {
    /// Every sync parks at its start until this is cleared.
    held: bool,
    /// Syncs parked right now.
    parked: usize,
}

impl CrashDisk {
    /// A zero-filled disk of `len` bytes, all of it stable.
    pub fn new(len: usize) -> CrashDisk {
        CrashDisk::from_stable(vec![0u8; len])
    }

    fn from_stable(stable: Vec<u8>) -> CrashDisk {
        let images = Images { current: stable.clone(), stable, cached: Vec::new() };
        CrashDisk {
            images: Mutex::new(images),
            syncs: Mutex::new(Syncs::default()),
            cv: Condvar::new(),
        }
    }

    /// What a power cut now would leave: a new disk holding this one's
    /// stable image, with nothing cached and no sync held. This disk is
    /// untouched, so threads still using it carry on.
    pub fn crash(&self) -> CrashDisk {
        CrashDisk::from_stable(self.images.lock().stable.clone())
    }

    /// From now on every sync parks at its start, before it folds
    /// anything in, until [`CrashDisk::release_syncs`].
    pub fn hold_syncs(&self) {
        self.syncs.lock().held = true;
    }

    /// Block until at least one sync is parked.
    pub fn await_parked_sync(&self) {
        let mut syncs = self.syncs.lock();
        while syncs.parked == 0 {
            self.cv.wait(&mut syncs);
        }
    }

    /// Let the parked syncs, and every later one, through.
    pub fn release_syncs(&self) {
        self.syncs.lock().held = false;
        self.cv.notify_all();
    }
}

impl StableMedia for CrashDisk {
    fn len(&self) -> usize {
        self.images.lock().current.len()
    }

    fn read_at(&self, off: usize, buf: &mut [u8]) -> QsResult<()> {
        let images = self.images.lock();
        check_bounds(images.current.len(), off, buf.len())?;
        buf.copy_from_slice(&images.current[off..off + buf.len()]);
        Ok(())
    }

    fn write_at(&self, off: usize, buf: &[u8]) -> QsResult<()> {
        let mut images = self.images.lock();
        check_bounds(images.current.len(), off, buf.len())?;
        images.current[off..off + buf.len()].copy_from_slice(buf);
        images.cached.push((off, buf.len()));
        Ok(())
    }

    fn sync(&self) -> QsResult<()> {
        let mut syncs = self.syncs.lock();
        if syncs.held {
            syncs.parked += 1;
            self.cv.notify_all();
            while syncs.held {
                self.cv.wait(&mut syncs);
            }
            syncs.parked -= 1;
        }
        drop(syncs);
        let images = &mut *self.images.lock();
        for (off, len) in images.cached.drain(..) {
            images.stable[off..off + len].copy_from_slice(&images.current[off..off + len]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(d: &CrashDisk, off: usize) -> [u8; 4] {
        let mut buf = [0u8; 4];
        d.read_at(off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_crash_keeps_what_was_synced_and_nothing_else() {
        let d = CrashDisk::new(16);
        d.write_at(0, b"abcd").unwrap();
        assert_eq!(&read(&d, 0), b"abcd", "reads see the cache");
        assert_eq!(read(&d.crash(), 0), [0; 4], "unsynced: lost");
        d.sync().unwrap();
        d.write_at(2, b"XY").unwrap();
        d.write_at(8, b"efgh").unwrap();
        let after = d.crash();
        assert_eq!(&read(&after, 0), b"abcd");
        assert_eq!(read(&after, 8), [0; 4]);
        assert_eq!(&read(&d, 0), b"abXY", "the crashed copy leaves this disk alone");
        assert!(after.write_at(14, b"toolong").is_err());
    }

    #[test]
    fn a_held_sync_parks_until_released_and_folds_nothing_before() {
        let d = CrashDisk::new(8);
        d.write_at(0, b"wxyz").unwrap();
        d.hold_syncs();
        std::thread::scope(|s| {
            let syncing = s.spawn(|| d.sync().unwrap());
            d.await_parked_sync();
            assert_eq!(read(&d.crash(), 0), [0; 4], "parked before folding");
            d.release_syncs();
            syncing.join().unwrap();
        });
        assert_eq!(&read(&d.crash(), 0), b"wxyz");
        d.sync().unwrap(); // released for good
    }
}
