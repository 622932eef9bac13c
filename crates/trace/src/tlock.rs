//! [`TracedMutex`]: a subsystem mutex that can report how long it was
//! held and how long acquirers waited for it.
//!
//! The decomposed server wraps each independently locked subsystem (buffer
//! shards, volume, txn table, ...) in one of these. When the owning
//! tracer's lock stats are off — the default, and the configuration every
//! deterministic figure run uses — `lock(tracer)` is exactly a plain
//! `Mutex::lock` plus one branch, so no wall-clock reads perturb anything.
//! When they are on, each release records wall-clock hold (and, if the
//! acquire contended, wait) nanoseconds via [`Tracer::record_lock`], and
//! each thread keeps count of the measured locks it holds
//! ([`held_by_this_thread`]).

use crate::tracer::Tracer;
use qs_types::sync::{Mutex, MutexGuard};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// The names of the measured locks this thread holds.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// How many locks named `name` the calling thread holds, counting only
/// locks taken while their tracer's lock stats were on: a probe for "no
/// disk access while this lock is held" that does not time anything.
pub fn held_by_this_thread(name: &str) -> usize {
    HELD.with(|held| held.borrow().iter().filter(|&&n| n == name).count())
}

/// A named mutex whose guard reports hold/wait times to a [`Tracer`].
#[derive(Debug)]
pub struct TracedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

/// Guard for [`TracedMutex`]; records timings on drop when measuring.
pub struct TracedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    timing: Option<Timing<'a>>,
}

struct Timing<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    acquired: Instant,
    wait_ns: Option<u64>,
}

impl<T> TracedMutex<T> {
    pub fn new(name: &'static str, value: T) -> TracedMutex<T> {
        TracedMutex { name, inner: Mutex::new(value) }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock. Measurement only happens when `tracer` has lock
    /// stats enabled; otherwise this is a plain blocking lock.
    pub fn lock<'a>(&'a self, tracer: &'a Tracer) -> TracedGuard<'a, T> {
        if !tracer.lock_stats_enabled() {
            return TracedGuard { guard: self.inner.lock(), timing: None };
        }
        // Fast path: uncontended try_lock records a hold but no wait.
        let (guard, wait_ns) = match self.inner.try_lock() {
            Some(g) => (g, None),
            None => {
                let t0 = Instant::now();
                let g = self.inner.lock();
                (g, Some(t0.elapsed().as_nanos() as u64))
            }
        };
        HELD.with(|held| held.borrow_mut().push(self.name));
        let timing = Timing { tracer, name: self.name, acquired: Instant::now(), wait_ns };
        TracedGuard { guard, timing: Some(timing) }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T> std::ops::Deref for TracedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TracedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TracedGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(t) = self.timing.take() {
            t.tracer.record_lock(t.name, t.acquired.elapsed().as_nanos() as u64, t.wait_ns);
            // A guard never leaves its thread, so its name is there; a
            // drop must not panic, so nothing here insists on it.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(at) = held.iter().rposition(|&n| n == t.name) {
                    held.swap_remove(at);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qs_sim::{HardwareModel, Meter};
    use std::sync::Arc;

    #[test]
    fn untraced_lock_is_plain() {
        let t = Tracer::disabled();
        let m = TracedMutex::new("x", 1u32);
        *m.lock(&t) += 1;
        assert_eq!(*m.lock(&t), 2);
        assert_eq!(m.name(), "x");
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn held_locks_are_counted_per_thread_while_measured() {
        let meter = Meter::new();
        let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 16);
        let (a, b) = (TracedMutex::new("txns", ()), TracedMutex::new("txns", ()));
        let unmeasured = a.lock(&tracer);
        assert_eq!(held_by_this_thread("txns"), 0, "lock stats off: nothing counted");
        drop(unmeasured);
        tracer.set_lock_stats(true);
        let (first, second) = (a.lock(&tracer), b.lock(&tracer));
        assert_eq!(held_by_this_thread("txns"), 2);
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(held_by_this_thread("txns"), 0, "another thread holds none"));
        });
        drop(first);
        assert_eq!((held_by_this_thread("txns"), held_by_this_thread("shard")), (1, 0));
        drop(second);
        assert_eq!(held_by_this_thread("txns"), 0);
    }

    #[test]
    fn measured_lock_records_hold_and_contended_wait() {
        let meter = Meter::new();
        let tracer = Tracer::flight(Arc::clone(&meter), HardwareModel::paper_1995(), 16);
        tracer.set_lock_stats(true);
        let m = Arc::new(TracedMutex::new("shard", 0u32));

        // Uncontended: hold recorded, no wait sample.
        *m.lock(&tracer) += 1;
        assert_eq!(tracer.histogram("lock_hold:shard").unwrap().count(), 1);
        assert!(tracer.histogram("lock_wait:shard").is_none());

        // Contended: the second thread must block, producing a wait sample.
        let m2 = Arc::clone(&m);
        let t2 = Arc::clone(&tracer);
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let started2 = Arc::clone(&started);
        let held = m.lock(&tracer);
        let h = std::thread::spawn(move || {
            started2.store(true, std::sync::atomic::Ordering::SeqCst);
            *m2.lock(&t2) += 1;
        });
        while !started.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(held);
        h.join().unwrap();
        assert_eq!(tracer.histogram("lock_wait:shard").unwrap().count(), 1);
        assert!(tracer.histogram("lock_hold:shard").unwrap().count() >= 3);
    }
}
