//! Poison-ignoring wrappers over `std::sync` locking primitives.
//!
//! The engine previously used `parking_lot`, whose guards have no poison
//! layer. These wrappers keep that calling convention — `lock()`, `read()`,
//! `write()` return guards directly, and `Condvar::wait` re-blocks an
//! existing guard in place — on top of the standard library, so the
//! workspace stays free of external crates.
//!
//! Poisoning is deliberately ignored (`PoisonError::into_inner`): a panic
//! in one test thread must not cascade into unrelated `lock()` calls, and
//! the crash-recovery tests *simulate* crashes by dropping state, never by
//! panicking while a lock is held.

use std::sync::PoisonError;

/// `std::sync::Mutex` with a guard-returning, poison-ignoring `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard for [`Mutex`]. Wraps the std guard so [`Condvar::wait`] can take
/// it back temporarily without exposing poison handling at call sites.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Non-blocking acquire: `None` when another thread holds the lock.
    /// A poisoned (but free) mutex is recovered exactly like [`Mutex::lock`].
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present")
    }
}

/// `std::sync::RwLock` with guard-returning, poison-ignoring accessors.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `std::sync::Condvar` that re-blocks a [`MutexGuard`] in place
/// (`parking_lot`-style `wait(&mut guard)`).
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's mutex, wait for a notification, and
    /// reacquire — the guard is valid (and holds the lock) on return.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// [`Condvar::wait`] that also returns once `timeout` has passed.
    /// Callers re-check their condition either way, so which of the two
    /// ended the wait is not reported.
    pub fn wait_timeout<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) {
        let inner = guard.0.take().expect("guard present");
        let (inner, _) =
            self.0.wait_timeout(inner, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_contended_and_free() {
        let m = Mutex::new(5);
        {
            let _held = m.lock();
            assert!(m.try_lock().is_none(), "held elsewhere");
        }
        *m.try_lock().expect("free now") = 6;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn lock_survives_a_poisoning_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        // A std mutex would now return Err(PoisonError); ours keeps working.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_timeout_returns_unnotified_with_the_lock_held() {
        let (lock, cv) = (Mutex::new(1), Condvar::new());
        let mut g = lock.lock();
        let t0 = std::time::Instant::now();
        cv.wait_timeout(&mut g, Duration::from_millis(5));
        // Spurious wake-ups may cut the wait short; the guard must be
        // usable regardless.
        assert!(t0.elapsed() < Duration::from_secs(5));
        *g += 1;
        assert!(lock.try_lock().is_none(), "guard still holds the lock");
        drop(g);
        assert_eq!(*lock.lock(), 2);
    }
}
