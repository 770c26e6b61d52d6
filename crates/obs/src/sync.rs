//! Poison-tolerant locks: `std::sync` primitives whose guards come back
//! without a `Result`.
//!
//! A panic while a guard is held poisons a std lock, and every later
//! `lock()` then fails. Nothing guarded here is left half-updated by a
//! panic (registries, ring buffers, caches, table lists), and telemetry or
//! a store must not go down because an unrelated thread died, so the
//! workspace's policy is to take the guard anyway. These wrappers state
//! that policy once for obs, exec, kv and the server.

use std::sync::PoisonError;
pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A `std::sync::Mutex` whose [`lock`](Mutex::lock) ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex, returning what it held.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A `std::sync::RwLock` whose [`read`](RwLock::read) and
/// [`write`](RwLock::write) ignore poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A lock holding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panicking_holder_does_not_take_the_lock_down() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let died = std::thread::spawn(move || {
            let _a = m2.lock();
            let _b = rw2.write();
            panic!("holder dies");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
        assert_eq!(Arc::try_unwrap(m).expect("sole owner").into_inner(), 2);
    }
}
