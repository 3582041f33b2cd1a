//! Offline shim for the `parking_lot` crate, plus the workspace lock-rank
//! checker.
//!
//! The build environment has no access to the crates.io registry, so the
//! workspace replaces external dependencies with thin in-repo shims (see
//! DESIGN.md, "dependency policy"). This one maps the subset of the
//! `parking_lot` API the workspace uses onto `std::sync` primitives.
//!
//! Semantics match `parking_lot` where the workspace relies on them:
//! `lock()`/`read()`/`write()` return guards directly (no `Result`), and a
//! poisoned std lock is ignored rather than propagated — `parking_lot`
//! locks do not poison, so a panicking holder must not wedge every later
//! caller.
//!
//! # Lock ranks
//!
//! Because every `Mutex`/`RwLock` in the workspace flows through this shim,
//! it is also the choke point where the DESIGN.md ordering rules are
//! enforced at runtime. A lock built with [`Mutex::with_rank`] /
//! [`RwLock::with_rank`] carries a [`LockRank`] (a number plus a stable
//! name; the one table lives in [`ranks`]). Under `debug_assertions` or
//! the `lockcheck` feature, every *blocking* acquisition checks the
//! calling thread's held-lock stack: acquiring a rank less than or equal
//! to one already held panics with both acquisition sites. `try_*`
//! acquisitions never block, so they are exempt from the order check (the
//! bgwriter/flusher rule), but a successful `try_*` still counts as held
//! for later blocking acquisitions. In release builds without the feature
//! the checker compiles to nothing.
//!
//! All acquisition methods are `#[track_caller]`, so both checker panics
//! and poison-recovery report the caller's site, not the shim's.

use std::sync;

pub mod lockcheck;
pub mod ranks;

/// A rank + name for a lock, ordering it in the workspace acquisition
/// hierarchy. Lower ranks are acquired first (outermost). Two locks with
/// equal rank may never be held simultaneously by one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockRank {
    /// Position in the acquisition order; lower = outer.
    pub rank: u32,
    /// Stable name, as declared in [`ranks`].
    pub name: &'static str,
}

impl LockRank {
    /// A new rank. Every rank the workspace uses is a constant in
    /// [`ranks`].
    pub const fn new(rank: u32, name: &'static str) -> Self {
        Self { rank, name }
    }
}

/// A mutual-exclusion lock with `parking_lot`'s panic-free guard API.
pub struct Mutex<T: ?Sized> {
    meta: lockcheck::Meta,
    inner: sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
    _held: lockcheck::Held,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> Mutex<T> {
    /// A new unranked mutex holding `value`. Unranked locks are invisible
    /// to the lock-rank checker; workspace library code should prefer
    /// [`Mutex::with_rank`] (enforced by `pglo-lint`).
    pub const fn new(value: T) -> Self {
        Self { meta: lockcheck::Meta::none(), inner: sync::Mutex::new(value) }
    }

    /// A new ranked mutex holding `value`, participating in the
    /// acquisition-order checks described in the crate docs.
    pub const fn with_rank(value: T, rank: LockRank) -> Self {
        Self { meta: lockcheck::Meta::ranked(rank), inner: sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available.
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.meta.before_blocking(self.addr());
        let inner = self.inner.lock().unwrap_or_else(sync::PoisonError::into_inner);
        MutexGuard { inner, _held: held }
    }

    /// Try to acquire the lock without blocking. Exempt from the
    /// acquisition-order check (it cannot deadlock by waiting), but a
    /// successful acquisition still counts as held.
    #[track_caller]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        let held = self.meta.after_try(self.addr());
        Some(MutexGuard { inner, _held: held })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }

    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A reader-writer lock with `parking_lot`'s panic-free guard API.
pub struct RwLock<T: ?Sized> {
    meta: lockcheck::Meta,
    inner: sync::RwLock<T>,
}

/// RAII guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
    _held: lockcheck::Held,
}

/// RAII guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
    _held: lockcheck::Held,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> RwLock<T> {
    /// A new unranked lock holding `value`. Workspace library code should
    /// prefer [`RwLock::with_rank`] (enforced by `pglo-lint`).
    pub const fn new(value: T) -> Self {
        Self { meta: lockcheck::Meta::none(), inner: sync::RwLock::new(value) }
    }

    /// A new ranked lock holding `value`, participating in the
    /// acquisition-order checks described in the crate docs.
    pub const fn with_rank(value: T, rank: LockRank) -> Self {
        Self { meta: lockcheck::Meta::ranked(rank), inner: sync::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.meta.before_blocking(self.addr());
        let inner = self.inner.read().unwrap_or_else(sync::PoisonError::into_inner);
        RwLockReadGuard { inner, _held: held }
    }

    /// Acquire an exclusive write lock.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.meta.before_blocking(self.addr());
        let inner = self.inner.write().unwrap_or_else(sync::PoisonError::into_inner);
        RwLockWriteGuard { inner, _held: held }
    }

    /// Try to acquire a shared read lock without blocking. Exempt from the
    /// acquisition-order check; a success still counts as held.
    #[track_caller]
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        let held = self.meta.after_try(self.addr());
        Some(RwLockReadGuard { inner, _held: held })
    }

    /// Try to acquire an exclusive write lock without blocking. Exempt
    /// from the acquisition-order check; a success still counts as held.
    #[track_caller]
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        let held = self.meta.after_try(self.addr());
        Some(RwLockWriteGuard { inner, _held: held })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }

    fn addr(&self) -> usize {
        self as *const Self as *const () as usize
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        let _r1 = l.read();
        let _r2 = l.read();
        assert!(l.try_write().is_none());
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: later lockers proceed.
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn ranked_ascending_order_is_clean() {
        let a = Mutex::with_rank(0, LockRank::new(1, "test.outer"));
        let b = RwLock::with_rank(0, LockRank::new(2, "test.inner"));
        let _ga = a.lock();
        let _gb = b.read();
    }
}
