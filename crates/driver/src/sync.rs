//! Poison-recovering lock helpers, shared by the driver's batch
//! compiler and the serving layer.
//!
//! `Mutex::lock().unwrap()` turns one panicked thread into a cascade:
//! the mutex is poisoned, every later `lock()` returns `Err`, and the
//! `unwrap` re-panics — so a single panicking compile worker would wedge
//! the shared state and turn every subsequent request into a failure.
//! None of the critical sections guarded here leave their data in a
//! broken state on panic (batch slots hold a plain `Option`; the
//! service's counters are atomics and its cache map and queue are
//! structurally consistent between statements), so the right policy is
//! to *recover*: take the value out of the [`std::sync::PoisonError`]
//! and keep going. The fuzzer's service mode leans on this — a
//! malformed request must never take the server down with it.
//!
//! They live here, in the lowest crate with a worker pool, so both
//! [`crate::batch`] and the serving layer's cache, queue and load
//! generator use them.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Lock `m`, recovering the guard if a previous holder panicked.
pub fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wait on `cv`, recovering the guard if the mutex was poisoned while
/// waiting.
pub fn wait_recovering<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// Consume `m`, recovering the inner value if a holder panicked. The
/// owned counterpart of [`lock_recovering`] for tearing down per-slot
/// mutexes after the workers have finished.
pub fn into_inner_recovering<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn poisoned(v: u32) -> Arc<Mutex<u32>> {
        let m = Arc::new(Mutex::new(v));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        m
    }

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = poisoned(7);
        // A plain `.lock().unwrap()` would panic here; recovery hands
        // back the guard with the data intact.
        assert_eq!(*lock_recovering(&m), 7);
        *lock_recovering(&m) = 8;
        assert_eq!(*lock_recovering(&m), 8);
    }

    #[test]
    fn into_inner_recovers_a_poisoned_mutex() {
        let m = poisoned(42);
        let m = Arc::try_unwrap(m).expect("sole owner");
        assert_eq!(into_inner_recovering(m), 42);
    }
}
