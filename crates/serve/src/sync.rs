//! Poisoned-lock recovery: the serving runtime's lock-acquisition idiom.
//!
//! `Mutex`/`RwLock` poisoning turns one panicking worker into a cascade:
//! every thread that later touches the same lock — including the
//! admission path and the HTTP frontend — panics too, and the runtime
//! falls over instead of degrading. Every structure the runtime guards
//! (admission lanes, the journal ring, the placement snapshot, connection
//! tables) is kept consistent *within* each critical
//! section by construction: updates are small, straight-line, and never
//! leave a partially-linked state behind, so the data a panicking holder
//! abandons is still well-formed — at worst a counter misses one bump.
//! Recovering the guard and continuing is therefore strictly better than
//! propagating the panic.
//!
//! These helpers are the only sanctioned way to acquire a lock in this
//! crate; the `lock-hygiene` rule in `vlite-lint` rejects
//! `.lock().unwrap()` / `.expect(…)` poisoning panics anywhere outside
//! tests.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquires `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Read-locks `rwlock`, recovering the guard from poisoning.
pub(crate) fn read_recover<T>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rwlock
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write-locks `rwlock`, recovering the guard from poisoning.
pub(crate) fn write_recover<T>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    rwlock
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Waits on `condvar`, recovering the reacquired guard from poisoning.
pub(crate) fn wait_recover<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn poison(mutex: &Arc<Mutex<u32>>) {
        let m = mutex.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
    }

    #[test]
    fn lock_recover_survives_a_poisoning_panic() {
        let mutex = Arc::new(Mutex::new(7u32));
        poison(&mutex);
        assert!(mutex.is_poisoned());
        *lock_recover(&mutex) += 1;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn rwlock_recovery_survives_a_poisoning_panic() {
        let rwlock = Arc::new(RwLock::new(1u32));
        let r = rwlock.clone();
        let _ = std::thread::spawn(move || {
            let _guard = r.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        *write_recover(&rwlock) = 2;
        assert_eq!(*read_recover(&rwlock), 2);
    }

    #[test]
    fn wait_recover_wakes_despite_poisoning() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        poison(&Arc::new(Mutex::new(0u32))); // unrelated; sanity
        let p = pair.clone();
        let waker = std::thread::spawn(move || {
            *lock_recover(&p.0) = true;
            p.1.notify_all();
        });
        let (mutex, condvar) = (&pair.0, &pair.1);
        let mut ready = lock_recover(mutex);
        while !*ready {
            ready = wait_recover(condvar, ready);
        }
        waker.join().expect("waker joins");
    }
}
