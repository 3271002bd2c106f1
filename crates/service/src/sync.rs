//! Poison-tolerant locking for the daemon's shared state.
//!
//! The server runs one thread per connection over engine-wide shared
//! state (session caches, the inflight gate, cancel registries, frame
//! sinks). `std`'s mutexes poison when a holder panics, and the
//! idiomatic `.lock().expect(...)` turns one panicked thread into a
//! cascading outage: every *other* connection that touches the same
//! lock then panics too, and a daemon serving millions of users is
//! down because of one bad request.
//!
//! Recovery is the right call for every lock in this crate because the
//! guarded state is self-healing by construction:
//!
//! - the caches (sessions, sweep responses, netlists, what-if stacks)
//!   hold immutable `Arc`ed values behind an LRU index — a torn update
//!   is at worst a missing or stale *entry*, re-derivable on the next
//!   request, never a torn *value*;
//! - the inflight gate and cancel registry are RAII-guarded counters
//!   whose `Drop` half runs during the panicking thread's unwind, so
//!   the count is consistent by the time anyone else can observe it;
//! - the frame sink marks itself dead on first write error anyway — a
//!   partial frame kills that one connection, not the writer lock.
//!
//! `ser-lint`'s `no-panic-path` rule forbids `unwrap`/`expect` in the
//! request-path modules (this one included); these helpers are how
//! those modules take locks.
//!
//! [`InflightGate`] is the one counting semaphore of the crate: the
//! protocol engine bounds concurrently executing wire requests with
//! one, and the service bounds its compute threads with another.

use std::sync::{Condvar, Mutex, MutexGuard};

/// Locks `m`, recovering the guard from a poisoned mutex instead of
/// panicking. See the module docs for why recovery is sound for every
/// lock in this crate.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_clean`].
fn wait_clean<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Counting gate: at most `limit` permits are out at once (`0` = no
/// limit). Permits are RAII guards, released on drop — during a
/// panicking holder's unwind too — so the count is never leaked.
#[derive(Debug)]
pub(crate) struct InflightGate {
    limit: usize,
    active: Mutex<usize>,
    freed: Condvar,
}

impl InflightGate {
    pub(crate) fn new(limit: usize) -> Self {
        InflightGate {
            limit,
            active: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free, then takes it. A caller must not
    /// hold a permit of the same gate while it waits here.
    pub(crate) fn acquire(&self) -> InflightPermit<'_> {
        if self.limit > 0 {
            let mut active = lock_clean(&self.active);
            while *active >= self.limit {
                active = wait_clean(&self.freed, active);
            }
            *active += 1;
        }
        InflightPermit {
            gate: self,
            count: 1,
        }
    }

    /// Takes up to `max` permits — as many as are free right now —
    /// without blocking.
    pub(crate) fn try_acquire(&self, max: usize) -> InflightPermit<'_> {
        let mut count = max;
        if self.limit > 0 {
            let mut active = lock_clean(&self.active);
            count = max.min(self.limit.saturating_sub(*active));
            *active += count;
        }
        InflightPermit { gate: self, count }
    }

    /// Permits currently out (always 0 on an unlimited gate).
    pub(crate) fn active(&self) -> usize {
        *lock_clean(&self.active)
    }
}

/// Permits of one [`InflightGate`], returned on drop.
pub(crate) struct InflightPermit<'a> {
    gate: &'a InflightGate,
    count: usize,
}

impl InflightPermit<'_> {
    /// How many permits this guard holds.
    pub(crate) fn count(&self) -> usize {
        self.count
    }
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        if self.gate.limit > 0 && self.count > 0 {
            *lock_clean(&self.gate.active) -= self.count;
            // Every waiter wants one permit: wake one per permit freed.
            for _ in 0..self.count {
                self.gate.freed.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A panic while holding the lock must not wedge later lockers —
    /// the regression shape behind the whole module.
    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7usize));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock should be poisoned");
        assert_eq!(*lock_clean(&m), 7);
        *lock_clean(&m) = 9;
        assert_eq!(*lock_clean(&m), 9);
    }

    /// A full gate holds `acquire` until a permit comes back: the
    /// waiter can only get in after the holder marked its release.
    #[test]
    fn acquire_waits_for_a_returned_permit() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let gate = InflightGate::new(1);
        let released = AtomicBool::new(false);
        let held = gate.acquire();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let _permit = gate.acquire();
                released.load(Ordering::SeqCst)
            });
            released.store(true, Ordering::SeqCst);
            drop(held);
            assert!(waiter.join().unwrap(), "acquired past a full gate");
        });
        assert_eq!(gate.active(), 0);
    }

    /// `try_acquire` takes only what is free and never blocks; every
    /// permit comes back on drop.
    #[test]
    fn gate_counts_permits_and_never_overcommits() {
        let gate = InflightGate::new(3);
        let one = gate.acquire();
        let extra = gate.try_acquire(5);
        assert_eq!((one.count(), extra.count()), (1, 2));
        assert_eq!(gate.try_acquire(1).count(), 0, "gate is full");
        assert_eq!(gate.active(), 3);
        drop(extra);
        assert_eq!(gate.active(), 1);
        drop(one);
        assert_eq!(gate.active(), 0);
        let unlimited = InflightGate::new(0);
        assert_eq!(unlimited.try_acquire(4).count(), 4);
        assert_eq!(unlimited.active(), 0);
    }
}
