//! An elastic set of parked connection threads.
//!
//! Forking an OS thread per connection costs a thread creation and
//! teardown on every request, which on a small host is a large share of
//! a cache hit. Instead, a connection thread that has answered its
//! connection *parks* here, and the acceptor hands the next connection
//! to a parked thread. Only when no thread is parked does the acceptor
//! spawn a new one, so no connection ever waits behind another: the set
//! grows with the number of connections in flight.
//!
//! What is bounded is the number of *parked* threads: a thread that
//! finishes while `max_parked` threads are already parked exits instead.
//! [`ParkedThreads::close`] (called when the acceptor stops) wakes every
//! parked thread to exit, and makes busy threads exit once done.
//!
//! Built on `std::sync::{Mutex, Condvar}` with the poison-recovering
//! helpers from [`lc_driver::sync`], like the job queue.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use lc_driver::sync::{lock_recovering, wait_recovering};

/// Snapshot of the thread counters, rendered into `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnCounters {
    /// Threads spawned because no parked thread was idle.
    pub spawned: u64,
    /// Items handed to an already-running parked thread.
    pub reused: u64,
    /// Threads currently parked (gauge).
    pub parked: u64,
}

struct State<T> {
    /// Threads blocked in [`ParkedThreads::park`].
    parked: usize,
    /// Items handed off but not yet taken by a parked thread; never
    /// longer than `parked`.
    handed: VecDeque<T>,
    closed: bool,
}

/// Threads waiting for their next item (a connection, in the server).
pub struct ParkedThreads<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    max_parked: usize,
    spawned: AtomicU64,
    reused: AtomicU64,
}

impl<T> ParkedThreads<T> {
    /// An empty set that keeps at most `max_parked` threads parked.
    pub fn new(max_parked: usize) -> Self {
        ParkedThreads {
            state: Mutex::new(State {
                parked: 0,
                handed: VecDeque::new(),
                closed: false,
            }),
            wake: Condvar::new(),
            max_parked,
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Hand `item` to a parked thread when one is idle; otherwise call
    /// `spawn` with it, which must start a thread that serves `item` and
    /// then calls [`park`](Self::park) for more.
    pub fn dispatch(&self, item: T, spawn: impl FnOnce(T)) {
        let mut state = lock_recovering(&self.state);
        if state.parked > state.handed.len() {
            // Counted before the hand-off, so a thread serving `item`
            // already sees it counted.
            self.reused.fetch_add(1, Ordering::Relaxed);
            state.handed.push_back(item);
            drop(state);
            self.wake.notify_one();
        } else {
            drop(state);
            self.spawned.fetch_add(1, Ordering::Relaxed);
            spawn(item);
        }
    }

    /// Called by a thread that finished its item: block until handed the
    /// next one. `None` means exit — the set is closed, or already holds
    /// `max_parked` parked threads.
    pub fn park(&self) -> Option<T> {
        let mut state = lock_recovering(&self.state);
        if state.closed || state.parked >= self.max_parked {
            return None;
        }
        state.parked += 1;
        loop {
            // Handed items are taken before closure is observed, so an
            // item handed off just before `close` is still served.
            if let Some(item) = state.handed.pop_front() {
                state.parked -= 1;
                return Some(item);
            }
            if state.closed {
                state.parked -= 1;
                return None;
            }
            state = wait_recovering(&self.wake, state);
        }
    }

    /// Wake every parked thread to exit; threads still serving an item
    /// exit when they next call [`park`](Self::park).
    pub fn close(&self) {
        lock_recovering(&self.state).closed = true;
        self.wake.notify_all();
    }

    /// Current counters.
    pub fn counters(&self) -> ConnCounters {
        ConnCounters {
            spawned: self.spawned.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            parked: lock_recovering(&self.state).parked as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// Start a thread that runs `serve` on `first`, then parks and runs
    /// it on every item it is handed, until told to exit.
    fn spawn_server(
        pool: &Arc<ParkedThreads<u32>>,
        first: u32,
        serve: impl Fn(u32) + Send + 'static,
    ) {
        let pool = Arc::clone(pool);
        std::thread::spawn(move || {
            let mut next = Some(first);
            while let Some(item) = next {
                serve(item);
                next = pool.park();
            }
        });
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Dispatch `n` items while every thread is held at a barrier, so
    /// none can park and each dispatch spawns; then release them all.
    fn spawn_busy(pool: &Arc<ParkedThreads<u32>>, n: u32) {
        let gate = Arc::new(Barrier::new(n as usize + 1));
        for item in 0..n {
            let gate = Arc::clone(&gate);
            pool.dispatch(item, |first| {
                spawn_server(pool, first, move |_| {
                    gate.wait();
                })
            });
        }
        gate.wait();
    }

    #[test]
    fn a_parked_thread_serves_the_next_item() {
        let pool = Arc::new(ParkedThreads::new(4));
        let (done, served) = channel();
        for item in 0..10 {
            let done = done.clone();
            pool.dispatch(item, |first| {
                spawn_server(&pool, first, move |i| done.send(i).unwrap())
            });
            assert_eq!(served.recv().unwrap(), item);
            wait_until("the thread to park", || pool.counters().parked == 1);
        }
        assert_eq!(
            pool.counters(),
            ConnCounters {
                spawned: 1,
                reused: 9,
                parked: 1
            }
        );
        pool.close();
        wait_until("the parked thread to exit", || {
            Arc::strong_count(&pool) == 1
        });
        assert_eq!(pool.counters().parked, 0);
    }

    #[test]
    fn close_makes_every_parked_thread_exit() {
        let pool = Arc::new(ParkedThreads::new(8));
        spawn_busy(&pool, 5);
        wait_until("all five to park", || pool.counters().parked == 5);
        assert_eq!(pool.counters().spawned, 5);
        pool.close();
        // Each thread holds a clone of the Arc until it returns.
        wait_until("every parked thread to exit", || {
            Arc::strong_count(&pool) == 1
        });
        assert_eq!(pool.counters().parked, 0);
        // Closed: a finishing thread is told to exit, not parked.
        assert_eq!(pool.park(), None);
    }

    #[test]
    fn threads_beyond_the_bound_exit_instead_of_parking() {
        let pool = Arc::new(ParkedThreads::new(2));
        spawn_busy(&pool, 4);
        wait_until("two threads to park and two to exit", || {
            Arc::strong_count(&pool) == 3
        });
        assert_eq!(pool.counters().parked, 2);
        pool.close();
        wait_until("the parked threads to exit", || {
            Arc::strong_count(&pool) == 1
        });
    }
}
