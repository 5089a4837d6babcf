//! A bounded MPMC job queue with explicit overload signalling.
//!
//! Connection threads `try_push`; when the queue is at capacity they get
//! [`PushError::Full`] back immediately and the server answers 429
//! instead of letting latency balloon. Compile workers block in `pop`
//! until a job arrives or the queue is closed for drain.
//!
//! Built on `std::sync::{Mutex, Condvar}`, with the poison-recovering
//! helpers from [`lc_driver::sync`] so a panicking holder never wedges
//! the queue.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use lc_driver::sync::{lock_recovering, wait_recovering};

/// Why a `try_push` was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the caller should shed load.
    Full,
    /// The queue has been closed for shutdown; no new work is accepted.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity FIFO shared between connection threads and workers.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` pending jobs (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking; refuse when full or closed. The inner
    /// mutex recovers from poisoning: the queue is structurally
    /// consistent between statements, so a panicked worker must not turn
    /// every later push into a panic.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = lock_recovering(&self.inner);
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until a job is available or the queue is closed *and*
    /// drained. `None` means "no more work, ever" — the worker exits.
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock_recovering(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = wait_recovering(&self.not_empty, inner);
        }
    }

    /// Close the queue: pending jobs still drain, new pushes fail, and
    /// blocked workers wake to observe closure.
    pub fn close(&self) {
        let mut inner = lock_recovering(&self.inner);
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Jobs currently waiting (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        lock_recovering(&self.inner).items.len()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn refuses_pushes_beyond_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn close_drains_pending_then_signals_exit() {
        let q = BoundedQueue::new(4);
        q.try_push('a').unwrap();
        q.try_push('b').unwrap();
        q.close();
        assert_eq!(q.try_push('c'), Err(PushError::Closed));
        assert_eq!(q.pop(), Some('a'));
        assert_eq!(q.pop(), Some('b'));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_workers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give the workers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn keeps_serving_after_a_panicked_lock_holder() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let _ = std::thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("holder died");
        })
        .join();
        // Poisoned mutex; pushes and pops must still work.
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len(), 0);
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn items_flow_from_many_producers_to_many_consumers() {
        let q = Arc::new(BoundedQueue::<u64>::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        loop {
                            match q.try_push(p * 1000 + i) {
                                Ok(()) => break,
                                Err(PushError::Full) => std::thread::yield_now(),
                                Err(PushError::Closed) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expected: u64 = (0..4u64)
            .map(|p| (0..100u64).map(|i| p * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expected);
    }
}
