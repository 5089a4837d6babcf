//! Chunk acquisition from a shared counter — the software fetch&add.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lc_sched::policy::{Chunk, Dispenser, PolicyKind};

/// A thread-safe source of iteration chunks.
pub trait Grabber: Sync {
    /// Claim the next chunk, or `None` when the loop is exhausted.
    fn grab(&self) -> Option<Chunk>;
}

/// Fixed-size chunks via a single `fetch_add` — pure self-scheduling when
/// `chunk == 1`, CSS(k) otherwise. This is exactly the paper's dispatch:
/// one atomic read-modify-write per chunk, no locks.
pub struct FetchAddGrabber {
    counter: AtomicU64,
    n: u64,
    chunk: u64,
}

impl FetchAddGrabber {
    /// Dispatch `n` iterations in chunks of `chunk`.
    pub fn new(n: u64, chunk: u64) -> Self {
        FetchAddGrabber {
            counter: AtomicU64::new(0),
            n,
            chunk: chunk.max(1),
        }
    }
}

impl Grabber for FetchAddGrabber {
    fn grab(&self) -> Option<Chunk> {
        // A plain `fetch_add` keeps incrementing after exhaustion, and
        // near `u64::MAX` the counter would wrap and re-dispatch
        // iterations that already ran. `fetch_update` with a saturating
        // add pins the counter once the range is drained; on the
        // uncontended fast path it is still a single CAS — the paper's
        // one synchronized operation per chunk.
        let start = self
            .counter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < self.n).then(|| c.saturating_add(self.chunk))
            })
            .ok()?;
        Some(Chunk {
            start,
            len: self.chunk.min(self.n - start),
        })
    }
}

/// Guided self-scheduling: chunk size `⌈remaining/p⌉` claimed by CAS (the
/// size depends on the counter value, so a plain fetch_add cannot be
/// used).
pub struct GuidedGrabber {
    counter: AtomicU64,
    n: u64,
    p: u64,
    min_chunk: u64,
}

impl GuidedGrabber {
    /// Dispatch `n` iterations among `p` workers, never handing out fewer
    /// than `min_chunk` iterations (classic GSS uses 1).
    pub fn new(n: u64, p: usize, min_chunk: u64) -> Self {
        GuidedGrabber {
            counter: AtomicU64::new(0),
            n,
            p: p.max(1) as u64,
            min_chunk: min_chunk.max(1),
        }
    }
}

impl Grabber for GuidedGrabber {
    fn grab(&self) -> Option<Chunk> {
        let mut cur = self.counter.load(Ordering::Relaxed);
        loop {
            if cur >= self.n {
                return None;
            }
            let remaining = self.n - cur;
            let take = remaining
                .div_ceil(self.p)
                .max(self.min_chunk)
                .min(remaining);
            match self.counter.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(Chunk {
                        start: cur,
                        len: take,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Stateful policies (TSS, factoring) behind a mutex — the chunk sequence
/// depends on dispatch history, which an atomic counter cannot carry.
/// The lock is only held while the dispenser computes the next chunk, so
/// a panicking loop body never poisons it; a poisoned lock is recovered
/// anyway, since the dispenser's state is consistent between calls.
pub struct LockedGrabber {
    inner: Mutex<Dispenser>,
}

impl LockedGrabber {
    /// Wrap a dispenser.
    pub fn new(dispenser: Dispenser) -> Self {
        LockedGrabber {
            inner: Mutex::new(dispenser),
        }
    }
}

impl Grabber for LockedGrabber {
    fn grab(&self) -> Option<Chunk> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .grab()
    }
}

/// Build the appropriate grabber for a policy: lock-free fast paths for
/// SS/CSS/GSS, mutex-guarded dispenser for the rest.
pub fn make_grabber(n: u64, p: usize, kind: PolicyKind) -> Box<dyn Grabber> {
    match kind {
        PolicyKind::SelfSched => Box::new(FetchAddGrabber::new(n, 1)),
        PolicyKind::Chunked(k) => Box::new(FetchAddGrabber::new(n, k)),
        PolicyKind::Guided => Box::new(GuidedGrabber::new(n, p, 1)),
        PolicyKind::Trapezoid | PolicyKind::Factoring => {
            Box::new(LockedGrabber::new(Dispenser::with_kind(n, p, kind)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn drain_parallel(grabber: &dyn Grabber, threads: usize) -> Vec<Chunk> {
        let chunks = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(c) = grabber.grab() {
                        chunks.lock().unwrap().push(c);
                    }
                });
            }
        });
        chunks.into_inner().unwrap()
    }

    fn assert_exact_cover(chunks: &[Chunk], n: u64) {
        let mut seen = HashSet::new();
        for c in chunks {
            for i in c.start..c.end() {
                assert!(seen.insert(i), "iteration {i} dispatched twice");
            }
        }
        assert_eq!(seen.len() as u64, n, "not all iterations dispatched");
    }

    #[test]
    fn fetch_add_covers_exactly_under_contention() {
        let g = FetchAddGrabber::new(100_000, 1);
        let chunks = drain_parallel(&g, 8);
        assert_exact_cover(&chunks, 100_000);
    }

    #[test]
    fn chunked_covers_exactly_with_ragged_tail() {
        let g = FetchAddGrabber::new(1003, 7);
        let chunks = drain_parallel(&g, 4);
        assert_exact_cover(&chunks, 1003);
        assert!(chunks.iter().any(|c| c.len == 7));
        assert!(chunks.iter().any(|c| c.len == 1003 % 7));
    }

    #[test]
    fn guided_covers_exactly_and_decays() {
        let g = GuidedGrabber::new(10_000, 8, 1);
        let chunks = drain_parallel(&g, 8);
        assert_exact_cover(&chunks, 10_000);
        // Far fewer chunks than iterations.
        assert!(chunks.len() < 200, "{}", chunks.len());
    }

    #[test]
    fn locked_trapezoid_covers_exactly() {
        let g = LockedGrabber::new(Dispenser::with_kind(5000, 4, PolicyKind::Trapezoid));
        let chunks = drain_parallel(&g, 4);
        assert_exact_cover(&chunks, 5000);
    }

    #[test]
    fn locked_factoring_covers_exactly() {
        let g = LockedGrabber::new(Dispenser::with_kind(777, 3, PolicyKind::Factoring));
        let chunks = drain_parallel(&g, 3);
        assert_exact_cover(&chunks, 777);
    }

    #[test]
    fn empty_loop_yields_nothing() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
        ] {
            let g = make_grabber(0, 4, kind);
            assert!(g.grab().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn empty_range_yields_nothing_for_every_grabber() {
        assert!(FetchAddGrabber::new(0, 1).grab().is_none());
        assert!(FetchAddGrabber::new(0, 64).grab().is_none());
        assert!(GuidedGrabber::new(0, 8, 1).grab().is_none());
        assert!(
            LockedGrabber::new(Dispenser::with_kind(0, 4, PolicyKind::Factoring))
                .grab()
                .is_none()
        );
        // And stays empty on repeated polls.
        let g = FetchAddGrabber::new(0, 3);
        for _ in 0..4 {
            assert!(g.grab().is_none());
        }
    }

    #[test]
    fn single_iteration_range_dispatches_exactly_once() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(16),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let g = make_grabber(1, 4, kind);
            let c = g.grab().unwrap_or_else(|| panic!("{kind:?} gave nothing"));
            assert_eq!((c.start, c.len), (0, 1), "{kind:?}");
            assert_eq!(c.end(), 1, "{kind:?}");
            assert!(g.grab().is_none(), "{kind:?} dispatched twice");
        }
    }

    #[test]
    fn fetch_add_near_u64_max_never_wraps_or_overflows() {
        // Chunk larger than half the domain: the second claim saturates
        // the counter. Before the `fetch_update` fix the third grab saw
        // a wrapped (small) counter and re-dispatched iteration 0.
        let chunk = u64::MAX / 2 + 3;
        let g = FetchAddGrabber::new(u64::MAX, chunk);
        let a = g.grab().unwrap();
        assert_eq!((a.start, a.len), (0, chunk));
        assert_eq!(a.end(), chunk);
        let b = g.grab().unwrap();
        assert_eq!(b.start, chunk);
        assert_eq!(b.len, u64::MAX - chunk);
        assert_eq!(b.end(), u64::MAX); // no overflow in Chunk::end
        for _ in 0..8 {
            assert!(g.grab().is_none(), "counter wrapped after exhaustion");
        }
    }

    #[test]
    fn chunked_tail_at_u64_max_stays_in_range() {
        // Start the last chunk 5 iterations before the end of the
        // domain: len must clamp so Chunk::end == u64::MAX exactly.
        let g = FetchAddGrabber::new(u64::MAX, 7);
        g.counter.store(u64::MAX - 5, Ordering::Relaxed);
        let c = g.grab().unwrap();
        assert_eq!((c.start, c.len), (u64::MAX - 5, 5));
        assert_eq!(c.end(), u64::MAX);
        assert!(g.grab().is_none());
    }

    #[test]
    fn guided_near_u64_max_never_overflows() {
        // remaining/p with p=1 takes the whole domain in one chunk; the
        // CAS target is exactly n, never past it.
        let g = GuidedGrabber::new(u64::MAX, 1, 1);
        let c = g.grab().unwrap();
        assert_eq!((c.start, c.len), (0, u64::MAX));
        assert_eq!(c.end(), u64::MAX);
        assert!(g.grab().is_none());

        // With many workers the first chunks stay near remaining/p and
        // every end() is in range.
        let g = GuidedGrabber::new(u64::MAX, 1024, 1);
        let mut claimed = 0u64;
        for _ in 0..64 {
            let c = g.grab().unwrap();
            assert_eq!(c.start, claimed);
            assert!(
                c.start.checked_add(c.len).is_some(),
                "end() must not overflow"
            );
            claimed = c.end();
        }
    }

    #[test]
    fn make_grabber_single_thread_drain_matches_n() {
        for kind in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(16),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let g = make_grabber(1234, 4, kind);
            let mut total = 0;
            while let Some(c) = g.grab() {
                total += c.len;
            }
            assert_eq!(total, 1234, "{kind:?}");
        }
    }
}
