//! The worker loop: scoped threads pulling chunks from a shared grabber.

use std::time::Instant;

use lc_sched::policy::{Chunk, PolicyKind};

use crate::grabber::make_grabber;
use crate::stats::{RunStats, WorkerStats};

/// Options for a runtime execution.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeOptions {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Chunking policy for dynamic dispatch.
    pub policy: PolicyKind,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            threads: 0,
            policy: PolicyKind::Guided,
        }
    }
}

impl RuntimeOptions {
    /// Resolve `threads == 0` to the host's available parallelism.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Chunk-level parallel execution: every claimed [`Chunk`] is handed to
/// `handler` exactly once, from whichever worker claimed it. This is the
/// primitive `parallel_for` and the nest executors build on.
pub fn parallel_for_chunks<H>(n: u64, opts: &RuntimeOptions, handler: H) -> RunStats
where
    H: Fn(Chunk) + Sync,
{
    let threads = opts.resolved_threads();
    let grabber = make_grabber(n, threads, opts.policy);
    let started = Instant::now();

    let workers: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let grabber = &grabber;
                let handler = &handler;
                s.spawn(move || {
                    let mut ws = WorkerStats::default();
                    let t0 = Instant::now();
                    while let Some(chunk) = grabber.grab() {
                        ws.chunks += 1;
                        ws.iterations += chunk.len;
                        handler(chunk);
                    }
                    ws.busy = t0.elapsed();
                    ws
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    RunStats {
        elapsed: started.elapsed(),
        threads,
        policy: opts.policy.name(),
        workers,
    }
}

/// Parallel loop over `0..n`: `body(i)` is called exactly once per index,
/// from some worker thread. Iterations within a chunk run consecutively
/// on one worker.
pub fn parallel_for<F>(n: u64, opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(u64) + Sync,
{
    parallel_for_chunks(n, opts, |chunk| {
        for i in chunk.start..chunk.end() {
            body(i);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn opts(threads: usize, policy: PolicyKind) -> RuntimeOptions {
        RuntimeOptions { threads, policy }
    }

    #[test]
    fn every_index_visited_exactly_once() {
        for policy in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(16),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let n = 10_000u64;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let stats = parallel_for(n, &opts(4, policy), |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{policy:?} missed or duplicated an index"
            );
            assert_eq!(stats.total_iterations(), n, "{policy:?}");
        }
    }

    #[test]
    fn sum_reduction_via_atomics_is_correct() {
        let n = 100_000u64;
        let acc = AtomicU64::new(0);
        parallel_for(n, &opts(8, PolicyKind::Guided), |i| {
            acc.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn zero_iterations_is_a_noop() {
        let stats = parallel_for(0, &opts(4, PolicyKind::SelfSched), |_| {
            panic!("body must not run")
        });
        assert_eq!(stats.total_iterations(), 0);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn single_thread_executes_in_order_within_chunks() {
        // With one thread and CSS(10), chunks arrive in order and each
        // chunk's iterations are consecutive.
        let seen = std::sync::Mutex::new(Vec::new());
        parallel_for(100, &opts(1, PolicyKind::Chunked(10)), |i| {
            seen.lock().unwrap().push(i);
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_handler_sees_whole_chunks() {
        let stats = parallel_for_chunks(1000, &opts(4, PolicyKind::Chunked(64)), |c| {
            assert!(c.len == 64 || c.len == 1000 % 64);
        });
        assert_eq!(stats.total_chunks(), 1000_u64.div_ceil(64));
    }

    #[test]
    fn thread_zero_resolves_to_host_parallelism() {
        let o = RuntimeOptions {
            threads: 0,
            policy: PolicyKind::Guided,
        };
        assert!(o.resolved_threads() >= 1);
    }

    #[test]
    fn body_panic_reaches_the_caller_and_the_runtime_stays_usable() {
        // SelfSched and Guided dispatch lock-free; Trapezoid goes through
        // the mutex-guarded `LockedGrabber`.
        for policy in [
            PolicyKind::SelfSched,
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
        ] {
            let o = opts(4, policy);
            let r = std::panic::catch_unwind(|| {
                parallel_for(1000, &o, |i| {
                    if i == 617 {
                        panic!("boom at {i}");
                    }
                })
            });
            assert!(r.is_err(), "{policy:?}: panic did not reach the caller");

            let n = 1000u64;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let stats = parallel_for(n, &o, |i| {
                hits[i as usize].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{policy:?}: rerun missed or duplicated an index"
            );
            assert_eq!(stats.total_iterations(), n, "{policy:?}");
        }
    }

    #[test]
    fn worker_stats_account_all_chunks() {
        let stats = parallel_for(5000, &opts(3, PolicyKind::Guided), |_| {});
        assert_eq!(stats.workers.len(), 3);
        assert_eq!(stats.total_iterations(), 5000);
        assert!(stats.total_chunks() > 0);
    }
}
