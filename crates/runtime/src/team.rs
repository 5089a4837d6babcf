//! A persistent worker team: one thread spawn for a whole *series* of
//! parallel loops, with a barrier between consecutive loops.
//!
//! This is the execution model the paper's machines actually used:
//! processors join a team once, then sweep a sequence of parallel loop
//! instances separated by barriers. Comparing [`team_sweep_for`] against
//! [`crate::inner_sweep_for`] (a real thread fork per instance) and
//! [`crate::coalesced_for`] (one instance total) separates the two
//! overheads the transformation removes: thread management (team reuse
//! fixes that too) and per-instance dispatch + barrier (only coalescing
//! fixes that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use lc_space::{total_iterations, Odometer};

use crate::parallel::RuntimeOptions;
use crate::stats::{RunStats, WorkerStats};

/// Execute the nest with the innermost loop parallel and the outer levels
/// serial — like [`crate::inner_sweep_for`], but with one persistent
/// thread team and a barrier between instances instead of a fork/join per
/// instance. Dispatch within each instance is pure self-scheduling on a
/// per-instance `fetch_add` counter (`opts.policy` is ignored; the
/// instance trip counts are typically too small for chunking to matter).
pub fn team_sweep_for<F>(dims: &[u64], opts: &RuntimeOptions, body: F) -> RunStats
where
    F: Fn(&[i64]) + Sync,
{
    assert!(!dims.is_empty());
    let (outer_dims, inner_n) = (&dims[..dims.len() - 1], dims[dims.len() - 1]);
    let outer_total = total_iterations(outer_dims)
        .expect("iteration count overflows")
        .max(1);
    let threads = opts.resolved_threads();

    // One dispatch counter per instance, pre-allocated so workers never
    // race on counter reset.
    let counters: Vec<AtomicU64> = (0..outer_total).map(|_| AtomicU64::new(0)).collect();
    // Pre-compute the outer index vectors once.
    let prefixes: Vec<Vec<i64>> = {
        let mut odo = Odometer::new(outer_dims);
        (0..outer_total)
            .map(|_| {
                let v = odo.indices().to_vec();
                odo.advance();
                v
            })
            .collect()
    };
    let barrier = Barrier::new(threads);
    let started = Instant::now();

    let workers: Vec<WorkerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let counters = &counters;
                let prefixes = &prefixes;
                let barrier = &barrier;
                let body = &body;
                s.spawn(move || {
                    let mut ws = WorkerStats::default();
                    let t0 = Instant::now();
                    let mut iv: Vec<i64> = Vec::with_capacity(prefixes[0].len() + 1);
                    for (inst, prefix) in prefixes.iter().enumerate() {
                        loop {
                            let i = counters[inst].fetch_add(1, Ordering::Relaxed);
                            if i >= inner_n {
                                break;
                            }
                            ws.chunks += 1;
                            ws.iterations += 1;
                            iv.clear();
                            iv.extend_from_slice(prefix);
                            iv.push(i as i64 + 1);
                            body(&iv);
                        }
                        barrier.wait();
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
        policy: "TEAM/SS".into(),
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_sched::policy::PolicyKind;
    use std::sync::atomic::AtomicU64 as Cell;

    fn opts(threads: usize) -> RuntimeOptions {
        RuntimeOptions {
            threads,
            policy: PolicyKind::SelfSched,
        }
    }

    #[test]
    fn team_sweep_visits_every_cell_once() {
        let dims = [6u64, 10];
        let n: u64 = dims.iter().product();
        let hits: Vec<Cell> = (0..n).map(|_| Cell::new(0)).collect();
        let strides = lc_space::strides(&dims);
        let stats = team_sweep_for(&dims, &opts(4), |iv| {
            let flat: u64 = iv
                .iter()
                .enumerate()
                .map(|(k, &ix)| (ix as u64 - 1) * strides[k])
                .sum();
            hits[flat as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.total_iterations(), n);
        assert_eq!(stats.policy, "TEAM/SS");
    }

    #[test]
    fn team_sweep_depth_three() {
        let dims = [3u64, 4, 5];
        let n: u64 = dims.iter().product();
        let count = Cell::new(0);
        let stats = team_sweep_for(&dims, &opts(3), |iv| {
            assert_eq!(iv.len(), 3);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(stats.total_iterations(), n);
    }

    #[test]
    fn team_sweep_depth_one_behaves_like_single_parallel_loop() {
        let dims = [40u64];
        let count = Cell::new(0);
        team_sweep_for(&dims, &opts(2), |iv| {
            assert_eq!(iv.len(), 1);
            count.fetch_add(iv[0] as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 40 * 41 / 2);
    }

    #[test]
    fn barrier_orders_instances() {
        // Writes of instance k must all happen before any write of
        // instance k+1: record a max-so-far and assert monotonicity.
        let dims = [8u64, 16];
        let max_seen = Cell::new(0);
        team_sweep_for(&dims, &opts(4), |iv| {
            let inst = iv[0] as u64;
            let prev = max_seen.fetch_max(inst, Ordering::SeqCst);
            // An earlier instance may never appear after a later one has
            // fully completed. With the barrier, prev is at most inst
            // (instances in flight are never more than one).
            assert!(
                prev <= inst,
                "instance {inst} observed after instance {prev}"
            );
        });
    }

    #[test]
    fn single_thread_team_works() {
        let dims = [5u64, 5];
        let count = Cell::new(0);
        team_sweep_for(&dims, &opts(1), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 25);
    }
}
