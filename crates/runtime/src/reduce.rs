//! Parallel reduction over a coalesced iteration space.
//!
//! The coalescing legality rules reject scalar reductions inside a
//! `doall` (`s = s + …` carries a dependence). The era's answer — and the
//! thesis's `calculate_pi` example — is *partial sums*: each worker
//! accumulates privately and the partials are folded after the join.
//! [`parallel_reduce`] packages that pattern over the same fetch&add
//! dispatch as [`crate::parallel_for`].

use std::time::Instant;

use crate::grabber::make_grabber;
use crate::parallel::RuntimeOptions;
use crate::stats::{RunStats, WorkerStats};

/// Reduce `map(0) ⊕ map(1) ⊕ … ⊕ map(n-1)` in parallel.
///
/// `map` computes one iteration's contribution; `fold` combines two
/// partial results and must be associative (commutativity is also
/// required unless the policy hands out chunks in order to a single
/// worker — partials are folded in worker order, not iteration order).
/// Returns the reduced value and run statistics.
pub fn parallel_reduce<T, M, F>(
    n: u64,
    opts: &RuntimeOptions,
    identity: T,
    map: M,
    fold: F,
) -> (T, RunStats)
where
    T: Clone + Send,
    M: Fn(u64) -> T + Sync,
    F: Fn(T, T) -> T + Sync + Send,
{
    let threads = opts.resolved_threads();
    let grabber = make_grabber(n, threads, opts.policy);
    let started = Instant::now();

    let results: Vec<(WorkerStats, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let grabber = &grabber;
                let map = &map;
                let fold = &fold;
                let mut acc = identity.clone();
                s.spawn(move || {
                    let mut ws = WorkerStats::default();
                    let t0 = Instant::now();
                    while let Some(chunk) = grabber.grab() {
                        ws.chunks += 1;
                        ws.iterations += chunk.len;
                        for i in chunk.start..chunk.end() {
                            acc = fold(acc, map(i));
                        }
                    }
                    ws.busy = t0.elapsed();
                    (ws, acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut workers = Vec::with_capacity(threads);
    let mut total = identity;
    for (ws, partial) in results {
        workers.push(ws);
        total = fold(total, partial);
    }
    (
        total,
        RunStats {
            elapsed: started.elapsed(),
            threads,
            policy: opts.policy.name(),
            workers,
        },
    )
}

/// Convenience: integer sum of `map(i)` over `0..n`.
pub fn parallel_sum<M>(n: u64, opts: &RuntimeOptions, map: M) -> (i64, RunStats)
where
    M: Fn(u64) -> i64 + Sync,
{
    parallel_reduce(n, opts, 0i64, map, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_sched::policy::PolicyKind;

    fn opts(threads: usize, policy: PolicyKind) -> RuntimeOptions {
        RuntimeOptions { threads, policy }
    }

    #[test]
    fn sum_matches_closed_form_under_all_policies() {
        let n = 100_000u64;
        let want = (n as i64 - 1) * n as i64 / 2;
        for policy in [
            PolicyKind::SelfSched,
            PolicyKind::Chunked(64),
            PolicyKind::Guided,
            PolicyKind::Trapezoid,
            PolicyKind::Factoring,
        ] {
            let (got, stats) = parallel_sum(n, &opts(4, policy), |i| i as i64);
            assert_eq!(got, want, "{policy:?}");
            assert_eq!(stats.total_iterations(), n);
        }
    }

    #[test]
    fn reduce_with_min_operator() {
        let data: Vec<i64> = (0..5000)
            .map(|i| ((i * 2654435761u64) % 99991) as i64)
            .collect();
        let want = *data.iter().min().unwrap();
        let (got, _) = parallel_reduce(
            data.len() as u64,
            &opts(4, PolicyKind::Guided),
            i64::MAX,
            |i| data[i as usize],
            |a, b| a.min(b),
        );
        assert_eq!(got, want);
    }

    #[test]
    fn pi_by_partial_sums() {
        // The thesis's calculate_pi, on the runtime: integrate 4/(1+x^2)
        // over [0,1] with 1e6 intervals, fixed-point contributions.
        let n = 1_000_000u64;
        let (sum, _) = parallel_sum(n, &opts(4, PolicyKind::Guided), |c| {
            let x = (c as f64 + 0.5) / n as f64;
            (4.0 / (1.0 + x * x) * 1e9 / n as f64) as i64
        });
        let pi = sum as f64 / 1e9;
        assert!((pi - std::f64::consts::PI).abs() < 1e-3, "pi ≈ {pi}");
    }

    #[test]
    fn empty_reduction_returns_identity() {
        let (got, stats) = parallel_sum(0, &opts(4, PolicyKind::SelfSched), |_| panic!());
        assert_eq!(got, 0);
        assert_eq!(stats.total_iterations(), 0);
    }

    #[test]
    fn single_iteration_reduction() {
        let (got, _) = parallel_sum(1, &opts(8, PolicyKind::Guided), |_| 42);
        assert_eq!(got, 42);
    }

    #[test]
    fn coalesced_reduction_over_2d_space() {
        // Sum of i*j over a 100x50 grid via the linear index: recover the
        // pair inside map.
        let dims = [100u64, 50];
        let n: u64 = dims.iter().product();
        let (got, _) = parallel_sum(n, &opts(4, PolicyKind::Guided), |q| {
            let iv = lc_space::recover_divmod(q as i64 + 1, &dims);
            iv[0] * iv[1]
        });
        let si: i64 = (1..=100).sum();
        let sj: i64 = (1..=50).sum();
        assert_eq!(got, si * sj);
    }
}
