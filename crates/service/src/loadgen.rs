//! The load generator: replay a corpus against a running server at a
//! fixed concurrency and report throughput and latency quantiles.
//!
//! The core lives here (in-process, testable over a loopback server);
//! the `lc-loadgen` binary in `crates/bench` is a thin CLI over
//! [`run`] that writes `BENCH_service.json`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lc_driver::json::Json;
use lc_driver::sync::{into_inner_recovering, lock_recovering};

use crate::client;

/// Which endpoint the generator drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadTarget {
    /// `POST /compile` — the full pipeline (queued, cached).
    #[default]
    Compile,
    /// `POST /analyze` — lint-only, answered on the connection thread.
    Analyze,
}

impl LoadTarget {
    /// The request path this target hits.
    pub fn path(self) -> &'static str {
        match self {
            LoadTarget::Compile => "/compile",
            LoadTarget::Analyze => "/analyze",
        }
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client threads.
    pub concurrency: usize,
    /// How many times the whole corpus is replayed.
    pub rounds: usize,
    /// Per-request client timeout.
    pub timeout: Duration,
    /// Endpoint to drive.
    pub target: LoadTarget,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            concurrency: 8,
            rounds: 3,
            timeout: Duration::from_secs(30),
            target: LoadTarget::default(),
        }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Client threads used.
    pub concurrency: usize,
    /// Corpus replays.
    pub rounds: usize,
    /// Programs per replay.
    pub corpus_size: usize,
    /// Requests issued.
    pub requests: u64,
    /// 200 responses.
    pub ok_200: u64,
    /// 429 (load-shed) responses.
    pub shed_429: u64,
    /// Any other status or transport failure.
    pub other: u64,
    /// Responses served from the compile cache (`X-Cache: hit`).
    pub cache_hits_observed: u64,
    /// Wall time for the whole run, microseconds.
    pub elapsed_micros: u64,
    /// Completed requests per second, scaled by 1000 (the trace JSON
    /// format is integer-only by design).
    pub throughput_milli_rps: u64,
    /// Median request latency, microseconds.
    pub p50_micros: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_micros: u64,
    /// Worst latency, microseconds.
    pub max_micros: u64,
}

impl LoadgenReport {
    /// The `BENCH_service.json` payload.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("lc-service loadgen".to_string())),
            ("concurrency", Json::Int(self.concurrency as i64)),
            ("rounds", Json::Int(self.rounds as i64)),
            ("corpus_size", Json::Int(self.corpus_size as i64)),
            ("requests", Json::Int(self.requests as i64)),
            ("ok_200", Json::Int(self.ok_200 as i64)),
            ("shed_429", Json::Int(self.shed_429 as i64)),
            ("other", Json::Int(self.other as i64)),
            (
                "cache_hits_observed",
                Json::Int(self.cache_hits_observed as i64),
            ),
            ("elapsed_micros", Json::Int(self.elapsed_micros as i64)),
            (
                "throughput_milli_rps",
                Json::Int(self.throughput_milli_rps as i64),
            ),
            ("p50_micros", Json::Int(self.p50_micros as i64)),
            ("p95_micros", Json::Int(self.p95_micros as i64)),
            ("p99_micros", Json::Int(self.p99_micros as i64)),
            ("max_micros", Json::Int(self.max_micros as i64)),
        ])
    }
}

/// The bench-regression gate: fail when the measured p95 latency
/// exceeds the committed baseline's by more than `max_regress_pct`
/// percent. The budget is computed in 128-bit math so no baseline can
/// overflow it, and a zero baseline — an empty or failed baseline run —
/// gates nothing rather than everything.
///
/// Returns `Err` with a human-readable verdict for the CI log.
pub fn check_p95_regression(
    current_p95: u64,
    baseline_p95: u64,
    max_regress_pct: u64,
) -> Result<(), String> {
    if baseline_p95 == 0 {
        return Ok(());
    }
    let allowed = u128::from(baseline_p95) * u128::from(100 + max_regress_pct) / 100;
    if u128::from(current_p95) > allowed {
        return Err(format!(
            "p95 latency regressed: {current_p95} us vs baseline {baseline_p95} us \
             (budget {allowed} us = baseline + {max_regress_pct}%)"
        ));
    }
    Ok(())
}

/// Exact quantile over a sorted sample (nearest-rank). Returns 0 for an
/// empty sample.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * q).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

struct Tally {
    latencies: Vec<u64>,
    ok_200: u64,
    shed_429: u64,
    other: u64,
    cache_hits: u64,
}

/// Replay `corpus` against the server at `addr`, `config.rounds` times
/// over, from `config.concurrency` threads.
pub fn run(addr: SocketAddr, corpus: &[String], config: &LoadgenConfig) -> LoadgenReport {
    let total = corpus.len() * config.rounds.max(1);
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Tally {
        latencies: Vec::with_capacity(total),
        ok_200: 0,
        shed_429: 0,
        other: 0,
        cache_hits: 0,
    });

    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.concurrency.max(1) {
            scope.spawn(|| {
                let mut local = Tally {
                    latencies: Vec::new(),
                    ok_200: 0,
                    shed_429: 0,
                    other: 0,
                    cache_hits: 0,
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let source = &corpus[i % corpus.len()];
                    let t0 = Instant::now();
                    let outcome = client::post(
                        addr,
                        config.target.path(),
                        source.as_bytes(),
                        config.timeout,
                    );
                    local.latencies.push(t0.elapsed().as_micros() as u64);
                    match outcome {
                        Ok(resp) => {
                            match resp.status {
                                200 => local.ok_200 += 1,
                                429 => local.shed_429 += 1,
                                _ => local.other += 1,
                            }
                            if resp.header("x-cache") == Some("hit") {
                                local.cache_hits += 1;
                            }
                        }
                        Err(_) => local.other += 1,
                    }
                }
                let mut m = lock_recovering(&merged);
                m.latencies.extend_from_slice(&local.latencies);
                m.ok_200 += local.ok_200;
                m.shed_429 += local.shed_429;
                m.other += local.other;
                m.cache_hits += local.cache_hits;
            });
        }
    });
    let elapsed_micros = (started.elapsed().as_micros() as u64).max(1);

    // Poison recovery: a panicked client thread must not lose the whole
    // run's tallies.
    let mut tally = into_inner_recovering(merged);
    tally.latencies.sort_unstable();
    let requests = tally.latencies.len() as u64;
    LoadgenReport {
        concurrency: config.concurrency.max(1),
        rounds: config.rounds.max(1),
        corpus_size: corpus.len(),
        requests,
        ok_200: tally.ok_200,
        shed_429: tally.shed_429,
        other: tally.other,
        cache_hits_observed: tally.cache_hits,
        elapsed_micros,
        throughput_milli_rps: ((requests as u128 * 1_000_000_000) / elapsed_micros as u128) as u64,
        p50_micros: percentile(&tally.latencies, 50),
        p95_micros: percentile(&tally.latencies, 95),
        p99_micros: percentile(&tally.latencies, 99),
        max_micros: tally.latencies.last().copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50), 50);
        assert_eq!(percentile(&sample, 95), 95);
        assert_eq!(percentile(&sample, 99), 99);
        assert_eq!(percentile(&sample, 100), 100);
        assert_eq!(percentile(&[42], 50), 42);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn regression_gate_allows_the_budget_and_rejects_beyond_it() {
        // 25% over a 1000us baseline: 1250 is within budget, 1251 not.
        assert!(check_p95_regression(1250, 1000, 25).is_ok());
        assert!(check_p95_regression(1251, 1000, 25).is_err());
        // Improvements always pass.
        assert!(check_p95_regression(1, 1000, 25).is_ok());
        // A zero baseline (empty run) gates nothing.
        assert!(check_p95_regression(u64::MAX, 0, 25).is_ok());
        // Huge baselines must not overflow the budget computation: a
        // current p95 equal to a near-max baseline is not a regression.
        assert!(check_p95_regression(u64::MAX, u64::MAX, 25).is_ok());
    }

    #[test]
    fn report_json_has_the_contract_fields() {
        let report = LoadgenReport {
            concurrency: 4,
            rounds: 2,
            corpus_size: 72,
            requests: 144,
            ok_200: 140,
            shed_429: 4,
            other: 0,
            cache_hits_observed: 70,
            elapsed_micros: 1_000_000,
            throughput_milli_rps: 144_000,
            p50_micros: 800,
            p95_micros: 2_000,
            p99_micros: 3_000,
            max_micros: 5_000,
        };
        let v = report.to_json();
        for field in [
            "throughput_milli_rps",
            "p50_micros",
            "p95_micros",
            "p99_micros",
            "requests",
        ] {
            assert!(v.get(field).is_some(), "missing {field}");
        }
        // Round-trips through the driver's JSON printer/parser.
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
