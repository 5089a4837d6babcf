//! Service metrics: request/job counters, a busy-worker gauge,
//! log-linear latency histograms (request latency, queue wait, and the
//! four stages of a connection: dispatch, read, handle, write) with
//! percentile estimation, and the process-wide split of validation
//! verdicts between the shadowed forward run and the reverse/shuffled
//! fallback ([`lc_xform::validate::shadow_counts`]).
//!
//! Everything is lock-free atomics so the hot path never blocks, and
//! `render` produces a Prometheus-style text exposition for `/metrics`
//! that the integration tests (and any real scrape) parse line-by-line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::cache::CacheCounters;
use crate::conns::ConnCounters;

/// Log-linear histogram: 4 linear sub-buckets per power of two, covering
/// 1µs .. ~68s of latency. Good enough for p50/p95/p99 at ~19% error.
const SUBBUCKETS: usize = 4;
const OCTAVES: usize = 26;
const BUCKETS: usize = SUBBUCKETS * OCTAVES;

/// Concurrent latency histogram; see the module docs for the bucket
/// layout.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    fn bucket_index(micros: u64) -> usize {
        let v = micros.max(1);
        let octave = (63 - v.leading_zeros()) as usize;
        if octave >= OCTAVES {
            return BUCKETS - 1;
        }
        // Position within the octave, split into SUBBUCKETS linear steps.
        let base = 1u64 << octave;
        let sub = ((v - base) * SUBBUCKETS as u64 / base) as usize;
        (octave * SUBBUCKETS + sub).min(BUCKETS - 1)
    }

    /// Representative (upper-edge) value of a bucket, in microseconds.
    fn bucket_upper(index: usize) -> u64 {
        let octave = index / SUBBUCKETS;
        let sub = (index % SUBBUCKETS) as u64 + 1;
        let base = 1u64 << octave;
        base + base * sub / SUBBUCKETS as u64
    }

    /// Record one observation.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Record the time elapsed since `start`.
    pub fn record_since(&self, start: Instant) {
        self.record_micros(start.elapsed().as_micros() as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Estimate the latency at quantile `q` (0..=100), in microseconds.
    /// Returns 0 when empty.
    pub fn quantile_micros(&self, q: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, ceiling.
        let rank = (total * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(BUCKETS - 1)
    }
}

/// All service counters. One instance lives in the shared server state.
#[derive(Default)]
pub struct Metrics {
    /// HTTP requests successfully parsed off the wire.
    pub requests_total: AtomicU64,
    /// Responses with a 2xx status.
    pub responses_2xx: AtomicU64,
    /// Responses with a 4xx status.
    pub responses_4xx: AtomicU64,
    /// Responses with any other status (5xx in practice).
    pub responses_5xx: AtomicU64,
    /// `POST /compile` requests.
    pub compile_requests: AtomicU64,
    /// `POST /batch` requests.
    pub batch_requests: AtomicU64,
    /// `POST /analyze` requests.
    pub analyze_requests: AtomicU64,
    /// Lint findings reported by `/analyze` (all severities).
    pub lint_findings: AtomicU64,
    /// `deny`-severity findings reported by `/analyze`.
    pub lint_denied: AtomicU64,
    /// Jobs accepted into the queue.
    pub jobs_enqueued: AtomicU64,
    /// Jobs shed with 429 because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Jobs whose deadline passed while still queued.
    pub jobs_expired: AtomicU64,
    /// Jobs a worker finished (successfully or not).
    pub jobs_completed: AtomicU64,
    /// Jobs whose compile panicked.
    pub jobs_panicked: AtomicU64,
    /// Workers currently compiling (gauge).
    pub workers_busy: AtomicU64,
    /// End-to-end request latency.
    pub latency: LatencyHistogram,
    /// Per job, the time from `try_push` to a worker's `pop`.
    pub queue_wait: LatencyHistogram,
    /// Per connection, the time from `accept` to a connection thread
    /// starting on it.
    pub stage_dispatch: LatencyHistogram,
    /// Per connection, the time to read and parse the request.
    pub stage_read: LatencyHistogram,
    /// Per answer, the time to route the request and build the answer
    /// (cache, queue wait and compile included).
    pub stage_handle: LatencyHistogram,
    /// Per answer, the time to write it to the socket.
    pub stage_write: LatencyHistogram,
}

fn add(out: &mut String, name: &str, help: &str, kind: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// A histogram as `{prefix}_count`, `{prefix}_sum_micros` and
/// `{prefix}_p50|p95|p99_micros`, with the help texts of the count, the
/// sum and the quantiles.
fn add_histogram(out: &mut String, prefix: &str, help: [&str; 3], h: &LatencyHistogram) {
    let [count_help, sum_help, quantile_help] = help;
    add(
        out,
        &format!("{prefix}_count"),
        count_help,
        "counter",
        h.count(),
    );
    add(
        out,
        &format!("{prefix}_sum_micros"),
        sum_help,
        "counter",
        h.sum_micros(),
    );
    for (q, name) in [(50, "p50"), (95, "p95"), (99, "p99")] {
        add(
            out,
            &format!("{prefix}_{name}_micros"),
            quantile_help,
            "gauge",
            h.quantile_micros(q),
        );
    }
}

impl Metrics {
    /// Bump the status-class counter for a response.
    pub fn observe_status(&self, status: u16) {
        match status {
            200..=299 => self.responses_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.responses_4xx.fetch_add(1, Ordering::Relaxed),
            _ => self.responses_5xx.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Prometheus text exposition, including the cache and
    /// connection-thread counters.
    pub fn render(
        &self,
        cache: CacheCounters,
        conns: ConnCounters,
        queue_depth: usize,
        workers: usize,
    ) -> String {
        let mut out = String::new();
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        add(
            &mut out,
            "lc_requests_total",
            "HTTP requests accepted",
            "counter",
            g(&self.requests_total),
        );
        add(
            &mut out,
            "lc_responses_2xx_total",
            "Responses with 2xx status",
            "counter",
            g(&self.responses_2xx),
        );
        add(
            &mut out,
            "lc_responses_4xx_total",
            "Responses with 4xx status",
            "counter",
            g(&self.responses_4xx),
        );
        add(
            &mut out,
            "lc_responses_5xx_total",
            "Responses with 5xx status",
            "counter",
            g(&self.responses_5xx),
        );
        add(
            &mut out,
            "lc_compile_requests_total",
            "POST /compile requests",
            "counter",
            g(&self.compile_requests),
        );
        add(
            &mut out,
            "lc_batch_requests_total",
            "POST /batch requests",
            "counter",
            g(&self.batch_requests),
        );
        add(
            &mut out,
            "lc_analyze_requests_total",
            "POST /analyze requests",
            "counter",
            g(&self.analyze_requests),
        );
        add(
            &mut out,
            "lc_lint_findings_total",
            "Lint findings reported by /analyze",
            "counter",
            g(&self.lint_findings),
        );
        add(
            &mut out,
            "lc_lint_denied_total",
            "Deny-severity lint findings reported by /analyze",
            "counter",
            g(&self.lint_denied),
        );
        add(
            &mut out,
            "lc_jobs_enqueued_total",
            "Jobs accepted into the compile queue",
            "counter",
            g(&self.jobs_enqueued),
        );
        add(
            &mut out,
            "lc_jobs_rejected_total",
            "Jobs shed with 429 because the queue was full",
            "counter",
            g(&self.jobs_rejected),
        );
        add(
            &mut out,
            "lc_jobs_expired_total",
            "Jobs that missed their deadline",
            "counter",
            g(&self.jobs_expired),
        );
        add(
            &mut out,
            "lc_jobs_completed_total",
            "Jobs fully compiled by a worker",
            "counter",
            g(&self.jobs_completed),
        );
        add(
            &mut out,
            "lc_jobs_panicked_total",
            "Jobs whose compile panicked (answered 500)",
            "counter",
            g(&self.jobs_panicked),
        );
        add(
            &mut out,
            "lc_cache_hits_total",
            "Compile cache hits",
            "counter",
            cache.hits,
        );
        add(
            &mut out,
            "lc_cache_misses_total",
            "Compile cache misses",
            "counter",
            cache.misses,
        );
        add(
            &mut out,
            "lc_cache_insertions_total",
            "Compile cache insertions",
            "counter",
            cache.insertions,
        );
        add(
            &mut out,
            "lc_cache_evictions_total",
            "Compile cache evictions",
            "counter",
            cache.evictions,
        );
        add(
            &mut out,
            "lc_cache_entries",
            "Compile cache resident entries",
            "gauge",
            cache.entries,
        );
        add(
            &mut out,
            "lc_queue_depth",
            "Jobs waiting in the compile queue",
            "gauge",
            queue_depth as u64,
        );
        add(
            &mut out,
            "lc_workers_busy",
            "Workers currently compiling",
            "gauge",
            g(&self.workers_busy),
        );
        add(
            &mut out,
            "lc_workers_total",
            "Size of the compile worker pool",
            "gauge",
            workers as u64,
        );
        add(
            &mut out,
            "lc_conn_threads_spawned_total",
            "Connection threads spawned because none was parked",
            "counter",
            conns.spawned,
        );
        add(
            &mut out,
            "lc_conn_threads_reused_total",
            "Connections handed to a parked connection thread",
            "counter",
            conns.reused,
        );
        add(
            &mut out,
            "lc_conn_threads_parked",
            "Connection threads parked waiting for a connection",
            "gauge",
            conns.parked,
        );
        let shadow = lc_xform::validate::shadow_counts();
        add(
            &mut out,
            "lc_validate_shadow_settled_total",
            "Order-independence verdicts settled by the shadowed forward run alone (process-wide)",
            "counter",
            shadow.settled,
        );
        add(
            &mut out,
            "lc_validate_fallback_total",
            "Order-independence verdicts that needed the reverse and shuffled runs (process-wide)",
            "counter",
            shadow.fallbacks,
        );
        add_histogram(
            &mut out,
            "lc_request_latency",
            [
                "Requests measured by the latency histogram",
                "Total measured latency in microseconds",
                "Latency quantile estimate in microseconds",
            ],
            &self.latency,
        );
        add_histogram(
            &mut out,
            "lc_queue_wait",
            [
                "Jobs measured by the queue-wait histogram (try_push to pop)",
                "Total measured queue wait in microseconds",
                "Queue-wait quantile estimate in microseconds",
            ],
            &self.queue_wait,
        );
        for (stage, what, h) in [
            (
                "dispatch",
                "accept to a connection thread starting",
                &self.stage_dispatch,
            ),
            ("read", "reading the request", &self.stage_read),
            (
                "handle",
                "routing, cache, queue and compile",
                &self.stage_handle,
            ),
            ("write", "writing the answer", &self.stage_write),
        ] {
            add_histogram(
                &mut out,
                &format!("lc_stage_{stage}"),
                [
                    &format!("Connection-path stage observations: {what}"),
                    &format!("Total time in microseconds: {what}"),
                    &format!("Quantile estimate in microseconds: {what}"),
                ],
                h,
            );
        }
        out
    }
}

/// Pull `name <integer>` out of a Prometheus text exposition. Used by the
/// integration tests and the load generator; exact-match on the metric
/// name (labels are not used by this service).
pub fn scrape_counter(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record_micros(micros);
        }
        let p50 = h.quantile_micros(50);
        let p99 = h.quantile_micros(99);
        // Log-linear buckets give ~19% resolution; generous brackets.
        assert!((300..=800).contains(&p50), "p50 was {p50}");
        assert!((800..=1600).contains(&p99), "p99 was {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_micros(50), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn extreme_latencies_clamp_to_the_last_bucket() {
        let h = LatencyHistogram::new();
        h.record_micros(u64::MAX);
        h.record_micros(0);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_micros(99) > 0);
    }

    #[test]
    fn render_and_scrape_round_trip() {
        let m = Metrics::default();
        m.requests_total.fetch_add(7, Ordering::Relaxed);
        m.observe_status(200);
        m.observe_status(429);
        m.observe_status(503);
        let cache = CacheCounters {
            hits: 3,
            misses: 4,
            insertions: 4,
            evictions: 1,
            entries: 3,
        };
        let conns = ConnCounters {
            spawned: 2,
            reused: 18,
            parked: 1,
        };
        m.queue_wait.record_micros(400_000);
        m.stage_dispatch.record_micros(30);
        m.stage_write.record_micros(12);
        m.stage_write.record_micros(14);
        let text = m.render(cache, conns, 5, 2);
        assert_eq!(scrape_counter(&text, "lc_stage_dispatch_count"), Some(1));
        assert_eq!(scrape_counter(&text, "lc_stage_read_count"), Some(0));
        assert_eq!(scrape_counter(&text, "lc_stage_handle_p95_micros"), Some(0));
        assert_eq!(scrape_counter(&text, "lc_stage_write_count"), Some(2));
        assert_eq!(scrape_counter(&text, "lc_stage_write_sum_micros"), Some(26));
        // The stage histograms come last, after every older metric.
        let first_stage = text.find("# HELP lc_stage_").unwrap();
        assert!(text[first_stage..]
            .lines()
            .all(|line| line.contains("lc_stage_")));
        assert_eq!(scrape_counter(&text, "lc_requests_total"), Some(7));
        assert_eq!(scrape_counter(&text, "lc_responses_2xx_total"), Some(1));
        assert_eq!(scrape_counter(&text, "lc_responses_4xx_total"), Some(1));
        assert_eq!(scrape_counter(&text, "lc_responses_5xx_total"), Some(1));
        assert_eq!(scrape_counter(&text, "lc_cache_hits_total"), Some(3));
        assert_eq!(scrape_counter(&text, "lc_queue_depth"), Some(5));
        assert_eq!(scrape_counter(&text, "lc_workers_total"), Some(2));
        assert_eq!(
            scrape_counter(&text, "lc_conn_threads_spawned_total"),
            Some(2)
        );
        assert_eq!(
            scrape_counter(&text, "lc_conn_threads_reused_total"),
            Some(18)
        );
        assert_eq!(scrape_counter(&text, "lc_conn_threads_parked"), Some(1));
        assert_eq!(scrape_counter(&text, "lc_queue_wait_count"), Some(1));
        assert!(scrape_counter(&text, "lc_queue_wait_p99_micros").unwrap() >= 400_000);
        // Every metric line should be parseable Prometheus text.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "bad line: {line}"
            );
        }
    }
}
