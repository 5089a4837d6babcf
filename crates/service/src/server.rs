//! The compile server: acceptor, connection threads, and a fixed pool
//! of compile workers behind a bounded queue.
//!
//! ```text
//!                    ┌──────────────────┐  try_push   ┌──────────────┐   pop
//!  TCP ── accept ───▶│ connection       │────────────▶│ BoundedQueue │────────▶ workers
//!   hand off to a    │ threads (elastic;│◀────────────│  (backpress) │          (N fixed)
//!   parked thread,   │ park after each  │  reply chan └──────────────┘
//!   else spawn one   │ answer)          │
//!                    └──────────────────┘
//!                       │  ▲
//!                cache get  cache insert (workers)
//! ```
//!
//! * A connection thread serves one connection at a time and then parks
//!   ([`crate::conns`]); the acceptor hands each new connection to a
//!   parked thread, and spawns a thread only when none is parked. So no
//!   connection waits behind another, and the per-request cost of thread
//!   creation is paid only when the number of connections in flight
//!   grows. At most `workers + queue_capacity` threads stay parked.
//! * Cache hits are answered directly on the connection thread — they
//!   never consume a queue slot or a worker. So is `/analyze`. A hit is
//!   written from the cache's own envelope, not a copy.
//! * Each answer goes out in one vectored write. When the request was
//!   read exactly to its `Content-Length` and one non-blocking peek finds
//!   nothing more, the connection closes at once, so the server closes
//!   first. Otherwise (bytes pending, an early 400/408/413, or the peek
//!   failing) it drains what the client sends, bounded by the body cap
//!   and the read timeout, so leftover bytes cannot reset the answer.
//! * `/metrics` times each connection in four stages: `dispatch`
//!   (accept to a connection thread starting), `read`, `handle`
//!   (routing, cache, queue and compile) and `write`. A request's
//!   `X-Request-Id` is echoed when it is 1–128 visible ASCII bytes.
//! * A full queue is answered `429` immediately (load shedding), a
//!   closed queue `503` (draining).
//! * Every job carries a deadline; a worker that pops an expired job
//!   answers `503` without compiling it.
//! * `POST /shutdown` closes the queue, stops the acceptor (which sends
//!   every parked connection thread home), and lets in-flight work
//!   finish — [`Server::join`] returns once drained.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_driver::json::{Json, JsonWriter};
use lc_driver::{BatchItem, Driver, DriverOptions, DriverOutput};

use crate::cache::{fnv1a_parts, ShardedLru};
use crate::conns::ParkedThreads;
use crate::http::{read_request, ReadError, Request, Response};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compile worker threads (minimum 1).
    pub workers: usize,
    /// Pending-job slots before `429` load shedding kicks in.
    pub queue_capacity: usize,
    /// Total compile-cache entries.
    pub cache_capacity: usize,
    /// Cache shards (lock granularity).
    pub cache_shards: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Deadline applied when the client sends no `X-Deadline-Ms`.
    pub default_deadline: Duration,
    /// Socket read timeout (maps to `408`).
    pub read_timeout: Duration,
    /// Driver configuration; part of the cache key via
    /// [`DriverOptions::fingerprint`].
    pub driver: DriverOptions,
    /// Test hook: make every worker sleep this long per job, so tests
    /// can fill the queue and expire deadlines deterministically.
    pub synthetic_delay: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            cache_shards: 8,
            max_body_bytes: 1024 * 1024,
            default_deadline: Duration::from_secs(10),
            read_timeout: Duration::from_secs(10),
            driver: DriverOptions::default(),
            synthetic_delay: None,
        }
    }
}

enum JobKind {
    Compile { key: u64, source: String },
    Batch { sources: Vec<String> },
}

struct Job {
    kind: JobKind,
    reply: SyncSender<Response>,
    deadline: Instant,
    /// When the job was offered to the queue; a worker's `pop` records
    /// the difference as the job's queue wait.
    enqueued: Instant,
}

struct Shared {
    config: ServiceConfig,
    driver: Driver,
    fingerprint: String,
    cache: ShardedLru<Vec<u8>>,
    queue: BoundedQueue<Job>,
    /// Accepted connections, each with the instant it was accepted.
    conns: ParkedThreads<(TcpStream, Instant)>,
    metrics: Metrics,
    draining: AtomicBool,
    active_conns: AtomicUsize,
    addr: SocketAddr,
}

/// A running compile server bound to a local address.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `bind_addr` (e.g. `127.0.0.1:0`), spawn the worker pool and
    /// the acceptor, and return immediately.
    pub fn start(config: ServiceConfig, bind_addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let driver = Driver::new(config.driver.clone());
        let fingerprint = config.driver.fingerprint();
        let shared = Arc::new(Shared {
            cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
            queue: BoundedQueue::new(config.queue_capacity),
            // As many connections as can be blocked on compile work at
            // once without being shed: one per worker and queue slot.
            conns: ParkedThreads::new(config.workers.max(1) + config.queue_capacity.max(1)),
            metrics: Metrics::default(),
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            addr,
            driver,
            fingerprint,
            config,
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lc-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };

        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin draining as if `POST /shutdown` had arrived.
    pub fn begin_shutdown(&self) {
        begin_drain(&self.shared);
    }

    /// Wait until the server has fully drained: acceptor stopped, queue
    /// empty, workers exited, in-flight connections answered.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Connection threads detach; wait (bounded) for the last replies
        // to flush.
        let gone = Instant::now() + Duration::from_secs(10);
        while self.shared.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < gone {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Convenience: trigger drain and wait for it to finish.
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }
}

fn begin_drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return; // already draining
    }
    shared.queue.close();
    // Poke the blocking `accept` so the acceptor observes `draining`.
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.active_conns.fetch_add(1, Ordering::AcqRel);
        shared.conns.dispatch((stream, Instant::now()), |first| {
            spawn_conn_thread(shared, first)
        });
    }
    shared.conns.close();
}

/// Start a connection thread for `first`: it serves one connection at a
/// time and parks in between, until [`ParkedThreads::park`] says exit.
fn spawn_conn_thread(shared: &Arc<Shared>, first: (TcpStream, Instant)) {
    let own = Arc::clone(shared);
    let serve = move || {
        let mut next = Some(first);
        while let Some((stream, accepted)) = next {
            handle_connection(&stream, accepted, &own);
            // Close before parking: the client waits for EOF.
            drop(stream);
            own.active_conns.fetch_sub(1, Ordering::AcqRel);
            next = own.conns.park();
        }
    };
    let spawned = std::thread::Builder::new()
        .name("lc-conn".to_string())
        .spawn(serve);
    if spawned.is_err() {
        // The connection was dropped unanswered with the closure.
        shared.active_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection(mut stream: &TcpStream, accepted: Instant, shared: &Shared) {
    let metrics = &shared.metrics;
    metrics.stage_dispatch.record_since(accepted);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    let parsed = read_request(&mut reader, shared.config.max_body_bytes);
    let read = Instant::now();
    metrics
        .stage_read
        .record_micros(read.duration_since(started).as_micros() as u64);
    // Whether the request was read to the end of its body (an early
    // 400/408/413 may leave part of it unread).
    let consumed = parsed.is_ok();
    let response = match parsed {
        Ok(req) => {
            metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            let request_id = req
                .header("x-request-id")
                .filter(|id| echoable(id))
                .map(str::to_owned);
            let response = route(shared, req);
            match request_id {
                Some(id) => response.with_header("x-request-id", id),
                None => response,
            }
        }
        Err(ReadError::Closed) => return, // e.g. the drain poke
        Err(ReadError::Timeout) => Response::error(408, "timed out reading the request").into(),
        Err(ReadError::TooLarge { limit }) => {
            Response::error(413, format!("request exceeds {limit} bytes")).into()
        }
        Err(ReadError::Malformed(what)) => {
            Response::error(400, format!("bad request: {what}")).into()
        }
        Err(ReadError::Io(e)) => Response::error(500, format!("i/o error: {e}")).into(),
    };
    metrics.stage_handle.record_since(read);
    metrics.observe_status(response.status);
    metrics
        .latency
        .record_micros(started.elapsed().as_micros() as u64);
    let writing = Instant::now();
    let _ = response.write_to(&mut stream);
    metrics.stage_write.record_since(writing);
    if consumed && reader.buffer().is_empty() && nothing_pending(stream) {
        return;
    }
    // Drain whatever the client sent beyond the request (we may have
    // answered without reading the body, e.g. 413): closing with unread
    // bytes in the receive buffer would RST the response off the wire.
    // Bounded by the body cap and the socket read timeout.
    let _ = std::io::copy(
        &mut std::io::Read::take(&mut reader, shared.config.max_body_bytes as u64),
        &mut std::io::sink(),
    );
}

/// True when the client has sent nothing after its request: one
/// non-blocking peek finds no byte waiting, or finds that the client
/// already half-closed. Then the connection can close at once instead
/// of waiting for the client's FIN. The socket is left non-blocking,
/// which is harmless because it is about to close; when the peek finds
/// bytes or fails, it is made blocking again for the drain.
fn nothing_pending(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
        Ok(_) | Err(_) => {
            let _ = stream.set_nonblocking(false);
            false
        }
    }
}

/// Whether an `X-Request-Id` value may be echoed: 1–128 visible ASCII
/// bytes, so no CR, LF or other control byte can split the answer.
fn echoable(id: &str) -> bool {
    (1..=128).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_graphic())
}

/// An answer's body: rendered for this request, or a cached `/compile`
/// envelope shared with the cache rather than copied.
enum Body {
    Rendered(Vec<u8>),
    Cached(Arc<Vec<u8>>),
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        match self {
            Body::Rendered(bytes) => bytes,
            Body::Cached(bytes) => bytes,
        }
    }
}

impl From<Response> for Response<Body> {
    fn from(response: Response) -> Response<Body> {
        Response {
            status: response.status,
            headers: response.headers,
            body: Body::Rendered(response.body),
        }
    }
}

fn route(shared: &Shared, req: Request) -> Response<Body> {
    let response = match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj(vec![
                ("ok", Json::Bool(true)),
                (
                    "draining",
                    Json::Bool(shared.draining.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        ("GET", "/metrics") => Response::text(
            200,
            shared.metrics.render(
                shared.cache.counters(),
                shared.conns.counters(),
                shared.queue.len(),
                shared.config.workers.max(1),
            ),
        ),
        ("POST", "/compile") => return handle_compile(shared, req),
        ("POST", "/batch") => handle_batch(shared, req),
        ("POST", "/analyze") => handle_analyze(shared, req),
        ("POST", "/shutdown") => {
            begin_drain(shared);
            Response::json(
                200,
                &Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("draining", Json::Bool(true)),
                ]),
            )
        }
        (_, "/compile" | "/batch" | "/analyze" | "/shutdown") => Response::error(
            405,
            format!("{} requires POST, got {}", req.target, req.method),
        ),
        (_, "/metrics" | "/healthz") => Response::error(
            405,
            format!("{} requires GET, got {}", req.target, req.method),
        ),
        _ => Response::error(404, format!("no such endpoint: {}", req.target)),
    };
    response.into()
}

/// Deadline for a request: `X-Deadline-Ms` when present and sane,
/// otherwise the configured default.
fn request_deadline(shared: &Shared, req: &Request) -> Result<Duration, Response> {
    match req.header("x-deadline-ms") {
        None => Ok(shared.config.default_deadline),
        Some(v) => match v.parse::<u64>() {
            Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
            _ => Err(Response::error(
                400,
                "x-deadline-ms must be a positive integer of milliseconds",
            )),
        },
    }
}

/// Enqueue a job and wait for the worker's reply. Shared by `/compile`
/// and `/batch`.
fn run_job(shared: &Shared, kind: JobKind, deadline: Duration) -> Response {
    let (reply, result) = sync_channel(1);
    let enqueued = Instant::now();
    let job = Job {
        kind,
        reply,
        deadline: enqueued + deadline,
        enqueued,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            shared.metrics.jobs_enqueued.fetch_add(1, Ordering::Relaxed);
        }
        Err(PushError::Full) => {
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::error(429, "compile queue is full, retry later")
                .with_header("retry-after", "1");
        }
        Err(PushError::Closed) => {
            return Response::error(503, "server is draining, not accepting work");
        }
    }
    // Workers always reply (even for expired jobs); the grace period only
    // guards against a worker dying mid-job.
    match result.recv_timeout(deadline + Duration::from_secs(30)) {
        Ok(resp) => resp,
        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
            Response::error(503, "compile worker did not reply")
        }
    }
}

fn handle_compile(shared: &Shared, req: Request) -> Response<Body> {
    shared
        .metrics
        .compile_requests
        .fetch_add(1, Ordering::Relaxed);
    let deadline = match request_deadline(shared, &req) {
        Ok(d) => d,
        Err(resp) => return resp.into(),
    };
    let Ok(source) = String::from_utf8(req.body) else {
        return Response::error(400, "request body is not UTF-8").into();
    };
    if source.trim().is_empty() {
        return Response::error(422, "empty program").into();
    }
    let key = cache_key(&shared.fingerprint, &source);
    if let Some(body) = shared.cache.get(key) {
        // Byte-identical to the miss path: the cached value *is* the
        // body the worker rendered, written from the cache's own copy.
        return Response::json_body(200, Body::Cached(body)).with_header("x-cache", "hit");
    }
    run_job(shared, JobKind::Compile { key, source }, deadline).into()
}

fn handle_batch(shared: &Shared, req: Request) -> Response {
    shared
        .metrics
        .batch_requests
        .fetch_add(1, Ordering::Relaxed);
    let deadline = match request_deadline(shared, &req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, format!("bad JSON body: {e}")),
    };
    let Some(Json::Arr(sources)) = parsed.take("sources") else {
        return Response::error(422, "body must be {\"sources\": [\"...\", ...]}");
    };
    let mut list = Vec::with_capacity(sources.len());
    for s in sources {
        match s {
            Json::Str(text) => list.push(text),
            _ => return Response::error(422, "every source must be a string"),
        }
    }
    if list.is_empty() {
        return Response::error(422, "sources is empty");
    }
    run_job(shared, JobKind::Batch { sources: list }, deadline)
}

/// `POST /analyze`: run the static analyzer only. Linting is orders of
/// magnitude cheaper than a full compile (no rewrite, no interpreter
/// validation), so it is answered directly on the connection thread —
/// it never consumes a queue slot or a worker, and keeps working while
/// the compile queue is saturated or draining. The lint severities are
/// the configured driver's ([`DriverOptions::lints`]).
fn handle_analyze(shared: &Shared, req: Request) -> Response {
    shared
        .metrics
        .analyze_requests
        .fetch_add(1, Ordering::Relaxed);
    let Ok(source) = String::from_utf8(req.body) else {
        return Response::error(400, "request body is not UTF-8");
    };
    if source.trim().is_empty() {
        return Response::error(422, "empty program");
    }
    let set = &shared.config.driver.lints;
    match catch_unwind(AssertUnwindSafe(|| lc_lint::lint_source(&source, set))) {
        Ok(Ok(findings)) => {
            let denied = findings
                .iter()
                .filter(|f| f.severity == lc_lint::Severity::Deny)
                .count();
            shared
                .metrics
                .lint_findings
                .fetch_add(findings.len() as u64, Ordering::Relaxed);
            shared
                .metrics
                .lint_denied
                .fetch_add(denied as u64, Ordering::Relaxed);
            let mut w = JsonWriter::new();
            w.obj(|o| {
                o.key("ok").bool(true);
                o.key("findings").arr(&findings, JsonWriter::value);
                o.key("denied").int(denied as i64);
            });
            Response::json_body(200, w.into_bytes())
        }
        Ok(Err(e)) => Response::error(422, e.to_string()),
        Err(_) => Response::error(500, "analyze panicked"),
    }
}

/// FNV key over the driver fingerprint and the source text, with a
/// separator byte that cannot occur inside UTF-8 text so the two parts
/// cannot alias. Hashed part by part, without concatenating them.
fn cache_key(fingerprint: &str, source: &str) -> u64 {
    fnv1a_parts(&[fingerprint.as_bytes(), &[0xFF], source.as_bytes()])
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let popped = Instant::now();
        shared
            .metrics
            .queue_wait
            .record_micros(popped.duration_since(job.enqueued).as_micros() as u64);
        if popped > job.deadline {
            shared.metrics.jobs_expired.fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(Response::error(
                503,
                "deadline exceeded before a worker was free",
            ));
            continue;
        }
        if let Some(delay) = shared.config.synthetic_delay {
            std::thread::sleep(delay);
        }
        shared.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        let response = match job.kind {
            JobKind::Compile { key, source } => compile_job(shared, key, &source),
            JobKind::Batch { sources } => batch_job(shared, &sources),
        };
        shared.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
        shared
            .metrics
            .jobs_completed
            .fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(response);
    }
}

fn compile_job(shared: &Shared, key: u64, source: &str) -> Response {
    match catch_unwind(AssertUnwindSafe(|| shared.driver.compile(source))) {
        Ok(Ok(out)) => {
            let body = compile_envelope(&out);
            shared.cache.insert(key, body.clone());
            Response::json_body(200, body).with_header("x-cache", "miss")
        }
        Ok(Err(e)) => Response::error(422, e.to_string()),
        Err(_) => {
            shared.metrics.jobs_panicked.fetch_add(1, Ordering::Relaxed);
            Response::error(500, "compile panicked")
        }
    }
}

fn batch_job(shared: &Shared, sources: &[String]) -> Response {
    // `compile_batch` already converts per-item panics into per-item
    // errors and times each item.
    let items = shared.driver.compile_batch(sources);
    let ok_count = items.iter().filter(|i| i.result.is_ok()).count();
    let mut w = JsonWriter::new();
    w.obj(|o| {
        o.key("ok").bool(true);
        o.key("items").arr(&items, batch_item);
        o.key("succeeded").int(ok_count as i64);
        o.key("failed").int((items.len() - ok_count) as i64);
    });
    Response::json_body(200, w.into_bytes())
}

/// One `/batch` item: the transformed source and coalesced-nest count,
/// or the error, plus the item's compile time.
fn batch_item(w: &mut JsonWriter, item: &BatchItem) {
    w.obj(|o| {
        match &item.result {
            Ok(out) => {
                o.key("ok").bool(true);
                o.key("source").str(&out.transformed_source);
                o.key("coalesced_nests").int(out.coalesced.len() as i64);
            }
            Err(e) => {
                o.key("ok").bool(false);
                o.key("error").str(&e.to_string());
            }
        }
        o.key("nanos").int(item.nanos.min(i64::MAX as u64) as i64);
    });
}

/// The `/compile` success body: transformed source, coalesce/skip
/// summaries, lint findings, and the full pipeline trace, written
/// straight to bytes with each type's [`lc_driver::json::WriteJson`]
/// schema.
pub fn compile_envelope(out: &DriverOutput) -> Vec<u8> {
    let mut w = JsonWriter::new();
    w.obj(|o| {
        o.key("ok").bool(true);
        o.key("source").str(&out.transformed_source);
        o.key("coalesced_nests").int(out.coalesced.len() as i64);
        o.key("skipped").arr(&out.skipped, JsonWriter::value);
        o.key("lints").arr(&out.lints, JsonWriter::value);
        o.key("trace").value(&out.trace);
    });
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::metrics::scrape_counter;

    const TIMEOUT: Duration = Duration::from_secs(30);

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let give_up = Instant::now() + TIMEOUT;
        while !cond() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The streamed key equals FNV-1a over the concatenated bytes (the
    /// construction it replaced) on every corpus program.
    #[test]
    fn cache_keys_equal_the_concatenated_construction() {
        let fingerprint = DriverOptions::default().fingerprint();
        for source in crate::corpus::corpus72() {
            let mut bytes = fingerprint.as_bytes().to_vec();
            bytes.push(0xFF);
            bytes.extend_from_slice(source.as_bytes());
            assert_eq!(
                cache_key(&fingerprint, &source),
                crate::cache::fnv1a(&bytes)
            );
        }
    }

    #[test]
    fn only_visible_ascii_request_ids_are_echoed() {
        assert!(echoable("req-42"));
        assert!(echoable(&"a".repeat(128)));
        for bad in ["", "a\rb", "a\nb", "a b", "é", &"a".repeat(129)] {
            assert!(!echoable(bad), "{bad:?}");
        }
    }

    /// Sequential connections are all served by the one thread spawned
    /// for the first. The test waits for that thread to park before each
    /// next request: a client that reconnects at once can beat the
    /// previous thread to `park`, and then a second thread is spawned.
    /// Once drained, every thread has exited and dropped its `Shared`.
    #[test]
    fn sequential_requests_reuse_one_parked_thread_until_drain() {
        let server = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind loopback");
        let shared = Arc::clone(&server.shared);
        let addr = server.addr();
        let program = b"array A[4][5];\ndoall i = 1..4 { doall j = 1..5 { A[i][j] = i + j; } }";
        for k in 0..20 {
            let resp = if k % 2 == 0 {
                client::post(addr, "/compile", program, TIMEOUT)
            } else {
                client::get(addr, "/healthz", TIMEOUT)
            };
            assert_eq!(resp.expect("request").status, 200, "request {k}");
            wait_until("the thread to park", || shared.conns.counters().parked == 1);
        }
        let text = client::get(addr, "/metrics", TIMEOUT)
            .expect("GET /metrics")
            .body_text();
        assert_eq!(
            scrape_counter(&text, "lc_conn_threads_spawned_total"),
            Some(1)
        );
        assert_eq!(
            scrape_counter(&text, "lc_conn_threads_reused_total"),
            Some(20)
        );
        assert_eq!(scrape_counter(&text, "lc_conn_threads_parked"), Some(0));

        server.shutdown();
        wait_until("every thread to exit", || Arc::strong_count(&shared) == 1);
        assert_eq!(shared.conns.counters().parked, 0);
    }
}
