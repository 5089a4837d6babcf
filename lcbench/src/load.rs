//! The closed loop: each client thread sends its next request only after
//! the previous answer arrived, the way a build tool waits on a compile.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use lc_driver::json::Json;
use lc_service::cache::fnv1a;
use lc_service::client;

use crate::gen::{Op, Stream};
use crate::server::REQUEST_TIMEOUT;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request in its stream (or list).
    pub op: usize,
    /// Round trip, connect to last byte.
    pub latency: Duration,
    /// When the answer arrived, from the start of the load.
    pub done: Duration,
    /// HTTP status, or `None` when the exchange itself failed.
    pub status: Option<u16>,
    /// Whether the server answered `x-cache: hit`.
    pub cache_hit: bool,
    /// FNV-1a of the answer body; bodies are kept once per distinct
    /// content in [`LoadResult::bodies`].
    pub body: u64,
}

/// A request's sample and its answer body.
pub type Answer = (Sample, Vec<u8>);

/// Everything one load phase observed.
pub struct LoadResult {
    /// Every request, in completion order per client.
    pub samples: Vec<Sample>,
    /// Distinct answer bodies by hash.
    pub bodies: HashMap<u64, Vec<u8>>,
    /// The active (unpaused) part of each slice.
    pub windows: Vec<Window>,
    /// Host calibration (ms) before the first slice and after each one.
    pub calib_ms: Vec<f64>,
    /// `GET /healthz` round trips measured alongside the load.
    pub healthz: Vec<Duration>,
}

/// One slice of the load: when requests were being sent, relative to the
/// start, and the server CPU time spent meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Slice opened.
    pub from: Duration,
    /// Last answer of the slice arrived.
    pub to: Duration,
    /// Server user + system CPU seconds within the slice.
    pub cpu_s: f64,
}

/// The request for `op`: method-less target plus body.
fn request_of(op: &Op) -> (&'static str, Vec<u8>) {
    match op {
        Op::Batch(sources) => {
            let body = Json::obj(vec![(
                "sources",
                Json::Arr(sources.iter().map(|s| Json::Str(s.to_string())).collect()),
            )]);
            ("/batch", body.to_string().into_bytes())
        }
        Op::Compile { source, .. } => ("/compile", source.as_bytes().to_vec()),
        Op::Analyze(source) => ("/analyze", source.as_bytes().to_vec()),
    }
}

/// Send one request and time it.
pub fn send(addr: SocketAddr, index: usize, op: &Op, epoch: Instant) -> Answer {
    let (target, body) = request_of(op);
    let start = Instant::now();
    let answer = client::post(addr, target, &body, REQUEST_TIMEOUT);
    let latency = start.elapsed();
    let done = epoch.elapsed();
    match answer {
        Ok(resp) => (
            Sample {
                op: index,
                latency,
                done,
                status: Some(resp.status),
                cache_hit: resp.header("x-cache") == Some("hit"),
                body: fnv1a(&resp.body),
            },
            resp.body,
        ),
        Err(e) => (
            Sample {
                op: index,
                latency,
                done,
                status: None,
                cache_hit: false,
                body: 0,
            },
            e.to_string().into_bytes(),
        ),
    }
}

/// Drive the stream's requests (in stream order, shared by every client)
/// at the server from `clients` closed-loop threads for `slices` slices
/// of `slice_len` each. Between slices the clients finish their
/// requests in flight and hold while [`crate::calib::measure`] times the
/// host, so the calibration sees an idle server. With `probe`, a further
/// thread times `GET /healthz` every 10 ms throughout.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &Mutex<Stream>,
    clients: usize,
    (slices, slice_len): (usize, Duration),
    probe: bool,
    pid: u32,
) -> LoadResult {
    let clients = clients.max(1);
    let next = AtomicUsize::new(0);
    // The coordinator raises `phase` to k to end slice k − 1.
    let phase = AtomicUsize::new(0);
    let drained = Barrier::new(clients + 1);
    let resume = Barrier::new(clients + 1);
    let done = AtomicBool::new(false);
    let cpu = || crate::stats::cpu_seconds(pid).unwrap_or(f64::NAN);
    let mut windows = Vec::with_capacity(slices);
    let mut calib_ms = vec![crate::calib::measure()];
    let start = Instant::now();
    let (per_client, healthz) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut samples = Vec::new();
                    let mut bodies = HashMap::new();
                    let mut slice = 0;
                    loop {
                        if phase.load(Ordering::SeqCst) > slice {
                            drained.wait();
                            slice += 1;
                            if slice == slices {
                                break;
                            }
                            resume.wait();
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let op = stream.lock().expect("stream lock poisoned").get(i);
                        let (sample, body) = send(addr, i, &op, start);
                        bodies.entry(sample.body).or_insert(body);
                        samples.push(sample);
                    }
                    (samples, bodies)
                })
            })
            .collect();
        let prober = probe.then(|| {
            s.spawn(|| {
                let mut rtts = Vec::new();
                while !done.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    if let Ok(r) = client::get(addr, "/healthz", REQUEST_TIMEOUT) {
                        if r.status == 200 {
                            rtts.push(t.elapsed());
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                rtts
            })
        });
        let mut opened = (Instant::now(), cpu());
        for k in 1..=slices {
            std::thread::sleep(slice_len.saturating_sub(opened.0.elapsed()));
            phase.store(k, Ordering::SeqCst);
            drained.wait();
            windows.push(Window {
                from: opened.0 - start,
                to: start.elapsed(),
                cpu_s: cpu() - opened.1,
            });
            calib_ms.push(crate::calib::measure());
            if k < slices {
                opened = (Instant::now(), cpu());
                resume.wait();
            }
        }
        let per_client: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        let healthz = prober
            .map(|p| p.join().expect("probe thread panicked"))
            .unwrap_or_default();
        (per_client, healthz)
    });
    let mut samples = Vec::new();
    let mut bodies = HashMap::new();
    for (s, b) in per_client {
        samples.extend(s);
        bodies.extend(b);
    }
    LoadResult {
        samples,
        bodies,
        windows,
        calib_ms,
        healthz,
    }
}

/// Send every request in `ops` from `clients` threads, in order of a
/// shared cursor, and return each with its answer body.
pub fn send_all(addr: SocketAddr, ops: &[Op], clients: usize) -> Vec<Answer> {
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else { break };
                        out.push(send(addr, i, op, epoch));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    })
}
