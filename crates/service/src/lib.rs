//! `lc-service` — a compile server for the loop-coalescing pipeline.
//!
//! The workspace builds fully offline, so the serving layer is built
//! from the standard library up: a hand-rolled HTTP/1.1 subset
//! ([`http`]), a bounded job queue with explicit load shedding
//! ([`queue`]), a sharded content-addressed LRU compile cache
//! ([`cache`]), lock-free metrics with log-linear latency histograms
//! ([`metrics`]), and the server itself ([`server`]) — elastic
//! connection threads that accept for themselves, and a fixed pool of
//! compile workers sharing one [`lc_driver::Driver`].
//!
//! # Endpoints
//!
//! | Endpoint         | Meaning                                             |
//! |------------------|-----------------------------------------------------|
//! | `POST /compile`  | DSL source in, coalesced source + lints + pipeline trace out |
//! | `POST /batch`    | `{"sources": [...]}` in, per-item results + wall times out |
//! | `POST /analyze`  | DSL source in, `lc-lint` findings out (lint-only, no rewrite) |
//! | `GET /metrics`   | Prometheus-style counters, gauges, latency quantiles |
//! | `GET /healthz`   | liveness + drain state                              |
//! | `POST /shutdown` | begin graceful drain                                |
//!
//! # Semantics worth knowing
//!
//! * **Connection threads** — each connection is served start to finish
//!   by one thread, which then calls `accept` again instead of exiting;
//!   there is no acceptor thread. A thread whose `accept` returns while
//!   no other waits spawns one more before serving, so no connection
//!   waits behind another; at most `workers + queue_capacity` threads
//!   wait in `accept`. `/metrics` counts `lc_conn_threads_spawned_total`,
//!   `lc_conn_threads_reused_total` and the `lc_conn_threads_parked`
//!   gauge (threads waiting in `accept`).
//! * **Caching** — `/compile` responses are cached by FNV-1a over the
//!   driver-options fingerprint and the source text. Hits are answered
//!   on the connection thread (never touching queue or workers) and are
//!   byte-identical to the originally rendered body; `X-Cache: hit|miss`
//!   says which path a response took.
//! * **Backpressure** — the job queue is bounded; when it is full the
//!   server answers `429` immediately rather than queueing unboundedly.
//!   `/analyze` is exempt: linting is cheap enough to answer on the
//!   connection thread, so it keeps working under compile saturation,
//!   as do cache hits and `/healthz`. Each job's time from enqueue to a
//!   worker's pop is the `lc_queue_wait_*` histogram.
//! * **Deadlines** — every job carries a deadline (`X-Deadline-Ms` or
//!   the configured default). A job still queued past its deadline is
//!   answered `503` without being compiled.
//! * **Drain** — `POST /shutdown` (or [`server::Server::begin_shutdown`])
//!   closes the queue and wakes every thread waiting in `accept` to
//!   exit: queued jobs still complete, new work gets `503`, the
//!   listening socket closes with the last connection thread, and
//!   [`server::Server::join`] returns once in-flight requests are
//!   answered.
//!
//! # Quick example
//!
//! ```
//! use lc_service::server::{Server, ServiceConfig};
//! use lc_service::client;
//! use std::time::Duration;
//!
//! let server = Server::start(ServiceConfig::default(), "127.0.0.1:0").unwrap();
//! let addr = server.addr();
//! let resp = client::post(
//!     addr,
//!     "/compile",
//!     b"array A[4][5];
//!       doall i = 1..4 { doall j = 1..5 { A[i][j] = i + j; } }",
//!     Duration::from_secs(5),
//! )
//! .unwrap();
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.header("x-cache"), Some("miss"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod corpus;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod server;

pub use server::{Server, ServiceConfig};
