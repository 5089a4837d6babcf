//! `lc-fuzz` — differential fuzzing for the loop-coalescing pipeline.
//!
//! The coalescer's input space (nest shapes × pass pipelines × options)
//! is far larger than any hand-written corpus. This crate turns the
//! workspace's own interpreter into an execution oracle:
//!
//! * [`gen`] — a seeded, fully deterministic generator of well-formed
//!   DSL programs: rank 1..=6, constant and symbolic bounds, zero/one-
//!   trip and near-overflow trip counts, imperfect nests, reductions,
//!   bodies built through `ExprBuilder`.
//! * [`oracle`] — compiles each program under a random subset /
//!   permutation of the driver's pass order, interprets original and
//!   transformed on the same seeded store, and classifies divergences
//!   (value mismatch, spurious skip, panic, non-determinism,
//!   order-dependence).
//! * [`shrink`] — minimizes a failing program by deleting statements and
//!   loop levels and narrowing bounds while the same divergence class
//!   reproduces, emitting a self-contained regression snippet.
//! * [`service_fuzz`] — throws malformed HTTP/JSON at a loopback
//!   `lc-service` server and asserts typed 4xx answers: never a 5xx,
//!   never a hang, and the server still compiles afterwards.
//!
//! Every random choice comes from [`rng::Rng`], the workspace's one
//! splitmix64 stream, re-exported here from [`lc_ir::rng`].
//!
//! The `lc-fuzz` binary drives all of it (`--seed`, `--cases`,
//! `--max-rank`, `--out`, `--service`); its stdout is deterministic for
//! a given seed, which CI asserts by running twice and diffing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod oracle;
pub mod service_fuzz;
pub mod shrink;

pub use lc_ir::rng;
