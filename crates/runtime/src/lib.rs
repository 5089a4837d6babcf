//! `lc-runtime` — a real multi-threaded executor for coalesced loops.
//!
//! The paper's dispatch mechanism is a hardware fetch&add on a shared
//! counter; its exact software analogue is [`AtomicU64::fetch_add`] on a
//! shared iteration counter, which is what this crate runs — on real
//! threads (`std::thread::scope`), on the host machine — so the
//! transformation can be demonstrated end-to-end rather than only under
//! the simulator:
//!
//! * [`grabber`] — lock-free chunk acquisition: plain `fetch_add` for
//!   SS/CSS, a CAS loop for GSS (chunk size depends on the remaining
//!   count), and a mutex-guarded [`lc_sched::Dispenser`] for the
//!   stateful policies (TSS, factoring).
//! * [`parallel`] — the worker loop: `parallel_for` over a linear range
//!   and the chunk-level primitive it is built on.
//! * [`nest`] — nest-level entry points mirroring the simulator's
//!   execution modes: [`nest::coalesced_for`] (odometer-based index
//!   recovery per chunk), [`nest::outer_for`] (parallel outer loop,
//!   serial inner), and [`nest::inner_sweep_for`] (a real fork-join per
//!   inner-loop instance, so the overhead coalescing removes is actually
//!   paid and measurable).
//! * [`team`] — a persistent worker team sweeping a series of inner-loop
//!   instances with barriers instead of thread forks (the era's actual
//!   execution model, separating thread-management cost from
//!   dispatch/barrier cost).
//! * [`reduce`] — partial-sum parallel reduction (the legal formulation
//!   of the reductions the coalescing checker rejects inside a doall).
//! * [`stats`] — per-worker counters (iterations, chunks, busy time) and
//!   run-level aggregates.
//!
//! [`AtomicU64::fetch_add`]: std::sync::atomic::AtomicU64::fetch_add

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grabber;
pub mod nest;
pub mod parallel;
pub mod reduce;
pub mod stats;
pub mod team;

pub use nest::{coalesced_for, inner_sweep_for, outer_for};
pub use parallel::{parallel_for, parallel_for_chunks, RuntimeOptions};
pub use reduce::{parallel_reduce, parallel_sum};
pub use stats::{RunStats, WorkerStats};
pub use team::team_sweep_for;
