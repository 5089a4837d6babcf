//! `lc-xform` — the loop-coalescing transformation and its companions.
//!
//! This crate is the reproduction of the paper's core contribution: it
//! rewrites a perfect nest of `doall` loops into a single `doall` whose
//! body first *recovers* the original indices from the coalesced index and
//! then executes the original body.
//!
//! * [`recovery`] — the index-recovery math itself, independent of the IR:
//!   the paper's ceiling-division formula, the conventional div/mod
//!   mapping, and an incremental (odometer) scheme, plus generators that
//!   emit the corresponding IR expressions and their abstract op costs.
//! * [`normalize`] — rewrites `lo..hi step s` loops into the `1..=N` unit-
//!   step form the recovery formulas assume.
//! * [`coalesce`] — the transformation: full or partial collapse of a
//!   perfect nest, with legality checking (DOALL-ness via `lc-ir`'s
//!   dependence analysis plus a scalar-privatization check). One entry
//!   point handles compile-time and runtime trip counts, choosing the
//!   recovery form per level: constant strides stay literals, symbolic
//!   stride products become scalar computations ahead of the loop.
//! * [`interchange`] — the companion transformation the paper positions
//!   coalescing against: it moves a parallel loop outward so a serial
//!   outer level no longer blocks the band.
//! * [`perfect`] — the *enabling* transformation: perfection sinks
//!   pre/post statements under first/last-iteration guards so a
//!   near-perfect nest becomes coalescible (the `omp collapse` trick).
//! * [`strength`] — common-subexpression extraction over generated
//!   recovery code (the paper's observation that adjacent indices share
//!   their ceiling terms).
//! * [`validate`] — interpreter-based equivalence and order-independence
//!   checking used by the test-suite to prove transformations correct.
//!
//! # Example
//!
//! ```
//! use lc_ir::parser::parse_program;
//! use lc_ir::stmt::Stmt;
//! use lc_xform::coalesce::{coalesce_loop, CoalesceOptions};
//!
//! let prog = parse_program(
//!     "
//!     array A[6][4];
//!     doall i = 1..6 {
//!         doall j = 1..4 {
//!             A[i][j] = 10 * i + j;
//!         }
//!     }
//!     ",
//! )
//! .unwrap();
//! let lc_ir::Stmt::Loop(nest) = &prog.body[0] else { unreachable!() };
//! let out = coalesce_loop(nest, &CoalesceOptions::default()).unwrap();
//! assert_eq!(out.info.total_iterations, 24);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coalesce;
pub mod interchange;
pub mod normalize;
pub mod perfect;
pub mod recovery;
pub mod strength;
pub mod validate;

pub use coalesce::{coalesce_band, coalesce_loop, CoalesceInfo, CoalesceOptions, CoalesceResult};
pub use recovery::{Odometer, RecoveryScheme};
