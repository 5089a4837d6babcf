//! `lc-ir` — a miniature compiler IR for rectangular loop nests.
//!
//! This crate supplies the substrate on which the loop-coalescing
//! transformation (crate `lc-xform`) operates:
//!
//! * [`expr`] / [`stmt`] / [`program`] — the IR itself: integer expressions,
//!   array reads/writes, `serial` / `doall` / `doacross` loops.
//! * [`parser`] — a small text DSL so tests and examples can write nests as
//!   source code rather than constructing trees by hand.
//! * [`printer`] — pretty-printer producing round-trippable DSL text.
//! * [`interp`] — a reference interpreter over an array store, with an
//!   optional memory-access trace and configurable `doall` iteration order
//!   (used to validate that transformed programs are order-independent).
//! * [`rng`] — the deterministic splitmix64 stream behind seeded stores,
//!   store sampling, and the fuzzer's generator.
//! * [`analysis`] — perfect-nest extraction, trip-count/normalization
//!   checks, affine subscript extraction, GCD + Banerjee dependence
//!   testing with direction vectors, and scalar flow (together, DOALL
//!   legality).
//!
//! The IR is deliberately integer-only: the transformation and its legality
//! conditions are about index arithmetic and memory disambiguation, not
//! about element types, so `i64` elements keep the interpreter exact and
//! the tests deterministic.
//!
//! # Quick example
//!
//! ```
//! use lc_ir::parser::parse_program;
//! use lc_ir::interp::Interp;
//!
//! let src = "
//!     array A[4][8];
//!     doall i = 1..4 {
//!         doall j = 1..8 {
//!             A[i][j] = i * 10 + j;
//!         }
//!     }
//! ";
//! let prog = parse_program(src).unwrap();
//! let store = Interp::new().run(&prog).unwrap();
//! assert_eq!(store.get("A", &[2, 3]).unwrap(), 23);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod arith;
pub mod build;
pub mod error;
pub mod expr;
pub mod interp;
pub mod parser;
pub mod printer;
pub mod program;
pub mod rng;
pub mod stmt;
pub mod symbol;

pub use build::{ExprBuilder, RecoveryCost};
pub use error::{BoundPart, Error, Result, SkipReason};
pub use expr::{ArrayRef, BinOp, CmpOp, Cond, Expr, UnOp};
pub use program::{ArrayDecl, Program};
pub use stmt::{Loop, LoopKind, Stmt};
pub use symbol::Symbol;
