//! Static analyses over the IR: perfect-nest extraction, affine subscript
//! forms, dependence testing for DOALL legality, and scalar flow.
//!
//! The loop-coalescing transformation has three preconditions that these
//! analyses establish:
//!
//! 1. the candidate loops form a **perfect nest** with known (or
//!    normalizable) rectangular bounds ([`nest`]);
//! 2. no coalesced level carries an **array dependence** ([`depend`],
//!    built on the affine machinery of [`affine`]);
//! 3. no coalesced level carries a **scalar**: every scalar the body
//!    assigns is assigned before it is read in each iteration, so it can
//!    be privatized ([`scalars`]).
//!
//! Together, 2 and 3 make a level DOALL-legal. Both analyses, and
//! lc-lint's subscript check, read the IR through one walker ([`walk`]).

pub mod affine;
pub mod depend;
pub mod nest;
pub mod scalars;
pub mod walk;

pub use affine::Affine;
pub use depend::{analyze_nest, DepKind, Dependence, Dir, NestDeps};
pub use nest::{extract_nest, LoopHeader, Nest};
