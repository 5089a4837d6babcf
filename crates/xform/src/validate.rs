//! Interpreter-based validation of transformations.
//!
//! Transformed programs are checked against the original in two ways:
//!
//! * **equivalence** — run both on the same randomly seeded store and
//!   require bit-identical final stores;
//! * **order-independence** — run the transformed program with forward,
//!   reverse, and shuffled `doall` orders and require identical stores
//!   (a correct coalesced `doall` cannot care about iteration order).
//!
//! These checks are the dynamic complement to the static legality analysis
//! and are used pervasively by the test suites of this workspace.

use lc_ir::interp::{DoallOrder, Interp, Lowered, Store};
use lc_ir::program::Program;
use lc_ir::rng::Rng;
use lc_ir::{Error, Result};

/// Build a store for `prog` whose arrays are filled with deterministic
/// pseudo-random values derived from `seed` (a splitmix64 stream).
pub fn seeded_store(prog: &Program, seed: u64) -> Store {
    let mut store = Store::for_program(prog);
    let mut rng = Rng::new(seed);
    let names: Vec<String> = prog.arrays.iter().map(|a| a.name.to_string()).collect();
    for name in names {
        if let Some(data) = store.data_mut(&name) {
            for v in data {
                // Small values keep intermediate arithmetic overflow-free.
                *v = (rng.next_u64() % 2001) as i64 - 1000;
            }
        }
    }
    store
}

/// Check that `original` and `transformed` compute the same final store
/// from the same seeded input, and that `transformed` is insensitive to
/// `doall` iteration order. Errors carry a description of the divergence.
///
/// Each program is lowered once; the transformed one then runs under all
/// three orders from its single [`Lowered`] handle.
pub fn check_equivalent(original: &Program, transformed: &Program, seed: u64) -> Result<()> {
    let base = seeded_store(original, seed);
    let (want, _) = Interp::new().run_lowered(&Lowered::new(original)?, base.clone())?;

    let code = Lowered::new(transformed)?;
    for order in [
        DoallOrder::Forward,
        DoallOrder::Reverse,
        DoallOrder::Shuffled(seed ^ 0xABCD),
    ] {
        let (got, _) = Interp::new()
            .with_order(order)
            .run_lowered(&code, base.clone())?;
        if got != want {
            return Err(Error::unsupported(format!(
                "transformed program diverges from original under {order:?} (seed {seed})"
            )));
        }
    }
    Ok(())
}

/// Check that a program's result does not depend on `doall` iteration
/// order (necessary for it to be a semantically valid parallel program).
/// The program is lowered once and run under every order.
pub fn check_order_independent(prog: &Program, seed: u64) -> Result<()> {
    let base = seeded_store(prog, seed);
    let code = Lowered::new(prog)?;
    let (want, _) = Interp::new().run_lowered(&code, base.clone())?;
    for order in [DoallOrder::Reverse, DoallOrder::Shuffled(seed ^ 0x55AA)] {
        let (got, _) = Interp::new()
            .with_order(order)
            .run_lowered(&code, base.clone())?;
        if got != want {
            return Err(Error::unsupported(format!(
                "program is doall-order dependent (observed under {order:?}, seed {seed})"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::{coalesce_loop, CoalesceOptions};
    use lc_ir::parser::parse_program;
    use lc_ir::stmt::Stmt;

    #[test]
    fn seeded_store_is_deterministic_and_seed_sensitive() {
        let p = parse_program("array A[16]; A[1] = 0;").unwrap();
        let a = seeded_store(&p, 1);
        let b = seeded_store(&p, 1);
        let c = seeded_store(&p, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn equivalence_accepts_coalescing_of_stencil_reader() {
        // Reads neighbours of B, writes A: independent, coalescable, and
        // seed-sensitive (exercises the seeded inputs meaningfully).
        let src = "
            array A[8][8];
            array B[10][10];
            doall i = 1..8 {
                doall j = 1..8 {
                    A[i][j] = B[i][j] + B[i + 1][j] + B[i][j + 1] + B[i + 2][j + 2];
                }
            }
            ";
        let p = parse_program(src).unwrap();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        let out = coalesce_loop(l, &CoalesceOptions::default()).unwrap();
        let mut p2 = p.clone();
        p2.body[0] = Stmt::Loop(out.transformed);
        for seed in [1, 42, 999] {
            check_equivalent(&p, &p2, seed).unwrap();
        }
    }

    #[test]
    fn equivalence_rejects_wrong_transformation() {
        let p1 = parse_program(
            "
            array A[8];
            doall i = 1..8 {
                A[i] = A[i] + 1;
            }
            ",
        )
        .unwrap();
        let p2 = parse_program(
            "
            array A[8];
            doall i = 1..8 {
                A[i] = A[i] + 2;
            }
            ",
        )
        .unwrap();
        assert!(check_equivalent(&p1, &p2, 3).is_err());
    }

    #[test]
    fn order_independence_rejects_racy_doall() {
        let p = parse_program(
            "
            array A[8];
            doall i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
            ",
        )
        .unwrap();
        assert!(check_order_independent(&p, 5).is_err());
    }

    #[test]
    fn order_independence_accepts_clean_doall() {
        let p = parse_program(
            "
            array A[8];
            array B[8];
            doall i = 1..8 {
                A[i] = B[i] * 2;
            }
            ",
        )
        .unwrap();
        check_order_independent(&p, 5).unwrap();
    }
}
