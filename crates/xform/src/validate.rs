//! Interpreter-based validation of transformations.
//!
//! Transformed programs are checked against the original in two ways:
//!
//! * **equivalence** — run both on the same randomly seeded store and
//!   require bit-identical final stores;
//! * **order-independence** — the transformed program's store must not
//!   depend on `doall` iteration order (a correct coalesced `doall`
//!   cannot care about iteration order).
//!
//! Order-independence is settled in one run where it can be: the
//! forward run is shadowed ([`Interp::run_shadowed`]), and when its tags
//! show no cross-iteration conflict, every permutation of every `doall`
//! instance provably gives the same store, steps and errors (see
//! [`lc_ir::interp`] for the rule and its soundness argument). Only a
//! run with a conflict goes on to the reverse and shuffled runs, exactly
//! as a four-run check would, so the verdict and the error text are
//! those of running every order. [`shadow_counts`] tells the two paths
//! apart.
//!
//! These checks are the dynamic complement to the static legality analysis
//! and are used pervasively by the test suites of this workspace.

use std::sync::atomic::{AtomicU64, Ordering};

use lc_ir::interp::{DoallOrder, Interp, Lowered, Store};
use lc_ir::program::Program;
use lc_ir::rng::Rng;
use lc_ir::{Error, Result};

static SETTLED: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide counts of order-independence verdicts since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShadowCounts {
    /// Verdicts the shadowed forward run settled alone.
    pub settled: u64,
    /// Verdicts that needed the reverse and shuffled runs.
    pub fallbacks: u64,
}

/// How [`check_equivalent`] and [`check_order_independent`] reached
/// their order-independence verdicts so far in this process.
pub fn shadow_counts() -> ShadowCounts {
    ShadowCounts {
        settled: SETTLED.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
    }
}

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

/// Lower `prog`, then seed its store — unless its declared arrays hold
/// more elements than the interpreter's step budget. Seeding costs one
/// step per element, so such a program is declined with
/// [`Error::StepBudgetExceeded`] before anything is allocated.
fn lower_and_seed(prog: &Program, seed: u64) -> Result<(Lowered, Store)> {
    let code = Lowered::new(prog)?;
    let budget = Interp::new().step_budget;
    let elements = prog.arrays.iter().try_fold(0u64, |sum, a| {
        a.dims
            .iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))?
            .checked_add(sum)
    });
    if elements.is_none_or(|n| n > budget) {
        return Err(Error::StepBudgetExceeded { budget });
    }
    Ok((code, seeded_store(prog, seed)))
}

/// Check that `original` and `transformed` compute the same final store
/// from the same seeded input, and that `transformed` is insensitive to
/// `doall` iteration order. Errors carry a description of the divergence.
///
/// Each program is lowered once. The transformed one runs forward with
/// shadow tags; only if those show a conflict does it also run reverse
/// and shuffled. A program declaring more array elements than the step
/// budget is declined up front.
pub fn check_equivalent(original: &Program, transformed: &Program, seed: u64) -> Result<()> {
    let (code, base) = lower_and_seed(original, seed)?;
    let (want, _) = Interp::new().run_lowered(&code, base.clone())?;

    let code = Lowered::new(transformed)?;
    let diverges = |order: DoallOrder| {
        Error::unsupported(format!(
            "transformed program diverges from original under {order:?} (seed {seed})"
        ))
    };
    let (got, _, independent) = Interp::new().run_shadowed(&code, base.clone())?;
    if got != want {
        return Err(diverges(DoallOrder::Forward));
    }
    fallback_orders(&code, &base, &want, independent, seed ^ 0xABCD, diverges)
}

/// Check that a program's result does not depend on `doall` iteration
/// order (necessary for it to be a semantically valid parallel program).
/// The program is lowered once and run forward with shadow tags; the
/// other orders run only if those show a conflict.
pub fn check_order_independent(prog: &Program, seed: u64) -> Result<()> {
    let (code, base) = lower_and_seed(prog, seed)?;
    let (want, _, independent) = Interp::new().run_shadowed(&code, base.clone())?;
    fallback_orders(&code, &base, &want, independent, seed ^ 0x55AA, |order| {
        Error::unsupported(format!(
            "program is doall-order dependent (observed under {order:?}, seed {seed})"
        ))
    })
}

/// Settle order-independence after the shadowed forward run that left
/// `want`: done if it proved independence, else run reverse and
/// shuffled (`shuffle_seed`) and compare, reporting a mismatch through
/// `diverges`.
fn fallback_orders(
    code: &Lowered,
    base: &Store,
    want: &Store,
    independent: bool,
    shuffle_seed: u64,
    diverges: impl Fn(DoallOrder) -> Error,
) -> Result<()> {
    if independent {
        SETTLED.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    FALLBACKS.fetch_add(1, Ordering::Relaxed);
    for order in [DoallOrder::Reverse, DoallOrder::Shuffled(shuffle_seed)] {
        let (got, _) = Interp::new()
            .with_order(order)
            .run_lowered(code, base.clone())?;
        if &got != want {
            return Err(diverges(order));
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
