//! Index recovery: mapping the coalesced index back to the original nest
//! indices.
//!
//! For a normalized nest with trip counts `N_1 … N_m` the coalesced loop
//! runs `j = 1 ..= N` with `N = N_1·…·N_m`, and each original index must be
//! *recovered* from `j`. Three schemes are implemented:
//!
//! * **Ceiling** — the paper's formula, using only ceiling divisions
//!   (the target machines of 1987 had no cheap modulus, and the formula
//!   composes with the `⌈·⌉` expressions already produced by processor
//!   self-scheduling):
//!
//!   `i_k = ⌈j / P_{k+1}⌉ − N_k · ( ⌈j / P_k⌉ − 1 )`,
//!
//!   where `P_k = N_k · N_{k+1} · … · N_m` (so `P_{m+1} = 1`).
//!
//! * **DivMod** — the conventional mapping on the 0-based offset
//!   `q = j − 1`: `i_k = ((q / stride_k) mod N_k) + 1` with
//!   `stride_k = N_{k+1}·…·N_m`.
//!
//! * **Incremental** — an *odometer*: when a processor executes a chunk of
//!   consecutive iterations it advances the index vector with a carry
//!   chain, paying amortized O(1) additions per iteration. (Only valid
//!   within a chunk; the first iteration of a chunk still needs one of
//!   the direct schemes.)
//!
//! The pure math lives in [`lc_space`] (shared with the simulator and the
//! runtime) and is re-exported here; this module adds the *IR side*:
//! emitting the recovery statements a transformed loop body executes, and
//! costing them in abstract instructions.

use lc_ir::build::RecoveryCost;
use lc_ir::expr::Expr;
use lc_ir::stmt::Stmt;
use lc_ir::symbol::Symbol;
use lc_ir::{Error, Result};

pub use lc_space::{linearize, recover_ceiling, recover_divmod, strides, Odometer, OdometerStats};

/// Total iteration count `N = Π dims[k]`, failing on `i64` overflow.
pub fn total_iterations(dims: &[u64]) -> Result<u64> {
    lc_space::total_iterations(dims).ok_or(Error::Overflow)
}

/// Which index-recovery code the transformation emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryScheme {
    /// The paper's ceiling-division formula (default).
    #[default]
    Ceiling,
    /// Conventional floor-division + modulus on the 0-based offset.
    DivMod,
}

impl RecoveryScheme {
    /// Human-readable name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryScheme::Ceiling => "ceiling",
            RecoveryScheme::DivMod => "divmod",
        }
    }
}

/// Emit the recovery assignments `i_k = f_k(j)` as IR statements, one per
/// nest level, for the chosen scheme.
///
/// `j_var` is the coalesced loop's index variable, `vars[k]` the original
/// index variable of level `k`, and `dims[k]` its trip count. Expressions
/// are constant-folded, which erases divisions by stride 1 and — for the
/// outermost level, where `⌈j / P_1⌉` is identically 1 — the whole
/// correction term. This is [`recovery_from_strides`] with literal
/// strides and trips.
pub fn recovery_stmts(
    scheme: RecoveryScheme,
    j_var: &Symbol,
    vars: &[Symbol],
    dims: &[u64],
) -> Vec<Stmt> {
    let lit = |v: u64| Expr::lit(v as i64);
    let st: Vec<Expr> = strides(dims).into_iter().map(lit).collect();
    let trips: Vec<Expr> = dims.iter().map(|&d| lit(d)).collect();
    recovery_from_strides(scheme, j_var, vars, &st, &trips)
}

/// The recovery assignments for levels whose trip counts `trips[k]` and
/// strides `strides[k]` (`P_{k+1}`, the product of the inner trips) are
/// expressions: literals, or scalars a preamble computes at run time.
/// Each value is constant-folded. The one place the Ceiling and DivMod
/// formulas are written.
pub fn recovery_from_strides(
    scheme: RecoveryScheme,
    j_var: &Symbol,
    vars: &[Symbol],
    strides: &[Expr],
    trips: &[Expr],
) -> Vec<Stmt> {
    let j = Expr::Var(j_var.clone());
    let mut out = Vec::with_capacity(vars.len());
    for (k, ((var, stride), trip)) in vars.iter().zip(strides).zip(trips).enumerate() {
        let expr = match scheme {
            RecoveryScheme::Ceiling => {
                let first_term = j.clone().ceil_div(stride.clone());
                if k == 0 {
                    // ⌈j / P_1⌉ = 1 for every j in range: the correction
                    // term vanishes at the outermost level.
                    first_term
                } else {
                    let outer = (stride.clone() * trip.clone()).fold();
                    first_term - trip.clone() * (j.clone().ceil_div(outer) - Expr::lit(1))
                }
            }
            RecoveryScheme::DivMod => {
                let q = j.clone() - Expr::lit(1);
                let shifted = q.floor_div(stride.clone());
                if k == 0 {
                    // q / stride_0 is already < N_0: no modulus needed.
                    shifted + Expr::lit(1)
                } else {
                    shifted.floor_mod(trip.clone()) + Expr::lit(1)
                }
            }
        };
        out.push(Stmt::AssignScalar {
            var: var.clone(),
            value: expr.fold(),
        });
    }
    out
}

/// Typed per-iteration cost of the recovery statements a scheme emits
/// for the given trip counts. The weighted scalar view
/// ([`RecoveryCost::units`]) is on the [`lc_ir::expr::BinOp::op_cost`]
/// scale (one extra unit per store); the typed breakdown lets the
/// scheduler and the analytic tables reason about the division count
/// directly, from the same source the rewrite uses.
pub fn per_iteration_cost(scheme: RecoveryScheme, dims: &[u64]) -> RecoveryCost {
    let j = Symbol::new("j");
    let vars: Vec<Symbol> = (0..dims.len())
        .map(|k| Symbol::new(format!("i{k}")))
        .collect();
    RecoveryCost::of_stmts(&recovery_stmts(scheme, &j, &vars, dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::arith::ceil_div_unchecked;
    use proptest::prelude::*;

    #[test]
    fn linearize_and_recover_are_inverse_small() {
        let dims = [2u64, 3, 4];
        let n = total_iterations(&dims).unwrap() as i64;
        for j in 1..=n {
            let ix_c = recover_ceiling(j, &dims);
            let ix_d = recover_divmod(j, &dims);
            assert_eq!(ix_c, ix_d, "schemes disagree at j={j}");
            assert_eq!(linearize(&ix_c, &dims), j, "not inverse at j={j}");
            for (k, &ix) in ix_c.iter().enumerate() {
                assert!(ix >= 1 && ix as u64 <= dims[k], "range at j={j}");
            }
        }
    }

    #[test]
    fn recovery_order_is_lexicographic() {
        // Consecutive j values must yield lexicographically consecutive
        // index vectors (the coalesced loop preserves traversal order).
        let dims = [3u64, 2, 5];
        let mut prev = recover_ceiling(1, &dims);
        for j in 2..=30 {
            let cur = recover_ceiling(j, &dims);
            assert!(prev < cur, "order violated: {prev:?} !< {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn paper_worked_example_two_levels() {
        // For a (N1=4, N2=5) nest: j=1..20; the paper's i1 = ⌈j/5⌉ and
        // i2 = j - 5(⌈j/5⌉ - 1).
        let dims = [4u64, 5];
        for j in 1..=20i64 {
            let ix = recover_ceiling(j, &dims);
            let i1 = ceil_div_unchecked(j, 5);
            let i2 = j - 5 * (ceil_div_unchecked(j, 5) - 1);
            assert_eq!(ix, vec![i1, i2]);
        }
    }

    #[test]
    fn single_level_recovery_is_identity() {
        let dims = [9u64];
        for j in 1..=9 {
            assert_eq!(recover_ceiling(j, &dims), vec![j]);
            assert_eq!(recover_divmod(j, &dims), vec![j]);
        }
    }

    #[test]
    fn odometer_walks_whole_space_in_order() {
        let dims = [2u64, 3, 2];
        let mut odo = Odometer::new(&dims);
        let mut seen = Vec::new();
        loop {
            seen.push(odo.indices().to_vec());
            if !odo.advance() {
                break;
            }
        }
        assert_eq!(seen.len(), 12);
        for (j, ix) in seen.iter().enumerate() {
            assert_eq!(*ix, recover_divmod(j as i64 + 1, &dims));
        }
        assert!(odo.exhausted());
        assert!(!odo.advance());
    }

    #[test]
    fn total_iterations_overflow_is_reported() {
        assert!(total_iterations(&[u64::MAX, 3]).is_err());
        assert_eq!(total_iterations(&[6, 7]).unwrap(), 42);
    }

    #[test]
    fn recovery_stmts_evaluate_correctly() {
        use lc_ir::interp::Interp;
        use lc_ir::program::Program;
        use lc_ir::stmt::Loop;

        let dims = [3u64, 4];
        for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
            let j = Symbol::new("j");
            let vars = [Symbol::new("i1"), Symbol::new("i2")];
            let mut body = recovery_stmts(scheme, &j, &vars, &dims);
            body.push(Stmt::store(
                "OUT",
                vec![Expr::var("j")],
                Expr::var("i1") * Expr::lit(100) + Expr::var("i2"),
            ));
            let prog = Program::new()
                .with_array("OUT", vec![12])
                .with_stmt(Stmt::Loop(Loop::doall("j", 12, body)));
            let store = Interp::new().run(&prog).unwrap();
            for jv in 1..=12i64 {
                let expect = recover_divmod(jv, &dims);
                assert_eq!(
                    store.get("OUT", &[jv]).unwrap(),
                    expect[0] * 100 + expect[1],
                    "{scheme:?} at j={jv}"
                );
            }
        }
    }

    #[test]
    fn recovery_cost_grows_with_depth() {
        let c2 = per_iteration_cost(RecoveryScheme::Ceiling, &[10, 10]).units();
        let c4 = per_iteration_cost(RecoveryScheme::Ceiling, &[10, 10, 10, 10]).units();
        assert!(c4 > c2);
        let d2 = per_iteration_cost(RecoveryScheme::DivMod, &[10, 10]);
        let d4 = per_iteration_cost(RecoveryScheme::DivMod, &[10, 10, 10, 10]);
        assert!(d4.units() > d2.units());
        assert!(d4.divs > d2.divs, "deeper nests need more divisions");
        assert!(c2 > 0 && d2.units() > 0);
    }

    #[test]
    fn single_level_recovery_is_nearly_free() {
        // i_0 = j for a one-level "nest": the folded statement is a plain
        // copy, costing just the store.
        let c = per_iteration_cost(RecoveryScheme::Ceiling, &[100]);
        assert_eq!(c.units(), 1);
        assert_eq!(
            c,
            RecoveryCost {
                stores: 1,
                ..RecoveryCost::default()
            }
        );
        // (j - 1)/1 + 1 folds to (j - 1) + 1: two adds plus the store.
        assert_eq!(
            per_iteration_cost(RecoveryScheme::DivMod, &[100]).units(),
            3
        );
    }

    proptest! {
        #[test]
        fn prop_schemes_agree_and_invert(
            dims in proptest::collection::vec(1u64..7, 1..5),
            seed in 0u64..10_000,
        ) {
            let n = total_iterations(&dims).unwrap();
            let j = (seed % n) as i64 + 1;
            let a = recover_ceiling(j, &dims);
            let b = recover_divmod(j, &dims);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(linearize(&a, &dims), j);
        }
    }
}
