//! Property-level soundness of the order-independence certificate:
//! `certifies_order_independent` promises that a program's `doall`
//! iterations communicate through no array element (LC001) and no scalar
//! (LC005, plus the escape rule), so any nest (rank ≤ 4) it certifies
//! must produce a byte-identical final store whether its `doall` levels
//! iterate forward or reversed. This is the in-tree miniature of the
//! `lint-unsound` oracle `lc-fuzz` runs at scale.

use proptest::prelude::*;

use lc_ir::interp::{DoallOrder, Interp, Store};
use lc_ir::{ArrayRef, Expr, Loop, LoopKind, Program, Stmt, Symbol};
use lc_lint::certifies_order_independent;

/// How the nest uses an optional scalar `t`, assigned `dims[last]`
/// before the nest, or (`ArrayBound`) an array read in its innermost
/// bound.
#[derive(Debug, Clone, Copy)]
enum ScalarUse {
    /// No scalar.
    None,
    /// `t = i0; A[…] = … + t;`: private to each iteration.
    WrittenThenRead,
    /// `A[…] = … + t; t = i0;`: carried across iterations.
    ReadBeforeWrite,
    /// The innermost level is a serial `for … = 1..t` and the body writes
    /// `t = dims[last] + 1`: carried through the bound (rank ≥ 2). A
    /// serial level keeps the escape rule out of it: only LC005 sees it.
    InnerBound,
    /// No scalar; the innermost level is a serial
    /// `for … = 1..min(A[…] + d, d + 1)`, `d = dims[last]`, whose bound
    /// reads the cell the body writes at that level's first trip, one
    /// outer iteration shifted by the read offsets (rank ≥ 2). Once
    /// written, the cell is at least 1, so the trip count depends on
    /// whether that outer iteration ran first: only LC001 sees it.
    ArrayBound,
}

/// A random rank-1..4 `doall` nest writing
/// `A[i_k + w_k] = (A|B)[i_k + r_k] + 1`, with optional transposition of
/// the innermost two read subscripts — the same access shapes the
/// dependence-analyzer soundness suite uses, rich enough to produce
/// both racy and clean nests — and an optional scalar or array-read
/// inner bound.
#[derive(Debug, Clone)]
struct Spec {
    dims: Vec<u64>,
    write_off: Vec<i64>,
    read_off: Vec<i64>,
    read_same: bool,
    transpose_read: bool,
    scalar: ScalarUse,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..=4)
        .prop_flat_map(|rank| {
            (
                proptest::collection::vec(2u64..=3, rank),
                proptest::collection::vec(-2i64..=2, rank),
                proptest::collection::vec(-2i64..=2, rank),
                proptest::bool::ANY,
                proptest::bool::ANY,
                0u8..5,
            )
        })
        .prop_map(
            |(dims, write_off, read_off, read_same, transpose_read, scalar)| Spec {
                dims,
                write_off,
                read_off,
                read_same,
                transpose_read,
                scalar: [
                    ScalarUse::None,
                    ScalarUse::WrittenThenRead,
                    ScalarUse::ReadBeforeWrite,
                    ScalarUse::InnerBound,
                    ScalarUse::ArrayBound,
                ][scalar as usize],
            },
        )
}

/// Build the program; subscripts are shifted by +3 so every offset in
/// -2..=2 stays in bounds for extent `max_dim + 6`, even when the
/// innermost level runs one trip longer through `t`.
fn build(s: &Spec) -> Program {
    let rank = s.dims.len();
    let max_dim = *s.dims.iter().max().unwrap() as usize;
    let ext: Vec<usize> = vec![max_dim + 6; rank];
    let vars: Vec<Symbol> = (0..rank).map(|k| Symbol::new(format!("i{k}"))).collect();

    let sub = |offsets: &[i64], transpose: bool| -> Vec<Expr> {
        let mut subs: Vec<Expr> = offsets
            .iter()
            .zip(&vars)
            .map(|(&off, v)| Expr::Var(v.clone()) + Expr::lit(off + 3))
            .collect();
        if transpose && subs.len() >= 2 {
            let last = subs.len() - 1;
            subs.swap(last - 1, last);
        }
        subs
    };

    let read_array = if s.read_same { "A" } else { "B" };
    let mut value = Expr::read(read_array, sub(&s.read_off, s.transpose_read)) + Expr::lit(1);
    let t = Symbol::new("t");
    let inner_dim = s.dims[rank - 1] as i64;
    let set_t = |v: Expr| Stmt::AssignScalar {
        var: t.clone(),
        value: v,
    };
    if matches!(
        s.scalar,
        ScalarUse::WrittenThenRead | ScalarUse::ReadBeforeWrite
    ) {
        value = value + Expr::Var(t.clone());
    }
    let mut stmts = vec![Stmt::AssignArray {
        target: ArrayRef::new("A", sub(&s.write_off, false)),
        value,
    }];
    match s.scalar {
        ScalarUse::None | ScalarUse::ArrayBound => {}
        ScalarUse::WrittenThenRead => stmts.insert(0, set_t(Expr::Var(vars[0].clone()))),
        ScalarUse::ReadBeforeWrite => stmts.push(set_t(Expr::Var(vars[0].clone()))),
        ScalarUse::InnerBound => stmts.push(set_t(Expr::lit(inner_dim + 1))),
    }
    let inner_upper = match s.scalar {
        ScalarUse::InnerBound if rank >= 2 => Some(Expr::Var(t.clone())),
        ScalarUse::ArrayBound if rank >= 2 => {
            let mut cell = sub(&s.read_off, false);
            cell[rank - 1] = Expr::lit(s.write_off[rank - 1] + 4);
            Some((Expr::read("A", cell) + Expr::lit(inner_dim)).min(Expr::lit(inner_dim + 1)))
        }
        _ => None,
    };
    for k in (0..rank).rev() {
        let (kind, upper) = match &inner_upper {
            Some(u) if k == rank - 1 => (LoopKind::Serial, u.clone()),
            _ => (LoopKind::Doall, Expr::lit(s.dims[k] as i64)),
        };
        stmts = vec![Stmt::Loop(Loop::new(
            kind,
            vars[k].clone(),
            1,
            upper,
            stmts,
        ))];
    }
    if !matches!(s.scalar, ScalarUse::None | ScalarUse::ArrayBound) {
        stmts.insert(0, set_t(Expr::lit(inner_dim)));
    }
    let mut p = Program::new().with_array("A", ext.clone());
    if !s.read_same {
        p = p.with_array("B", ext);
    }
    p.body = stmts;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn certified_nests_are_order_independent(s in spec()) {
        let p = build(&s);
        p.check().unwrap();

        if !certifies_order_independent(&p) {
            // No certificate; nothing is promised. (The converse — a
            // racy nest the lint misses — is exactly what the assertion
            // below would catch on a certified one.)
            return Ok(());
        }

        let base = Store::for_program(&p);
        let run = |order: DoallOrder| {
            Interp::new()
                .with_order(order)
                .run_on(&p, base.clone())
                .map(|(store, _)| store.digest())
        };
        let forward = run(DoallOrder::Forward).expect("certified nest must execute");
        let reverse = run(DoallOrder::Reverse).expect("certified nest must execute");
        prop_assert_eq!(
            forward, reverse,
            "this nest is certified but its result is order-dependent\nspec: {:?}",
            s
        );
    }
}
