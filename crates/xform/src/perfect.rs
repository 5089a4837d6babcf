//! Nest perfection: sinking pre/post statements into the inner loop under
//! first/last-iteration guards.
//!
//! Coalescing requires a *perfect* nest. Real code often has prologue or
//! epilogue statements between the loop headers:
//!
//! ```text
//! doall i = 1..N {
//!     P;                       // prologue
//!     for j = 1..M { BODY }
//!     E;                       // epilogue
//! }
//! ```
//!
//! Perfection rewrites this to
//!
//! ```text
//! doall i = 1..N {
//!     for j = 1..M {
//!         if j == 1 { P }
//!         BODY
//!         if j == M { E }
//!     }
//! }
//! ```
//!
//! which is exactly how OpenMP implementations handle `collapse` on
//! near-perfect nests. Legality: if the inner loop is serial the guards
//! fire first/last and order is preserved, so the rewrite is always
//! legal (for non-empty inner loops). If the inner loop is a `doall`,
//! iteration order is unspecified, so the guarded statements must not
//! conflict with the other iterations' work — verified by re-running the
//! dependence test on the rewritten nest.

use lc_ir::analysis::depend::analyze_nest;
use lc_ir::analysis::nest::extract_nest;
use lc_ir::analysis::scalars::visit_symbols;
use lc_ir::analysis::walk::Mention;
use lc_ir::expr::{CmpOp, Cond, Expr};
use lc_ir::stmt::{Loop, Stmt};
use lc_ir::{Error, Result, SkipReason};

/// Sink prologue/epilogue statements around the unique inner loop of `l`
/// into that loop under `j == first` / `j == last` guards, producing a
/// perfect 2-level segment. Deeper imperfection is handled by applying
/// the pass repeatedly (see [`perfect_recursively`]).
pub fn perfect_one_level(l: &Loop) -> Result<Loop> {
    let inner_positions: Vec<usize> = l
        .body
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Stmt::Loop(_)))
        .map(|(i, _)| i)
        .collect();
    if inner_positions.len() != 1 {
        return Err(Error::Unsupported(SkipReason::ImperfectNest {
            found: inner_positions.len(),
        }));
    }
    let pos = inner_positions[0];
    if l.body.len() == 1 {
        return Ok(l.clone()); // already perfect
    }

    let Stmt::Loop(inner) = &l.body[pos] else {
        unreachable!()
    };
    // The guards compare against the inner bounds; to keep them exact the
    // inner loop must have constant bounds and positive unit step (run
    // normalize first for the general case).
    let (Some(lo), Some(hi), Some(1)) = (
        inner.lower.as_const(),
        inner.upper.as_const(),
        inner.step.as_const(),
    ) else {
        return Err(Error::unsupported(
            "perfection requires a normalized (constant-bound, unit-step) inner loop",
        ));
    };
    if hi < lo {
        return Err(Error::unsupported(
            "cannot sink statements into a zero-trip inner loop",
        ));
    }

    let prologue: Vec<Stmt> = l.body[..pos].to_vec();
    let epilogue: Vec<Stmt> = l.body[pos + 1..].to_vec();

    // Prologue/epilogue must not read or assign the inner loop variable.
    let mut mentions_index = false;
    for stmts in [&prologue, &epilogue] {
        visit_symbols(stmts, &mut |v, m| {
            mentions_index |=
                *v == inner.var && matches!(m, Mention::Read { .. } | Mention::Assign { .. });
        });
    }
    if mentions_index {
        return Err(Error::unsupported(format!(
            "statement outside the inner loop mentions its index `{}`",
            inner.var
        )));
    }

    let jv = Expr::Var(inner.var.clone());
    let mut new_body = Vec::with_capacity(inner.body.len() + 2);
    if !prologue.is_empty() {
        new_body.push(Stmt::If {
            cond: Cond::cmp(CmpOp::Eq, jv.clone(), Expr::lit(lo)),
            then_body: prologue,
            else_body: vec![],
        });
    }
    new_body.extend(inner.body.clone());
    if !epilogue.is_empty() {
        new_body.push(Stmt::If {
            cond: Cond::cmp(CmpOp::Eq, jv, Expr::lit(hi)),
            then_body: epilogue,
            else_body: vec![],
        });
    }

    let result = Loop {
        var: l.var.clone(),
        lower: l.lower.clone(),
        upper: l.upper.clone(),
        step: l.step.clone(),
        kind: l.kind,
        body: vec![Stmt::Loop(Loop {
            var: inner.var.clone(),
            lower: inner.lower.clone(),
            upper: inner.upper.clone(),
            step: inner.step.clone(),
            kind: inner.kind,
            body: new_body,
        })],
    };

    // For a doall inner loop the guards run in arbitrary order relative
    // to the other iterations: a sunk statement must not conflict with
    // any *other* inner iteration's work. The generic dependence test is
    // guard-blind (it would see the sunk statement as running in every
    // iteration), so exempt self-pairs of one guard — the guard pins the
    // inner index to a single value, so two instances at different inner
    // indices cannot both execute — and reject every other carried-at-j
    // dependence that touches a guard statement.
    //
    // This is the one dependence analysis a driver runs outside its
    // per-nest cache: it describes a candidate the pass may still reject,
    // so no cached version of the nest exists for it yet. Once accepted,
    // the rewritten nest is a new version, analysed again there.
    if inner.kind.is_doall() {
        let Stmt::Loop(new_inner) = &result.body[0] else {
            unreachable!()
        };
        let guard_idxs: Vec<usize> = new_inner
            .body
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Stmt::If { .. }))
            .filter(|(i, _)| *i == 0 || *i == new_inner.body.len() - 1)
            .map(|(i, _)| i)
            .collect();
        let nest = extract_nest(&result);
        let deps = analyze_nest(&nest)?;
        let inner_level = nest.depth() - 1;
        for d in &deps.deps {
            if !d.carried_levels().contains(&inner_level) {
                continue;
            }
            let src_guard = guard_idxs.contains(&d.src_stmt);
            let dst_guard = guard_idxs.contains(&d.dst_stmt);
            if !src_guard && !dst_guard {
                continue; // pre-existing body dependence, not ours
            }
            if src_guard && dst_guard && d.src_stmt == d.dst_stmt {
                continue; // one guard against itself: j is pinned
            }
            return Err(Error::unsupported(format!(
                "sinking statements into doall `{}` would create a \
                 carried dependence on `{}`",
                inner.var, d.array
            )));
        }
    }
    Ok(result)
}

/// Apply [`perfect_one_level`] at every level until the nest is perfect
/// (or a level cannot be perfected, which is an error).
pub fn perfect_recursively(l: &Loop) -> Result<Loop> {
    let mut current = perfect_one_level(l)?;
    if let [Stmt::Loop(inner)] = current.body.as_slice() {
        if inner.body.iter().any(|s| matches!(s, Stmt::Loop(_))) && inner.body.len() > 1 {
            let fixed = perfect_recursively(inner)?;
            current.body = vec![Stmt::Loop(fixed)];
        } else if let [Stmt::Loop(_)] = inner.body.as_slice() {
            let fixed = perfect_recursively(inner)?;
            current.body = vec![Stmt::Loop(fixed)];
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::analysis::nest::extract_nest;
    use lc_ir::interp::{DoallOrder, Interp};
    use lc_ir::parser::parse_program;
    use lc_ir::program::Program;

    fn loop_of(p: &Program) -> (usize, Loop) {
        p.body
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                Stmt::Loop(l) => Some((i, l.clone())),
                _ => None,
            })
            .unwrap()
    }

    fn check_perfect(src: &str) -> Loop {
        let p = parse_program(src).unwrap();
        let (idx, l) = loop_of(&p);
        let fixed = perfect_one_level(&l).unwrap();
        assert!(
            extract_nest(&fixed).depth() >= 2,
            "nest not perfected:\n{src}"
        );
        let mut p2 = p.clone();
        p2.body[idx] = Stmt::Loop(fixed.clone());
        for order in [DoallOrder::Forward, DoallOrder::Shuffled(5)] {
            let a = Interp::new().run(&p).unwrap();
            let b = Interp::new().with_order(order).run(&p2).unwrap();
            assert_eq!(a, b, "perfection changed semantics:\n{src}");
        }
        fixed
    }

    #[test]
    fn prologue_sinks_under_first_guard() {
        let fixed = check_perfect(
            "
            array D[6];
            array M[6][7];
            for i = 1..6 {
                D[i] = i * i;
                for j = 1..7 {
                    M[i][j] = i + j;
                }
            }
            ",
        );
        // Inner body: guard + original statement.
        let nest = extract_nest(&fixed);
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.body.len(), 2);
        assert!(matches!(nest.body[0], Stmt::If { .. }));
    }

    #[test]
    fn epilogue_sinks_under_last_guard() {
        check_perfect(
            "
            array S[6];
            array M[6][7];
            for i = 1..6 {
                for j = 1..7 {
                    M[i][j] = i * 10 + j;
                }
                S[i] = M[i][7];
            }
            ",
        );
    }

    #[test]
    fn both_prologue_and_epilogue() {
        check_perfect(
            "
            array P[4];
            array Q[4];
            array M[4][5];
            for i = 1..4 {
                P[i] = i;
                for j = 1..5 {
                    M[i][j] = P[i] + j;
                }
                Q[i] = M[i][5] * 2;
            }
            ",
        );
    }

    #[test]
    fn perfected_nest_becomes_coalescible_when_serial_inner() {
        // After perfection the outer doall + serial inner is a perfect
        // nest; the outer level alone can be coalesced (trivially) or the
        // serial inner kept. Key check: perfection composes with
        // extraction.
        let p = parse_program(
            "
            array D[6];
            array M[6][7];
            doall i = 1..6 {
                D[i] = i * i;
                for j = 1..7 {
                    M[i][j] = D[i] + j;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let fixed = perfect_one_level(&l).unwrap();
        assert_eq!(extract_nest(&fixed).depth(), 2);
    }

    #[test]
    fn doall_inner_with_independent_prologue_is_accepted() {
        // Prologue writes D[i]; inner iterations read only M — no
        // conflict even under arbitrary inner order... note the guard
        // runs within some iteration, but D[i] is not read by the nest.
        check_perfect(
            "
            array D[6];
            array M[6][7];
            doall i = 1..6 {
                D[i] = i * i;
                doall j = 1..7 {
                    M[i][j] = i + j;
                }
            }
            ",
        );
    }

    #[test]
    fn doall_inner_with_conflicting_prologue_is_rejected() {
        // Prologue writes D[i] which every inner iteration reads: under
        // an arbitrary doall order some iterations would read D[i] before
        // the j==1 guard writes it.
        let p = parse_program(
            "
            array D[6];
            array M[6][7];
            doall i = 1..6 {
                D[i] = i * i;
                doall j = 1..7 {
                    M[i][j] = D[i] + j;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = perfect_one_level(&l).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{err}");
    }

    #[test]
    fn statement_using_inner_variable_is_rejected() {
        let p = parse_program(
            "
            array D[6];
            array M[6][7];
            for i = 1..6 {
                j = 3;
                for j = 1..7 {
                    M[i][j] = i + j;
                }
                D[i] = j;
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        assert!(perfect_one_level(&l).is_err());
    }

    #[test]
    fn multiple_inner_loops_are_rejected() {
        let p = parse_program(
            "
            array A[4][4];
            array B[4][4];
            for i = 1..4 {
                for j = 1..4 {
                    A[i][j] = 1;
                }
                for j = 1..4 {
                    B[i][j] = 2;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = perfect_one_level(&l).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::ImperfectNest { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn already_perfect_is_identity() {
        let p = parse_program(
            "
            array A[3][3];
            for i = 1..3 {
                for j = 1..3 {
                    A[i][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        assert_eq!(perfect_one_level(&l).unwrap(), l);
    }

    #[test]
    fn perfection_preserves_imperfect_nest_semantics() {
        let src = "
            array D[6];
            array M[6][7];
            for i = 1..6 {
                D[i] = i * i;
                for j = 1..7 {
                    M[i][j] = i + j;
                }
            }
            ";
        let p = parse_program(src).unwrap();
        let (idx, l) = loop_of(&p);

        let mut p2 = p.clone();
        p2.body[idx] = Stmt::Loop(perfect_one_level(&l).unwrap());
        let original = Interp::new().run(&p).unwrap();
        assert_eq!(original, Interp::new().run(&p2).unwrap());
    }

    #[test]
    fn recursive_perfection_flattens_three_levels() {
        let p = parse_program(
            "
            array D[4];
            array E[4][5];
            array M[4][5][6];
            for i = 1..4 {
                D[i] = i;
                for j = 1..5 {
                    E[i][j] = i + j;
                    for k = 1..6 {
                        M[i][j][k] = i * j * k;
                    }
                }
            }
            ",
        )
        .unwrap();
        let (idx, l) = loop_of(&p);
        let fixed = perfect_recursively(&l).unwrap();
        assert_eq!(extract_nest(&fixed).depth(), 3);
        let mut p2 = p.clone();
        p2.body[idx] = Stmt::Loop(fixed);
        let a = Interp::new().run(&p).unwrap();
        let b = Interp::new().run(&p2).unwrap();
        assert_eq!(a, b);
    }
}
