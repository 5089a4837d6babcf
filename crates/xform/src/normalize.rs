//! Loop normalization: rewrite `lo..hi step s` into `1..=N` with unit step.
//!
//! The recovery formulas assume every coalesced level runs `1 ..= N_k`
//! with step 1; this pass establishes that form, substituting
//! `i := lo + (i' − 1)·s` into the body. A level already in unit form
//! `1..=U step 1` passes through unchanged, whatever `U` is, so a runtime
//! upper bound is no obstacle. Rewriting any other level needs literal
//! bounds and step: a symbolic lower bound or step, or a symbolic upper
//! bound on a shifted or strided level, is a
//! [`SkipReason::SymbolicBound`].

use lc_ir::analysis::nest::Nest;
use lc_ir::expr::Expr;
use lc_ir::stmt::{Loop, Stmt};
use lc_ir::{BoundPart, Error, Result, SkipReason};

/// Normalize a single loop. Returns the rewritten loop; loops already in
/// unit form are returned unchanged (cheaply, but not by reference).
pub fn normalize_loop(l: &Loop) -> Result<Loop> {
    if l.is_unit_form() {
        return Ok(l.clone());
    }
    let lo = l.lower.as_const().ok_or_else(|| {
        Error::Unsupported(SkipReason::SymbolicBound {
            var: l.var.clone(),
            part: BoundPart::Lower,
        })
    })?;
    let step = l.step.as_const().ok_or_else(|| {
        Error::Unsupported(SkipReason::SymbolicBound {
            var: l.var.clone(),
            part: BoundPart::Step,
        })
    })?;
    if step == 0 {
        return Err(Error::ZeroStep(l.var.clone()));
    }
    let hi = l.upper.as_const().ok_or_else(|| {
        Error::Unsupported(SkipReason::SymbolicBound {
            var: l.var.clone(),
            part: BoundPart::Upper,
        })
    })?;
    // The trip count becomes the new upper bound, so it must fit `i64`.
    let trip = lc_ir::arith::trip_count(lo, hi, step)
        .and_then(|t| i64::try_from(t).ok())
        .ok_or(Error::Overflow)?;

    // i = lo + (i' - 1) * step, substituted everywhere i occurred.
    let replacement =
        (Expr::lit(lo) + (Expr::var(l.var.as_str()) - Expr::lit(1)) * Expr::lit(step)).fold();
    let body: Vec<Stmt> = l
        .body
        .iter()
        .map(|s| s.substitute(&l.var, &replacement))
        .collect();
    Ok(Loop {
        var: l.var.clone(),
        lower: Expr::lit(1),
        upper: Expr::lit(trip),
        step: Expr::lit(1),
        kind: l.kind,
        body,
    })
}

/// Normalize every level of a perfect nest, outermost first.
///
/// Substitution happens on the nested [`Loop`] form so inner bounds that
/// mention outer indices are rewritten too, then the nest is re-extracted.
pub fn normalize_nest(nest: &Nest) -> Result<Nest> {
    let mut current = nest.to_loop();
    current = normalize_levels(&current, nest.depth())?;
    Ok(lc_ir::analysis::nest::extract_nest(&current))
}

fn normalize_levels(l: &Loop, remaining: usize) -> Result<Loop> {
    let mut out = normalize_loop(l)?;
    if remaining > 1 {
        if let [Stmt::Loop(inner)] = out.body.as_slice() {
            let inner = normalize_levels(inner, remaining - 1)?;
            out.body = vec![Stmt::Loop(inner)];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::analysis::nest::extract_nest;
    use lc_ir::interp::Interp;
    use lc_ir::parser::parse_program;
    use lc_ir::program::Program;
    use lc_ir::symbol::Symbol;

    fn loop_of(p: &Program) -> Loop {
        p.body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop(l) => Some(l.clone()),
                _ => None,
            })
            .unwrap()
    }

    fn check_equivalent(src: &str) {
        let p = parse_program(src).unwrap();
        let orig = loop_of(&p);
        let norm = normalize_loop(&orig).unwrap();
        assert!(norm.is_normalized());

        let mut p_norm = p.clone();
        for s in &mut p_norm.body {
            if matches!(s, Stmt::Loop(_)) {
                *s = Stmt::Loop(norm.clone());
                break;
            }
        }
        let a = Interp::new().run(&p).unwrap();
        let b = Interp::new().run(&p_norm).unwrap();
        assert_eq!(a, b, "normalization changed semantics for:\n{src}");
    }

    #[test]
    fn normalize_offset_bounds() {
        check_equivalent(
            "
            array A[20];
            for i = 5..15 {
                A[i] = i * 2;
            }
            ",
        );
    }

    #[test]
    fn normalize_strided_loop() {
        check_equivalent(
            "
            array A[30];
            for i = 3..27 step 4 {
                A[i] = i;
            }
            ",
        );
    }

    #[test]
    fn normalize_negative_step() {
        check_equivalent(
            "
            array A[10];
            for i = 9..2 step -3 {
                A[i] = i + 1;
            }
            ",
        );
    }

    #[test]
    fn normalize_preserves_kind() {
        let p = parse_program(
            "
            array A[10];
            doall i = 2..9 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let norm = normalize_loop(&loop_of(&p)).unwrap();
        assert!(norm.kind.is_doall());
        assert_eq!(norm.const_trip_count(), Some(8));
    }

    #[test]
    fn a_trip_count_beyond_i64_is_an_overflow() {
        let p =
            parse_program("array A[1]; for i = (-2)..9223372036854775807 { A[1] = 0; }").unwrap();
        assert_eq!(normalize_loop(&loop_of(&p)), Err(Error::Overflow));
        // One trip fewer still fits: the normalized bound is i64::MAX.
        let p = parse_program("array A[1]; for i = 0..9223372036854775806 { A[1] = 0; }").unwrap();
        assert_eq!(
            normalize_loop(&loop_of(&p)).unwrap().upper,
            Expr::lit(i64::MAX)
        );
    }

    #[test]
    fn already_normalized_is_unchanged() {
        let p = parse_program(
            "
            array A[4];
            doall i = 1..4 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let orig = loop_of(&p);
        assert_eq!(normalize_loop(&orig).unwrap(), orig);
    }

    #[test]
    fn normalize_nest_rewrites_inner_bound_uses_of_outer_var() {
        // The inner bound does not depend on i here (rectangular), but the
        // inner *body* uses i — substitution must reach it.
        let p = parse_program(
            "
            array A[20][6];
            for i = 11..20 {
                for j = 1..6 {
                    A[i][j] = i * j;
                }
            }
            ",
        )
        .unwrap();
        let nest = extract_nest(&loop_of(&p));
        let norm = normalize_nest(&nest).unwrap();
        assert!(norm.is_normalized());
        assert_eq!(norm.trip_counts(), Some(vec![10, 6]));

        let mut p2 = p.clone();
        p2.body[0] = Stmt::Loop(norm.to_loop());
        let a = Interp::new().run(&p).unwrap();
        let b = Interp::new().run(&p2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symbolic_bound_is_unsupported() {
        let p = parse_program(
            "
            array A[10];
            n = 10;
            for i = 2..n {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        assert_eq!(
            normalize_loop(&loop_of(&p)),
            Err(Error::Unsupported(SkipReason::SymbolicBound {
                var: Symbol::new("i"),
                part: BoundPart::Upper,
            }))
        );
    }

    #[test]
    fn unit_form_with_symbolic_upper_is_unchanged() {
        let p = parse_program(
            "
            array A[10][10];
            n = 10;
            doall i = 0..4 {
                doall j = 1..n {
                    A[i + 1][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let norm = normalize_nest(&extract_nest(&loop_of(&p))).unwrap();
        assert_eq!(norm.loops[0].upper, Expr::lit(5));
        assert_eq!(norm.loops[1].upper, Expr::var("n"));
        assert!(norm.loops.iter().all(|h| h.is_unit_form()));
    }
}
