//! Loop interchange: swapping two adjacent levels of a perfect nest.
//!
//! The paper positions coalescing against the classical alternatives;
//! interchange is the one that moves a parallel loop outward so the serial
//! inner loop amortizes fork-join overhead. Interchanging levels `k` and
//! `k+1` is legal when no dependence has a direction vector of the form
//! `(=, …, =, <, >, …)` at those positions — swapping such a vector would
//! make the sink run before the source.

use lc_ir::analysis::depend::{Dir, NestDeps};
use lc_ir::analysis::nest::extract_nest;
use lc_ir::stmt::Loop;
use lc_ir::{Error, Result, SkipReason};

/// Interchange levels `level` and `level + 1` (0-based) of the perfect
/// nest rooted at `l`, checking legality first against `deps`, the
/// dependence analysis of that nest (`lc_ir::analysis::analyze_nest`).
pub fn interchange(l: &Loop, level: usize, deps: &NestDeps) -> Result<Loop> {
    let mut nest = extract_nest(l);
    if level + 1 >= nest.depth() {
        return Err(Error::Unsupported(SkipReason::InterchangeOutOfRange {
            level,
            depth: nest.depth(),
        }));
    }

    // Rectangularity: neither loop's bounds may mention the other's var
    // (triangular nests need bound rewriting, out of scope).
    for (a, b) in [(level, level + 1), (level + 1, level)] {
        let var = nest.loops[a].var.clone();
        let mut vars = Vec::new();
        nest.loops[b].lower.variables(&mut vars);
        nest.loops[b].upper.variables(&mut vars);
        nest.loops[b].step.variables(&mut vars);
        if vars.contains(&var) {
            return Err(Error::Unsupported(SkipReason::NotRectangular {
                var: nest.loops[b].var.clone(),
                other: var,
            }));
        }
    }

    for d in &deps.deps {
        for dv in &d.directions {
            let prefix_eq = dv[..level].iter().all(|x| *x == Dir::Eq);
            if prefix_eq && dv[level] == Dir::Lt && dv[level + 1] == Dir::Gt {
                return Err(Error::Unsupported(SkipReason::InterchangeIllegal {
                    level,
                    array: d.array.clone(),
                }));
            }
        }
    }

    nest.loops.swap(level, level + 1);
    Ok(nest.to_loop())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::analysis::depend::analyze_nest;
    use lc_ir::interp::Interp;
    use lc_ir::parser::parse_program;
    use lc_ir::program::Program;
    use lc_ir::stmt::Stmt;

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

    fn swap(l: &Loop, level: usize) -> Result<Loop> {
        interchange(l, level, &analyze_nest(&extract_nest(l))?)
    }

    fn check_interchange(src: &str, level: usize) {
        let p = parse_program(src).unwrap();
        let (idx, l) = loop_of(&p);
        let swapped = swap(&l, level).unwrap();
        let mut p2 = p.clone();
        p2.body[idx] = Stmt::Loop(swapped);
        let a = Interp::new().run(&p).unwrap();
        let b = Interp::new().run(&p2).unwrap();
        assert_eq!(a, b, "interchange changed semantics:\n{src}");
    }

    #[test]
    fn interchange_independent_fill() {
        check_interchange(
            "
            array A[4][6];
            for i = 1..4 {
                for j = 1..6 {
                    A[i][j] = 10 * i + j;
                }
            }
            ",
            0,
        );
    }

    #[test]
    fn interchange_swaps_headers() {
        let p = parse_program(
            "
            array A[4][6];
            for i = 1..4 {
                for j = 1..6 {
                    A[i][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let swapped = swap(&l, 0).unwrap();
        assert_eq!(swapped.var.as_str(), "j");
        assert_eq!(swapped.const_trip_count(), Some(6));
    }

    #[test]
    fn interchange_column_recurrence_is_legal() {
        // A[i][j] = A[i-1][j]: direction (<, =) — interchange to (=, <) is
        // still lexicographically positive. The classic motivation: makes
        // the parallel j loop outermost.
        check_interchange(
            "
            array A[6][6];
            for i = 2..6 {
                for j = 1..6 {
                    A[i][j] = A[i - 1][j] + 1;
                }
            }
            ",
            0,
        );
    }

    #[test]
    fn interchange_lt_gt_dependence_is_rejected() {
        // A[i][j] = A[i-1][j+1]: direction (<, >) — interchange illegal.
        let p = parse_program(
            "
            array A[8][8];
            for i = 2..8 {
                for j = 1..7 {
                    A[i][j] = A[i - 1][j + 1] + 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = swap(&l, 0).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn interchange_sees_directions_in_iteration_order() {
        // By value the dependence looks like (<, <); j runs downward, so
        // in iteration order it is (<, >) and the swap is illegal.
        let p = parse_program(
            "
            array A[6][6];
            for i = 1..4 {
                doall j = 4..1 step -1 {
                    A[i + 1][j + 1] = A[i][j] + 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = swap(&l, 0).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Unsupported(SkipReason::InterchangeIllegal { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn interchange_middle_levels_of_triple_nest() {
        check_interchange(
            "
            array A[3][4][5];
            for i = 1..3 {
                for j = 1..4 {
                    for k = 1..5 {
                        A[i][j][k] = i * 100 + j * 10 + k;
                    }
                }
            }
            ",
            1,
        );
    }

    #[test]
    fn triangular_nest_is_rejected() {
        let p = parse_program(
            "
            array A[6][6];
            for i = 1..6 {
                for j = 1..i {
                    A[i][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = swap(&l, 0).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::NotRectangular { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_range_level_is_rejected() {
        let p = parse_program(
            "
            array A[4];
            for i = 1..4 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        assert!(swap(&l, 0).is_err());
    }
}
