//! Perfect-nest extraction.
//!
//! A *perfect nest* is a chain of loops in which each loop's body consists
//! of exactly one statement — the next loop — until the innermost loop,
//! whose body is arbitrary. Loop coalescing (and interchange) operate on
//! this shape; [`extract_nest`] carves it out of a [`Loop`] and
//! [`Nest::to_loop`] rebuilds it.

use crate::expr::Expr;
use crate::stmt::{Loop, LoopKind, Stmt};
use crate::symbol::Symbol;

/// One level of a nest: a loop minus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopHeader {
    /// Index variable.
    pub var: Symbol,
    /// Inclusive lower bound.
    pub lower: Expr,
    /// Inclusive upper bound.
    pub upper: Expr,
    /// Step.
    pub step: Expr,
    /// Serial / doall / doacross.
    pub kind: LoopKind,
}

impl LoopHeader {
    fn from_loop(l: &Loop) -> Self {
        LoopHeader {
            var: l.var.clone(),
            lower: l.lower.clone(),
            upper: l.upper.clone(),
            step: l.step.clone(),
            kind: l.kind,
        }
    }

    /// Constant trip count if bounds and step are literals (see
    /// [`Loop::const_trip_count`]).
    pub fn const_trip_count(&self) -> Option<u64> {
        crate::stmt::const_trip_count(&self.lower, &self.upper, &self.step)
    }

    /// True when bounds are `1..=N` with unit step, `N` constant.
    pub fn is_normalized(&self) -> bool {
        self.is_unit_form() && self.upper.as_const().is_some()
    }

    /// True when the header reads `1..=U step 1`, `U` any expression (see
    /// [`Loop::is_unit_form`]).
    pub fn is_unit_form(&self) -> bool {
        crate::stmt::is_unit_form(&self.lower, &self.step)
    }
}

/// A perfect nest: the chain of loop headers (outermost first) plus the
/// innermost body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nest {
    /// Loop headers, outermost first.
    pub loops: Vec<LoopHeader>,
    /// The innermost loop's body.
    pub body: Vec<Stmt>,
}

impl Nest {
    /// Nest depth (number of loops).
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Trip count of every level, if all bounds are constant.
    pub fn trip_counts(&self) -> Option<Vec<u64>> {
        self.loops
            .iter()
            .map(LoopHeader::const_trip_count)
            .collect()
    }

    /// Product of all trip counts (the coalesced loop's length), guarding
    /// against overflow.
    pub fn total_iterations(&self) -> Option<u64> {
        let counts = self.trip_counts()?;
        crate::arith::checked_product(&counts)
    }

    /// True when every level is a `doall`.
    pub fn all_doall(&self) -> bool {
        self.loops.iter().all(|h| h.kind.is_doall())
    }

    /// True when every level is normalized (`1..=N`, unit step).
    pub fn is_normalized(&self) -> bool {
        self.loops.iter().all(LoopHeader::is_normalized)
    }

    /// Rebuild the nest as a single [`Loop`] statement tree.
    pub fn to_loop(&self) -> Loop {
        assert!(!self.loops.is_empty(), "empty nest");
        let mut body = self.body.clone();
        for h in self.loops.iter().skip(1).rev() {
            body = vec![Stmt::Loop(Loop {
                var: h.var.clone(),
                lower: h.lower.clone(),
                upper: h.upper.clone(),
                step: h.step.clone(),
                kind: h.kind,
                body,
            })];
        }
        let h = &self.loops[0];
        Loop {
            var: h.var.clone(),
            lower: h.lower.clone(),
            upper: h.upper.clone(),
            step: h.step.clone(),
            kind: h.kind,
            body,
        }
    }
}

/// Extract the maximal perfect nest rooted at `l`: descend while the body
/// is exactly one loop statement.
pub fn extract_nest(l: &Loop) -> Nest {
    let mut loops = vec![LoopHeader::from_loop(l)];
    let mut body = &l.body;
    while let [Stmt::Loop(inner)] = body.as_slice() {
        loops.push(LoopHeader::from_loop(inner));
        body = &inner.body;
    }
    Nest {
        loops,
        body: body.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn first_loop(src: &str) -> Loop {
        let p = parse_program(src).unwrap();
        match &p.body[0] {
            Stmt::Loop(l) => l.clone(),
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn extracts_triple_nest() {
        let l = first_loop(
            "
            array A[2][3][4];
            doall i = 1..2 {
                doall j = 1..3 {
                    doall k = 1..4 {
                        A[i][j][k] = i + j + k;
                    }
                }
            }
            ",
        );
        let nest = extract_nest(&l);
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.trip_counts(), Some(vec![2, 3, 4]));
        assert_eq!(nest.total_iterations(), Some(24));
        assert!(nest.all_doall());
        assert!(nest.is_normalized());
        assert_eq!(nest.body.len(), 1);
    }

    #[test]
    fn imperfect_nest_stops_at_extra_statement() {
        let l = first_loop(
            "
            array A[2][3];
            doall i = 1..2 {
                s = 0;
                doall j = 1..3 {
                    A[i][j] = s;
                }
            }
            ",
        );
        let nest = extract_nest(&l);
        assert_eq!(nest.depth(), 1);
        assert_eq!(nest.body.len(), 2);
    }

    #[test]
    fn to_loop_round_trips() {
        let l = first_loop(
            "
            array A[5][6];
            doall i = 1..5 {
                for j = 1..6 {
                    A[i][j] = i * j;
                }
            }
            ",
        );
        let nest = extract_nest(&l);
        assert_eq!(nest.to_loop(), l);
    }

    #[test]
    fn mixed_kinds_not_all_doall() {
        let l = first_loop(
            "
            array A[5][6];
            doall i = 1..5 {
                for j = 1..6 {
                    A[i][j] = i;
                }
            }
            ",
        );
        let nest = extract_nest(&l);
        assert!(!nest.all_doall());
        assert_eq!(nest.loops[0].kind, LoopKind::Doall);
        assert_eq!(nest.loops[1].kind, LoopKind::Serial);
    }

    #[test]
    fn symbolic_bounds_have_no_trip_counts() {
        let p = parse_program(
            "
            array A[9];
            n = 9;
            doall i = 1..n {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let l = match &p.body[1] {
            Stmt::Loop(l) => l.clone(),
            other => panic!("{other:?}"),
        };
        let nest = extract_nest(&l);
        assert_eq!(nest.trip_counts(), None);
        assert!(!nest.is_normalized());
    }

    #[test]
    fn non_unit_step_not_normalized() {
        let l = first_loop(
            "
            array A[10];
            doall i = 1..10 step 2 {
                A[i] = i;
            }
            ",
        );
        let nest = extract_nest(&l);
        assert!(!nest.is_normalized());
        assert_eq!(nest.trip_counts(), Some(vec![5]));
    }
}
