//! Statements and loops.

use crate::expr::{ArrayRef, Cond, Expr};
use crate::symbol::Symbol;

/// How a loop's iterations may legally be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// Iterations must run in order (the default `for`).
    Serial,
    /// Iterations are independent and may run in any order or in parallel.
    Doall,
    /// Iterations may be pipelined: iteration `i` may begin once iteration
    /// `i - delay` has finished the statements it depends on. Carried along
    /// in the IR for completeness; coalescing only applies to `Doall`.
    Doacross {
        /// Minimum iteration distance that must be respected.
        delay: u32,
    },
}

impl LoopKind {
    /// True for `doall` loops.
    pub fn is_doall(self) -> bool {
        matches!(self, LoopKind::Doall)
    }

    /// Keyword used by the DSL and pretty-printer.
    pub fn keyword(self) -> &'static str {
        match self {
            LoopKind::Serial => "for",
            LoopKind::Doall => "doall",
            LoopKind::Doacross { .. } => "doacross",
        }
    }
}

/// A counted loop `kind var = lower..upper step s { body }`.
///
/// Bounds are *inclusive* on both ends (Fortran-style, matching the paper's
/// `DO I = 1, N`), and the step must evaluate to a non-zero integer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loop {
    /// The loop index variable.
    pub var: Symbol,
    /// Inclusive lower bound.
    pub lower: Expr,
    /// Inclusive upper bound.
    pub upper: Expr,
    /// Step (defaults to 1 in the DSL).
    pub step: Expr,
    /// Execution semantics.
    pub kind: LoopKind,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl Loop {
    /// Convenience constructor for a unit-step loop.
    pub fn new(
        kind: LoopKind,
        var: impl Into<Symbol>,
        lower: impl Into<Expr>,
        upper: impl Into<Expr>,
        body: Vec<Stmt>,
    ) -> Self {
        Loop {
            var: var.into(),
            lower: lower.into(),
            upper: upper.into(),
            step: Expr::lit(1),
            kind,
            body,
        }
    }

    /// A `doall` loop from 1 to `n` with unit step.
    pub fn doall(var: impl Into<Symbol>, n: impl Into<Expr>, body: Vec<Stmt>) -> Self {
        Loop::new(LoopKind::Doall, var, 1, n, body)
    }

    /// A serial loop from 1 to `n` with unit step.
    pub fn serial(var: impl Into<Symbol>, n: impl Into<Expr>, body: Vec<Stmt>) -> Self {
        Loop::new(LoopKind::Serial, var, 1, n, body)
    }

    /// True when bounds are the constants `1..=N` (some `N`) and step is 1.
    pub fn is_normalized(&self) -> bool {
        self.is_unit_form() && self.upper.as_const().is_some()
    }

    /// True when the loop reads `1..=U step 1` for any upper bound `U` —
    /// the form index recovery needs, and the one normalization leaves
    /// unchanged.
    pub fn is_unit_form(&self) -> bool {
        is_unit_form(&self.lower, &self.step)
    }

    /// Constant trip count if bounds and step are literals.
    ///
    /// Returns `None` for symbolic bounds, a zero step, or the one count
    /// `u64` cannot hold (`2^64`, from `i64::MIN..i64::MAX`). A
    /// negative-trip (empty) loop reports `Some(0)`.
    pub fn const_trip_count(&self) -> Option<u64> {
        const_trip_count(&self.lower, &self.upper, &self.step)
    }
}

/// [`Loop::is_unit_form`] on bare header parts.
pub(crate) fn is_unit_form(lower: &Expr, step: &Expr) -> bool {
    lower.as_const() == Some(1) && step.as_const() == Some(1)
}

/// [`Loop::const_trip_count`] on bare header parts.
pub(crate) fn const_trip_count(lower: &Expr, upper: &Expr, step: &Expr) -> Option<u64> {
    let trip = crate::arith::trip_count(lower.as_const()?, upper.as_const()?, step.as_const()?)?;
    u64::try_from(trip).ok()
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `var = expr;` — scalar assignment.
    AssignScalar {
        /// Target variable.
        var: Symbol,
        /// Right-hand side.
        value: Expr,
    },
    /// `A[i][j] = expr;` — array element assignment.
    AssignArray {
        /// Target element.
        target: ArrayRef,
        /// Right-hand side.
        value: Expr,
    },
    /// A counted loop.
    Loop(Loop),
    /// Two-armed conditional (the `else` arm may be empty).
    If {
        /// Branch condition.
        cond: Cond,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Scalar-assignment shorthand.
    pub fn assign(var: impl Into<Symbol>, value: impl Into<Expr>) -> Stmt {
        Stmt::AssignScalar {
            var: var.into(),
            value: value.into(),
        }
    }

    /// Array-assignment shorthand.
    pub fn store(array: impl Into<Symbol>, indices: Vec<Expr>, value: impl Into<Expr>) -> Stmt {
        Stmt::AssignArray {
            target: ArrayRef::new(array, indices),
            value: value.into(),
        }
    }

    /// Substitute a variable in every expression of this statement tree.
    /// Loop-variable shadowing is respected: substitution does not descend
    /// into a loop that rebinds `var` (its bounds are still rewritten, since
    /// they are evaluated in the enclosing scope).
    pub fn substitute(&self, var: &Symbol, replacement: &Expr) -> Stmt {
        match self {
            Stmt::AssignScalar { var: v, value } => Stmt::AssignScalar {
                var: v.clone(),
                value: value.substitute(var, replacement),
            },
            Stmt::AssignArray { target, value } => Stmt::AssignArray {
                target: ArrayRef {
                    array: target.array.clone(),
                    indices: target
                        .indices
                        .iter()
                        .map(|ix| ix.substitute(var, replacement))
                        .collect(),
                },
                value: value.substitute(var, replacement),
            },
            Stmt::Loop(l) => {
                let lower = l.lower.substitute(var, replacement);
                let upper = l.upper.substitute(var, replacement);
                let step = l.step.substitute(var, replacement);
                let body = if &l.var == var {
                    l.body.clone()
                } else {
                    l.body
                        .iter()
                        .map(|s| s.substitute(var, replacement))
                        .collect()
                };
                Stmt::Loop(Loop {
                    var: l.var.clone(),
                    lower,
                    upper,
                    step,
                    kind: l.kind,
                    body,
                })
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: cond.substitute(var, replacement),
                then_body: then_body
                    .iter()
                    .map(|s| s.substitute(var, replacement))
                    .collect(),
                else_body: else_body
                    .iter()
                    .map(|s| s.substitute(var, replacement))
                    .collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn trips(lo: i64, hi: i64, step: i64) -> Option<u64> {
        let mut l = Loop::new(LoopKind::Serial, "i", lo, hi, vec![]);
        l.step = Expr::lit(step);
        l.const_trip_count()
    }

    #[test]
    fn trip_count_unit_step() {
        let l = Loop::doall("i", 10, vec![]);
        assert_eq!(l.const_trip_count(), Some(10));
        assert!(l.is_normalized());
        // `hi - lo` overflows i64 in both.
        assert_eq!(trips(-2, i64::MAX, 1), Some(i64::MAX as u64 + 3));
        assert_eq!(trips(i64::MIN, 0, 1), Some(i64::MAX as u64 + 2));
    }

    #[test]
    fn trip_count_general_step() {
        let mut l = Loop::new(LoopKind::Serial, "i", 3, 11, vec![]);
        l.step = Expr::lit(4);
        // 3, 7, 11
        assert_eq!(l.const_trip_count(), Some(3));
        assert!(!l.is_normalized());
        assert_eq!(trips(i64::MIN, i64::MAX, 2), Some(1 << 63));
        assert_eq!(trips(i64::MIN, i64::MAX, i64::MAX), Some(3));
    }

    #[test]
    fn trip_count_negative_step() {
        let mut l = Loop::new(LoopKind::Serial, "i", 10, 1, vec![]);
        l.step = Expr::lit(-3);
        // 10, 7, 4, 1
        assert_eq!(l.const_trip_count(), Some(4));
        assert_eq!(trips(i64::MAX, i64::MIN, i64::MIN), Some(2));
        assert_eq!(trips(0, i64::MIN, -1), Some(i64::MAX as u64 + 2));
        // 2^64 iterations: the one count no u64 holds.
        assert_eq!(trips(i64::MAX, i64::MIN, -1), None);
    }

    #[test]
    fn trip_count_empty_loop() {
        let l = Loop::new(LoopKind::Serial, "i", 5, 4, vec![]);
        assert_eq!(l.const_trip_count(), Some(0));
        assert_eq!(trips(i64::MAX, i64::MIN, 1), Some(0));
        assert_eq!(trips(i64::MIN, i64::MAX, -1), Some(0));
    }

    #[test]
    fn trip_count_symbolic_is_none() {
        let l = Loop::new(LoopKind::Doall, "i", 1, Expr::var("n"), vec![]);
        assert_eq!(l.const_trip_count(), None);
        assert!(!l.is_normalized());
    }

    #[test]
    fn trip_count_zero_step_is_none() {
        let mut l = Loop::new(LoopKind::Serial, "i", 1, 5, vec![]);
        l.step = Expr::lit(0);
        assert_eq!(l.const_trip_count(), None);
    }

    #[test]
    fn substitute_respects_shadowing() {
        // for j = 1..i { A[j] = i; }  — substituting i must rewrite the
        // bound and body, but substituting j must leave the body alone.
        let inner = Stmt::store("A", vec![Expr::var("j")], Expr::var("i"));
        let l = Stmt::Loop(Loop::new(
            LoopKind::Serial,
            "j",
            1,
            Expr::var("i"),
            vec![inner],
        ));

        let after_i = l.substitute(&Symbol::new("i"), &Expr::lit(9));
        if let Stmt::Loop(lp) = &after_i {
            assert_eq!(lp.upper, Expr::lit(9));
            match &lp.body[0] {
                Stmt::AssignArray { value, .. } => assert_eq!(*value, Expr::lit(9)),
                other => panic!("unexpected: {other:?}"),
            }
        } else {
            panic!("expected loop");
        }

        let after_j = l.substitute(&Symbol::new("j"), &Expr::lit(3));
        if let Stmt::Loop(lp) = &after_j {
            // Body must be untouched: j is rebound by the loop.
            match &lp.body[0] {
                Stmt::AssignArray { target, .. } => {
                    assert_eq!(target.indices[0], Expr::var("j"));
                }
                other => panic!("unexpected: {other:?}"),
            }
        } else {
            panic!("expected loop");
        }
    }

    #[test]
    fn loopkind_keywords() {
        assert_eq!(LoopKind::Serial.keyword(), "for");
        assert_eq!(LoopKind::Doall.keyword(), "doall");
        assert_eq!(LoopKind::Doacross { delay: 1 }.keyword(), "doacross");
        assert!(LoopKind::Doall.is_doall());
        assert!(!LoopKind::Serial.is_doall());
    }
}
