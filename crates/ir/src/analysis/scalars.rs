//! Scalar flow: which scalars one iteration of a nest level can receive
//! from another, the symbol sets the lints and transforms share, and
//! straight-line constants.
//!
//! A level is DOALL-legal only if its iterations communicate through no
//! array element ([`super::depend`]) and through no scalar. The scalar
//! half of the rule: every scalar the body assigns must be assigned
//! before it is read on every path through one iteration, so that each
//! iteration can keep a private copy. [`carried_scalars`] lists the
//! scalars that break this rule at one level. `lc-lint`'s LC005 and the
//! coalescing legality check in `lc-xform` both ask it.
//!
//! [`visit_symbols`] reports the mentions of the one IR walker
//! ([`super::walk`]); the symbol sets ([`assigned_scalars`],
//! [`read_vars`], [`mentioned`]) are built on it.
//!
//! [`ConstEnv`] is the straight-line constant propagation LC002 and the
//! driver's analyze stage share: [`absorb_stmt`] folds one statement into
//! it and [`const_value`] folds an expression under it, with the
//! interpreter's arithmetic ([`crate::arith::eval_binop`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::analysis::nest::Nest;
use crate::analysis::walk::{Mention, Visit, Walker};
use crate::arith::eval_binop;
use crate::expr::{Expr, UnOp};
use crate::stmt::Stmt;
use crate::symbol::Symbol;

/// A scalar that one iteration of a level can read before assigning it,
/// so the value it reads may be another iteration's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CarriedScalar {
    /// The scalar.
    pub var: Symbol,
    /// The first such read is the reduction idiom `var = var ⊕ …`.
    pub reduction: bool,
}

/// Scalars carried across the iterations of level `level` of `nest`, one
/// entry per scalar, in the order their first carried read executes.
///
/// One iteration of `level` evaluates the headers of levels `level + 1..`
/// and runs the body. A scalar is carried when the body assigns it and
/// that iteration can read it before assigning it for certain. A scalar
/// the body never assigns is loop-invariant and is never carried. Every
/// nest index counts as assigned on entry. Assignments inside a loop are
/// not certain after it, since it may run zero times. Assignments inside
/// an `if` are certain after it only when both arms make them.
pub fn carried_scalars(nest: &Nest, level: usize) -> Vec<CarriedScalar> {
    let mut scan = Scan {
        written: assigned_scalars(&nest.body, false),
        hits: Vec::new(),
    };
    let mut defined: BTreeSet<Symbol> = nest.loops.iter().map(|h| h.var.clone()).collect();
    for h in &nest.loops[level + 1..] {
        for e in [&h.lower, &h.upper, &h.step] {
            scan.read(e, &defined, None);
        }
    }
    scan.stmts(&nest.body, &mut defined);
    scan.hits
}

struct Scan {
    written: BTreeSet<Symbol>,
    hits: Vec<CarriedScalar>,
}

impl Scan {
    /// Record the carried reads of `e`; `target` is the scalar the
    /// enclosing assignment writes, if any.
    fn read(&mut self, e: &Expr, defined: &BTreeSet<Symbol>, target: Option<&Symbol>) {
        Walker::default().expr(e, &mut |v| self.hit(v, defined, target));
    }

    fn hit(&mut self, v: Visit<'_>, defined: &BTreeSet<Symbol>, target: Option<&Symbol>) {
        let Visit::Mention(var, Mention::Read { .. }) = v else {
            return;
        };
        if self.written.contains(var)
            && !defined.contains(var)
            && !self.hits.iter().any(|h| h.var == *var)
        {
            self.hits.push(CarriedScalar {
                var: var.clone(),
                reduction: target == Some(var),
            });
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], defined: &mut BTreeSet<Symbol>) {
        for s in stmts {
            match s {
                Stmt::AssignScalar { var, value } => {
                    self.read(value, defined, Some(var));
                    defined.insert(var.clone());
                }
                Stmt::AssignArray { target, value } => {
                    for ix in &target.indices {
                        self.read(ix, defined, None);
                    }
                    self.read(value, defined, None);
                }
                Stmt::Loop(l) => {
                    for e in [&l.lower, &l.upper, &l.step] {
                        self.read(e, defined, None);
                    }
                    let mut inner = defined.clone();
                    inner.insert(l.var.clone());
                    self.stmts(&l.body, &mut inner);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    Walker::default().cond(cond, &mut |v| self.hit(v, defined, None));
                    let mut t = defined.clone();
                    self.stmts(then_body, &mut t);
                    let mut e = defined.clone();
                    self.stmts(else_body, &mut e);
                    *defined = t.intersection(&e).cloned().collect();
                }
            }
        }
    }
}

/// Call `f` on every name `stmts` mentions, at any depth and on every
/// branch: the [`Walker`]'s mentions. Names of arrays that are only read
/// are not reported.
pub fn visit_symbols(stmts: &[Stmt], f: &mut impl FnMut(&Symbol, Mention)) {
    Walker::default().stmts(stmts, &mut |v| {
        if let Visit::Mention(name, m) = v {
            f(name, m);
        }
    });
}

/// Scalars assigned anywhere in `stmts`. With `doall_only`, only those
/// that a `doall` inside `stmts` encloses.
pub fn assigned_scalars(stmts: &[Stmt], doall_only: bool) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    visit_symbols(stmts, &mut |v, m| {
        if let Mention::Assign { under_doall } = m {
            if under_doall || !doall_only {
                out.insert(v.clone());
            }
        }
    });
    out
}

/// Variables read anywhere in `stmts`: values, subscripts, conditions and
/// loop bounds. With `scoped`, a read of a loop's index inside that
/// loop's body is left out.
pub fn read_vars(stmts: &[Stmt], scoped: bool) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    visit_symbols(stmts, &mut |v, m| {
        if let Mention::Read { shadowed } = m {
            if !(scoped && shadowed) {
                out.insert(v.clone());
            }
        }
    });
    out
}

/// Every name `stmts` mentions: reads, assigned scalars, loop indices and
/// stored arrays.
pub fn mentioned(stmts: &[Stmt]) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    visit_symbols(stmts, &mut |v, _| {
        out.insert(v.clone());
    });
    out
}

/// Scalars known to hold a constant, from straight-line top-level
/// assignments.
pub type ConstEnv = BTreeMap<Symbol, i64>;

/// Fold `e` to a constant under `env`; `None` when some operand is
/// unknown or the interpreter would trap.
pub fn const_value(e: &Expr, env: &ConstEnv) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(s) => env.get(s).copied(),
        Expr::Read(_) => None,
        Expr::Unary(UnOp::Neg, a) => const_value(a, env)?.checked_neg(),
        Expr::Binary(op, a, b) => eval_binop(*op, const_value(a, env)?, const_value(b, env)?),
    }
}

/// Fold one statement into a running constant environment: a
/// straight-line scalar assignment updates (or invalidates) its
/// variable; compound statements (loops, `if`s) invalidate every scalar
/// they *might* assign, since those assignments are not definite
/// straight-line facts.
pub fn absorb_stmt(env: &mut ConstEnv, s: &Stmt) {
    match s {
        Stmt::AssignScalar { var, value } => match const_value(value, env) {
            Some(v) => {
                env.insert(var.clone(), v);
            }
            None => {
                env.remove(var);
            }
        },
        Stmt::AssignArray { .. } => {}
        Stmt::Loop(_) | Stmt::If { .. } => {
            for var in assigned_scalars(std::slice::from_ref(s), false) {
                env.remove(&var);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::nest::extract_nest;
    use crate::parser::parse_program;

    fn nest_of(src: &str) -> Nest {
        let p = parse_program(src).unwrap();
        p.body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop(l) => Some(extract_nest(l)),
                _ => None,
            })
            .unwrap()
    }

    fn carried(src: &str, level: usize) -> Vec<(String, bool)> {
        carried_scalars(&nest_of(src), level)
            .into_iter()
            .map(|c| (c.var.to_string(), c.reduction))
            .collect()
    }

    fn names(set: BTreeSet<Symbol>) -> Vec<String> {
        set.into_iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reduction_and_late_write_are_carried() {
        let src = "array A[8]; doall i = 1..8 { s = s + A[i]; A[i] = u; u = i; }";
        assert_eq!(
            carried(src, 0),
            vec![("s".to_string(), true), ("u".to_string(), false)]
        );
    }

    #[test]
    fn write_before_read_is_private() {
        let src = "array A[8]; doall i = 1..8 { t = i * 2; if t > 3 { u = 1; } else { u = 2; } A[i] = t + u; }";
        assert!(carried(src, 0).is_empty());
    }

    #[test]
    fn a_write_inside_a_loop_or_one_arm_is_not_certain() {
        let src = "array A[8]; doall i = 1..8 { for k = 1..2 { t = k; } if i > 3 { u = 1; } A[i] = t + u; }";
        assert_eq!(
            carried(src, 0),
            vec![("t".to_string(), false), ("u".to_string(), false)]
        );
    }

    #[test]
    fn inner_headers_are_read_inside_the_iteration() {
        let src =
            "array A[4][8]; t = 2; doall i = 1..4 { for j = 1..t { A[i][j] = i + j; t = 5; } }";
        assert_eq!(carried(src, 0), vec![("t".to_string(), false)]);
        // Level 1's own header runs once per iteration of level 0.
        assert!(carried(src, 1).is_empty());
    }

    #[test]
    fn constants_fold_with_floor_division_until_a_loop_may_reassign() {
        let p = parse_program(
            "array A[2]; n = (0 - 7) / 2; m = n % 3; r = A[1]; k = 5; for i = 1..2 { k = i; } j = m;",
        )
        .unwrap();
        let mut env = ConstEnv::new();
        for s in &p.body {
            absorb_stmt(&mut env, s);
        }
        let get = |name: &str| env.get(&Symbol::new(name)).copied();
        assert_eq!((get("n"), get("m"), get("j")), (Some(-4), Some(2), Some(2)));
        assert_eq!((get("r"), get("k")), (None, None));
    }

    #[test]
    fn walkers_report_each_kind_of_mention() {
        let p = parse_program(
            "array A[8]; array B[8]; for i = 1..n { doall j = 1..8 { s = i + j + B[k]; } A[i] = j; }",
        )
        .unwrap();
        let body = &p.body;
        assert_eq!(names(assigned_scalars(body, false)), ["s"]);
        assert_eq!(names(assigned_scalars(body, true)), ["s"]);
        let Stmt::Loop(outer) = &body[0] else {
            panic!()
        };
        assert!(assigned_scalars(&outer.body[1..], true).is_empty());
        assert_eq!(names(read_vars(body, false)), ["i", "j", "k", "n"]);
        assert_eq!(names(read_vars(body, true)), ["j", "k", "n"]);
        assert_eq!(names(mentioned(body)), ["A", "i", "j", "k", "n", "s"]);
    }
}
