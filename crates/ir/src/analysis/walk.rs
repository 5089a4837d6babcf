//! The one statement walker behind the IR analyses: [`Walker`] visits
//! statements in evaluation order (a loop's header before its body, an
//! assignment's value before its target's subscripts, a read's subscripts
//! before the read) and reports every array reference ([`Access`], with
//! its guard pins and innermost loop's pre-order ordinal) and every name
//! mentioned ([`Mention`], with loop scoping). Its clients are
//! [`super::depend::analyze_nest`], whose flow/anti classification relies
//! on the order, lc-lint's LC003 and [`super::scalars::visit_symbols`].

use std::collections::BTreeMap;

use crate::expr::{ArrayRef, CmpOp, Cond, Expr};
use crate::stmt::{Loop, Stmt};
use crate::symbol::Symbol;

/// Variables pinned to a constant by enclosing `if v == c` guards: a
/// reference under `if j == 1 { … }` only executes in iterations with
/// `j = 1`.
pub type Pins = BTreeMap<Symbol, i64>;

/// One array reference.
#[derive(Debug, Clone, Copy)]
pub struct Access<'a> {
    /// The array.
    pub array: &'a Symbol,
    /// Its subscripts, one per dimension.
    pub indices: &'a [Expr],
    /// The store of an array assignment rather than a read.
    pub write: bool,
    /// Guard pins in force at the reference.
    pub pins: &'a Pins,
    /// Pre-order ordinal of the innermost loop whose header or body holds
    /// the reference, counting the walker's loops from 0 (0 outside every
    /// loop).
    pub ordinal: usize,
}

/// How a statement list mentions a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mention {
    /// Read in a value, subscript, condition or loop bound. `shadowed`
    /// when a loop inside the list that encloses the read binds the name,
    /// so the read sees that loop's index rather than an outer scalar.
    Read {
        /// A loop inside the list binds the name here.
        shadowed: bool,
    },
    /// Assigned as a scalar.
    Assign {
        /// A `doall` inside the list encloses the assignment.
        under_doall: bool,
    },
    /// Bound as the index of a loop inside the list.
    Index,
    /// Written as an array: the target of an element store. Arrays that
    /// are only read are reported as [`Access`]es, not mentions.
    Store,
}

/// What the walker reports.
#[derive(Debug, Clone, Copy)]
pub enum Visit<'a> {
    /// An array reference.
    Access(Access<'a>),
    /// A name and how it is mentioned.
    Mention(&'a Symbol, Mention),
}

/// Walk state: guard pins, loop scopes and loop ordinals. One walker may
/// visit several statement lists in turn; scopes and pins open inside a
/// list close at its end, while ordinals keep counting.
#[derive(Debug, Default)]
pub struct Walker {
    pins: Pins,
    bound: Vec<Symbol>,
    under_doall: bool,
    ordinal: usize,
    next: usize,
}

impl Walker {
    /// Walk a statement list.
    pub fn stmts(&mut self, stmts: &[Stmt], f: &mut impl FnMut(Visit<'_>)) {
        for s in stmts {
            match s {
                Stmt::AssignScalar { var, value } => {
                    self.expr(value, f);
                    let under_doall = self.under_doall;
                    f(Visit::Mention(var, Mention::Assign { under_doall }));
                }
                Stmt::AssignArray { target, value } => {
                    self.expr(value, f);
                    f(Visit::Mention(&target.array, Mention::Store));
                    self.array_ref(target, true, f);
                }
                Stmt::Loop(l) => self.walk_loop(l, f),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.cond(cond, f);
                    let outer = self.pins.clone();
                    self.pin(cond);
                    self.stmts(then_body, f);
                    self.pins = outer;
                    self.stmts(else_body, f);
                }
            }
        }
    }

    /// Walk one loop: its header under the loop's own ordinal, then its
    /// body with the loop's index in scope.
    pub fn walk_loop(&mut self, l: &Loop, f: &mut impl FnMut(Visit<'_>)) {
        let outer = self.ordinal;
        self.ordinal = self.next;
        self.next += 1;
        f(Visit::Mention(&l.var, Mention::Index));
        for e in [&l.lower, &l.upper, &l.step] {
            self.expr(e, f);
        }
        // The loop rebinds its index: a pin on the outer name no longer
        // applies inside.
        let pin = self.pins.remove(&l.var);
        let doall = self.under_doall;
        self.under_doall |= l.kind.is_doall();
        self.bound.push(l.var.clone());
        self.stmts(&l.body, f);
        self.bound.pop();
        self.under_doall = doall;
        if let Some(c) = pin {
            self.pins.insert(l.var.clone(), c);
        }
        self.ordinal = outer;
    }

    /// Walk one expression.
    pub fn expr(&mut self, e: &Expr, f: &mut impl FnMut(Visit<'_>)) {
        match e {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                let shadowed = self.bound.contains(v);
                f(Visit::Mention(v, Mention::Read { shadowed }));
            }
            Expr::Read(r) => self.array_ref(r, false, f),
            Expr::Unary(_, a) => self.expr(a, f),
            Expr::Binary(_, a, b) => {
                self.expr(a, f);
                self.expr(b, f);
            }
        }
    }

    /// Walk one condition.
    pub fn cond(&mut self, c: &Cond, f: &mut impl FnMut(Visit<'_>)) {
        match c {
            Cond::Cmp(_, a, b) => {
                self.expr(a, f);
                self.expr(b, f);
            }
            Cond::Not(x) => self.cond(x, f),
            Cond::And(a, b) | Cond::Or(a, b) => {
                self.cond(a, f);
                self.cond(b, f);
            }
        }
    }

    fn array_ref(&mut self, r: &ArrayRef, write: bool, f: &mut impl FnMut(Visit<'_>)) {
        for ix in &r.indices {
            self.expr(ix, f);
        }
        f(Visit::Access(Access {
            array: &r.array,
            indices: &r.indices,
            write,
            pins: &self.pins,
            ordinal: self.ordinal,
        }));
    }

    /// Pin the variables a guard's plain conjunctive `v == c` tests fix;
    /// any other condition pins nothing, which is conservative.
    fn pin(&mut self, c: &Cond) {
        match c {
            Cond::Cmp(CmpOp::Eq, a, b) => {
                if let (Expr::Var(v), Some(k)) = (a, b.as_const()) {
                    self.pins.insert(v.clone(), k);
                } else if let (Some(k), Expr::Var(v)) = (a.as_const(), b) {
                    self.pins.insert(v.clone(), k);
                }
            }
            Cond::And(a, b) => {
                self.pin(a);
                self.pin(b);
            }
            _ => {}
        }
    }
}
