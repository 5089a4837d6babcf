//! Integer expressions, array references, and boolean conditions.

use std::ops;

use crate::symbol::Symbol;

/// Binary integer operators.
///
/// `Div` and `Mod` use *floor* semantics (see [`crate::arith`]); `CeilDiv`
/// is a first-class operator because the paper's index-recovery formulas
/// are expressed entirely with ceiling division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Floor division.
    Div,
    /// Floor modulus.
    Mod,
    /// Ceiling division (`⌈a/b⌉`).
    CeilDiv,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
}

impl BinOp {
    /// Abstract cost of the operator in machine "instructions", used by the
    /// cost model when counting index-recovery overhead (matching the
    /// paper's unit of measure).
    pub fn op_cost(self) -> u64 {
        match self {
            BinOp::Add | BinOp::Sub => 1,
            BinOp::Min | BinOp::Max => 2,
            BinOp::Mul => 3,
            BinOp::Div | BinOp::Mod | BinOp::CeilDiv => 8,
        }
    }
}

/// Unary integer operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
}

/// A subscripted array reference, e.g. `A[i][j+1]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The array's name.
    pub array: Symbol,
    /// One subscript expression per dimension (1-based at runtime).
    pub indices: Vec<Expr>,
}

impl ArrayRef {
    /// Construct an array reference.
    pub fn new(array: impl Into<Symbol>, indices: Vec<Expr>) -> Self {
        ArrayRef {
            array: array.into(),
            indices,
        }
    }
}

/// An integer-valued expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Scalar variable or loop index read.
    Var(Symbol),
    /// Array element read.
    Read(ArrayRef),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal shorthand.
    pub fn lit(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Variable-read shorthand.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// Array-read shorthand.
    pub fn read(array: impl Into<Symbol>, indices: Vec<Expr>) -> Expr {
        Expr::Read(ArrayRef::new(array, indices))
    }

    /// Build a binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Ceiling division node (`⌈self / rhs⌉`).
    pub fn ceil_div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::CeilDiv, self, rhs)
    }

    /// Floor division node.
    pub fn floor_div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }

    /// Floor modulus node.
    pub fn floor_mod(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, self, rhs)
    }

    /// Minimum node.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Min, self, rhs)
    }

    /// Maximum node.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Max, self, rhs)
    }

    /// If the expression is a literal, return its value.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Total number of operator nodes (unary + binary) in the tree — the
    /// abstract "instruction count" of evaluating the expression once,
    /// weighted by per-operator cost.
    pub fn op_cost(&self) -> u64 {
        match self {
            Expr::Const(_) | Expr::Var(_) => 0,
            Expr::Read(r) => 1 + r.indices.iter().map(Expr::op_cost).sum::<u64>(),
            Expr::Unary(_, e) => 1 + e.op_cost(),
            Expr::Binary(op, a, b) => op.op_cost() + a.op_cost() + b.op_cost(),
        }
    }

    /// Collect every variable mentioned in the expression into `out`
    /// (with duplicates; callers dedup if needed).
    pub fn variables(&self, out: &mut Vec<Symbol>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(s) => out.push(s.clone()),
            Expr::Read(r) => {
                for ix in &r.indices {
                    ix.variables(out);
                }
            }
            Expr::Unary(_, e) => e.variables(out),
            Expr::Binary(_, a, b) => {
                a.variables(out);
                b.variables(out);
            }
        }
    }

    /// Structurally substitute every occurrence of variable `var` with
    /// `replacement`, returning the rewritten tree.
    pub fn substitute(&self, var: &Symbol, replacement: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(s) => {
                if s == var {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Read(r) => Expr::Read(ArrayRef {
                array: r.array.clone(),
                indices: r
                    .indices
                    .iter()
                    .map(|ix| ix.substitute(var, replacement))
                    .collect(),
            }),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.substitute(var, replacement))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
        }
    }

    /// Constant-fold the expression bottom-up. Operations that would trap
    /// (division by zero, overflow) are left un-folded so the interpreter
    /// reports them at runtime with context.
    pub fn fold(&self) -> Expr {
        use crate::arith;
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Read(r) => Expr::Read(ArrayRef {
                array: r.array.clone(),
                indices: r.indices.iter().map(Expr::fold).collect(),
            }),
            Expr::Unary(op, e) => {
                let e = e.fold();
                if let (UnOp::Neg, Some(v)) = (op, e.as_const()) {
                    if let Some(n) = v.checked_neg() {
                        return Expr::Const(n);
                    }
                }
                Expr::Unary(*op, Box::new(e))
            }
            Expr::Binary(op, a, b) => {
                let a = a.fold();
                let b = b.fold();
                if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                    if let Some(v) = arith::eval_binop(*op, x, y) {
                        return Expr::Const(v);
                    }
                }
                // Algebraic identities that keep generated recovery code tidy.
                match (op, a.as_const(), b.as_const()) {
                    (BinOp::Add, Some(0), _) => return b,
                    (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => return a,
                    (BinOp::Mul, Some(1), _) => return b,
                    (BinOp::Mul, _, Some(1))
                    | (BinOp::Div, _, Some(1))
                    | (BinOp::CeilDiv, _, Some(1)) => return a,
                    (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => {
                        return Expr::Const(0);
                    }
                    _ => {}
                }
                Expr::Binary(*op, Box::new(a), Box::new(b))
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<&str> for Expr {
    fn from(name: &str) -> Self {
        Expr::var(name)
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Self {
        Expr::Var(s)
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }
}

/// Comparison operators for conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two values.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// Boolean conditions for `if` statements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// A comparison of two integer expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Logical negation.
    Not(Box<Cond>),
    /// Logical conjunction (short-circuit).
    And(Box<Cond>, Box<Cond>),
    /// Logical disjunction (short-circuit).
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// Comparison shorthand.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Cond {
        Cond::Cmp(op, lhs, rhs)
    }

    /// Substitute a variable in every embedded expression.
    pub fn substitute(&self, var: &Symbol, replacement: &Expr) -> Cond {
        match self {
            Cond::Cmp(op, a, b) => Cond::Cmp(
                *op,
                a.substitute(var, replacement),
                b.substitute(var, replacement),
            ),
            Cond::Not(c) => Cond::Not(Box::new(c.substitute(var, replacement))),
            Cond::And(a, b) => Cond::And(
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
            Cond::Or(a, b) => Cond::Or(
                Box::new(a.substitute(var, replacement)),
                Box::new(b.substitute(var, replacement)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    #[test]
    fn builder_operators_produce_expected_trees() {
        let e = v("i") * Expr::lit(10) + v("j");
        match &e {
            Expr::Binary(BinOp::Add, lhs, rhs) => {
                assert!(matches!(**lhs, Expr::Binary(BinOp::Mul, _, _)));
                assert!(matches!(**rhs, Expr::Var(_)));
            }
            other => panic!("unexpected tree: {other:?}"),
        }
    }

    #[test]
    fn substitute_replaces_all_occurrences() {
        let e = v("i") + v("i") * v("j");
        let r = e.substitute(&Symbol::new("i"), &Expr::lit(3));
        let mut vars = Vec::new();
        r.variables(&mut vars);
        assert_eq!(vars, vec![Symbol::new("j")]);
    }

    #[test]
    fn substitute_descends_into_array_subscripts() {
        let e = Expr::read("A", vec![v("i") + Expr::lit(1), v("k")]);
        let r = e.substitute(&Symbol::new("i"), &v("t"));
        let mut vars = Vec::new();
        r.variables(&mut vars);
        assert!(vars.contains(&Symbol::new("t")));
        assert!(!vars.contains(&Symbol::new("i")));
    }

    #[test]
    fn fold_constant_arithmetic() {
        let e = (Expr::lit(6) * Expr::lit(7) + Expr::lit(-2)).fold();
        assert_eq!(e, Expr::Const(40));
    }

    #[test]
    fn fold_identities() {
        assert_eq!((v("x") + Expr::lit(0)).fold(), v("x"));
        assert_eq!((Expr::lit(1) * v("x")).fold(), v("x"));
        assert_eq!((v("x") * Expr::lit(0)).fold(), Expr::Const(0));
        assert_eq!(v("x").ceil_div(Expr::lit(1)).fold(), v("x"));
    }

    #[test]
    fn fold_does_not_hide_division_by_zero() {
        let e = Expr::lit(5).floor_div(Expr::lit(0)).fold();
        assert!(matches!(e, Expr::Binary(BinOp::Div, _, _)));
    }

    #[test]
    fn fold_leaves_min_over_minus_one_unfolded() {
        let min = || Expr::lit(i64::MIN);
        for op in [BinOp::Div, BinOp::CeilDiv] {
            let e = Expr::Binary(op, Box::new(min()), Box::new(Expr::lit(-1))).fold();
            assert!(matches!(e, Expr::Binary(o, _, _) if o == op), "{op:?}");
        }
        // The remainder exists, so it folds.
        assert_eq!(min().floor_mod(Expr::lit(-1)).fold(), Expr::Const(0));
    }

    #[test]
    fn fold_ceil_div_uses_ceiling_semantics() {
        assert_eq!(Expr::lit(7).ceil_div(Expr::lit(2)).fold(), Expr::Const(4));
        assert_eq!(Expr::lit(-7).ceil_div(Expr::lit(2)).fold(), Expr::Const(-3));
    }

    #[test]
    fn op_cost_weights_division_heavier() {
        let cheap = (v("i") + v("j")).op_cost();
        let pricey = v("i").ceil_div(v("j")).op_cost();
        assert!(pricey > cheap);
    }

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Le.apply(3, 3));
        assert!(CmpOp::Lt.apply(2, 3));
        assert!(!CmpOp::Gt.apply(2, 3));
        assert!(CmpOp::Ne.apply(2, 3));
    }

    #[test]
    fn cond_substitute_replaces_every_occurrence() {
        let c = |i: Expr| {
            Cond::And(
                Box::new(Cond::cmp(CmpOp::Lt, i.clone(), v("n"))),
                Box::new(Cond::Not(Box::new(Cond::cmp(CmpOp::Eq, i, Expr::lit(0))))),
            )
        };
        assert_eq!(
            c(v("i")).substitute(&Symbol::new("i"), &Expr::lit(5)),
            c(Expr::lit(5))
        );
    }
}
