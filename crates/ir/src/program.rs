//! Top-level programs: array declarations plus a statement list.

use crate::error::Result;
use crate::stmt::Stmt;
use crate::symbol::Symbol;

/// A declared array with fixed extents. Subscripts at runtime are 1-based
/// (`1..=extent`), matching the Fortran-flavoured loops of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: Symbol,
    /// Extent of each dimension (row-major storage).
    pub dims: Vec<usize>,
}

impl ArrayDecl {
    /// Construct a declaration.
    pub fn new(name: impl Into<Symbol>, dims: Vec<usize>) -> Self {
        ArrayDecl {
            name: name.into(),
            dims,
        }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the array has zero elements (some extent is 0).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Declared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Top-level statements, executed in order.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Add an array declaration (builder style).
    pub fn with_array(mut self, name: impl Into<Symbol>, dims: Vec<usize>) -> Self {
        self.arrays.push(ArrayDecl::new(name, dims));
        self
    }

    /// Add a statement (builder style).
    pub fn with_stmt(mut self, stmt: Stmt) -> Self {
        self.body.push(stmt);
        self
    }

    /// Add several statements (builder style).
    pub fn with_stmt_all(mut self, stmts: Vec<Stmt>) -> Self {
        self.body.extend(stmts);
        self
    }

    /// Find a declaration by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name.as_str() == name)
    }

    /// Validate that array declarations are unique and that every array
    /// reference in the body names a declared array with the right rank.
    /// (Bounds are checked at runtime by the interpreter.) These are the
    /// checks lowering for the interpreter makes, so this lowers the
    /// program and reports the first error in body order.
    pub fn check(&self) -> Result<()> {
        crate::interp::Lowered::new(self).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::expr::Expr;

    #[test]
    fn check_accepts_wellformed_program() {
        let p = Program::new()
            .with_array("A", vec![4, 4])
            .with_stmt(Stmt::store(
                "A",
                vec![Expr::lit(1), Expr::lit(2)],
                Expr::lit(5),
            ));
        assert!(p.check().is_ok());
    }

    #[test]
    fn check_rejects_unknown_array() {
        let p = Program::new().with_stmt(Stmt::store("B", vec![Expr::lit(1)], Expr::lit(0)));
        assert_eq!(p.check(), Err(Error::UnknownArray(Symbol::new("B"))));
    }

    #[test]
    fn check_rejects_rank_mismatch() {
        let p = Program::new()
            .with_array("A", vec![4, 4])
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::lit(0)));
        assert!(matches!(p.check(), Err(Error::RankMismatch { .. })));
    }

    #[test]
    fn check_rejects_duplicate_array() {
        let p = Program::new()
            .with_array("A", vec![4])
            .with_array("A", vec![8]);
        assert_eq!(p.check(), Err(Error::DuplicateArray(Symbol::new("A"))));
    }

    #[test]
    fn check_descends_into_reads_inside_conditions() {
        use crate::expr::{CmpOp, Cond};
        let p = Program::new().with_stmt(Stmt::If {
            cond: Cond::cmp(CmpOp::Lt, Expr::read("M", vec![Expr::lit(1)]), Expr::lit(0)),
            then_body: vec![],
            else_body: vec![],
        });
        assert_eq!(p.check(), Err(Error::UnknownArray(Symbol::new("M"))));
    }

    #[test]
    fn array_len() {
        let d = ArrayDecl::new("A", vec![3, 4, 5]);
        assert_eq!(d.len(), 60);
        assert!(!d.is_empty());
        assert!(ArrayDecl::new("Z", vec![0, 9]).is_empty());
    }
}
