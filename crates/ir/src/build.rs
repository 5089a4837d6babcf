//! Recovery-expression construction: a simplifying statement builder and
//! a typed operation-count model.
//!
//! Every transformation that emits index-recovery code (constant-trip
//! coalescing, symbolic coalescing, strength reduction) used to build and
//! cost its expressions independently. [`ExprBuilder`] is the one shared
//! path: assignments are constant-folded and identity-simplified as they
//! are pushed, repeated division subterms can be interned into
//! temporaries, and the accumulated block reports its cost as a typed
//! [`RecoveryCost`] instead of a bare weighted integer — so the analytic
//! tables (bench T1), the collapse-band advisor (`lc-sched`), and the
//! rewrite itself all read the same numbers.

use std::collections::HashMap;
use std::ops::{Add, AddAssign};

use crate::expr::{BinOp, Expr};
use crate::stmt::Stmt;
use crate::symbol::Symbol;

/// A typed count of the operations a recovery block (or expression)
/// performs, broken out by kind. The weighted scalar view
/// ([`RecoveryCost::units`]) reproduces the abstract op-cost model of
/// [`Expr::op_cost`] exactly: adds/subs weigh 1, min/max 2, multiplies 3,
/// divisions (including `mod` and `ceildiv`) 8, array reads and stores 1
/// each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCost {
    /// Additions, subtractions, and unary operations (weight 1).
    pub adds: u64,
    /// `min` / `max` operations (weight 2).
    pub minmax: u64,
    /// Multiplications (weight 3).
    pub muls: u64,
    /// Divisions, modulos, and ceiling divisions (weight 8).
    pub divs: u64,
    /// Array element reads (weight 1 each, excluding index arithmetic).
    pub reads: u64,
    /// Scalar and array stores (weight 1 each).
    pub stores: u64,
}

impl RecoveryCost {
    /// The weighted single-number cost, on the same scale as
    /// [`Expr::op_cost`] plus one unit per store.
    pub fn units(&self) -> u64 {
        self.adds + 2 * self.minmax + 3 * self.muls + 8 * self.divs + self.reads + self.stores
    }

    /// Count the operations in one expression.
    pub fn of_expr(e: &Expr) -> RecoveryCost {
        let mut c = RecoveryCost::default();
        c.add_expr(e);
        c
    }

    /// Count the operations a block of statements performs per
    /// execution: each scalar or array assignment costs its value (plus
    /// indices) and one store. Loops and conditionals contribute nothing
    /// themselves — recovery blocks are straight-line code.
    pub fn of_stmts(stmts: &[Stmt]) -> RecoveryCost {
        let mut c = RecoveryCost::default();
        for s in stmts {
            match s {
                Stmt::AssignScalar { value, .. } => {
                    c.add_expr(value);
                    c.stores += 1;
                }
                Stmt::AssignArray { target, value } => {
                    for ix in &target.indices {
                        c.add_expr(ix);
                    }
                    c.add_expr(value);
                    c.stores += 1;
                }
                _ => {}
            }
        }
        c
    }

    fn add_expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Read(r) => {
                self.reads += 1;
                for ix in &r.indices {
                    self.add_expr(ix);
                }
            }
            Expr::Unary(_, a) => {
                self.adds += 1;
                self.add_expr(a);
            }
            Expr::Binary(op, a, b) => {
                match op {
                    BinOp::Add | BinOp::Sub => self.adds += 1,
                    BinOp::Min | BinOp::Max => self.minmax += 1,
                    BinOp::Mul => self.muls += 1,
                    BinOp::Div | BinOp::Mod | BinOp::CeilDiv => self.divs += 1,
                }
                self.add_expr(a);
                self.add_expr(b);
            }
        }
    }
}

impl Add for RecoveryCost {
    type Output = RecoveryCost;
    fn add(mut self, rhs: RecoveryCost) -> RecoveryCost {
        self += rhs;
        self
    }
}

impl AddAssign for RecoveryCost {
    fn add_assign(&mut self, rhs: RecoveryCost) {
        self.adds += rhs.adds;
        self.minmax += rhs.minmax;
        self.muls += rhs.muls;
        self.divs += rhs.divs;
        self.reads += rhs.reads;
        self.stores += rhs.stores;
    }
}

/// A builder for straight-line recovery blocks. Values pushed through
/// [`ExprBuilder::assign`] are simplified ([`Expr::fold`]: constant
/// folding plus the algebraic identities `x+0`, `x-0`, `1*x`, `x*1`,
/// `x/1`, `⌈x/1⌉`, `0*x`), and repeated division subterms can be
/// interned into dependency-ordered temporaries.
#[derive(Debug, Clone, Default)]
pub struct ExprBuilder {
    stmts: Vec<Stmt>,
}

impl ExprBuilder {
    /// An empty builder.
    pub fn new() -> ExprBuilder {
        ExprBuilder::default()
    }

    /// Wrap an existing block (statements are taken as-is, unfolded).
    pub fn from_stmts(stmts: Vec<Stmt>) -> ExprBuilder {
        ExprBuilder { stmts }
    }

    /// Append `var = value`, simplifying the value first.
    pub fn assign(&mut self, var: impl Into<Symbol>, value: Expr) {
        self.stmts.push(Stmt::AssignScalar {
            var: var.into(),
            value: value.fold(),
        });
    }

    /// Append a statement unchanged.
    pub fn push(&mut self, s: Stmt) {
        self.stmts.push(s);
    }

    /// The block built so far.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// Consume the builder, yielding the block.
    pub fn into_stmts(self) -> Vec<Stmt> {
        self.stmts
    }

    /// The typed per-execution cost of the current block.
    pub fn cost(&self) -> RecoveryCost {
        RecoveryCost::of_stmts(&self.stmts)
    }

    /// Hoist repeated division-bearing subexpressions (`/`, `%`,
    /// `ceildiv`) into temporaries named `{prefix}0`, `{prefix}1`, …,
    /// most profitable first, until no subterm occurs twice. Temporaries
    /// are emitted in dependency order ahead of the original statements.
    /// Returns the number of temporaries introduced.
    ///
    /// A subterm that reads a scalar the block itself assigns is never
    /// hoisted: its temporary would run before that assignment and read
    /// a stale (or unbound) value.
    ///
    /// This is the paper's recovery strength reduction: adjacent ceiling
    /// formulas share their `⌈j/P⌉` terms, and interning each shared
    /// division roughly halves the per-iteration division count for deep
    /// nests.
    pub fn intern_shared_divisions(&mut self, prefix: &str) -> usize {
        let mut temps: Vec<Stmt> = Vec::new();
        let work = &mut self.stmts;
        let mut hoisted = 0usize;
        let assigned: Vec<Symbol> = work
            .iter()
            .filter_map(|s| match s {
                Stmt::AssignScalar { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        let reads_assigned = |e: &Expr| {
            let mut vars = Vec::new();
            e.variables(&mut vars);
            vars.iter().any(|v| assigned.contains(v))
        };

        loop {
            // Count division-bearing subexpressions across all current
            // values (including already-hoisted temps, enabling nested
            // sharing).
            let mut counts: HashMap<Expr, usize> = HashMap::new();
            let mut scan = |e: &Expr| collect_divisions(e, &mut counts);
            for s in temps.iter().chain(work.iter()) {
                match s {
                    Stmt::AssignScalar { value, .. } => scan(value),
                    Stmt::AssignArray { target, value } => {
                        for ix in &target.indices {
                            scan(ix);
                        }
                        scan(value);
                    }
                    _ => {}
                }
            }
            // Most profitable candidate: highest (count-1) * cost; ties
            // broken toward smaller expressions so inner divisions hoist
            // first, then by printed form — `max_by_key` keeps the last
            // maximum it sees, and iterating the HashMap directly would
            // let the per-instance hash seed decide equal-profit ties,
            // making temp numbering differ between identical compiles.
            let mut candidates: Vec<(Expr, usize)> = counts
                .into_iter()
                .filter(|(e, c)| *c >= 2 && !reads_assigned(e))
                .collect();
            candidates.sort_by_cached_key(|(e, _)| crate::printer::print_expr(e));
            let best = candidates.into_iter().max_by_key(|(e, c)| {
                (
                    (*c as u64 - 1) * e.op_cost(),
                    std::cmp::Reverse(e.op_cost()),
                )
            });
            let Some((pat, _)) = best else { break };

            let temp = Symbol::new(format!("{prefix}{hoisted}"));
            let rep = Expr::Var(temp.clone());
            for s in temps.iter_mut().chain(work.iter_mut()) {
                rewrite_stmt(s, &pat, &rep);
            }
            temps.push(Stmt::AssignScalar {
                var: temp,
                value: pat,
            });
            hoisted += 1;
        }

        // Temporaries must precede their uses; they were appended in
        // hoist order, but a later temp can be *used by* an earlier one
        // (earlier temps were rewritten too). Order by dependency: a temp
        // that mentions another temp must come after it. Hoisting order
        // guarantees acyclicity; repeatedly emit temps whose operands are
        // all available.
        let mut out = order_temps(temps);
        out.append(work);
        self.stmts = out;
        hoisted
    }
}

fn order_temps(temps: Vec<Stmt>) -> Vec<Stmt> {
    let names: Vec<Symbol> = temps
        .iter()
        .map(|s| match s {
            Stmt::AssignScalar { var, .. } => var.clone(),
            _ => unreachable!("temps are scalar assigns"),
        })
        .collect();
    let mut emitted = vec![false; temps.len()];
    let mut out = Vec::with_capacity(temps.len());
    while out.len() < temps.len() {
        let mut progressed = false;
        for (i, t) in temps.iter().enumerate() {
            if emitted[i] {
                continue;
            }
            let Stmt::AssignScalar { value, .. } = t else {
                unreachable!()
            };
            let mut vars = Vec::new();
            value.variables(&mut vars);
            let ready = vars.iter().all(|v| {
                names
                    .iter()
                    .position(|n| n == v)
                    .map(|j| emitted[j])
                    .unwrap_or(true)
            });
            if ready {
                out.push(t.clone());
                emitted[i] = true;
                progressed = true;
            }
        }
        assert!(progressed, "cyclic temp dependencies cannot occur");
    }
    out
}

fn collect_divisions(e: &Expr, counts: &mut HashMap<Expr, usize>) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Read(r) => {
            for ix in &r.indices {
                collect_divisions(ix, counts);
            }
        }
        Expr::Unary(_, a) => collect_divisions(a, counts),
        Expr::Binary(op, a, b) => {
            if matches!(op, BinOp::Div | BinOp::Mod | BinOp::CeilDiv) {
                *counts.entry(e.clone()).or_insert(0) += 1;
            }
            collect_divisions(a, counts);
            collect_divisions(b, counts);
        }
    }
}

fn rewrite_stmt(s: &mut Stmt, pat: &Expr, rep: &Expr) {
    match s {
        Stmt::AssignScalar { value, .. } => *value = replace(value, pat, rep),
        Stmt::AssignArray { target, value } => {
            for ix in &mut target.indices {
                *ix = replace(ix, pat, rep);
            }
            *value = replace(value, pat, rep);
        }
        _ => {}
    }
}

/// Replace every occurrence of the subtree `pat` in `e` with `rep`.
fn replace(e: &Expr, pat: &Expr, rep: &Expr) -> Expr {
    if e == pat {
        return rep.clone();
    }
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Read(r) => Expr::Read(crate::expr::ArrayRef {
            array: r.array.clone(),
            indices: r.indices.iter().map(|ix| replace(ix, pat, rep)).collect(),
        }),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(replace(a, pat, rep))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(replace(a, pat, rep)),
            Box::new(replace(b, pat, rep)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_reproduce_op_cost_plus_store() {
        let value = Expr::var("j").ceil_div(Expr::lit(12)) * Expr::lit(3) + Expr::var("k");
        let stmts = vec![Stmt::assign("x", value.clone())];
        assert_eq!(
            RecoveryCost::of_stmts(&stmts).units(),
            value.op_cost() + 1,
            "typed cost must match the legacy weighted model"
        );
    }

    #[test]
    fn typed_counts_break_out_by_kind() {
        // x = ceildiv(j, 8) - 4 * (ceildiv(j, 32) - 1)
        let v = Expr::var("j").ceil_div(Expr::lit(8))
            - Expr::lit(4) * (Expr::var("j").ceil_div(Expr::lit(32)) - Expr::lit(1));
        let c = RecoveryCost::of_expr(&v);
        assert_eq!(c.divs, 2);
        assert_eq!(c.muls, 1);
        assert_eq!(c.adds, 2);
        assert_eq!(c.stores, 0);
        assert_eq!(c.units(), v.op_cost());
    }

    #[test]
    fn assign_folds_and_simplifies() {
        let mut b = ExprBuilder::new();
        b.assign("i", Expr::var("jc").ceil_div(Expr::lit(1)));
        b.assign("t", Expr::lit(6) * Expr::lit(7));
        assert_eq!(
            b.stmts(),
            &[
                Stmt::assign("i", Expr::var("jc")),
                Stmt::assign("t", Expr::lit(42)),
            ]
        );
        // Both simplified assigns cost exactly one store.
        assert_eq!(b.cost().units(), 2);
    }

    #[test]
    fn interning_hoists_shared_divisions_in_dependency_order() {
        let inner = Expr::var("a").floor_div(Expr::lit(3));
        let outer = inner.clone().floor_div(Expr::lit(5));
        let mut b = ExprBuilder::new();
        b.assign("x", outer.clone() + inner.clone());
        b.assign("y", outer + inner);
        let before = b.cost().units();
        let hoisted = b.intern_shared_divisions("t");
        assert!(hoisted >= 2);
        assert!(b.cost().units() < before);
        // Every temp's operands are defined before use.
        let mut defined: Vec<&str> = Vec::new();
        for s in b.stmts() {
            if let Stmt::AssignScalar { var, value } = s {
                let mut vars = Vec::new();
                value.variables(&mut vars);
                for v in vars {
                    if v.as_str().starts_with('t') {
                        assert!(defined.contains(&v.as_str()), "{v:?} used before defined");
                    }
                }
                defined.push(var.as_str());
            }
        }
    }

    #[test]
    fn interning_never_hoists_a_read_of_a_scalar_the_block_assigns() {
        // t0 = a + 1; x = t0 / 2 + 1; y = t0 / 2 * 3;
        // Hoisting `t0 / 2` would compute it before `t0` is assigned.
        let half = || Expr::var("t0").floor_div(Expr::lit(2));
        let mut b = ExprBuilder::new();
        b.assign("t0", Expr::var("a") + Expr::lit(1));
        b.assign("x", half() + Expr::lit(1));
        b.assign("y", half() * Expr::lit(3));
        let before = b.stmts().to_vec();
        assert_eq!(b.intern_shared_divisions("cse"), 0);
        assert_eq!(b.stmts(), &before[..]);

        // A shared division of a block input is still hoisted.
        let shared = || Expr::var("a").floor_div(Expr::lit(2));
        let mut b = ExprBuilder::new();
        b.assign("t0", shared() + Expr::lit(1));
        b.assign("x", shared() + Expr::var("t0"));
        assert_eq!(b.intern_shared_divisions("cse"), 1);
        assert_eq!(b.stmts()[0], Stmt::assign("cse0", shared()));
    }

    #[test]
    fn interning_breaks_profit_ties_deterministically() {
        // Two shared divisions with identical profit: which becomes t0
        // must not depend on HashMap iteration order. Found by lc-fuzz
        // (seed 0xc0a1e5ce): equal-profit ties used to be resolved by
        // the per-HashMap hash seed, so identical compiles could number
        // their temps differently.
        let build = || {
            let mut b = ExprBuilder::new();
            let d2 = Expr::var("jc").ceil_div(Expr::lit(2));
            let d4 = Expr::var("jc").ceil_div(Expr::lit(4));
            b.assign("i", d4.clone());
            b.assign("j", d2.clone() - Expr::lit(2) * (d4 - Expr::lit(1)));
            b.assign("k", Expr::var("jc") - Expr::lit(2) * (d2 - Expr::lit(1)));
            b.intern_shared_divisions("t");
            format!("{:?}", b.stmts())
        };
        let first = build();
        for _ in 0..32 {
            assert_eq!(build(), first);
        }
    }

    #[test]
    fn cost_addition_is_componentwise() {
        let a = RecoveryCost {
            adds: 1,
            divs: 2,
            ..RecoveryCost::default()
        };
        let b = RecoveryCost {
            muls: 3,
            stores: 4,
            ..RecoveryCost::default()
        };
        let c = a + b;
        assert_eq!(c.adds, 1);
        assert_eq!(c.divs, 2);
        assert_eq!(c.muls, 3);
        assert_eq!(c.stores, 4);
        assert_eq!(c.units(), 1 + 16 + 9 + 4);
    }
}
