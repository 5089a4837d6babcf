//! A reference interpreter for IR programs.
//!
//! The interpreter is the ground truth against which transformations are
//! validated: `lc-xform` runs the original and the coalesced program on the
//! same initial [`Store`] and requires bit-identical final stores. For
//! `doall` loops the iteration order is configurable ([`DoallOrder`]) so
//! validation can additionally check order-*independence* — a coalesced
//! `doall` must produce the same store under forward, reverse, and shuffled
//! execution.

use std::collections::HashMap;

use crate::arith;
use crate::error::{Error, Result};
use crate::expr::{ArrayRef, BinOp, Cond, Expr, UnOp};
use crate::program::Program;
use crate::rng::Rng;
use crate::stmt::{Loop, Stmt};
use crate::symbol::Symbol;

/// A dense, row-major, 1-based integer array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Array {
    /// Extent of each dimension.
    pub dims: Vec<usize>,
    /// Row-major element storage.
    pub data: Vec<i64>,
}

impl Array {
    /// A zero-filled array with the given extents.
    pub fn zeroed(dims: Vec<usize>) -> Self {
        let len = dims.iter().product();
        Array {
            dims,
            data: vec![0; len],
        }
    }

    /// Convert 1-based subscripts to a flat row-major offset, bounds-checked.
    pub fn flat_index(&self, name: &Symbol, indices: &[i64]) -> Result<usize> {
        if indices.len() != self.dims.len() {
            return Err(Error::RankMismatch {
                array: name.clone(),
                expected: self.dims.len(),
                got: indices.len(),
            });
        }
        let mut flat = 0usize;
        for (d, (&ix, &extent)) in indices.iter().zip(&self.dims).enumerate() {
            if ix < 1 || ix as u64 > extent as u64 {
                return Err(Error::OutOfBounds {
                    array: name.clone(),
                    dim: d,
                    index: ix,
                    extent,
                });
            }
            flat = flat * extent + (ix as usize - 1);
        }
        Ok(flat)
    }
}

/// The memory image of a program run: every declared array.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Store {
    arrays: HashMap<Symbol, Array>,
}

impl Store {
    /// Build a zero-initialized store for a program's declarations.
    pub fn for_program(prog: &Program) -> Store {
        let mut arrays = HashMap::new();
        for decl in &prog.arrays {
            arrays.insert(decl.name.clone(), Array::zeroed(decl.dims.clone()));
        }
        Store { arrays }
    }

    /// Read one element with 1-based subscripts.
    pub fn get(&self, name: &str, indices: &[i64]) -> Result<i64> {
        let sym = Symbol::new(name);
        let arr = self
            .arrays
            .get(name)
            .ok_or_else(|| Error::UnknownArray(sym.clone()))?;
        let flat = arr.flat_index(&sym, indices)?;
        Ok(arr.data[flat])
    }

    /// Write one element with 1-based subscripts.
    pub fn set(&mut self, name: &str, indices: &[i64], value: i64) -> Result<()> {
        let sym = Symbol::new(name);
        let arr = self
            .arrays
            .get_mut(name)
            .ok_or_else(|| Error::UnknownArray(sym.clone()))?;
        let flat = arr.flat_index(&sym, indices)?;
        arr.data[flat] = value;
        Ok(())
    }

    /// Borrow an array's raw row-major data (e.g. to seed inputs in bulk).
    pub fn data(&self, name: &str) -> Option<&[i64]> {
        self.arrays.get(name).map(|a| a.data.as_slice())
    }

    /// Mutably borrow an array's raw row-major data.
    pub fn data_mut(&mut self, name: &str) -> Option<&mut [i64]> {
        self.arrays.get_mut(name).map(|a| a.data.as_mut_slice())
    }

    /// Iterate over `(name, array)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Array)> {
        self.arrays.iter()
    }

    /// A 64-bit FNV-1a digest over every array's name, extents, and
    /// contents, independent of internal map order. Two stores with
    /// equal digests are byte-identical for all practical purposes, so
    /// differential testers can compare whole final stores by one `u64`
    /// instead of cloning and diffing them.
    pub fn digest(&self) -> u64 {
        let mut names: Vec<&Symbol> = self.arrays.keys().collect();
        names.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for name in names {
            let arr = &self.arrays[name];
            mix(name.as_str().as_bytes());
            mix(&[0xFF]); // separator: names cannot contain 0xFF
            for d in &arr.dims {
                mix(&(*d as u64).to_le_bytes());
            }
            for v in &arr.data {
                mix(&v.to_le_bytes());
            }
        }
        h
    }

    /// Deterministically sample up to `count` elements across all arrays
    /// (a splitmix64 stream over `seed` picks them), returning
    /// `(array, flat offset, value)` triples in a stable order.
    ///
    /// This is the sampled-evaluation entry point differential testers
    /// use to report *witness points*: after [`Store::digest`] says two
    /// final stores diverge, sampling both stores with the same seed
    /// yields directly comparable element sets without materializing a
    /// full diff.
    pub fn sample(&self, seed: u64, count: usize) -> Vec<(Symbol, usize, i64)> {
        let mut names: Vec<&Symbol> = self.arrays.keys().collect();
        names.sort_by(|a, b| a.as_str().cmp(b.as_str()));
        let nonempty: Vec<&Symbol> = names
            .into_iter()
            .filter(|n| !self.arrays[*n].data.is_empty())
            .collect();
        if nonempty.is_empty() {
            return Vec::new();
        }
        let mut rng = Rng::new(seed);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let name = nonempty[(rng.next_u64() % nonempty.len() as u64) as usize];
            let arr = &self.arrays[name];
            let flat = (rng.next_u64() % arr.data.len() as u64) as usize;
            out.push((name.clone(), flat, arr.data[flat]));
        }
        out
    }
}

/// Iteration order used for `doall` loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoallOrder {
    /// Ascending index order (same as a serial loop).
    Forward,
    /// Descending index order.
    Reverse,
    /// A deterministic pseudo-random permutation seeded by the given value.
    Shuffled(u64),
}

/// What kind of memory access a trace event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Array element read.
    Read,
    /// Array element write.
    Write,
}

/// One recorded array access (only collected when tracing is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    /// Read or write.
    pub kind: AccessKind,
    /// Which array.
    pub array: Symbol,
    /// Flat row-major element offset.
    pub flat: usize,
    /// Snapshot of the active loop indices, outermost first.
    pub iteration: Vec<(Symbol, i64)>,
}

/// Statistics and optional trace returned by [`Interp::run_on`].
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Number of statements executed (loop iterations count each body
    /// statement; loop headers count once per iteration).
    pub steps: u64,
    /// Weighted abstract operations executed (see
    /// [`crate::expr::BinOp::op_cost`]): every evaluated operator adds its
    /// cost, every array access and store adds one. This is the dynamic
    /// counterpart of [`crate::expr::Expr::op_cost`] and feeds the machine
    /// simulator with per-iteration body costs derived from real IR.
    pub ops: u64,
    /// Recorded accesses, empty unless tracing was enabled.
    pub trace: Vec<Access>,
}

/// The interpreter configuration.
#[derive(Debug, Clone)]
pub struct Interp {
    /// Maximum number of steps before aborting with
    /// [`Error::StepBudgetExceeded`]. Defaults to 100 million.
    pub step_budget: u64,
    /// Iteration order for `doall` loops. Defaults to forward.
    pub doall_order: DoallOrder,
    /// Whether to record the memory-access trace.
    pub trace: bool,
}

impl Default for Interp {
    fn default() -> Self {
        Interp {
            step_budget: 100_000_000,
            doall_order: DoallOrder::Forward,
            trace: false,
        }
    }
}

struct Frame {
    store: Store,
    scalars: HashMap<Symbol, i64>,
    loop_stack: Vec<(Symbol, i64)>,
    stats: ExecStats,
    budget: u64,
    order: DoallOrder,
    trace: bool,
}

impl Interp {
    /// Default configuration.
    pub fn new() -> Self {
        Interp::default()
    }

    /// Set the `doall` iteration order (builder style).
    pub fn with_order(mut self, order: DoallOrder) -> Self {
        self.doall_order = order;
        self
    }

    /// Enable access tracing (builder style).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Set the step budget (builder style).
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.step_budget = budget;
        self
    }

    /// Run a program on a fresh zero-initialized store and return the final
    /// store.
    pub fn run(&self, prog: &Program) -> Result<Store> {
        let store = Store::for_program(prog);
        let (store, _) = self.run_on(prog, store)?;
        Ok(store)
    }

    /// Run a program starting from the supplied store (which must already
    /// contain the program's arrays, e.g. via [`Store::for_program`] plus
    /// bulk initialization). Returns the final store and execution stats.
    pub fn run_on(&self, prog: &Program, store: Store) -> Result<(Store, ExecStats)> {
        prog.check()?;
        let mut frame = Frame {
            store,
            scalars: HashMap::new(),
            loop_stack: Vec::new(),
            stats: ExecStats::default(),
            budget: self.step_budget,
            order: self.doall_order,
            trace: self.trace,
        };
        exec_stmts(&mut frame, &prog.body)?;
        Ok((frame.store, frame.stats))
    }
}

fn tick(frame: &mut Frame) -> Result<()> {
    frame.stats.steps += 1;
    if frame.stats.steps > frame.budget {
        Err(Error::StepBudgetExceeded {
            budget: frame.budget,
        })
    } else {
        Ok(())
    }
}

fn eval(frame: &mut Frame, e: &Expr) -> Result<i64> {
    match e {
        Expr::Const(v) => Ok(*v),
        Expr::Var(s) => frame
            .scalars
            .get(s)
            .copied()
            .ok_or_else(|| Error::UnboundVariable(s.clone())),
        Expr::Read(r) => {
            let flat = resolve_ref(frame, r)?;
            frame.stats.ops += 1; // memory load
            if frame.trace {
                let iteration = frame.loop_stack.clone();
                frame.stats.trace.push(Access {
                    kind: AccessKind::Read,
                    array: r.array.clone(),
                    flat,
                    iteration,
                });
            }
            Ok(frame.store.arrays[&r.array].data[flat])
        }
        Expr::Unary(UnOp::Neg, a) => {
            let v = eval(frame, a)?;
            frame.stats.ops += 1;
            v.checked_neg().ok_or(Error::Overflow)
        }
        Expr::Binary(op, a, b) => {
            let x = eval(frame, a)?;
            let y = eval(frame, b)?;
            frame.stats.ops += op.op_cost();
            match op {
                BinOp::Add => x.checked_add(y).ok_or(Error::Overflow),
                BinOp::Sub => x.checked_sub(y).ok_or(Error::Overflow),
                BinOp::Mul => x.checked_mul(y).ok_or(Error::Overflow),
                BinOp::Div => arith::floor_div(x, y),
                BinOp::Mod => arith::floor_mod(x, y),
                BinOp::CeilDiv => arith::ceil_div(x, y),
                BinOp::Min => Ok(x.min(y)),
                BinOp::Max => Ok(x.max(y)),
            }
        }
    }
}

fn resolve_ref(frame: &mut Frame, r: &ArrayRef) -> Result<usize> {
    let mut indices = Vec::with_capacity(r.indices.len());
    for ix in &r.indices {
        indices.push(eval(frame, ix)?);
    }
    let arr = frame
        .store
        .arrays
        .get(&r.array)
        .ok_or_else(|| Error::UnknownArray(r.array.clone()))?;
    arr.flat_index(&r.array, &indices)
}

fn eval_cond(frame: &mut Frame, c: &Cond) -> Result<bool> {
    match c {
        Cond::Cmp(op, a, b) => {
            let x = eval(frame, a)?;
            let y = eval(frame, b)?;
            Ok(op.apply(x, y))
        }
        Cond::Not(c) => Ok(!eval_cond(frame, c)?),
        Cond::And(a, b) => Ok(eval_cond(frame, a)? && eval_cond(frame, b)?),
        Cond::Or(a, b) => Ok(eval_cond(frame, a)? || eval_cond(frame, b)?),
    }
}

fn exec_stmts(frame: &mut Frame, stmts: &[Stmt]) -> Result<()> {
    for s in stmts {
        exec_stmt(frame, s)?;
    }
    Ok(())
}

fn exec_stmt(frame: &mut Frame, s: &Stmt) -> Result<()> {
    tick(frame)?;
    match s {
        Stmt::AssignScalar { var, value } => {
            let v = eval(frame, value)?;
            frame.stats.ops += 1; // scalar store
            frame.scalars.insert(var.clone(), v);
            Ok(())
        }
        Stmt::AssignArray { target, value } => {
            let v = eval(frame, value)?;
            let flat = resolve_ref(frame, target)?;
            frame.stats.ops += 1; // memory store
            if frame.trace {
                let iteration = frame.loop_stack.clone();
                frame.stats.trace.push(Access {
                    kind: AccessKind::Write,
                    array: target.array.clone(),
                    flat,
                    iteration,
                });
            }
            frame
                .store
                .arrays
                .get_mut(&target.array)
                .expect("checked by resolve_ref")
                .data[flat] = v;
            Ok(())
        }
        Stmt::Loop(l) => exec_loop(frame, l),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            if eval_cond(frame, cond)? {
                exec_stmts(frame, then_body)
            } else {
                exec_stmts(frame, else_body)
            }
        }
    }
}

fn exec_loop(frame: &mut Frame, l: &Loop) -> Result<()> {
    let lo = eval(frame, &l.lower)?;
    let hi = eval(frame, &l.upper)?;
    let step = eval(frame, &l.step)?;
    if step == 0 {
        return Err(Error::ZeroStep(l.var.clone()));
    }

    // Materialize the index sequence. Loops in this IR are counted and
    // bounded by the step budget, so this is fine for test-scale programs.
    let mut indices = Vec::new();
    let mut i = lo;
    loop {
        if (step > 0 && i > hi) || (step < 0 && i < hi) {
            break;
        }
        indices.push(i);
        i = match i.checked_add(step) {
            Some(n) => n,
            None => break,
        };
        if indices.len() as u64 > frame.budget {
            return Err(Error::StepBudgetExceeded {
                budget: frame.budget,
            });
        }
    }

    if l.kind.is_doall() {
        apply_order(&mut indices, frame.order);
    }

    let saved = frame.scalars.get(&l.var).copied();
    for ix in indices {
        tick(frame)?;
        frame.scalars.insert(l.var.clone(), ix);
        frame.loop_stack.push((l.var.clone(), ix));
        let r = exec_stmts(frame, &l.body);
        frame.loop_stack.pop();
        r?;
    }
    // Restore shadowed binding (the loop variable goes out of scope).
    match saved {
        Some(v) => {
            frame.scalars.insert(l.var.clone(), v);
        }
        None => {
            frame.scalars.remove(&l.var);
        }
    }
    Ok(())
}

fn apply_order(indices: &mut [i64], order: DoallOrder) {
    match order {
        DoallOrder::Forward => {}
        DoallOrder::Reverse => indices.reverse(),
        DoallOrder::Shuffled(seed) => {
            // Fisher–Yates with a xorshift64* generator: deterministic, no
            // external dependency in the library crate.
            let mut state = seed | 1;
            let mut next = || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            };
            for i in (1..indices.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                indices.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::stmt::{Loop, Stmt};

    fn fill_program() -> Program {
        // doall i=1..4 { doall j=1..8 { A[i][j] = 10*i + j; } }
        let body = Stmt::store(
            "A",
            vec![Expr::var("i"), Expr::var("j")],
            Expr::lit(10) * Expr::var("i") + Expr::var("j"),
        );
        Program::new()
            .with_array("A", vec![4, 8])
            .with_stmt(Stmt::Loop(Loop::doall(
                "i",
                4,
                vec![Stmt::Loop(Loop::doall("j", 8, vec![body]))],
            )))
    }

    #[test]
    fn fill_produces_expected_values() {
        let store = Interp::new().run(&fill_program()).unwrap();
        assert_eq!(store.get("A", &[1, 1]).unwrap(), 11);
        assert_eq!(store.get("A", &[4, 8]).unwrap(), 48);
        assert_eq!(store.get("A", &[3, 5]).unwrap(), 35);
    }

    #[test]
    fn doall_order_does_not_change_independent_loop() {
        let p = fill_program();
        let fwd = Interp::new().run(&p).unwrap();
        let rev = Interp::new()
            .with_order(DoallOrder::Reverse)
            .run(&p)
            .unwrap();
        let shuf = Interp::new()
            .with_order(DoallOrder::Shuffled(42))
            .run(&p)
            .unwrap();
        assert_eq!(fwd, rev);
        assert_eq!(fwd, shuf);
    }

    #[test]
    fn doall_order_exposes_dependent_loop() {
        // A[i] = A[i-1] + 1 carried dependence: order matters. Written as a
        // doall (incorrectly), forward and reverse orders must disagree.
        let body = Stmt::store(
            "A",
            vec![Expr::var("i")],
            Expr::read("A", vec![Expr::var("i") - Expr::lit(1)]) + Expr::lit(1),
        );
        let p = Program::new()
            .with_array("A", vec![8])
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::lit(100)))
            .with_stmt(Stmt::Loop(Loop::new(
                crate::stmt::LoopKind::Doall,
                "i",
                2,
                8,
                vec![body],
            )));
        let fwd = Interp::new().run(&p).unwrap();
        let rev = Interp::new()
            .with_order(DoallOrder::Reverse)
            .run(&p)
            .unwrap();
        assert_ne!(fwd, rev);
    }

    #[test]
    fn serial_loop_with_accumulator() {
        // s = 0; for i=1..10 { s = s + i; } A[1] = s;
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::assign("s", Expr::lit(0)))
            .with_stmt(Stmt::Loop(Loop::serial(
                "i",
                10,
                vec![Stmt::assign("s", Expr::var("s") + Expr::var("i"))],
            )))
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::var("s")));
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[1]).unwrap(), 55);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::store("A", vec![Expr::lit(5)], Expr::lit(1)));
        assert!(matches!(
            Interp::new().run(&p),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_based_subscript_is_out_of_bounds() {
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::store("A", vec![Expr::lit(0)], Expr::lit(1)));
        assert!(matches!(
            Interp::new().run(&p),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unbound_variable_is_reported() {
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::var("ghost")));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::UnboundVariable(Symbol::new("ghost")))
        );
    }

    #[test]
    fn loop_variable_scoping_restores_outer_binding() {
        // i = 99; for i=1..3 {} A[1] = i;  — after the loop, i must be 99.
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::assign("i", Expr::lit(99)))
            .with_stmt(Stmt::Loop(Loop::serial("i", 3, vec![])))
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::var("i")));
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[1]).unwrap(), 99);
    }

    #[test]
    fn step_budget_stops_runaway_loops() {
        let p = Program::new().with_stmt(Stmt::Loop(Loop::serial(
            "i",
            1_000_000,
            vec![Stmt::assign("x", Expr::lit(0))],
        )));
        let r = Interp::new().with_budget(1000).run(&p);
        assert!(matches!(r, Err(Error::StepBudgetExceeded { .. })));
    }

    #[test]
    fn negative_step_loop_descends() {
        // for i = 3..1 step -1 { A[i] = i }
        let mut l = Loop::new(
            crate::stmt::LoopKind::Serial,
            "i",
            3,
            1,
            vec![Stmt::store("A", vec![Expr::var("i")], Expr::var("i"))],
        );
        l.step = Expr::lit(-1);
        let p = Program::new()
            .with_array("A", vec![3])
            .with_stmt(Stmt::Loop(l));
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[2]).unwrap(), 2);
    }

    #[test]
    fn ops_accounting_matches_hand_count() {
        // A[1] = 2 * 3 + 4: mul(3) + add(1) + store(1) = 5 ops.
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::store(
                "A",
                vec![Expr::lit(1)],
                Expr::lit(2) * Expr::lit(3) + Expr::lit(4),
            ));
        let store = Store::for_program(&p);
        let (_, stats) = Interp::new().run_on(&p, store).unwrap();
        assert_eq!(stats.ops, 5);
    }

    #[test]
    fn ops_scale_with_iterations() {
        let p = fill_program(); // 32 iterations storing `10*i + j`
        let store = Store::for_program(&p);
        let (_, stats) = Interp::new().run_on(&p, store).unwrap();
        // Per iteration: mul(3) + add(1) + store(1) = 5.
        assert_eq!(stats.ops, 32 * 5);
    }

    #[test]
    fn trace_records_reads_and_writes_with_iteration() {
        let p = fill_program();
        let store = Store::for_program(&p);
        let (_, stats) = Interp::new().with_trace().run_on(&p, store).unwrap();
        assert_eq!(stats.trace.len(), 32); // 4*8 writes, no array reads
        let w = &stats.trace[0];
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.iteration.len(), 2);
        assert_eq!(w.iteration[0].0, Symbol::new("i"));
    }

    #[test]
    fn if_statement_branches() {
        use crate::expr::{CmpOp, Cond};
        // doall i=1..4 { if i <= 2 { A[i] = 1; } else { A[i] = 2; } }
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::Loop(Loop::doall(
                "i",
                4,
                vec![Stmt::If {
                    cond: Cond::cmp(CmpOp::Le, Expr::var("i"), Expr::lit(2)),
                    then_body: vec![Stmt::store("A", vec![Expr::var("i")], Expr::lit(1))],
                    else_body: vec![Stmt::store("A", vec![Expr::var("i")], Expr::lit(2))],
                }],
            )));
        let store = Interp::new().run(&p).unwrap();
        assert_eq!(store.get("A", &[2]).unwrap(), 1);
        assert_eq!(store.get("A", &[3]).unwrap(), 2);
    }

    #[test]
    fn digest_is_order_free_and_content_sensitive() {
        let p = fill_program();
        let a = Interp::new().run(&p).unwrap();
        let b = Interp::new()
            .with_order(DoallOrder::Shuffled(7))
            .run(&p)
            .unwrap();
        assert_eq!(a.digest(), b.digest(), "same contents, same digest");
        let mut c = Interp::new().run(&p).unwrap();
        c.set("A", &[1, 1], 999).unwrap();
        assert_ne!(a.digest(), c.digest(), "one element flips the digest");
    }

    #[test]
    fn sample_is_deterministic_and_in_bounds() {
        let store = Interp::new().run(&fill_program()).unwrap();
        let s1 = store.sample(42, 16);
        let s2 = store.sample(42, 16);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 16);
        for (name, flat, value) in &s1 {
            assert_eq!(name.as_str(), "A");
            assert!(*flat < 32);
            assert_eq!(store.data("A").unwrap()[*flat], *value);
        }
        assert_ne!(store.sample(43, 16), s1, "seed changes the sample");
    }

    #[test]
    fn sample_of_empty_store_is_empty() {
        let p = Program::new().with_array("Z", vec![0]);
        let store = Store::for_program(&p);
        assert!(store.sample(1, 8).is_empty());
    }

    #[test]
    fn overflow_is_reported() {
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::store(
                "A",
                vec![Expr::lit(1)],
                Expr::lit(i64::MAX) + Expr::lit(1),
            ));
        assert_eq!(Interp::new().run(&p), Err(Error::Overflow));
    }
}
