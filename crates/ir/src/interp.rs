//! A reference interpreter for IR programs.
//!
//! The interpreter is the ground truth against which transformations are
//! validated: `lc-xform` runs the original and the coalesced program on the
//! same initial [`Store`] and requires bit-identical final stores. For
//! `doall` loops the iteration order is configurable ([`DoallOrder`]) so
//! validation can additionally check order-*independence* — a coalesced
//! `doall` must produce the same store under forward, reverse, and shuffled
//! execution.
//!
//! # Lowering
//!
//! A program is not walked as a tree of [`Expr`]/[`Stmt`] nodes. It is
//! lowered once into a [`Lowered`] handle, and every run executes that:
//!
//! * **scalars become frame slots** — each name gets a dense index into a
//!   `Vec<Option<i64>>`, where `None` is "unbound", so reading a scalar
//!   before it is assigned is still [`Error::UnboundVariable`], and a loop
//!   variable's previous binding (or unboundness) is restored on exit;
//! * **arrays become dense ids** — lowering performs [`Program::check`]'s
//!   duplicate, unknown-array and rank checks, in the same order, and each
//!   run binds the ids to the store's arrays with precomputed extents and
//!   row-major strides;
//! * **loops become counted ranges** — the trip count is computed
//!   arithmetically from the bounds, so a trip count above the step budget
//!   fails with [`Error::StepBudgetExceeded`] before any iteration runs,
//!   and forward and reverse orders iterate without materializing the
//!   index sequence. `Shuffled(seed)` fills a buffer reused across loops
//!   and applies the xorshift Fisher–Yates shuffle, so each seed gives the
//!   same permutation it always has;
//! * **expressions become closures** — each operator node is a closure for
//!   that operator, with constant and scalar operands captured, so
//!   evaluation dispatches once per inner node and never on leaves.
//!
//! Validation runs one program under several orders, so it lowers once and
//! calls [`Interp::run_lowered`] per order; [`Interp::run_on`] lowers and
//! runs in one call.
//!
//! # Shadow runs
//!
//! [`Interp::run_shadowed`] is a run that also proves, when it can, that
//! every permutation of every `doall` instance gives the same store: the
//! run-time marking of the LRPD test. Every `doall` iteration takes a
//! fresh tag from a counter, and a stack holds each active instance's
//! start and current iteration, so a tag lies *before* an instance, in
//! an *earlier* iteration of it, or in its *current* one. Every array
//! cell carries the tags of its last write `W` and its last read `R`
//! (8 bytes beside the cell's 8), every scalar slot `W`, an
//! exposed-read record and poison bits. The conflicts:
//!
//! * **array cells** — a read whose `W` is earlier (flow), a write whose
//!   `W` or `R` is earlier (output, anti). A read whose old `R` is
//!   earlier keeps that `R`; otherwise it becomes `R`. Kept this way, `R`
//!   is earlier whenever *some* read since the instance began is, so one
//!   tag per cell decides Bernstein's conditions exactly;
//! * **scalars** — a read whose `W` is earlier (flow). A read of a value
//!   written outside its own iteration is *exposed* to the instances
//!   that began after that write, and a write conflicts when an exposed
//!   read lies in an earlier iteration of such an instance (anti). The
//!   record keeps, as `R` does, the exposed read that decides this. Two
//!   iterations writing a scalar is no conflict — recovered indices and
//!   accumulators are private — but *poisons* it for that instance:
//!   when the instance exits the value is dead, and reading it before a
//!   write is a conflict. A loop variable is bound fresh per iteration,
//!   and its outer binding's tags are restored with its value.
//!
//! Scalar reads are taken per statement, from the slots its expressions
//! mention (both arms of `&&`/`||` count). Extra reads, like any
//! over-approximation, can only add conflicts. Arrays are never
//! privatized, so a cell that two iterations write is a conflict even
//! when the values agree, and no cell can end the run poisoned.
//!
//! *Soundness.* With no conflict, no iteration of an instance reads a
//! location another iteration of it writes, and no two of them write an
//! array cell; a scalar two of them write is dead after the instance.
//! So each iteration reads the same values in any order, and the
//! iterations commute (Bernstein's conditions): by induction from the
//! innermost instance out, every permutation computes the same values,
//! takes the same branches and trips, and so leaves the same store,
//! steps, ops and errors. A conflict only says "run the other orders":
//! validation then runs them, so the verdict never depends on the
//! shadow. Tags are `u32`; a run that would need more gives up with a
//! conflict.
//!
//! The run's values, stats and errors are those of a plain run. A plain
//! run tests one flag per array access, assignment, `if` and loop, and
//! never touches the tags.
//!
//! # Invariants
//!
//! The executor's observable behaviour is fixed, because simulated costs,
//! the fuzzer's digest and validation verdicts all read it:
//!
//! * `steps` ticks once per executed statement (a loop statement counts
//!   once for its header) and once per loop iteration;
//! * `ops` adds [`BinOp::op_cost`] per binary operator, 1 per negation,
//!   and 1 per array read, scalar store and array store. The executor
//!   charges each statement's (and each loop header's and comparison's)
//!   total, [`Expr::op_cost`] computed at lowering, once it has evaluated
//!   its expressions: a completed evaluation runs every operator exactly
//!   once, and a failed run reports no stats;
//! * evaluation order, and so which error wins: an assignment evaluates
//!   its value before the target's subscripts; subscripts evaluate left to
//!   right before the array is looked up and bounds-checked; a loop
//!   evaluates lower, then upper, then step, then rejects a zero step;
//! * traced accesses carry the `(loop variable, index)` pairs of every
//!   active loop, outermost first.

use std::collections::HashMap;

use crate::arith;
use crate::error::{Error, Result};
use crate::expr::{ArrayRef, BinOp, CmpOp, Cond, Expr, UnOp};
use crate::program::Program;
use crate::rng::Rng;
use crate::stmt::{Loop, Stmt};
use crate::symbol::Symbol;

mod shadow;
use shadow::{Shadow, SlotTag};

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
        self.run_lowered(&Lowered::new(prog)?, store)
    }

    /// Run an already-lowered program starting from the supplied store;
    /// otherwise identical to [`Interp::run_on`]. Lowering once and calling
    /// this per configuration skips the per-run lowering.
    pub fn run_lowered(&self, code: &Lowered, store: Store) -> Result<(Store, ExecStats)> {
        let (store, stats, _) = self.execute(code, store, false)?;
        Ok((store, stats))
    }

    /// [`Interp::run_lowered`] with shadow tags (see the module docs):
    /// the same store, stats and error, plus whether the run proved that
    /// every `doall` is order-independent. `true` means every permutation
    /// of every `doall` instance would give this same store, steps and
    /// ops; `false` means a cross-iteration conflict was seen, and says
    /// nothing either way.
    pub fn run_shadowed(&self, code: &Lowered, store: Store) -> Result<(Store, ExecStats, bool)> {
        self.execute(code, store, true)
    }

    fn execute(
        &self,
        code: &Lowered,
        mut store: Store,
        shadowed: bool,
    ) -> Result<(Store, ExecStats, bool)> {
        let mut mem: Vec<Option<Bound>> = code
            .arrays
            .iter()
            .map(|name| store.arrays.remove(name).map(Bound::new))
            .collect();
        let shadow = shadowed.then(|| {
            let lens = mem
                .iter()
                .map(|b| b.as_ref().map_or(0, |b| b.array.data.len()));
            Box::new(Shadow::new(lens, code.slots.len()))
        });
        let mut exec = Exec {
            code,
            slots: vec![None; code.slots.len()],
            order_buf: Vec::new(),
            loop_stack: Vec::new(),
            stats: ExecStats::default(),
            budget: self.step_budget,
            order: self.doall_order,
            trace: self.trace,
            watch: self.trace || shadowed,
            shadow,
        };
        exec.block(&mut mem, &code.body).map_err(|e| *e)?;
        for (name, bound) in code.arrays.iter().zip(mem) {
            if let Some(b) = bound {
                store.arrays.insert(name.clone(), b.array);
            }
        }
        let independent = exec.shadow.is_some();
        Ok((store, exec.stats, independent))
    }
}

/// A program lowered for execution: scalars resolved to frame slots,
/// arrays to dense ids, loops to counted ranges (see the module docs).
///
/// Lowering checks the program as [`Program::check`] does, so a `Lowered`
/// always describes a well-formed program; it holds no store and can be
/// run any number of times, under any [`Interp`] configuration, through
/// [`Interp::run_lowered`].
pub struct Lowered {
    /// Array name per id, in declaration order.
    arrays: Vec<Symbol>,
    /// Scalar name per slot, in order of first mention.
    slots: Vec<Symbol>,
    body: Vec<LStmt>,
}

/// A lowered expression. Constants and scalar reads stay data, so a
/// parent evaluates them inline; every other node is a closure built for
/// its operator, with constant and scalar operands captured directly.
enum LExpr {
    Const(i64),
    Slot(usize),
    Node(Node),
}

type Node = Box<dyn Fn(&mut Exec<'_>, &[Option<Bound>]) -> Run<i64> + Send + Sync>;

struct LRef {
    array: usize,
    indices: Vec<LExpr>,
}

/// Lowered conditions. A comparison carries the [`Expr::op_cost`] of both
/// operands, charged when it is evaluated.
enum LCond {
    Cmp(CmpOp, LExpr, LExpr, u64),
    Not(Box<LCond>),
    And(Box<LCond>, Box<LCond>),
    Or(Box<LCond>, Box<LCond>),
}

/// Lowered statements. Assignments carry their whole `ops` charge —
/// [`Expr::op_cost`] of every expression they evaluate plus 1 for the
/// store — because a statement that completes evaluates each of its
/// operators exactly once, and a run that fails reports no stats.
///
/// `reads` is the set of scalar slots the statement's own expressions
/// (a loop's header, an `if`'s condition) mention; only shadowed runs
/// look at it.
enum LStmt {
    Scalar {
        slot: usize,
        value: LExpr,
        ops: u64,
        reads: Reads,
    },
    Store {
        target: LRef,
        value: LExpr,
        ops: u64,
        reads: Reads,
    },
    Loop(Box<LLoop>),
    If(Box<LIf>),
}

type Reads = Box<[usize]>;

struct LIf {
    cond: LCond,
    reads: Reads,
    then_body: Vec<LStmt>,
    else_body: Vec<LStmt>,
}

struct LLoop {
    slot: usize,
    lower: LExpr,
    upper: LExpr,
    step: LExpr,
    /// `ops` charge of evaluating the three header expressions.
    header_ops: u64,
    doall: bool,
    reads: Reads,
    body: Vec<LStmt>,
}

impl std::fmt::Debug for Lowered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lowered")
            .field("arrays", &self.arrays)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

impl Lowered {
    /// Lower `prog`, failing with the error [`Program::check`] would report
    /// for an ill-formed program.
    pub fn new(prog: &Program) -> Result<Lowered> {
        let mut lower = Lowerer {
            prog,
            array_ids: HashMap::with_capacity(prog.arrays.len()),
            slot_ids: HashMap::new(),
            slots: Vec::new(),
            reads: Vec::new(),
        };
        for (id, decl) in prog.arrays.iter().enumerate() {
            if lower.array_ids.insert(decl.name.clone(), id).is_some() {
                return Err(Error::DuplicateArray(decl.name.clone()));
            }
        }
        let body = lower.block(&prog.body)?;
        Ok(Lowered {
            arrays: prog.arrays.iter().map(|a| a.name.clone()).collect(),
            slots: lower.slots,
            body,
        })
    }
}

struct Lowerer<'p> {
    prog: &'p Program,
    array_ids: HashMap<Symbol, usize>,
    slot_ids: HashMap<Symbol, usize>,
    slots: Vec<Symbol>,
    /// Slots the expressions lowered since the last [`Lowerer::reads`]
    /// mention.
    reads: Vec<usize>,
}

impl Lowerer<'_> {
    fn slot(&mut self, name: &Symbol) -> usize {
        if let Some(&s) = self.slot_ids.get(name) {
            return s;
        }
        let s = self.slots.len();
        self.slots.push(name.clone());
        self.slot_ids.insert(name.clone(), s);
        s
    }

    /// The scalar slots read since the last call, deduplicated.
    fn reads(&mut self) -> Reads {
        let mut reads = std::mem::take(&mut self.reads);
        reads.sort_unstable();
        reads.dedup();
        reads.into_boxed_slice()
    }

    fn array_ref(&mut self, r: &ArrayRef) -> Result<LRef> {
        let Some(&array) = self.array_ids.get(&r.array) else {
            return Err(Error::UnknownArray(r.array.clone()));
        };
        let expected = self.prog.arrays[array].dims.len();
        if expected != r.indices.len() {
            return Err(Error::RankMismatch {
                array: r.array.clone(),
                expected,
                got: r.indices.len(),
            });
        }
        let indices = r
            .indices
            .iter()
            .map(|ix| self.expr(ix))
            .collect::<Result<_>>()?;
        Ok(LRef { array, indices })
    }

    fn expr(&mut self, e: &Expr) -> Result<LExpr> {
        Ok(match e {
            Expr::Const(v) => LExpr::Const(*v),
            Expr::Var(s) => {
                let slot = self.slot(s);
                self.reads.push(slot);
                LExpr::Slot(slot)
            }
            Expr::Read(r) => {
                let r = self.array_ref(r)?;
                LExpr::Node(Box::new(move |ex, mem| {
                    let (bound, flat) = ex.resolve(mem, &r)?;
                    if ex.watch {
                        ex.watch_cell(AccessKind::Read, r.array, flat);
                    }
                    Ok(bound.array.data[flat])
                }))
            }
            Expr::Unary(UnOp::Neg, a) => {
                let a = self.expr(a)?;
                LExpr::Node(Box::new(move |ex, mem| {
                    match ex.expr(mem, &a)?.checked_neg() {
                        Some(v) => Ok(v),
                        None => Err(Box::new(Error::Overflow)),
                    }
                }))
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.expr(a)?, self.expr(b)?);
                let checked = |v: Option<i64>| v.ok_or(Error::Overflow);
                match op {
                    BinOp::Add => binary(a, b, move |x, y| checked(x.checked_add(y))),
                    BinOp::Sub => binary(a, b, move |x, y| checked(x.checked_sub(y))),
                    BinOp::Mul => binary(a, b, move |x, y| checked(x.checked_mul(y))),
                    BinOp::Div => binary(a, b, arith::floor_div),
                    BinOp::Mod => binary(a, b, arith::floor_mod),
                    BinOp::CeilDiv => binary(a, b, arith::ceil_div),
                    BinOp::Min => binary(a, b, |x, y| Ok(x.min(y))),
                    BinOp::Max => binary(a, b, |x, y| Ok(x.max(y))),
                }
            }
        })
    }

    fn cond(&mut self, c: &Cond) -> Result<LCond> {
        Ok(match c {
            Cond::Cmp(op, a, b) => {
                LCond::Cmp(*op, self.expr(a)?, self.expr(b)?, a.op_cost() + b.op_cost())
            }
            Cond::Not(c) => LCond::Not(Box::new(self.cond(c)?)),
            Cond::And(a, b) => LCond::And(Box::new(self.cond(a)?), Box::new(self.cond(b)?)),
            Cond::Or(a, b) => LCond::Or(Box::new(self.cond(a)?), Box::new(self.cond(b)?)),
        })
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Vec<LStmt>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> Result<LStmt> {
        Ok(match s {
            Stmt::AssignScalar { var, value } => LStmt::Scalar {
                value: self.expr(value)?,
                slot: self.slot(var),
                ops: value.op_cost() + 1,
                reads: self.reads(),
            },
            Stmt::AssignArray { target, value } => LStmt::Store {
                target: self.array_ref(target)?,
                value: self.expr(value)?,
                ops: target.indices.iter().map(Expr::op_cost).sum::<u64>() + value.op_cost() + 1,
                reads: self.reads(),
            },
            Stmt::Loop(l) => LStmt::Loop(Box::new(self.counted(l)?)),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => LStmt::If(Box::new(LIf {
                cond: self.cond(cond)?,
                reads: self.reads(),
                then_body: self.block(then_body)?,
                else_body: self.block(else_body)?,
            })),
        })
    }

    fn counted(&mut self, l: &Loop) -> Result<LLoop> {
        Ok(LLoop {
            lower: self.expr(&l.lower)?,
            upper: self.expr(&l.upper)?,
            step: self.expr(&l.step)?,
            header_ops: l.lower.op_cost() + l.upper.op_cost() + l.step.op_cost(),
            reads: self.reads(),
            body: self.block(&l.body)?,
            slot: self.slot(&l.var),
            doall: l.kind.is_doall(),
        })
    }
}

/// The closure for `a op b`, where `op` is `f`. The commonest operand
/// shapes in loop bodies and recovery code — a scalar or a subtree against
/// a constant — get closures that skip evaluating the constant.
fn binary<F>(a: LExpr, b: LExpr, f: F) -> LExpr
where
    F: Fn(i64, i64) -> Result<i64> + Send + Sync + 'static,
{
    LExpr::Node(match (a, b) {
        (LExpr::Slot(s), LExpr::Const(k)) => Box::new(move |ex, _| Ok(f(ex.slot(s)?, k)?)),
        (LExpr::Node(n), LExpr::Const(k)) => Box::new(move |ex, mem| Ok(f(n(ex, mem)?, k)?)),
        (a, b) => Box::new(move |ex, mem| {
            let x = ex.expr(mem, &a)?;
            let y = ex.expr(mem, &b)?;
            Ok(f(x, y)?)
        }),
    })
}

/// A store array bound to its lowered id for one run.
struct Bound {
    array: Array,
    /// Row-major stride of each dimension.
    strides: Vec<usize>,
}

impl Bound {
    fn new(array: Array) -> Bound {
        let mut strides = vec![1usize; array.dims.len()];
        for d in (1..array.dims.len()).rev() {
            strides[d - 1] = strides[d].saturating_mul(array.dims[d]);
        }
        Bound { array, strides }
    }
}

/// Errors travel boxed inside the executor: a thin `Result` keeps every
/// evaluation's return value in registers.
type Run<T> = std::result::Result<T, Box<Error>>;

/// One run's mutable state. The bound arrays are passed alongside rather
/// than stored here, so subscripts can be evaluated (mutating the stats)
/// while an array binding is borrowed.
struct Exec<'c> {
    code: &'c Lowered,
    slots: Vec<Option<i64>>,
    /// Index sequences of the `Shuffled` loops currently running, stacked.
    order_buf: Vec<i64>,
    /// Active `(loop variable, index)` pairs; maintained only when tracing.
    loop_stack: Vec<(Symbol, i64)>,
    stats: ExecStats,
    budget: u64,
    order: DoallOrder,
    trace: bool,
    /// `trace`, or a shadow still watching: the one flag plain runs test.
    watch: bool,
    /// Shadow tags; dropped at the first conflict.
    shadow: Option<Box<Shadow>>,
}

impl Exec<'_> {
    #[inline]
    fn tick(&mut self) -> Run<()> {
        self.stats.steps += 1;
        if self.stats.steps > self.budget {
            return Err(Box::new(Error::StepBudgetExceeded {
                budget: self.budget,
            }));
        }
        Ok(())
    }

    /// Evaluate `e`: constants and scalars inline, other nodes through
    /// their closure. (`ops` is charged per statement, not here.)
    #[inline]
    fn expr(&mut self, mem: &[Option<Bound>], e: &LExpr) -> Run<i64> {
        match e {
            LExpr::Const(v) => Ok(*v),
            LExpr::Slot(s) => self.slot(*s),
            LExpr::Node(n) => n(self, mem),
        }
    }

    #[inline]
    fn slot(&self, s: usize) -> Run<i64> {
        match self.slots[s] {
            Some(v) => Ok(v),
            None => Err(self.unbound(s)),
        }
    }

    #[cold]
    fn unbound(&self, slot: usize) -> Box<Error> {
        Box::new(Error::UnboundVariable(self.code.slots[slot].clone()))
    }

    /// The array binding and flat offset `r` addresses. Every subscript
    /// is evaluated before the first out-of-bounds one is reported.
    #[inline]
    fn resolve<'m>(&mut self, mem: &'m [Option<Bound>], r: &LRef) -> Run<(&'m Bound, usize)> {
        let bound = mem[r.array].as_ref();
        let Some(b) = bound.filter(|b| b.array.dims.len() == r.indices.len()) else {
            return Err(self.resolve_unbound(mem, r));
        };
        let mut flat = 0usize;
        let mut out_of_bounds = None;
        let dims = b.array.dims.iter().zip(&b.strides);
        for (d, (ix, (&extent, &stride))) in r.indices.iter().zip(dims).enumerate() {
            let v = self.expr(mem, ix)?;
            // One unsigned compare covers both `v < 1` and `v > extent`.
            let offset = (v as u64).wrapping_sub(1);
            if offset < extent as u64 {
                flat += offset as usize * stride;
            } else {
                out_of_bounds.get_or_insert((d, v, extent));
            }
        }
        match out_of_bounds {
            None => Ok((b, flat)),
            Some((dim, index, extent)) => Err(Box::new(Error::OutOfBounds {
                array: self.code.arrays[r.array].clone(),
                dim,
                index,
                extent,
            })),
        }
    }

    /// `resolve` for an array the store lacks or holds at another rank:
    /// the error, reported after the subscripts are evaluated.
    #[cold]
    fn resolve_unbound(&mut self, mem: &[Option<Bound>], r: &LRef) -> Box<Error> {
        let mut indices = Vec::with_capacity(r.indices.len());
        for ix in &r.indices {
            match self.expr(mem, ix) {
                Ok(v) => indices.push(v),
                Err(e) => return e,
            }
        }
        let name = &self.code.arrays[r.array];
        let err = match &mem[r.array] {
            None => Error::UnknownArray(name.clone()),
            Some(b) => match b.array.flat_index(name, &indices) {
                Err(e) => e,
                Ok(_) => unreachable!("only mismatched ranks take this path"),
            },
        };
        Box::new(err)
    }

    /// Trace and shadow an access to an array cell.
    #[cold]
    #[inline(never)]
    fn watch_cell(&mut self, kind: AccessKind, array: usize, flat: usize) {
        if self.trace {
            self.stats.trace.push(Access {
                kind,
                array: self.code.arrays[array].clone(),
                flat,
                iteration: self.loop_stack.clone(),
            });
        }
        if let Some(sh) = self.shadow.as_mut() {
            match kind {
                AccessKind::Read => sh.read_cell(array, flat),
                AccessKind::Write => sh.write_cell(array, flat),
            }
            self.settle();
        }
    }

    /// Shadow a statement's scalar reads, then (for an assignment) its
    /// scalar write.
    #[cold]
    #[inline(never)]
    fn watch_slots(&mut self, reads: &[usize], write: Option<usize>) {
        if let Some(sh) = self.shadow.as_mut() {
            for &s in reads {
                sh.read_slot(s);
            }
            if let Some(s) = write {
                sh.write_slot(s);
            }
            self.settle();
        }
    }

    /// Drop the shadow at its first conflict: the verdict is final, and
    /// the rest of the run goes at plain speed.
    fn settle(&mut self) {
        if self.shadow.as_ref().is_some_and(|sh| sh.conflict) {
            self.shadow = None;
            self.watch = self.trace;
        }
    }

    fn cond(&mut self, mem: &[Option<Bound>], c: &LCond) -> Run<bool> {
        match c {
            LCond::Cmp(op, a, b, ops) => {
                let x = self.expr(mem, a)?;
                let y = self.expr(mem, b)?;
                self.stats.ops += ops;
                Ok(op.apply(x, y))
            }
            LCond::Not(c) => Ok(!self.cond(mem, c)?),
            LCond::And(a, b) => Ok(self.cond(mem, a)? && self.cond(mem, b)?),
            LCond::Or(a, b) => Ok(self.cond(mem, a)? || self.cond(mem, b)?),
        }
    }

    fn block(&mut self, mem: &mut [Option<Bound>], stmts: &[LStmt]) -> Run<()> {
        for s in stmts {
            self.stmt(mem, s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, mem: &mut [Option<Bound>], s: &LStmt) -> Run<()> {
        self.tick()?;
        match s {
            LStmt::Scalar {
                slot,
                value,
                ops,
                reads,
            } => {
                let v = self.expr(mem, value)?;
                self.stats.ops += ops;
                if self.watch {
                    self.watch_slots(reads, Some(*slot));
                }
                self.slots[*slot] = Some(v);
            }
            LStmt::Store {
                target,
                value,
                ops,
                reads,
            } => {
                let v = self.expr(mem, value)?;
                let (_, flat) = self.resolve(mem, target)?;
                self.stats.ops += ops;
                if self.watch {
                    self.watch_slots(reads, None);
                    self.watch_cell(AccessKind::Write, target.array, flat);
                }
                let bound = mem[target.array].as_mut().expect("resolved above");
                bound.array.data[flat] = v;
            }
            LStmt::Loop(l) => self.counted(mem, l)?,
            LStmt::If(b) => {
                if self.watch {
                    self.watch_slots(&b.reads, None);
                }
                if self.cond(mem, &b.cond)? {
                    self.block(mem, &b.then_body)?;
                } else {
                    self.block(mem, &b.else_body)?;
                }
            }
        }
        Ok(())
    }

    fn counted(&mut self, mem: &mut [Option<Bound>], l: &LLoop) -> Run<()> {
        let lo = self.expr(mem, &l.lower)?;
        let hi = self.expr(mem, &l.upper)?;
        let step = self.expr(mem, &l.step)?;
        self.stats.ops += l.header_ops;
        let Some(trip) = arith::trip_count(lo, hi, step) else {
            return Err(Box::new(Error::ZeroStep(self.code.slots[l.slot].clone())));
        };
        if exceeds_budget(lo, step, trip, self.budget) {
            return Err(Box::new(Error::StepBudgetExceeded {
                budget: self.budget,
            }));
        }
        // `trip <= budget + 1` from here on, and every index
        // `lo + k * step` for `k < trip` lies within `lo..=hi`: the
        // wrapping steps below are exact for each index actually used.
        // (Only a `u64::MAX` budget admits `2^64` trips; the budget runs
        // out long before the clamp matters.)
        let trip = u64::try_from(trip).unwrap_or(u64::MAX);
        let saved = self.slots[l.slot];
        let saved_tag = if self.watch {
            self.watch_loop_entry(l)
        } else {
            None
        };
        let order = if l.doall {
            self.order
        } else {
            DoallOrder::Forward
        };
        match order {
            DoallOrder::Forward => {
                let mut ix = lo;
                for _ in 0..trip {
                    self.iteration(mem, l, ix)?;
                    ix = ix.wrapping_add(step);
                }
            }
            DoallOrder::Reverse => {
                let mut ix = lo.wrapping_add(((trip as i64).wrapping_sub(1)).wrapping_mul(step));
                for _ in 0..trip {
                    self.iteration(mem, l, ix)?;
                    ix = ix.wrapping_sub(step);
                }
            }
            DoallOrder::Shuffled(seed) => {
                let start = self.order_buf.len();
                let mut ix = lo;
                for _ in 0..trip {
                    self.order_buf.push(ix);
                    ix = ix.wrapping_add(step);
                }
                shuffle(&mut self.order_buf[start..], seed);
                for k in start..start + trip as usize {
                    let ix = self.order_buf[k];
                    self.iteration(mem, l, ix)?;
                }
                self.order_buf.truncate(start);
            }
        }
        // The loop variable goes out of scope: restore what it shadowed,
        // value and tag alike.
        if let Some(tag) = saved_tag {
            self.watch_loop_exit(l, tag);
        }
        self.slots[l.slot] = saved;
        Ok(())
    }

    /// Shadow a loop's header reads and, for a `doall`, open its frame.
    /// Returns the tag of the binding the loop variable shadows.
    #[cold]
    #[inline(never)]
    fn watch_loop_entry(&mut self, l: &LLoop) -> Option<SlotTag> {
        self.watch_slots(&l.reads, None);
        let sh = self.shadow.as_mut()?;
        if l.doall {
            sh.enter();
        }
        Some(sh.slot_tag(l.slot))
    }

    #[cold]
    #[inline(never)]
    fn watch_loop_exit(&mut self, l: &LLoop, tag: SlotTag) {
        if let Some(sh) = self.shadow.as_mut() {
            if l.doall {
                sh.exit();
            }
            sh.restore_slot(l.slot, tag);
        }
    }

    #[inline]
    fn iteration(&mut self, mem: &mut [Option<Bound>], l: &LLoop, ix: i64) -> Run<()> {
        self.tick()?;
        self.slots[l.slot] = Some(ix);
        if self.watch {
            self.watched_iteration(mem, l, ix)
        } else {
            self.block(mem, &l.body)
        }
    }

    /// An iteration of a traced or shadowed run: a `doall` iteration
    /// takes a fresh tag, and the loop variable a fresh private binding.
    #[cold]
    #[inline(never)]
    fn watched_iteration(&mut self, mem: &mut [Option<Bound>], l: &LLoop, ix: i64) -> Run<()> {
        if let Some(sh) = self.shadow.as_mut() {
            if l.doall {
                sh.next_iteration();
            }
            sh.bind_slot(l.slot);
            self.settle();
        }
        if self.trace {
            self.loop_stack.push((self.code.slots[l.slot].clone(), ix));
            self.block(mem, &l.body)?;
            self.loop_stack.pop();
            Ok(())
        } else {
            self.block(mem, &l.body)
        }
    }
}

/// Whether a loop of `trip` iterations is refused up front for exceeding
/// `budget`. This is the rule the interpreter has always applied while
/// enumerating indices: the check after the `budget + 1`-th index is
/// skipped when the next index would overflow `i64`, in which case the
/// loop starts and the per-iteration ticks exhaust the budget instead.
fn exceeds_budget(lo: i64, step: i64, trip: u128, budget: u64) -> bool {
    let budget = budget as u128;
    if trip <= budget {
        return false;
    }
    if trip > budget + 1 {
        return true;
    }
    let next = lo as i128 + trip as i128 * step as i128;
    (i64::MIN as i128..=i64::MAX as i128).contains(&next)
}

/// Fisher–Yates with a xorshift64* generator: deterministic, and the same
/// permutation for a given seed and length as every earlier version.
fn shuffle(indices: &mut [i64], seed: u64) {
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

    #[test]
    fn zero_step_is_reported() {
        let mut l = Loop::serial("i", 3, vec![]);
        l.step = Expr::lit(0);
        let p = Program::new().with_stmt(Stmt::Loop(l));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::ZeroStep(Symbol::new("i")))
        );
    }

    #[test]
    fn division_by_zero_inside_a_subscript_is_reported() {
        // z = 0; A[5 / z] = 7;
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::assign("z", Expr::lit(0)))
            .with_stmt(Stmt::store(
                "A",
                vec![Expr::lit(5).floor_div(Expr::var("z"))],
                Expr::lit(7),
            ));
        assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));
    }

    #[test]
    fn stored_value_is_evaluated_before_the_subscript() {
        // A[5 / 0] = ghost; — the value's error wins over the subscript's.
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::store(
                "A",
                vec![Expr::lit(5).floor_div(Expr::lit(0))],
                Expr::var("ghost"),
            ));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::UnboundVariable(Symbol::new("ghost")))
        );
    }

    #[test]
    fn loop_bounds_evaluate_lower_then_upper_then_step() {
        let header = |lower: Expr, upper: Expr, step: Expr| {
            let mut l = Loop::serial("i", 1, vec![]);
            (l.lower, l.upper, l.step) = (lower, upper, step);
            Program::new().with_stmt(Stmt::Loop(l))
        };
        let div0 = || Expr::lit(1).floor_div(Expr::lit(0));
        let p = header(Expr::var("lo"), div0(), Expr::lit(0));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::UnboundVariable(Symbol::new("lo")))
        );
        let p = header(Expr::lit(1), div0(), Expr::var("st"));
        assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));
        let p = header(Expr::lit(1), Expr::lit(3), Expr::var("st"));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::UnboundVariable(Symbol::new("st")))
        );
    }

    #[test]
    fn trip_count_above_the_budget_fails_before_the_body_runs() {
        // The body would divide by zero on its first iteration, but the
        // trip count alone already exceeds the budget.
        let p = Program::new().with_stmt(Stmt::Loop(Loop::serial(
            "i",
            i64::MAX,
            vec![Stmt::assign("x", Expr::lit(1).floor_div(Expr::lit(0)))],
        )));
        assert_eq!(
            Interp::new().with_budget(1000).run(&p),
            Err(Error::StepBudgetExceeded { budget: 1000 })
        );
    }

    #[test]
    fn loop_ending_at_i64_max_stops_without_wrapping() {
        // for i = MAX-2 .. MAX { s = s + 1 } runs exactly three times.
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::assign("s", Expr::lit(0)))
            .with_stmt(Stmt::Loop(Loop::new(
                crate::stmt::LoopKind::Serial,
                "i",
                i64::MAX - 2,
                i64::MAX,
                vec![Stmt::assign("s", Expr::var("s") + Expr::lit(1))],
            )))
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::var("s")));
        assert_eq!(Interp::new().run(&p).unwrap().get("A", &[1]), Ok(3));
    }

    #[test]
    fn array_missing_from_the_supplied_store_is_reported() {
        let p = Program::new()
            .with_array("A", vec![4])
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::lit(1)));
        assert_eq!(
            Interp::new().run_on(&p, Store::default()).map(|_| ()),
            Err(Error::UnknownArray(Symbol::new("A")))
        );
        // A missing array that is never touched is not an error.
        let mut idle = p.clone();
        idle.body.clear();
        assert!(Interp::new().run_on(&idle, Store::default()).is_ok());
    }

    #[test]
    fn loop_variable_unbound_before_is_unbound_after() {
        // for i = 1..3 {} A[1] = i;  — `i` does not outlive its loop.
        let p = Program::new()
            .with_array("A", vec![1])
            .with_stmt(Stmt::Loop(Loop::serial("i", 3, vec![])))
            .with_stmt(Stmt::store("A", vec![Expr::lit(1)], Expr::var("i")));
        assert_eq!(
            Interp::new().run(&p),
            Err(Error::UnboundVariable(Symbol::new("i")))
        );
    }

    #[test]
    fn steps_count_statements_and_iterations() {
        // s = 0; for i = 1..4 { s = s + i; }  → 1 + (1 + 4 * 2) steps.
        let p = Program::new()
            .with_stmt(Stmt::assign("s", Expr::lit(0)))
            .with_stmt(Stmt::Loop(Loop::serial(
                "i",
                4,
                vec![Stmt::assign("s", Expr::var("s") + Expr::var("i"))],
            )));
        let (_, stats) = Interp::new().run_on(&p, Store::for_program(&p)).unwrap();
        assert_eq!(stats.steps, 10);
        // 5 scalar stores + 4 adds.
        assert_eq!(stats.ops, 9);
    }
}
