//! Soundness of the static dependence analyzer against dynamic ground
//! truth: run randomly generated nests under the tracing interpreter,
//! reconstruct every *actual* cross-iteration conflict from the access
//! trace, and require the static analyzer to have predicted a dependence
//! carried at that level. (The analyzer may over-approximate — extra
//! dependences are fine — but it must never miss a real one: a miss would
//! let the coalescer parallelize a racy loop.)

use std::collections::HashMap;

use proptest::prelude::*;

use lc_fuzz::gen::{self, GenConfig};
use lc_fuzz::rng::Rng;
use loop_coalescing::ir::analysis::depend::analyze_nest;
use loop_coalescing::ir::analysis::nest::{extract_nest, Nest};
use loop_coalescing::ir::interp::{AccessKind, Interp, Store};
use loop_coalescing::ir::program::Program;
use loop_coalescing::ir::stmt::{Loop, LoopKind, Stmt};
use loop_coalescing::ir::{Expr, Symbol};
use loop_coalescing::xform::normalize::normalize_nest;
use loop_coalescing::xform::perfect::perfect_recursively;

/// A generated nest whose subscripts are offset affine forms — rich
/// enough to create real carried dependences in both directions.
#[derive(Debug, Clone)]
struct Spec {
    /// Trip count of each level.
    dims: Vec<u64>,
    /// Step of each level: a negative step runs its range downward.
    steps: Vec<i64>,
    /// (write_offsets, read_offsets, read_same_array): subscript k of the
    /// write is `i_k + write_offsets[k]`, similarly for the read.
    write_off: Vec<i64>,
    read_off: Vec<i64>,
    read_same: bool,
    /// Whether subscripts swap the index order (i.e. A[i_2][i_1]) for
    /// depth-2 writes, creating transposed conflicts.
    transpose_read: bool,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..=2)
        .prop_flat_map(|depth| {
            (
                proptest::collection::vec(2u64..=4, depth),
                proptest::collection::vec(proptest::sample::select([-2i64, -1, 1, 2]), depth),
                proptest::collection::vec(-2i64..=2, depth),
                proptest::collection::vec(-2i64..=2, depth),
                proptest::bool::ANY,
                proptest::bool::ANY,
            )
        })
        .prop_map(
            |(dims, steps, write_off, read_off, read_same, transpose_read)| Spec {
                dims,
                steps,
                write_off,
                read_off,
                read_same,
                transpose_read,
            },
        )
}

/// Build the program: `A[iv + w] = B-or-A[iv + r] + 1` inside the nest.
/// Level k visits `1, 1 + |step|, …` upward or downward as its step's sign
/// says. Subscripts are shifted by +3 so every offset stays in bounds.
fn build(s: &Spec) -> Program {
    let depth = s.dims.len();
    // Uniform extents sized for the largest index so transposed
    // subscripts stay in bounds too.
    let top = |k: usize| 1 + (s.dims[k] as i64 - 1) * s.steps[k].abs();
    let max_index = (0..depth).map(top).max().unwrap() as usize;
    let ext: Vec<usize> = vec![max_index + 6; depth];
    let vars: Vec<Symbol> = (0..depth).map(|k| Symbol::new(format!("i{k}"))).collect();

    let sub = |offsets: &[i64], transpose: bool| -> Vec<Expr> {
        let mut subs: Vec<Expr> = offsets
            .iter()
            .zip(&vars)
            .map(|(&off, v)| Expr::Var(v.clone()) + Expr::lit(off + 3))
            .collect();
        if transpose && subs.len() == 2 {
            subs.swap(0, 1);
        }
        subs
    };

    let read_array = if s.read_same { "A" } else { "B" };
    let body = vec![Stmt::AssignArray {
        target: lc_ir::expr::ArrayRef::new("A", sub(&s.write_off, false)),
        value: Expr::read(read_array, sub(&s.read_off, s.transpose_read)) + Expr::lit(1),
    }];

    let mut stmts = body;
    for k in (0..depth).rev() {
        let (lower, upper) = if s.steps[k] > 0 {
            (1, top(k))
        } else {
            (top(k), 1)
        };
        stmts = vec![Stmt::Loop(Loop {
            step: Expr::lit(s.steps[k]),
            ..Loop::new(LoopKind::Serial, vars[k].clone(), lower, upper, stmts)
        })];
    }
    let mut p = Program::new().with_array("A", ext.clone());
    if !s.read_same {
        p = p.with_array("B", ext);
    }
    p.body = stmts;
    p
}

/// Extract the dynamic carried-conflict levels from a traced run: for
/// every pair of accesses to the same cell (≥ one write) from different
/// iterations, record the first level where their index vectors differ.
fn dynamic_carried_levels(p: &Program, depth: usize) -> Vec<usize> {
    let store = Store::for_program(p);
    let (_, stats) = Interp::new().with_trace().run_on(p, store).unwrap();
    // Group accesses by (array, flat cell).
    type CellAccesses = Vec<(Vec<i64>, AccessKind)>;
    let mut cells: HashMap<(String, usize), CellAccesses> = HashMap::new();
    for a in &stats.trace {
        let iv: Vec<i64> = a.iteration.iter().take(depth).map(|(_, v)| *v).collect();
        cells
            .entry((a.array.to_string(), a.flat))
            .or_default()
            .push((iv, a.kind));
    }
    let mut levels = Vec::new();
    for accesses in cells.values() {
        for x in 0..accesses.len() {
            for y in (x + 1)..accesses.len() {
                let (iva, ka) = &accesses[x];
                let (ivb, kb) = &accesses[y];
                if *ka == AccessKind::Read && *kb == AccessKind::Read {
                    continue;
                }
                if let Some(level) = iva.iter().zip(ivb).position(|(a, b)| a != b) {
                    levels.push(level);
                }
            }
        }
    }
    levels.sort_unstable();
    levels.dedup();
    levels
}

fn has_guard(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::If { .. } => true,
        Stmt::Loop(l) => has_guard(&l.body),
        _ => false,
    })
}

/// The analysis of a nest as written must agree with the analysis of its
/// normalization: equal without guards, and no less precise with them (a
/// guard pin on a level survives only in the nest as written). Nests
/// that do not normalize (symbolic bounds) are skipped.
fn raw_agrees_with_normalized(nest: &Nest) -> Result<(), String> {
    let Ok(normalized) = normalize_nest(nest) else {
        return Ok(());
    };
    let raw = analyze_nest(nest).unwrap();
    let norm = analyze_nest(&normalized).unwrap();
    if !has_guard(&nest.body) {
        if raw != norm {
            return Err(format!("raw {raw:?}\nnormalized {norm:?}"));
        }
    } else if let Some(k) = (0..nest.depth()).find(|&k| raw.carried_at(k) && !norm.carried_at(k)) {
        return Err(format!("raw analysis alone carries level {k}"));
    }
    Ok(())
}

/// The first 200 programs of the CI fuzz seed: every loop as generated
/// and, where perfection applies, as perfected (which adds guards).
#[test]
fn fuzz_nests_analyse_like_their_normalization() {
    let root = Rng::new(0xC0A1E5CE);
    let cfg = GenConfig::default();
    for case in 0..200 {
        let program = gen::generate(&mut root.fork(case), &cfg).program;
        for stmt in &program.body {
            let Stmt::Loop(l) = stmt else { continue };
            let mut versions = vec![l.clone()];
            versions.extend(perfect_recursively(l).ok().filter(|p| p != l));
            for v in versions {
                if let Err(e) = raw_agrees_with_normalized(&extract_nest(&v)) {
                    panic!("case {case}: {e}\n{v:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nests_analyse_like_their_normalization(s in spec()) {
        let p = build(&s);
        let Stmt::Loop(l) = &p.body[0] else { unreachable!() };
        let verdict = raw_agrees_with_normalized(&extract_nest(l));
        prop_assert!(verdict.is_ok(), "{}\nspec: {s:?}", verdict.unwrap_err());
    }

    #[test]
    fn static_analysis_covers_every_dynamic_conflict(s in spec()) {
        let p = build(&s);
        p.check().unwrap();
        let Stmt::Loop(l) = &p.body[0] else { unreachable!() };
        let nest = extract_nest(l);
        let deps = analyze_nest(&nest).unwrap();

        let dynamic = dynamic_carried_levels(&p, s.dims.len());
        for level in dynamic {
            prop_assert!(
                deps.carried_at(level),
                "analyzer missed a real conflict carried at level {level}\n\
                 spec: {s:?}\ndeps: {deps:?}"
            );
        }
    }

    #[test]
    fn fully_parallel_verdicts_are_dynamically_conflict_free(s in spec()) {
        // The contrapositive, which is what the coalescer relies on: if
        // the analyzer says "no carried dependence anywhere", the trace
        // must contain no cross-iteration conflict at all.
        let p = build(&s);
        let Stmt::Loop(l) = &p.body[0] else { unreachable!() };
        let deps = analyze_nest(&extract_nest(l)).unwrap();
        if deps.fully_parallel() {
            let dynamic = dynamic_carried_levels(&p, s.dims.len());
            prop_assert!(
                dynamic.is_empty(),
                "analyzer said parallel but conflicts exist at levels {dynamic:?}\nspec: {s:?}"
            );
        }
    }
}
