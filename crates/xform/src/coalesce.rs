//! The loop-coalescing transformation.
//!
//! Coalescing rewrites a perfect nest of parallel loops
//!
//! ```text
//! doall i1 = 1..N1 { doall i2 = 1..N2 { ... BODY ... } }
//! ```
//!
//! into a single parallel loop over the whole iteration space
//!
//! ```text
//! doall j = 1..N1*N2 {
//!     i1 = ceildiv(j, N2);
//!     i2 = j - N2 * (ceildiv(j, N2) - 1);
//!     BODY
//! }
//! ```
//!
//! so that a self-scheduled machine dispatches iterations from **one**
//! shared counter instead of one counter (and one barrier) per nest level.
//! Partial collapse — coalescing only a contiguous band of levels — is
//! supported; outer levels are preserved around the coalesced loop and
//! inner levels are preserved inside it.
//!
//! # Constant and symbolic trip counts
//!
//! Coalescing is one route: normalize, then [`coalesce_band`] once. The
//! band's recovery code comes from one stride chain, built innermost
//! first: the stride of level `k` is `P_{k+1} = Π_{l>k} N_l`, and
//!
//! * a stride that folds to a constant stays a literal in the recovery
//!   formula;
//! * a stride that involves a runtime bound becomes a scalar (`lcs_k`)
//!   computed in a preamble ahead of the loop, as in the paper's
//!   symbolic presentation.
//!
//! An all-constant band therefore gets literal strides, a checked
//! literal trip count and no preamble. A mixed nest like
//! `doall i = 1..n { doall j = 1..64 { … } }` keeps literal recovery on
//! the constant levels and computes only the total trip count
//! (`lcs_total = 64 * n`) at run time. When every banded trip count is
//! symbolic the emission is the classic all-scalar stride preamble.
//!
//! # Legality
//!
//! A band of levels may be coalesced when
//!
//! 1. the loops form a perfect nest in unit form `1..=U step 1` (run
//!    [`crate::normalize`] first; symbolic upper bounds must
//!    additionally be loop-invariant),
//! 2. no data dependence is *carried* at any coalesced level (each level
//!    is DOALL-legal, as the dependence tester proves), and
//! 3. no coalesced level carries a scalar: one iteration of the band's
//!    outermost level never reads a scalar the body assigns before
//!    assigning it, counting reads in the inner levels' bounds, which it
//!    evaluates too ([`lc_ir::analysis::scalars::carried_scalars`]). Such
//!    scalars are privatizable; scalar reductions (`s = s + …`) are
//!    rejected.

use std::collections::HashSet;

use lc_ir::analysis::depend::{analyze_nest, NestDeps};
use lc_ir::analysis::nest::{extract_nest, LoopHeader, Nest};
use lc_ir::analysis::scalars::{carried_scalars, mentioned, visit_symbols};
use lc_ir::analysis::walk::Mention;
use lc_ir::build::ExprBuilder;
use lc_ir::expr::Expr;
use lc_ir::stmt::{Loop, LoopKind, Stmt};
use lc_ir::symbol::Symbol;
use lc_ir::{Error, Result, SkipReason};

use crate::normalize::normalize_nest;
use crate::recovery::{recovery_from_strides, total_iterations, RecoveryScheme};

/// Options controlling [`coalesce_loop`].
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`CoalesceOptions::default`] or the [builder](CoalesceOptions::builder),
/// e.g. `CoalesceOptions::builder().levels(0, 2).build()`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CoalesceOptions {
    /// Index-recovery code to emit (default: the paper's ceiling formula).
    pub scheme: RecoveryScheme,
    /// The contiguous band of 0-based levels to coalesce, `[start, end)`.
    /// `None` coalesces the whole nest.
    pub levels: Option<(usize, usize)>,
    /// Name for the coalesced index variable; a fresh name derived from
    /// `jc` is chosen when `None` or when the given name collides.
    pub coalesced_var: Option<Symbol>,
    /// Normalize shifted and strided loops first. Without it, every loop
    /// must already be in unit form `1..=U step 1`.
    pub auto_normalize: bool,
    /// Run common-subexpression extraction over the emitted recovery
    /// statements (hoists the shared `⌈j/P⌉` terms — the paper's
    /// strength-reduction remark; only pays off for nests ≥ 3 deep).
    pub strength_reduce: bool,
}

impl Default for CoalesceOptions {
    fn default() -> Self {
        CoalesceOptions {
            scheme: RecoveryScheme::Ceiling,
            levels: None,
            coalesced_var: None,
            auto_normalize: true,
            strength_reduce: false,
        }
    }
}

impl CoalesceOptions {
    /// Start building options from the defaults.
    pub fn builder() -> CoalesceOptionsBuilder {
        CoalesceOptionsBuilder {
            opts: CoalesceOptions::default(),
        }
    }

    /// Fit the requested band to a nest of `depth` levels: if the band
    /// is empty or reaches past the nest, fall back to coalescing the
    /// whole nest (`levels = None`) rather than erroring.
    ///
    /// This is the per-nest clamping the source pipeline applies when one
    /// option set drives programs whose nests have differing depths.
    pub fn clamped_to_depth(mut self, depth: usize) -> Self {
        if let Some((start, end)) = self.levels {
            if end > depth || start >= end {
                self.levels = None;
            }
        }
        self
    }
}

/// Builder for [`CoalesceOptions`]; see [`CoalesceOptions::builder`].
#[derive(Debug, Clone)]
pub struct CoalesceOptionsBuilder {
    opts: CoalesceOptions,
}

impl CoalesceOptionsBuilder {
    /// Index-recovery code to emit.
    pub fn scheme(mut self, scheme: RecoveryScheme) -> Self {
        self.opts.scheme = scheme;
        self
    }

    /// Coalesce only the contiguous band of 0-based levels
    /// `[start, end)`.
    pub fn levels(mut self, start: usize, end: usize) -> Self {
        self.opts.levels = Some((start, end));
        self
    }

    /// Coalesce the whole nest (the default; undoes [`Self::levels`]).
    pub fn all_levels(mut self) -> Self {
        self.opts.levels = None;
        self
    }

    /// Set the band from an `Option`: `Some((start, end))` behaves like
    /// [`Self::levels`], `None` like [`Self::all_levels`]. Handy when the
    /// band is itself data (e.g. a kernel's recommended collapse band).
    pub fn levels_opt(mut self, band: Option<(usize, usize)>) -> Self {
        self.opts.levels = band;
        self
    }

    /// Requested name for the coalesced index variable.
    pub fn coalesced_var(mut self, var: impl Into<Symbol>) -> Self {
        self.opts.coalesced_var = Some(var.into());
        self
    }

    /// Automatically normalize non-unit-step / offset loops first.
    pub fn auto_normalize(mut self, auto: bool) -> Self {
        self.opts.auto_normalize = auto;
        self
    }

    /// Run common-subexpression extraction over the emitted recovery
    /// statements.
    pub fn strength_reduce(mut self, reduce: bool) -> Self {
        self.opts.strength_reduce = reduce;
        self
    }

    /// Finish, yielding the options.
    pub fn build(self) -> CoalesceOptions {
        self.opts
    }
}

/// Metadata describing what a coalescing did (consumed by the scheduling
/// and benchmark layers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoalesceInfo {
    /// Trip count of each coalesced level, outermost first. Empty when
    /// any banded trip count is symbolic (known only at run time).
    pub dims: Vec<u64>,
    /// `Π dims` — the coalesced loop's trip count; `0` when symbolic.
    pub total_iterations: u64,
    /// Recovery scheme emitted.
    pub scheme: RecoveryScheme,
    /// Abstract per-iteration cost of the emitted recovery statements;
    /// `0` when any banded trip count is symbolic.
    pub recovery_cost_per_iteration: u64,
    /// The band `[start, end)` of original levels that were coalesced.
    pub levels: (usize, usize),
    /// Depth of the original nest.
    pub original_depth: usize,
    /// The coalesced loop's index variable.
    pub coalesced_var: Symbol,
}

/// A coalescing outcome: the rewritten loop, the (possibly empty) stride
/// preamble, and metadata.
#[derive(Debug, Clone)]
pub struct CoalesceResult {
    /// The transformed outermost loop (outer uncoalesced levels intact).
    pub transformed: Loop,
    /// Scalar assignments computing symbolic stride products; they must
    /// precede the loop. Empty when every banded trip count is constant.
    pub preamble: Vec<Stmt>,
    /// What happened.
    pub info: CoalesceInfo,
}

impl CoalesceResult {
    /// Preamble + loop as a single statement list — splice this in place
    /// of the original loop statement.
    pub fn stmts(&self) -> Vec<Stmt> {
        let mut out = self.preamble.clone();
        out.push(Stmt::Loop(self.transformed.clone()));
        out
    }
}

/// Coalesce (a band of levels of) the perfect nest rooted at `l`.
///
/// Convenience wrapper over [`coalesce_band`]: extracts the nest,
/// analyses its dependences once, and normalizes it (when
/// `auto_normalize` is set). Callers that already hold the nest and its
/// dependence analysis — e.g. `lc-driver`'s cached pipeline — should call
/// [`coalesce_band`] directly so nothing is recomputed.
pub fn coalesce_loop(l: &Loop, opts: &CoalesceOptions) -> Result<CoalesceResult> {
    let nest = extract_nest(l);
    let deps = analyze_nest(&nest)?;
    if opts.auto_normalize {
        coalesce_band(&normalize_nest(&nest)?, &deps, opts)
    } else {
        coalesce_band(&nest, &deps, opts)
    }
}

/// Coalesce a band of an already-extracted nest.
///
/// Every loop must be in unit form `1..=U step 1` (normalize first).
/// `deps` is the dependence analysis of this nest, or of the nest it was
/// normalized from: `analyze_nest` answers in iteration order, so both
/// describe the same levels. Taking it as an argument lets a driver share
/// one analysis between the lints, the legality check, the collapse-band
/// advisor, and the coalescer.
pub fn coalesce_band(
    nest: &Nest,
    deps: &NestDeps,
    opts: &CoalesceOptions,
) -> Result<CoalesceResult> {
    precheck_band(nest, deps, opts)?;

    let depth = nest.depth();
    let (start, end) = opts.levels.unwrap_or((0, depth));
    let band = &nest.loops[start..end];

    let used = used_symbols(nest);
    let jvar = fresh_from(
        &used,
        opts.coalesced_var
            .as_ref()
            .map(|s| s.as_str())
            .unwrap_or("jc"),
    );

    // An all-constant band has a checked total, reported dims and cost;
    // a runtime trip count anywhere leaves all three to the emitted code.
    let dims: Option<Vec<u64>> = band.iter().map(LoopHeader::const_trip_count).collect();
    let total = dims.as_deref().map(total_iterations).transpose()?;
    let trips: Vec<Expr> = band
        .iter()
        .map(|h| match h.const_trip_count() {
            Some(n) => Expr::lit(n as i64),
            None => h.upper.clone(),
        })
        .collect();

    // The stride chain, innermost first: a stride that folds stays a
    // literal, one that does not becomes a preamble scalar. With every
    // trip symbolic, every stride (including the constant innermost `1`)
    // is materialized so the emission matches the paper's all-symbolic
    // preamble shape. An all-constant band never gets a preamble: its
    // strides fold unless a zero-trip level makes the loop empty anyway.
    //
    // A symbolic trip `U` may evaluate below zero, where the level runs
    // no iterations. Two such factors could multiply to a positive
    // product, so with two or more symbolic trips each factor is clamped
    // to `max(U, 0)`; a lone symbolic factor cannot flip the sign.
    let all_symbolic = band.iter().all(|h| h.upper.as_const().is_none());
    let clamp = band
        .iter()
        .filter(|h| h.const_trip_count().is_none())
        .count()
        >= 2;
    let mut preamble = ExprBuilder::new();
    let mut strides = vec![Expr::lit(1); band.len()];
    let mut running = Expr::lit(1);
    for (k, h) in band.iter().enumerate().rev() {
        if all_symbolic || (total.is_none() && running.as_const().is_none()) {
            let name = fresh_from(&used, &format!("lcs_{k}"));
            preamble.assign(name.clone(), running);
            running = Expr::Var(name);
        }
        strides[k] = running.clone();
        let factor = if clamp && h.const_trip_count().is_none() {
            trips[k].clone().max(Expr::lit(0))
        } else {
            trips[k].clone()
        };
        running = (running * factor).fold();
    }
    // Constant even with a symbolic bound when a zero-trip level
    // annihilates the product.
    let upper = if running.as_const().is_some() {
        running
    } else {
        let name = fresh_from(&used, "lcs_total");
        preamble.assign(name.clone(), running);
        Expr::Var(name)
    };

    let vars: Vec<Symbol> = band.iter().map(|h| h.var.clone()).collect();
    let recovery = recovery_from_strides(opts.scheme, &jvar, &vars, &strides, &trips);
    let mut recovery = ExprBuilder::from_stmts(recovery);
    let mut recovery_cost = 0;
    if total.is_some() {
        if opts.strength_reduce {
            // Temp names are `{prefix}{n}` for arbitrary n: pick a prefix
            // no existing symbol starts with, so no temp can collide.
            let prefix = (0u32..)
                .map(|i| {
                    if i == 0 {
                        "rc_".to_string()
                    } else {
                        format!("rc{i}_")
                    }
                })
                .find(|p| !used.iter().any(|u| u.starts_with(p.as_str())))
                .expect("some prefix is always free");
            recovery.intern_shared_divisions(&prefix);
        }
        recovery_cost = recovery.cost().units();
    }

    // Inner uncoalesced levels wrap the nest body inside the coalesced
    // loop; outer uncoalesced levels wrap the coalesced loop, unchanged.
    let mut body = recovery.into_stmts();
    body.extend(wrap_levels(&nest.loops[end..], nest.body.clone()));
    let mut result = Loop {
        var: jvar.clone(),
        lower: Expr::lit(1),
        upper,
        step: Expr::lit(1),
        kind: LoopKind::Doall,
        body,
    };
    for h in nest.loops[..start].iter().rev() {
        result = rebuild_level(h, vec![Stmt::Loop(result)]);
    }

    Ok(CoalesceResult {
        transformed: result,
        preamble: preamble.into_stmts(),
        info: CoalesceInfo {
            dims: dims.unwrap_or_default(),
            total_iterations: total.unwrap_or(0),
            scheme: opts.scheme,
            recovery_cost_per_iteration: recovery_cost,
            levels: (start, end),
            original_depth: depth,
            coalesced_var: jvar,
        },
    })
}

/// Check — without rewriting anything — that the band requested by
/// `opts` can legally be coalesced on `nest`.
///
/// This is the complete legality precheck [`coalesce_band`] runs before
/// emitting code: band range, unit form, bound invariance, and DOALL
/// legality (`deps` + scalar privatization). `Ok(())` guarantees the
/// subsequent [`coalesce_band`] call cannot fail except on arithmetic
/// overflow of a constant trip-count product.
pub fn precheck_band(nest: &Nest, deps: &NestDeps, opts: &CoalesceOptions) -> Result<()> {
    let depth = nest.depth();
    let (start, end) = opts.levels.unwrap_or((0, depth));
    if start >= end || end > depth {
        return Err(Error::Unsupported(SkipReason::BandOutOfRange {
            start,
            end,
            depth,
        }));
    }

    // Every level must read `1..=U step 1`; normalization rewrites the
    // others when their bounds are literals.
    if let Some(h) = nest.loops.iter().find(|h| !h.is_unit_form()) {
        return Err(Error::Unsupported(SkipReason::NotNormalized {
            var: h.var.clone(),
        }));
    }

    let band = &nest.loops[start..end];

    // Symbolic upper bounds must be invariant: no banded bound may
    // mention a variable assigned inside the nest or any nest index.
    // (Constant bounds mention no variables; the scan is skipped.)
    if band.iter().any(|h| h.upper.as_const().is_none()) {
        let mut assigned: Vec<Symbol> = nest.loops.iter().map(|h| h.var.clone()).collect();
        visit_symbols(&nest.body, &mut |v, m| {
            if matches!(m, Mention::Assign { .. } | Mention::Index) {
                assigned.push(v.clone());
            }
        });
        for h in band {
            let mut vars = Vec::new();
            h.upper.variables(&mut vars);
            if let Some(v) = vars.iter().find(|v| assigned.contains(v)) {
                return Err(Error::Unsupported(SkipReason::VariantBound {
                    var: h.var.clone(),
                    dep: v.clone(),
                }));
            }
        }
    }

    for level in start..end {
        if deps.carried_at(level) {
            return Err(Error::Unsupported(SkipReason::CarriedDependence {
                level,
                var: nest.loops[level].var.clone(),
            }));
        }
    }
    scalar_privatization_ok(nest, start)
}

/// Rebuild one preserved nest level around `body`.
fn rebuild_level(h: &LoopHeader, body: Vec<Stmt>) -> Loop {
    Loop {
        var: h.var.clone(),
        lower: h.lower.clone(),
        upper: h.upper.clone(),
        step: h.step.clone(),
        kind: h.kind,
        body,
    }
}

/// Wrap `body` in the given preserved levels, innermost-last.
fn wrap_levels(headers: &[LoopHeader], mut body: Vec<Stmt>) -> Vec<Stmt> {
    for h in headers.iter().rev() {
        body = vec![Stmt::Loop(rebuild_level(h, body))];
    }
    body
}

/// Pick a name that collides with nothing in `used`.
fn fresh_from(used: &HashSet<String>, base: &str) -> Symbol {
    if !used.contains(base) {
        return Symbol::new(base);
    }
    let mut n = 0usize;
    loop {
        let cand = format!("{base}_{n}");
        if !used.contains(cand.as_str()) {
            return Symbol::new(cand);
        }
        n += 1;
    }
}

fn used_symbols(nest: &Nest) -> HashSet<String> {
    let mut syms: Vec<Symbol> = Vec::new();
    for h in &nest.loops {
        syms.push(h.var.clone());
        h.lower.variables(&mut syms);
        h.upper.variables(&mut syms);
        h.step.variables(&mut syms);
    }
    syms.extend(mentioned(&nest.body));
    syms.into_iter().map(|s| s.as_str().to_string()).collect()
}

/// Verify that no scalar is carried across the iterations of level
/// `start`, the outermost coalesced level: each one the body assigns can
/// be privatized per iteration, so iterations do not communicate through
/// it. The first carried scalar names the skip.
pub(crate) fn scalar_privatization_ok(nest: &Nest, start: usize) -> Result<()> {
    match carried_scalars(nest, start).into_iter().next() {
        Some(c) => Err(Error::Unsupported(SkipReason::ScalarReduction {
            var: c.var,
        })),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::interp::{DoallOrder, Interp};
    use lc_ir::parser::parse_program;
    use lc_ir::program::Program;

    fn loop_of(p: &Program) -> (usize, Loop) {
        p.body
            .iter()
            .enumerate()
            .find_map(|(i, s)| match s {
                Stmt::Loop(l) => Some((i, l.clone())),
                _ => None,
            })
            .unwrap()
    }

    /// Coalesce the (first) loop of a program, splice preamble + loop in
    /// its place, and check the transformed program produces an identical
    /// store under several doall orders.
    fn check_coalesce(src: &str, opts: &CoalesceOptions) -> CoalesceResult {
        let p = parse_program(src).unwrap();
        let (idx, l) = loop_of(&p);
        let out = coalesce_loop(&l, opts).unwrap();

        let mut p2 = p.clone();
        p2.body.remove(idx);
        for (off, s) in out.stmts().into_iter().enumerate() {
            p2.body.insert(idx + off, s);
        }
        p2.check().expect("transformed program must be well-formed");

        let reference = Interp::new().run(&p).unwrap();
        for order in [
            DoallOrder::Forward,
            DoallOrder::Reverse,
            DoallOrder::Shuffled(7),
            DoallOrder::Shuffled(991),
        ] {
            let got = Interp::new().with_order(order).run(&p2).unwrap();
            assert_eq!(
                reference, got,
                "coalesced program diverged under {order:?} for:\n{src}"
            );
        }
        out
    }

    #[test]
    fn coalesce_2d_fill_both_schemes() {
        let src = "
            array A[6][4];
            doall i = 1..6 {
                doall j = 1..4 {
                    A[i][j] = 10 * i + j;
                }
            }
            ";
        for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
            let out = check_coalesce(
                src,
                &CoalesceOptions {
                    scheme,
                    ..Default::default()
                },
            );
            assert_eq!(out.info.dims, vec![6, 4]);
            assert_eq!(out.info.total_iterations, 24);
            assert!(out.preamble.is_empty(), "constant nests need no preamble");
        }
    }

    #[test]
    fn coalesce_3d_fill() {
        let out = check_coalesce(
            "
            array A[3][4][5];
            doall i = 1..3 {
                doall j = 1..4 {
                    doall k = 1..5 {
                        A[i][j][k] = 100 * i + 10 * j + k;
                    }
                }
            }
            ",
            &CoalesceOptions::default(),
        );
        assert_eq!(out.info.total_iterations, 60);
        assert!(out.info.recovery_cost_per_iteration > 0);
    }

    #[test]
    fn coalesce_partial_band_inner_two_of_three() {
        let out = check_coalesce(
            "
            array A[3][4][5];
            doall i = 1..3 {
                doall j = 1..4 {
                    doall k = 1..5 {
                        A[i][j][k] = i + j * k;
                    }
                }
            }
            ",
            &CoalesceOptions {
                levels: Some((1, 3)),
                ..Default::default()
            },
        );
        assert_eq!(out.info.dims, vec![4, 5]);
        assert_eq!(out.info.levels, (1, 3));
    }

    #[test]
    fn coalesce_partial_band_outer_two_of_three() {
        // Inner level stays serial inside the coalesced loop.
        let out = check_coalesce(
            "
            array A[3][4][5];
            doall i = 1..3 {
                doall j = 1..4 {
                    for k = 1..5 {
                        A[i][j][k] = i * j + k;
                    }
                }
            }
            ",
            &CoalesceOptions {
                levels: Some((0, 2)),
                ..Default::default()
            },
        );
        assert_eq!(out.info.dims, vec![3, 4]);
    }

    #[test]
    fn coalesce_normalizes_offsets_and_strides() {
        check_coalesce(
            "
            array A[20][30];
            doall i = 3..17 {
                doall j = 2..30 step 3 {
                    A[i][j] = i * j;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn unnormalized_rejected_without_auto_normalize() {
        let p = parse_program(
            "
            array A[10];
            doall i = 2..5 {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(
            &l,
            &CoalesceOptions {
                auto_normalize: false,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            Error::Unsupported(SkipReason::NotNormalized {
                var: Symbol::new("i")
            })
        );
    }

    #[test]
    fn unit_form_symbolic_nest_needs_no_normalization() {
        let out = check_coalesce(
            "
            array A[5][64];
            n = 5;
            doall i = 1..n {
                doall j = 1..64 {
                    A[i][j] = i * 1000 + j;
                }
            }
            ",
            &CoalesceOptions {
                auto_normalize: false,
                ..Default::default()
            },
        );
        assert_eq!(out.preamble.len(), 1, "only lcs_total is computed");
    }

    #[test]
    fn coalesce_with_inner_serial_loop_below_band() {
        // Matmul-shaped: coalesce (i, j); the k loop is a reduction over a
        // privatizable scalar `acc`.
        check_coalesce(
            "
            array A[4][3];
            array B[3][5];
            array C[4][5];
            doall i = 1..4 {
                doall j = 1..5 {
                    acc = 0;
                    for k = 1..3 {
                        acc = acc + A[i][k] * B[k][j];
                    }
                    C[i][j] = acc;
                }
            }
            ",
            &CoalesceOptions {
                levels: Some((0, 2)),
                ..Default::default()
            },
        );
    }

    #[test]
    fn coalesce_with_branches() {
        check_coalesce(
            "
            array A[5][5];
            doall i = 1..5 {
                doall j = 1..5 {
                    if i == j {
                        A[i][j] = 1;
                    } else {
                        A[i][j] = i - j;
                    }
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn serial_loops_proven_parallel_are_coalesced() {
        // Not marked doall, but independent — the legality checker proves it.
        check_coalesce(
            "
            array A[4][4];
            for i = 1..4 {
                for j = 1..4 {
                    A[i][j] = A[i][j] + 1;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn carried_dependence_is_rejected() {
        let p = parse_program(
            "
            array A[8][8];
            for i = 2..8 {
                for j = 1..8 {
                    A[i][j] = A[i - 1][j] + 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(&l, &CoalesceOptions::default()).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::CarriedDependence { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inner_carried_dependence_allows_outer_band() {
        // Dependence carried at level 1 (j): coalescing band (0, 1) — just
        // the i loop alone — is legal; band (0, 2) is not.
        let src = "
            array A[8][8];
            for i = 1..8 {
                for j = 2..8 {
                    A[i][j] = A[i][j - 1] + 1;
                }
            }
            ";
        let p = parse_program(src).unwrap();
        let (_, l) = loop_of(&p);
        assert!(coalesce_loop(
            &l,
            &CoalesceOptions {
                levels: Some((0, 2)),
                ..Default::default()
            }
        )
        .is_err());
        check_coalesce(
            src,
            &CoalesceOptions {
                levels: Some((0, 1)),
                ..Default::default()
            },
        );
    }

    #[test]
    fn scalar_reduction_is_rejected() {
        let p = parse_program(
            "
            array A[8];
            s = 0;
            doall i = 1..8 {
                s = s + A[i];
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(&l, &CoalesceOptions::default()).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::ScalarReduction { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn privatizable_temp_is_accepted() {
        check_coalesce(
            "
            array A[6][6];
            doall i = 1..6 {
                doall j = 1..6 {
                    t = i * j;
                    A[i][j] = t + t;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn temp_defined_in_one_branch_only_is_rejected() {
        // `t` is only written when i == j, then read unconditionally.
        let p = parse_program(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..4 {
                    if i == j {
                        t = 1;
                    }
                    A[i][j] = t;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        assert!(coalesce_loop(&l, &CoalesceOptions::default()).is_err());
    }

    #[test]
    fn temp_defined_in_both_branches_is_accepted() {
        check_coalesce(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..4 {
                    if i == j {
                        t = 1;
                    } else {
                        t = 0;
                    }
                    A[i][j] = t;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn fresh_variable_avoids_collision() {
        let src = "
            array A[3][3];
            doall i = 1..3 {
                doall j = 1..3 {
                    jc = i + j;
                    A[i][j] = jc;
                }
            }
            ";
        let p = parse_program(src).unwrap();
        let (_, l) = loop_of(&p);
        let out = coalesce_loop(&l, &CoalesceOptions::default()).unwrap();
        assert_ne!(out.info.coalesced_var.as_str(), "jc");
        // And the transformed program still computes the same thing.
        check_coalesce(src, &CoalesceOptions::default());
    }

    #[test]
    fn single_level_coalesce_is_allowed() {
        let out = check_coalesce(
            "
            array A[7];
            doall i = 1..7 {
                A[i] = i * i;
            }
            ",
            &CoalesceOptions::default(),
        );
        assert_eq!(out.info.total_iterations, 7);
    }

    #[test]
    fn invalid_band_is_rejected() {
        let p = parse_program(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..4 {
                    A[i][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        for band in [(0usize, 0usize), (1, 1), (0, 3), (2, 1)] {
            let err = coalesce_loop(
                &l,
                &CoalesceOptions {
                    levels: Some(band),
                    ..Default::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, Error::Unsupported(_)), "band {band:?}");
        }
    }

    #[test]
    fn strength_reduced_coalescing_is_equivalent_and_cheaper() {
        let src = "
            array V[3][4][5][2];
            doall a = 1..3 {
                doall b = 1..4 {
                    doall c = 1..5 {
                        doall d = 1..2 {
                            V[a][b][c][d] = a * 1000 + b * 100 + c * 10 + d;
                        }
                    }
                }
            }
            ";
        let plain = check_coalesce(src, &CoalesceOptions::default());
        let reduced = check_coalesce(
            src,
            &CoalesceOptions {
                strength_reduce: true,
                ..Default::default()
            },
        );
        assert!(
            reduced.info.recovery_cost_per_iteration < plain.info.recovery_cost_per_iteration,
            "CSE did not reduce cost: {} vs {}",
            reduced.info.recovery_cost_per_iteration,
            plain.info.recovery_cost_per_iteration
        );
    }

    #[test]
    fn strength_reduction_temps_avoid_collisions() {
        // The body *reads* `rc_0` as a free outer variable — a temp named
        // rc_0 would clobber it. The prefix chooser must step aside.
        let src = "
            array V[4][5][6];
            rc_0 = 7;
            doall a = 1..4 {
                doall b = 1..5 {
                    doall c = 1..6 {
                        V[a][b][c] = rc_0 * c + a + b;
                    }
                }
            }
            ";
        check_coalesce(
            src,
            &CoalesceOptions {
                strength_reduce: true,
                ..Default::default()
            },
        );
    }

    #[test]
    fn info_reports_paper_cost_shape() {
        // Deeper nests emit costlier recovery code.
        let mk = |depth: usize| {
            let dims_src = (0..depth)
                .map(|k| format!("[{}]", k + 2))
                .collect::<String>();
            let mut src = format!("array A{dims_src};\n");
            for k in 0..depth {
                src.push_str(&format!("doall i{k} = 1..{} {{\n", k + 2));
            }
            let subs = (0..depth).map(|k| format!("[i{k}]")).collect::<String>();
            src.push_str(&format!("A{subs} = 1;\n"));
            for _ in 0..depth {
                src.push('}');
            }
            src
        };
        let cost = |depth: usize| {
            let p = parse_program(&mk(depth)).unwrap();
            let (_, l) = loop_of(&p);
            coalesce_loop(&l, &CoalesceOptions::default())
                .unwrap()
                .info
                .recovery_cost_per_iteration
        };
        assert!(cost(2) < cost(3));
        assert!(cost(3) < cost(4));
    }

    // ------------------------------------------------------------------
    // Symbolic and mixed trip counts (runtime bounds).
    // ------------------------------------------------------------------

    #[test]
    fn symbolic_2d_both_schemes() {
        let src = "
            array A[12][9];
            n = 12;
            m = 9;
            doall i = 1..n {
                doall j = 1..m {
                    A[i][j] = i * 100 + j;
                }
            }
            ";
        for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
            let out = check_coalesce(
                src,
                &CoalesceOptions {
                    scheme,
                    ..Default::default()
                },
            );
            // All-symbolic: every stride is a preamble scalar
            // (lcs_1, lcs_0, lcs_total), and dims are unknown.
            assert_eq!(out.preamble.len(), 3);
            assert!(out.info.dims.is_empty());
            assert_eq!(out.info.total_iterations, 0);
        }
    }

    #[test]
    fn symbolic_3d() {
        check_coalesce(
            "
            array V[3][4][5];
            a = 3;
            b = 4;
            c = 5;
            doall i = 1..a {
                doall j = 1..b {
                    doall k = 1..c {
                        V[i][j][k] = i + 10 * j + 100 * k;
                    }
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn symbolic_bound_expressions() {
        // Bounds that are arithmetic over runtime scalars.
        check_coalesce(
            "
            array A[20][10];
            n = 10;
            doall i = 1..n + n {
                doall j = 1..n {
                    A[i][j] = i - j;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn mixed_constant_and_symbolic() {
        // Outer trip constant, inner symbolic: the inner stride is the
        // literal 1 but the outer stride (= the inner trip) is runtime.
        // A shifted constant level is normalized first.
        for src in [
            "
            array A[7][11];
            m = 11;
            doall i = 1..7 {
                doall j = 1..m {
                    A[i][j] = i * j;
                }
            }
            ",
            "
            array A[7][11];
            n = 11;
            doall i = 0..4 {
                doall j = 1..n {
                    A[i + 1][j] = i * j;
                }
            }
            ",
        ] {
            let out = check_coalesce(src, &CoalesceOptions::default());
            assert_eq!(out.preamble.len(), 2, "lcs_0 = m; lcs_total = lcs_0 * 7");
        }
    }

    #[test]
    fn mixed_nest_uses_constant_recovery_on_constant_levels() {
        // The acceptance-shaped nest: symbolic outer, constant inner.
        // The inner stride (64) folds to a literal, so the only runtime
        // computation is the total trip count — recovery itself mentions
        // no stride scalar at all. A strided constant level is
        // normalized first.
        for src in [
            "
            array A[5][64];
            n = 5;
            doall i = 1..n {
                doall j = 1..64 {
                    A[i][j] = i * 1000 + j;
                }
            }
            ",
            "
            array A[5][8];
            n = 5;
            doall i = 1..n {
                doall j = 2..8 step 2 {
                    A[i][j] = i * 1000 + j;
                }
            }
            ",
        ] {
            let out = check_coalesce(src, &CoalesceOptions::default());
            assert_eq!(out.preamble.len(), 1, "only lcs_total is computed");
            match &out.preamble[0] {
                Stmt::AssignScalar { var, .. } => assert_eq!(var.as_str(), "lcs_total"),
                other => panic!("unexpected preamble stmt {other:?}"),
            }
            let vars = mentioned(&out.transformed.body);
            assert!(
                !vars.iter().any(|v| v.as_str().starts_with("lcs")),
                "recovery must use literal strides, got {vars:?}"
            );
        }
    }

    #[test]
    fn mixed_partial_band_with_symbolic_outer_level_kept() {
        // Band (1, 3) of a 3-deep nest with a symbolic outermost level:
        // the coalesced band is fully constant, so its strides, total,
        // dims and cost are literal even though the nest is symbolic.
        let out = check_coalesce(
            "
            array A[4][5][6];
            n = 4;
            doall i = 1..n {
                doall j = 1..5 {
                    doall k = 1..6 {
                        A[i][j][k] = i + 10 * j + 100 * k;
                    }
                }
            }
            ",
            &CoalesceOptions {
                levels: Some((1, 3)),
                ..Default::default()
            },
        );
        assert_eq!(out.info.dims, vec![5, 6]);
        assert_eq!(out.info.total_iterations, 30);
        assert!(out.preamble.is_empty());
    }

    #[test]
    fn partial_band_with_symbolic_inner_serial() {
        check_coalesce(
            "
            array A[6][8];
            array S[6];
            n = 6;
            m = 8;
            doall i = 1..n {
                acc = 0;
                for j = 1..m {
                    acc = acc + A[i][j];
                }
                S[i] = acc;
            }
            ",
            &CoalesceOptions {
                levels: Some((0, 1)),
                ..Default::default()
            },
        );
    }

    #[test]
    fn offset_bounds_are_rejected() {
        let p = parse_program(
            "
            array A[10];
            n = 9;
            doall i = 2..n {
                A[i] = i;
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(&l, &CoalesceOptions::default()).unwrap_err();
        assert_eq!(
            err,
            Error::Unsupported(SkipReason::SymbolicBound {
                var: Symbol::new("i"),
                part: lc_ir::BoundPart::Upper,
            })
        );
    }

    #[test]
    fn bound_modified_inside_nest_is_rejected() {
        let p = parse_program(
            "
            array A[10][10];
            n = 10;
            doall i = 1..n {
                n = 5;
                doall j = 1..n {
                    A[i][j] = 1;
                }
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(&l, &CoalesceOptions::default()).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::VariantBound { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn carried_dependence_rejected_symbolically() {
        let p = parse_program(
            "
            array A[20];
            n = 20;
            for i = 1..n {
                A[i] = A[i] + 1;
            }
            ",
        )
        .unwrap();
        // This one is fine (no carried dep) — now a genuinely carried one:
        let p2 = parse_program(
            "
            array A[21];
            n = 20;
            for i = 1..n {
                A[i + 1] = A[i] + 1;
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        assert!(coalesce_loop(&l, &CoalesceOptions::default()).is_ok());
        let (_, l2) = loop_of(&p2);
        assert!(coalesce_loop(&l2, &CoalesceOptions::default()).is_err());
    }

    #[test]
    fn symbolic_scalar_reduction_is_rejected() {
        let p = parse_program(
            "
            array A[16];
            n = 16;
            s = 0;
            doall i = 1..n {
                s = s + A[i];
            }
            ",
        )
        .unwrap();
        let (_, l) = loop_of(&p);
        let err = coalesce_loop(&l, &CoalesceOptions::default()).unwrap_err();
        match err {
            Error::Unsupported(m) => {
                assert!(matches!(m, SkipReason::ScalarReduction { .. }), "{m}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn name_collisions_are_avoided() {
        check_coalesce(
            "
            array A[4][5];
            jc = 1;
            lcs_0 = 2;
            lcs_total = 3;
            n = 4;
            doall i = 1..n {
                doall j = 1..5 {
                    A[i][j] = i + j + jc + lcs_0 + lcs_total;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }

    #[test]
    fn zero_trip_symbolic_loop() {
        // n = 0: the coalesced loop runs 1..0 — empty, no divisions by the
        // zero stride are ever evaluated.
        check_coalesce(
            "
            array A[5][5];
            n = 0;
            doall i = 1..n {
                doall j = 1..5 {
                    A[i][j] = 1;
                }
            }
            ",
            &CoalesceOptions::default(),
        );
    }
}
