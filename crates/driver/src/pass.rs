//! The pass abstraction and the standard pipeline's passes.
//!
//! Each pass sees one top-level nest at a time through a [`PassCx`]: the
//! driver options plus the nest's [`NestAnalyses`] cache. Passes report a
//! [`PassOutcome`] — applied / skipped-with-diagnostic / no-op — which
//! the [`crate::PassManager`] timestamps into the
//! [`crate::trace::PipelineTrace`].
//!
//! The standard pipeline order follows the paper's presentation, with
//! the static analyzer in front:
//!
//! 1. [`AnalyzePass`] — run the `lc-lint` checks (race, overflow,
//!    non-affine, dead-induction, reduction) and veto the nest when a
//!    `deny`-severity lint fires;
//! 2. [`NormalizePass`] — put headers in `1..=N step 1` form (cached);
//! 3. [`PerfectionPass`] — sink prologue/epilogue statements to perfect
//!    the nest (guarded statement distribution);
//! 4. [`InterchangePass`] — move a serial outermost level inward when
//!    the level below it is parallel, so DOALL levels sit outermost;
//! 5. [`AdvisePass`] — pick the best legal collapse band analytically;
//! 6. [`CoalescePass`] — the transformation itself: the (normalized)
//!    nest goes to `coalesce_band` once, whatever its trip counts;
//! 7. [`StrengthReducePass`] — report the recovery-CSE savings.
//!
//! Passes 3–5 are *enabling* passes: their failures are recorded as
//! skips, never escalated — a nest that cannot be perfected may still
//! coalesce as-is.

use std::time::Instant;

use lc_ir::stmt::Stmt;
use lc_ir::{Error, Result, SkipReason};
use lc_lint::{ConstEnv, Finding, LintCode, NestLinter, Severity};
use lc_xform::coalesce::{coalesce_band, CoalesceInfo, CoalesceOptions, CoalesceResult};
use lc_xform::interchange::interchange;
use lc_xform::perfect::perfect_recursively;
use lc_xform::recovery::per_iteration_cost;

use crate::cache::NestAnalyses;
use crate::{DriverOptions, Skip};

/// What a pass did. Mirrors [`crate::trace::TraceOutcome`] minus the
/// program-level `Validated` (validation is a manager step, not a pass).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassOutcome {
    /// The pass rewrote something.
    Applied {
        /// Pass-specific count of rewrites performed.
        rewrites: u64,
    },
    /// The pass declined with a diagnostic.
    Skipped(SkipReason),
    /// Nothing to do.
    Noop,
    /// The `analyze` stage ran its lints. The manager folds the
    /// findings into [`crate::DriverOutput::lints`] and emits one
    /// `lint:LCxxx` trace event per timing entry.
    Analyzed {
        /// Every finding the enabled lints produced on this nest.
        findings: Vec<Finding>,
        /// Wall time per lint that ran, in pipeline order (nanoseconds,
        /// always ≥ 1).
        per_lint: Vec<(LintCode, u64)>,
    },
}

/// Context handed to every pass: the options and this nest's memoized
/// analyses.
pub struct PassCx<'a> {
    /// Driver configuration.
    pub options: &'a DriverOptions,
    /// Cached analyses for the nest being compiled.
    pub cache: &'a mut NestAnalyses,
}

/// The final disposition of a nest, produced by [`CoalescePass`].
#[derive(Debug, Clone)]
pub enum Decision {
    /// The nest was rewritten into these statements.
    Coalesced {
        /// Replacement statements: the stride preamble (empty unless a
        /// banded trip count is symbolic), then the loop.
        stmts: Vec<Stmt>,
        /// What the coalescing did.
        info: CoalesceInfo,
    },
    /// The nest is left untouched, with the diagnostic.
    Skipped(Skip),
}

/// Mutable per-nest state threaded through the pipeline.
#[derive(Debug)]
pub struct NestState {
    /// Index of the nest's statement in the program body.
    pub index: usize,
    /// Band chosen by [`AdvisePass`], overriding the configured band.
    pub band_override: Option<(usize, usize)>,
    /// Set once [`CoalescePass`] decides; later passes become no-ops.
    /// [`AnalyzePass`] also sets it when a `deny`-severity lint fires.
    pub decision: Option<Decision>,
    /// Constant-propagation environment from the straight-line scalar
    /// assignments preceding this nest, consumed by [`AnalyzePass`]
    /// (LC002's bounded-symbolic trip counts).
    pub env: ConstEnv,
}

impl NestState {
    /// Fresh state for the nest at body position `index`, with no known
    /// scalar constants.
    pub fn new(index: usize) -> Self {
        NestState::with_env(index, ConstEnv::new())
    }

    /// Fresh state with the constant environment the statements before
    /// the nest established.
    pub fn with_env(index: usize, env: ConstEnv) -> Self {
        NestState {
            index,
            band_override: None,
            decision: None,
            env,
        }
    }
}

/// A pipeline pass. Implementations must be stateless (`&self`) so one
/// [`crate::PassManager`] can serve concurrent batch workers.
pub trait Pass: Send + Sync {
    /// Stable name used in traces and reports.
    fn name(&self) -> &'static str;
    /// Run over one nest. `Err` aborts the whole compilation; passes
    /// that merely cannot apply return `Ok(PassOutcome::Skipped(..))`.
    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome>;
    /// Whether an `Applied` outcome means the program's code changed
    /// (as opposed to analysis state or advice). Structural passes are
    /// eligible for the manager's per-pass validation hook.
    fn structural(&self) -> bool {
        false
    }
}

/// Pass 0: static analysis (`lc-lint`).
///
/// Runs every lint enabled in [`DriverOptions::lints`] over the nest
/// (including sub-nests below imperfect levels), timing each lint
/// individually. Findings never abort the compilation; a lint
/// configured at `deny` severity instead *vetoes the nest* — the pass
/// records a [`Decision::Skipped`] with
/// [`SkipReason::LintDenied`], so every later pass no-ops and the nest
/// is emitted untransformed. This is the conservative reading of a
/// denied lint: refusing to transform is always safe, transforming a
/// racy nest is not.
pub struct AnalyzePass;

impl Pass for AnalyzePass {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() {
            return Ok(PassOutcome::Noop);
        }
        let set = &cx.options.lints;
        if set.all_allowed() {
            return Ok(PassOutcome::Noop);
        }
        // LC001 reads the nest's cached analysis; the coalesce pass (and
        // interchange, when nothing rewrites the nest first) reuses it.
        let deps = cx.cache.deps().is_ok();
        let cache = &*cx.cache;
        let mut linter = NestLinter::new(cache.current(), state.index, &state.env);
        if deps {
            linter = linter.with_root_deps(cache.deps_ref());
        }
        let mut findings = Vec::new();
        let mut per_lint = Vec::new();
        for code in LintCode::ALL {
            let sev = set.level(code);
            if sev == Severity::Allow {
                continue;
            }
            let start = Instant::now();
            findings.extend(linter.run(code, sev));
            per_lint.push((code, start.elapsed().as_nanos().max(1) as u64));
        }
        if let Some(deny) = findings.iter().find(|f| f.severity == Severity::Deny) {
            state.decision = Some(Decision::Skipped(Skip {
                nest: state.index,
                reason: SkipReason::LintDenied {
                    code: deny.code.code().to_string(),
                    message: deny.message.clone(),
                },
            }));
        }
        Ok(PassOutcome::Analyzed { findings, per_lint })
    }
}

/// Pass 1: loop normalization (via the analysis cache).
///
/// Reports how many headers needed rewriting; headers already in unit
/// form `1..=U step 1` need none, whatever `U` is. A failure is recorded
/// here and surfaces again as [`CoalescePass`]'s skip. A no-op without
/// `auto_normalize`.
pub struct NormalizePass;

impl Pass for NormalizePass {
    fn name(&self) -> &'static str {
        "normalize"
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() || !cx.options.coalesce.auto_normalize {
            // Without `auto_normalize` nothing is rewritten; the coalesce
            // pass reports a level that is not in unit form.
            return Ok(PassOutcome::Noop);
        }
        let loops = &cx.cache.nest().loops;
        let unnormalized = loops.iter().filter(|h| !h.is_unit_form()).count() as u64;
        match cx.cache.normalized() {
            Ok(_) if unnormalized == 0 => Ok(PassOutcome::Noop),
            Ok(_) => Ok(PassOutcome::Applied {
                rewrites: unnormalized,
            }),
            Err(Error::Unsupported(r)) => Ok(PassOutcome::Skipped(r)),
            Err(e) => Err(e),
        }
    }
}

/// Pass 2: nest perfection (sink prologue/epilogue statements into the
/// inner loop under first/last-iteration guards). Structural: a rewrite
/// invalidates the nest's cached analyses.
pub struct PerfectionPass;

impl Pass for PerfectionPass {
    fn name(&self) -> &'static str {
        "perfect"
    }

    fn structural(&self) -> bool {
        true
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() || !cx.options.enable_perfection {
            return Ok(PassOutcome::Noop);
        }
        match perfect_recursively(cx.cache.current()) {
            Ok(p) if p == *cx.cache.current() => Ok(PassOutcome::Noop),
            Ok(p) => {
                cx.cache.rewrite(p);
                Ok(PassOutcome::Applied { rewrites: 1 })
            }
            Err(Error::Unsupported(r)) => Ok(PassOutcome::Skipped(r)),
            // An enabling pass never aborts the compilation: an
            // unperfectable nest may still coalesce (or skip) as-is.
            Err(e) => Ok(PassOutcome::Skipped(SkipReason::Other(e.to_string()))),
        }
    }
}

/// Pass 3: loop interchange. When the outermost level carries a
/// dependence but the level below it is parallel, swap them so the
/// parallel level moves outward — the classical enabling step the paper
/// positions coalescing against. Structural: invalidates the cache.
pub struct InterchangePass;

impl Pass for InterchangePass {
    fn name(&self) -> &'static str {
        "interchange"
    }

    fn structural(&self) -> bool {
        true
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() || !cx.options.enable_interchange {
            return Ok(PassOutcome::Noop);
        }
        let depth = cx.cache.nest().depth();
        // Depth-1 or symbolic nests: nothing to interchange here.
        if depth < 2 || !cx.cache.normalized().is_ok_and(|n| n.is_normalized()) {
            return Ok(PassOutcome::Noop);
        }
        let Ok(deps) = cx.cache.deps() else {
            // Let the coalesce pass surface analysis problems.
            return Ok(PassOutcome::Noop);
        };
        let Some(level) = (0..depth - 1).find(|&k| deps.carried_at(k) && !deps.carried_at(k + 1))
        else {
            return Ok(PassOutcome::Noop);
        };
        match interchange(cx.cache.current(), level, cx.cache.deps_ref()) {
            Ok(l) => {
                cx.cache.rewrite(l);
                Ok(PassOutcome::Applied { rewrites: 1 })
            }
            Err(Error::Unsupported(r)) => Ok(PassOutcome::Skipped(r)),
            Err(e) => Ok(PassOutcome::Skipped(SkipReason::Other(e.to_string()))),
        }
    }
}

/// Pass 4: analytic band advice (only when [`DriverOptions::advise`] is
/// set). Evaluates every contiguous DOALL-legal band under the machine
/// model and overrides the configured band with the winner.
pub struct AdvisePass;

impl Pass for AdvisePass {
    fn name(&self) -> &'static str {
        "advise"
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() {
            return Ok(PassOutcome::Noop);
        }
        let Some(params) = &cx.options.advise else {
            return Ok(PassOutcome::Noop);
        };
        let dims = match cx.cache.normalized() {
            Ok(n) => match n.trip_counts() {
                Some(d) => d,
                None => return Ok(PassOutcome::Skipped(SkipReason::SymbolicBounds)),
            },
            Err(_) => return Ok(PassOutcome::Skipped(SkipReason::SymbolicBounds)),
        };
        let legal: Vec<bool> = match cx.cache.deps() {
            Ok(d) => (0..dims.len()).map(|k| !d.carried_at(k)).collect(),
            Err(_) => return Ok(PassOutcome::Noop),
        };
        if !legal.iter().any(|&x| x) {
            return Ok(PassOutcome::Skipped(SkipReason::NothingLegal));
        }
        let scheme = cx.options.coalesce.scheme;
        let advice = lc_sched::advise::advise(&dims, &legal, params, &|band| {
            per_iteration_cost(scheme, band)
        });
        state.band_override = Some(advice.band);
        Ok(PassOutcome::Applied {
            rewrites: (advice.band.1 - advice.band.0) as u64,
        })
    }
}

/// Pass 5: the coalescing transformation — normalize (cached), then
/// `coalesce_band` once, with every analysis drawn from the cache
/// instead of recomputed.
pub struct CoalescePass;

impl CoalescePass {
    /// `coalesce_loop` on cached analyses: the normalized nest (or the
    /// nest as written, without `auto_normalize`) and the dependence
    /// analysis of the nest as written.
    fn coalesce(cx: &mut PassCx<'_>, opts: &CoalesceOptions) -> Result<CoalesceResult> {
        if opts.auto_normalize {
            cx.cache.normalized()?;
        }
        cx.cache.deps()?;
        let nest = if opts.auto_normalize {
            cx.cache.normalized_ref()
        } else {
            cx.cache.nest_ref()
        };
        coalesce_band(nest, cx.cache.deps_ref(), opts)
    }
}

impl Pass for CoalescePass {
    fn name(&self) -> &'static str {
        "coalesce"
    }

    fn structural(&self) -> bool {
        true
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if state.decision.is_some() {
            return Ok(PassOutcome::Noop);
        }
        let depth = cx.cache.nest().depth();
        let mut opts = cx.options.coalesce.clone().clamped_to_depth(depth);
        if let Some(band) = state.band_override {
            opts.levels = Some(band);
        }
        let band = opts.levels.unwrap_or((0, depth));
        let width = band.1.saturating_sub(band.0) as u64;

        match Self::coalesce(cx, &opts) {
            Ok(result) => {
                state.decision = Some(Decision::Coalesced {
                    stmts: result.stmts(),
                    info: result.info,
                });
                Ok(PassOutcome::Applied { rewrites: width })
            }
            Err(Error::Unsupported(reason)) => {
                state.decision = Some(Decision::Skipped(Skip {
                    nest: state.index,
                    reason: reason.clone(),
                }));
                Ok(PassOutcome::Skipped(reason))
            }
            Err(other) => Err(other),
        }
    }
}

/// Pass 6: recovery strength reduction reporting.
///
/// The common-subexpression extraction over recovery statements is fused
/// into `coalesce_band`'s emission (it needs the fresh-temp namespace
/// computed there), so this pass does not rewrite — it reports the
/// per-iteration cost units the CSE saved, making the paper's
/// strength-reduction remark visible in the trace.
pub struct StrengthReducePass;

impl Pass for StrengthReducePass {
    fn name(&self) -> &'static str {
        "strength-reduce"
    }

    fn run(&self, state: &mut NestState, cx: &mut PassCx<'_>) -> Result<PassOutcome> {
        if !cx.options.coalesce.strength_reduce {
            return Ok(PassOutcome::Noop);
        }
        match &state.decision {
            Some(Decision::Coalesced { info, .. }) if !info.dims.is_empty() => {
                let naive = per_iteration_cost(info.scheme, &info.dims).units();
                let saved = naive.saturating_sub(info.recovery_cost_per_iteration);
                Ok(PassOutcome::Applied { rewrites: saved })
            }
            _ => Ok(PassOutcome::Noop),
        }
    }
}
