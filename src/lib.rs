//! **loop-coalescing** — a reproduction of C. D. Polychronopoulos,
//! *“Loop Coalescing: A Compiler Transformation for Parallel Machines”*,
//! ICPP 1987.
//!
//! Loop coalescing rewrites a perfect nest of parallel (`DOALL`) loops
//! into a single parallel loop over the whole iteration space, recovering
//! the original indices from the coalesced index with ceiling-division
//! formulas. On a self-scheduled shared-memory machine this replaces
//! per-level dispatch counters and barriers with **one** fetch&add counter
//! and **one** join — the transformation that survives today as OpenMP's
//! `collapse` clause.
//!
//! The workspace is layered; this crate re-exports everything:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | IR | [`ir`] | loop-nest IR, DSL parser, interpreter, dependence analysis |
//! | transformation | [`xform`] | coalescing, normalization, interchange, nest perfection, recovery CSE |
//! | iteration space | [`space`] | strides, linearization, index recovery, odometer |
//! | scheduling | [`sched`] | SS / CSS / GSS / TSS / factoring policies, dispatch counts, schedule-length bounds |
//! | machine | [`machine`] | deterministic multiprocessor simulator with fetch&add cost model |
//! | runtime | [`runtime`] | real-thread coalesced executor (`AtomicU64::fetch_add` dispatch) |
//! | workloads | [`workloads`] | kernels (matmul, Gauss–Jordan, stencil, π) and cost models |
//!
//! # Quickstart
//!
//! ```
//! use loop_coalescing::coalesce_source;
//!
//! let out = coalesce_source(
//!     "
//!     array A[100][50];
//!     doall i = 1..100 {
//!         doall j = 1..50 {
//!             A[i][j] = i * j;
//!         }
//!     }
//!     ",
//! )
//! .unwrap();
//! assert!(out.transformed_source.contains("doall jc = 1..5000"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lc_driver as driver;
pub use lc_ir as ir;
pub use lc_machine as machine;
pub use lc_runtime as runtime;
pub use lc_sched as sched;
pub use lc_space as space;
pub use lc_workloads as workloads;
pub use lc_xform as xform;

use lc_driver::{Driver, DriverOptions};
use lc_ir::program::Program;
use lc_ir::{Error, Result, SkipReason};
use lc_xform::coalesce::{coalesce_loop, CoalesceInfo, CoalesceOptions};

pub use lc_driver::Skip;

/// Outcome of the end-to-end source pipeline.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The transformed program.
    pub transformed: Program,
    /// The transformed program pretty-printed as DSL source.
    pub transformed_source: String,
    /// Metadata for every nest that was coalesced, in body order. A nest
    /// whose band has a runtime trip count reports empty `dims` and zero
    /// `total_iterations` — the counts are computed by the emitted
    /// preamble, not known statically.
    pub coalesced: Vec<CoalesceInfo>,
    /// Top-level loops that were left alone, each with its typed
    /// diagnostic ([`Skip::reason`]).
    pub skipped: Vec<Skip>,
}

/// Parse DSL source, coalesce every top-level loop nest whose levels can
/// be proven DOALL-legal, validate each rewrite against the interpreter,
/// and return the transformed program plus a report.
///
/// Nests that cannot be coalesced (carried dependences, symbolic bounds,
/// scalar reductions) are left untouched and reported in
/// [`PipelineResult::skipped`] — the pipeline never fails on a legal
/// program just because a loop is not transformable.
///
/// This is a thin wrapper over [`lc_driver::Driver`] in its
/// facade-compatible configuration; use the driver directly for the
/// per-pass trace, cache counters, enabling passes (perfection,
/// interchange, analytic band advice), and parallel batch compilation.
pub fn coalesce_source(src: &str) -> Result<PipelineResult> {
    coalesce_source_with(src, &CoalesceOptions::default())
}

/// [`coalesce_source`] with explicit options. `options.levels` applies to
/// every nest (use the lower-level API for per-nest bands).
pub fn coalesce_source_with(src: &str, options: &CoalesceOptions) -> Result<PipelineResult> {
    let driver = Driver::new(DriverOptions::facade_compat(options.clone()));
    let out = driver.compile(src)?;
    Ok(PipelineResult {
        transformed: out.transformed,
        transformed_source: out.transformed_source,
        coalesced: out.coalesced,
        skipped: out.skipped,
    })
}

/// Analyze a nest and recommend which contiguous band of levels to
/// coalesce for the given machine parameters: legality comes from the
/// dependence tester, recovery costs from the code generator, and the
/// choice from `lc-sched`'s analytic advisor.
pub fn advise_collapse(
    l: &ir::stmt::Loop,
    params: &sched::advise::AdviseParams,
) -> Result<sched::advise::Advice> {
    use ir::analysis::{depend::analyze_nest, nest::extract_nest};
    use xform::normalize::normalize_nest;
    use xform::recovery::{per_iteration_cost, RecoveryScheme};

    let nest = normalize_nest(&extract_nest(l))?;
    let dims = nest
        .trip_counts()
        .ok_or(Error::Unsupported(SkipReason::SymbolicBounds))?;
    let deps = analyze_nest(&nest)?;
    let legal: Vec<bool> = (0..nest.depth()).map(|k| !deps.carried_at(k)).collect();
    if !legal.iter().any(|&x| x) {
        return Err(Error::Unsupported(SkipReason::NothingLegal));
    }
    Ok(sched::advise::advise(&dims, &legal, params, &|band| {
        per_iteration_cost(RecoveryScheme::Ceiling, band)
    }))
}

/// One-call "do the right thing": pick the best legal band with
/// [`advise_collapse`], then coalesce it.
pub fn coalesce_advised(
    l: &ir::stmt::Loop,
    params: &sched::advise::AdviseParams,
) -> Result<xform::coalesce::CoalesceResult> {
    let advice = advise_collapse(l, params)?;
    coalesce_loop(
        l,
        &CoalesceOptions::builder()
            .levels(advice.band.0, advice.band.1)
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::parser::parse_program;
    use lc_ir::stmt::Stmt;

    #[test]
    fn pipeline_coalesces_eligible_nest() {
        let out = coalesce_source(
            "
            array A[4][6];
            doall i = 1..4 {
                doall j = 1..6 {
                    A[i][j] = i + j;
                }
            }
            ",
        )
        .unwrap();
        assert_eq!(out.coalesced.len(), 1);
        assert_eq!(out.coalesced[0].total_iterations, 24);
        assert!(out.skipped.is_empty());
        assert!(out.transformed_source.contains("1..24"));
    }

    #[test]
    fn pipeline_skips_recurrences_without_failing() {
        let out = coalesce_source(
            "
            array A[8];
            array B[4][4];
            for i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
            doall i = 1..4 {
                doall j = 1..4 {
                    B[i][j] = i * j;
                }
            }
            ",
        )
        .unwrap();
        assert_eq!(out.coalesced.len(), 1);
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].to_string().contains("carried"));
        assert!(matches!(
            out.skipped[0].reason,
            SkipReason::CarriedDependence { level: 0, .. }
        ));
    }

    #[test]
    fn pipeline_handles_program_with_no_loops() {
        let out = coalesce_source("array A[1]; A[1] = 5;").unwrap();
        assert!(out.coalesced.is_empty());
        assert!(out.skipped.is_empty());
        assert!(out.transformed_source.contains("A[1] = 5"));
    }

    #[test]
    fn pipeline_band_too_deep_falls_back_to_full_nest() {
        let opts = CoalesceOptions::builder().levels(0, 5).build();
        let out = coalesce_source_with(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..4 {
                    A[i][j] = 1;
                }
            }
            ",
            &opts,
        )
        .unwrap();
        assert_eq!(out.coalesced.len(), 1);
        assert_eq!(out.coalesced[0].levels, (0, 2));
    }

    #[test]
    fn pipeline_falls_back_to_symbolic_coalescing() {
        let out = coalesce_source(
            "
            array A[12][9];
            n = 12;
            m = 9;
            doall i = 1..n {
                doall j = 1..m {
                    A[i][j] = i * 100 + j;
                }
            }
            ",
        )
        .unwrap();
        assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
        assert!(out.coalesced[0].dims.is_empty(), "symbolic marker");
        assert!(out.transformed_source.contains("lcs_total"));
        // The rewritten program still computes the same store (the
        // pipeline's built-in equivalence check ran), and reparses.
        parse_program(&out.transformed_source).unwrap();
    }

    #[test]
    fn advisor_picks_partial_band_on_deep_nest() {
        use lc_ir::parser::parse_program;
        let p = parse_program(
            "
            array V[8][8][8][8];
            doall a = 1..8 {
                doall b = 1..8 {
                    doall c = 1..8 {
                        doall d = 1..8 {
                            V[a][b][c][d] = a + b + c + d;
                        }
                    }
                }
            }
            ",
        )
        .unwrap();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        let params = sched::advise::AdviseParams {
            p: 16,
            body_cost: 50,
            ..Default::default()
        };
        let advice = advise_collapse(l, &params).unwrap();
        let (s, e) = advice.band;
        assert!(e - s < 4, "expected partial collapse, got {advice:?}");
        let result = coalesce_advised(l, &params).unwrap();
        assert_eq!(result.info.levels, advice.band);
    }

    #[test]
    fn advisor_masks_illegal_levels() {
        use lc_ir::parser::parse_program;
        // The outer level carries a dependence; only inner bands qualify.
        let p = parse_program(
            "
            array A[8][16][16];
            for i = 2..8 {
                doall j = 1..16 {
                    doall k = 1..16 {
                        A[i][j][k] = A[i - 1][j][k] + 1;
                    }
                }
            }
            ",
        )
        .unwrap();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        let advice = advise_collapse(l, &sched::advise::AdviseParams::default()).unwrap();
        assert!(advice.band.0 >= 1, "band must exclude level 0: {advice:?}");
        let result = coalesce_advised(l, &sched::advise::AdviseParams::default()).unwrap();
        assert!(result.info.levels.0 >= 1);
    }

    #[test]
    fn advisor_errors_when_nothing_is_legal() {
        use lc_ir::parser::parse_program;
        let p = parse_program(
            "
            array A[16];
            for i = 2..16 {
                A[i] = A[i - 1] + 1;
            }
            ",
        )
        .unwrap();
        let Stmt::Loop(l) = &p.body[0] else { panic!() };
        assert!(advise_collapse(l, &sched::advise::AdviseParams::default()).is_err());
    }

    #[test]
    fn transformed_source_reparses_and_matches() {
        let src = "
            array A[3][5][2];
            doall i = 1..3 {
                doall j = 1..5 {
                    doall k = 1..2 {
                        A[i][j][k] = i * 100 + j * 10 + k;
                    }
                }
            }
            ";
        let out = coalesce_source(src).unwrap();
        let reparsed = parse_program(&out.transformed_source).unwrap();
        let a = lc_ir::interp::Interp::new().run(&reparsed).unwrap();
        let b = lc_ir::interp::Interp::new()
            .run(&parse_program(src).unwrap())
            .unwrap();
        assert_eq!(a, b);
    }
}
