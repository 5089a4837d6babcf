//! Integration tests for the pass driver: trace fidelity, cache
//! counters, batch determinism, and diagnostic serialization.

use lc_driver::json::Json;
use lc_driver::trace::{skip_reason_from_json, skip_reason_to_json};
use lc_driver::{Driver, DriverOptions, Skip, TraceOutcome};
use lc_ir::{BoundPart, SkipReason, Symbol};
use lc_lint::LintCode;
use lc_xform::coalesce::CoalesceOptions;

const QUICKSTART: &str = "
    array A[100][50];
    doall i = 1..100 {
        doall j = 1..50 {
            A[i][j] = i * j;
        }
    }
";

const RECURRENCE: &str = "
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
";

// ── trace fidelity ──────────────────────────────────────────────────────

#[test]
fn trace_lists_every_pass_with_nonzero_timing() {
    let driver = Driver::default();
    let out = driver.compile(QUICKSTART).unwrap();
    let expected = driver.manager().pass_names();
    let traced = out.trace.passes();
    for pass in &expected {
        assert!(traced.contains(pass), "pass `{pass}` missing from trace");
    }
    assert!(traced.contains(&"validate"), "validation step not traced");
    for e in &out.trace.events {
        assert!(e.nanos > 0, "pass `{}` has zero timing", e.pass);
    }
    assert!(out.trace.total_nanos > 0);
}

#[test]
fn trace_applied_events_match_what_happened() {
    let out = Driver::default().compile(RECURRENCE).unwrap();
    // Nest 0 (the recurrence) skips at the coalesce pass — only its
    // header normalization (2..8 → 1..7) applies; nest 1 coalesces.
    assert_eq!(out.trace.applied_passes(0), vec!["normalize"]);
    assert!(out.trace.events_for(0).any(|e| e.pass == "coalesce"
        && matches!(
            &e.outcome,
            TraceOutcome::Skipped {
                reason: SkipReason::CarriedDependence { level: 0, .. }
            }
        )));
    assert_eq!(out.trace.applied_passes(1), vec!["coalesce"]);
    // Coalesce rewrote both levels of nest 1.
    assert_eq!(out.trace.rewrites("coalesce"), 2);
    // The program-level validation ran and passed.
    assert!(out
        .trace
        .events
        .iter()
        .any(|e| e.nest.is_none() && e.outcome == TraceOutcome::Validated));
}

#[test]
fn trace_round_trips_through_json_for_a_real_compilation() {
    let out = Driver::default().compile(RECURRENCE).unwrap();
    let text = out.trace.to_json_string();
    let back = lc_driver::PipelineTrace::from_json_string(&text).unwrap();
    assert_eq!(back, out.trace);
    // And the report mentions every traced pass.
    let report = out.trace.report();
    for pass in out.trace.passes() {
        assert!(report.contains(pass));
    }
}

// ── analysis cache ──────────────────────────────────────────────────────

#[test]
fn dependence_analysis_runs_at_most_once_per_nest() {
    // Default pipeline: the interchange pass requests deps first, the
    // coalesce pass reuses them from the cache.
    let out = Driver::default().compile(QUICKSTART).unwrap();
    assert_eq!(out.trace.cache.deps_computed, 1);
    assert!(out.trace.cache.deps_hits >= 1, "coalesce missed the cache");
    assert_eq!(out.trace.cache.normalize_computed, 1);
    assert!(out.trace.cache.normalize_hits >= 1);
    assert_eq!(out.trace.cache.nest_computed, 1);
}

#[test]
fn cache_counters_scale_per_nest() {
    let out = Driver::default().compile(RECURRENCE).unwrap();
    // Two nests, each analyzed exactly once.
    assert_eq!(out.trace.cache.deps_computed, 2);
    assert_eq!(out.trace.cache.normalize_computed, 2);
    assert_eq!(out.trace.cache.nest_computed, 2);
    assert!(out.trace.cache.hits() > 0);
}

#[test]
fn symbolic_nests_never_reach_dependence_analysis_twice() {
    let out = Driver::default()
        .compile(
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
    assert_eq!(out.coalesced.len(), 1);
    assert!(out.coalesced[0].dims.is_empty(), "runtime trip counts");
    // The nest as written is analysed once, by the cache; the coalescer
    // reads that analysis instead of running its own.
    assert_eq!(out.trace.cache.deps_computed, 1);
    assert!(out.trace.cache.deps_hits >= 1);
}

#[test]
fn strided_doall_is_not_reported_racy_when_it_coalesces() {
    // `step 2` visits odd i only: A[i] and A[i + 1] never meet. The lint
    // and the coalescer read the same iteration-order analysis, so the
    // output cannot both coalesce the nest and call it racy.
    let out = Driver::default()
        .compile(
            "
            array A[12];
            doall i = 1..10 step 2 {
                A[i] = A[i + 1] + 1;
            }
            ",
        )
        .unwrap();
    assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
    assert!(
        out.lints.iter().all(|f| f.code != LintCode::DoallRace),
        "{:?}",
        out.lints
    );
}

#[test]
fn negative_step_nest_is_not_interchanged() {
    // In iteration order the dependence is (<, >): j runs downward, so
    // swapping the levels would run the sink before the source.
    let src = "
        array A[6][6];
        for i = 1..4 {
            doall j = 4..1 step -1 {
                A[i + 1][j + 1] = A[i][j] + 1;
            }
        }
    ";
    let out = Driver::default().compile(src).unwrap();
    let interchange = out
        .trace
        .events_for(0)
        .find(|e| e.pass == "interchange")
        .unwrap();
    assert!(
        matches!(
            &interchange.outcome,
            TraceOutcome::Skipped {
                reason: SkipReason::InterchangeIllegal { .. }
            }
        ),
        "{:?}",
        interchange.outcome
    );
    let checked = Driver::new(DriverOptions {
        validate_each_pass: true,
        ..DriverOptions::default()
    });
    checked.compile(src).unwrap();
}

// ── facade equivalence ──────────────────────────────────────────────────

#[test]
fn default_driver_matches_facade_output_on_quickstart() {
    let driver_out = Driver::default().compile(QUICKSTART).unwrap();
    let compat_out = Driver::new(DriverOptions::facade_compat(CoalesceOptions::default()))
        .compile(QUICKSTART)
        .unwrap();
    assert_eq!(driver_out.transformed_source, compat_out.transformed_source);
    assert!(driver_out.transformed_source.contains("doall jc = 1..5000"));
}

// ── batch compilation ───────────────────────────────────────────────────

fn batch_sources() -> Vec<String> {
    // 72 programs with varying shapes: mostly coalescible, some with
    // carried dependences, some symbolic.
    (0..72)
        .map(|k| {
            let n = 2 + (k % 7);
            let m = 3 + (k % 5);
            match k % 3 {
                0 => format!(
                    "array A[{n}][{m}];
                     doall i = 1..{n} {{
                         doall j = 1..{m} {{
                             A[i][j] = i * {k} + j;
                         }}
                     }}"
                ),
                1 => format!(
                    "array A[{n}][{m}];
                     array B[{n}];
                     for i = 2..{n} {{
                         B[i] = B[i - 1] + {k};
                     }}
                     doall i = 1..{n} {{
                         doall j = 1..{m} {{
                             A[i][j] = i + j;
                         }}
                     }}"
                ),
                _ => format!(
                    "array A[{n}][{m}];
                     u = {n};
                     v = {m};
                     doall i = 1..u {{
                         doall j = 1..v {{
                             A[i][j] = i * j + {k};
                         }}
                     }}"
                ),
            }
        })
        .collect()
}

#[test]
fn batch_matches_sequential_compilation_byte_for_byte() {
    let sources = batch_sources();
    assert!(sources.len() >= 64);
    let driver = Driver::default();
    let parallel = driver.compile_batch(&sources);
    assert_eq!(parallel.len(), sources.len());
    for (i, src) in sources.iter().enumerate() {
        let sequential = driver.compile(src).unwrap();
        let batched = parallel[i].result.as_ref().unwrap();
        assert_eq!(
            batched.transformed_source, sequential.transformed_source,
            "program {i} diverged"
        );
        assert_eq!(batched.skipped, sequential.skipped);
        assert_eq!(batched.coalesced.len(), sequential.coalesced.len());
        assert!(parallel[i].nanos >= 1, "program {i} has no wall time");
    }
}

#[test]
fn batch_is_deterministic_across_runs() {
    let sources = batch_sources();
    let driver = Driver::default();
    let a = driver.compile_batch(&sources);
    let b = driver.compile_batch(&sources);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.result.as_ref().unwrap().transformed_source,
            y.result.as_ref().unwrap().transformed_source
        );
    }
}

#[test]
fn batch_surfaces_per_program_errors_in_place() {
    let sources = vec![
        QUICKSTART.to_string(),
        "this is not a program".to_string(),
        QUICKSTART.to_string(),
    ];
    let results = Driver::default().compile_batch(&sources);
    assert!(results[0].result.is_ok());
    assert!(results[1].result.is_err());
    assert!(results[2].result.is_ok());
    for item in &results {
        assert!(item.nanos >= 1);
    }
}

// ── diagnostics serialization ───────────────────────────────────────────

#[test]
fn skip_reasons_round_trip_through_json() {
    let var = Symbol::new("i");
    let reasons = vec![
        SkipReason::BandOutOfRange {
            start: 0,
            end: 3,
            depth: 2,
        },
        SkipReason::CarriedDependence {
            level: 1,
            var: var.clone(),
        },
        SkipReason::ScalarReduction { var: var.clone() },
        SkipReason::SymbolicBound {
            var: var.clone(),
            part: BoundPart::Upper,
        },
        SkipReason::SymbolicBounds,
        SkipReason::NotNormalized { var: var.clone() },
        SkipReason::VariantBound {
            var: var.clone(),
            dep: Symbol::new("n"),
        },
        SkipReason::InterchangeOutOfRange { level: 3, depth: 2 },
        SkipReason::NotRectangular {
            var: var.clone(),
            other: Symbol::new("j"),
        },
        SkipReason::InterchangeIllegal {
            level: 0,
            array: Symbol::new("A"),
        },
        SkipReason::ImperfectNest { found: 2 },
        SkipReason::NothingLegal,
        SkipReason::LintDenied {
            code: "LC001".into(),
            message: "`doall i` (level 0) carries a flow dependence".into(),
        },
        SkipReason::Other("free-form".into()),
    ];
    for reason in reasons {
        let text = skip_reason_to_json(&reason).to_string();
        let back = skip_reason_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, reason, "round-trip failed for {reason:?}");
    }
}

#[test]
fn skips_round_trip_and_render_the_seed_messages() {
    let skip = Skip {
        nest: 3,
        reason: SkipReason::SymbolicBounds,
    };
    let back = Skip::from_json(&Json::parse(&skip.to_json().to_string()).unwrap()).unwrap();
    assert_eq!(back, skip);
    assert_eq!(skip.to_string(), "nest has symbolic bounds");
    let plain = Skip {
        nest: 0,
        reason: SkipReason::CarriedDependence {
            level: 0,
            var: Symbol::new("i"),
        },
    };
    assert_eq!(
        plain.to_string(),
        "dependence carried at level `i` forbids coalescing"
    );
}

// ── static analysis stage ───────────────────────────────────────────────

const RACY_DOALL: &str = "
    array A[8];
    doall i = 2..8 {
        A[i] = A[i - 1];
    }
";

#[test]
fn analyze_stage_traces_per_lint_timings() {
    let out = Driver::default().compile(QUICKSTART).unwrap();
    // The default lint set runs every lint at `warn`: the stage summary
    // event plus one `lint:LCxxx` event per lint, all with real timings.
    let analyze = out
        .trace
        .events_for(0)
        .find(|e| e.pass == "analyze")
        .expect("analyze stage must be traced");
    assert_eq!(
        analyze.outcome,
        TraceOutcome::Analyzed {
            findings: 0,
            denied: 0
        }
    );
    for code in ["LC001", "LC002", "LC003", "LC004", "LC005"] {
        let event = out
            .trace
            .events_for(0)
            .find(|e| e.pass == format!("lint:{code}"))
            .unwrap_or_else(|| panic!("lint:{code} missing from trace"));
        assert!(event.nanos >= 1);
    }
    assert!(out.lints.is_empty(), "{:?}", out.lints);
    // A trace carrying analyzed events still round-trips through JSON.
    let text = out.trace.to_json_string();
    assert_eq!(
        lc_driver::PipelineTrace::from_json_string(&text).unwrap(),
        out.trace
    );
}

#[test]
fn warned_race_is_reported_but_does_not_block_the_pipeline() {
    let out = Driver::default().compile(RACY_DOALL).unwrap();
    // Default severity is `warn`: the finding lands in `lints` with its
    // direction vector, and the pipeline still runs (coalesce itself
    // skips on the carried dependence, as before).
    let racy: Vec<_> = out
        .lints
        .iter()
        .filter(|f| f.code.code() == "LC001")
        .collect();
    assert_eq!(racy.len(), 1, "{:?}", out.lints);
    assert_eq!(racy[0].detail("direction"), Some("(<)"));
    assert_eq!(racy[0].detail("kind"), Some("flow"));
    assert!(!out
        .skipped
        .iter()
        .any(|s| matches!(s.reason, SkipReason::LintDenied { .. })));
    let analyze = out
        .trace
        .events_for(0)
        .find(|e| e.pass == "analyze")
        .unwrap();
    assert_eq!(
        analyze.outcome,
        TraceOutcome::Analyzed {
            findings: 1,
            denied: 0
        }
    );
}

#[test]
fn denied_lint_vetoes_the_nest() {
    use lc_lint::{LintSet, Severity};
    let options = DriverOptions {
        lints: LintSet::default().with(LintCode::DoallRace, Severity::Deny),
        ..Default::default()
    };
    let out = Driver::new(options).compile(RACY_DOALL).unwrap();
    // The nest is emitted untransformed with a LintDenied diagnostic …
    assert!(out.coalesced.is_empty());
    assert_eq!(out.skipped.len(), 1);
    let SkipReason::LintDenied { code, message } = &out.skipped[0].reason else {
        panic!("expected LintDenied, got {:?}", out.skipped[0].reason);
    };
    assert_eq!(code, "LC001");
    assert!(message.contains("flow dependence"), "{message}");
    // … and every later pass no-ops (the analyze stage decided).
    for e in out.trace.events_for(0) {
        if e.pass != "analyze" && !e.pass.starts_with("lint:") {
            assert_eq!(e.outcome, TraceOutcome::Noop, "pass {} ran", e.pass);
        }
    }
    // The deny shows up in both the stage summary and the finding list.
    let analyze = out
        .trace
        .events_for(0)
        .find(|e| e.pass == "analyze")
        .unwrap();
    assert_eq!(
        analyze.outcome,
        TraceOutcome::Analyzed {
            findings: 1,
            denied: 1
        }
    );
    assert_eq!(out.lints.len(), 1);
    // The skip (with its LintDenied reason) round-trips through JSON.
    let skip = &out.skipped[0];
    let back = Skip::from_json(&Json::parse(&skip.to_json().to_string()).unwrap()).unwrap();
    assert_eq!(&back, skip);
}

#[test]
fn all_allow_disables_the_analyze_stage() {
    use lc_lint::LintSet;
    let options = DriverOptions {
        lints: LintSet::all_allow(),
        ..Default::default()
    };
    let out = Driver::new(options).compile(RACY_DOALL).unwrap();
    let analyze = out
        .trace
        .events_for(0)
        .find(|e| e.pass == "analyze")
        .unwrap();
    assert_eq!(analyze.outcome, TraceOutcome::Noop);
    assert!(out.lints.is_empty());
    assert!(!out.trace.events.iter().any(|e| e.pass.starts_with("lint:")));
}

#[test]
fn analyze_resolves_bounded_symbolic_trips_from_preceding_assignments() {
    use lc_lint::LintCode;
    // n is established by straight-line code before the nest; LC002 must
    // see it and prove the product overflows i64.
    let out = Driver::default()
        .compile(
            "
            array A[4];
            n = 4000000000;
            doall i = 1..n {
                doall j = 1..n {
                    doall k = 1..n {
                        A[1] = 0;
                    }
                }
            }
            ",
        )
        .unwrap();
    assert!(
        out.lints.iter().any(|f| f.code == LintCode::TripOverflow),
        "{:?}",
        out.lints
    );
}

// ── enabling passes ─────────────────────────────────────────────────────

#[test]
fn perfection_pass_enables_coalescing_of_imperfect_nests() {
    // Prologue statement between the headers: the facade-compat pipeline
    // must skip it, the full pipeline perfects then coalesces it.
    let src = "
        array P[6];
        array A[6][4];
        doall i = 1..6 {
            P[i] = i * 10;
            doall j = 1..4 {
                A[i][j] = i + j;
            }
        }
    ";
    // Facade-compat sees only the trivial depth-1 nest (extraction stops
    // at the prologue statement) — 6 iterations, nothing gained.
    let compat = Driver::new(DriverOptions::facade_compat(CoalesceOptions::default()))
        .compile(src)
        .unwrap();
    assert_eq!(compat.coalesced.len(), 1);
    assert_eq!(compat.coalesced[0].original_depth, 1);
    assert_eq!(compat.coalesced[0].total_iterations, 6);

    // The full pipeline perfects the nest first (the prologue sinks
    // under a first-iteration guard), then coalesces both levels into
    // one 24-iteration loop.
    let full = Driver::default().compile(src).unwrap();
    assert_eq!(full.coalesced.len(), 1, "{:?}", full.skipped);
    assert_eq!(full.coalesced[0].original_depth, 2);
    assert_eq!(full.coalesced[0].total_iterations, 24);
    assert!(full.trace.applied_passes(0).contains(&"perfect"));
}

#[test]
fn interchange_pass_moves_serial_level_inward() {
    // Outer level carries, inner is parallel: the interchange pass swaps
    // them (direction (<, =) stays legal) so a parallel level leads.
    let src = "
        array A[8][16];
        for i = 2..8 {
            doall j = 1..16 {
                A[i][j] = A[i - 1][j] + 1;
            }
        }
    ";
    let out = Driver::default().compile(src).unwrap();
    assert!(out.trace.applied_passes(0).contains(&"interchange"));
}

#[test]
fn advise_pass_overrides_the_band() {
    use lc_sched::advise::AdviseParams;
    let options = DriverOptions {
        advise: Some(AdviseParams {
            p: 16,
            body_cost: 50,
            ..Default::default()
        }),
        ..Default::default()
    };
    let out = Driver::new(options)
        .compile(
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
    assert_eq!(out.coalesced.len(), 1);
    let (s, e) = out.coalesced[0].levels;
    assert!(e - s < 4, "advisor should pick a partial band");
    assert!(out.trace.applied_passes(0).contains(&"advise"));
    // Advice still needed only one dependence analysis.
    assert_eq!(out.trace.cache.deps_computed, 1);
}

#[test]
fn mixed_nest_coalesces_with_constant_recovery_on_constant_levels() {
    // Symbolic outer trip, constant inner trip: the stride chain keeps
    // the inner stride a literal, so only the total trip count is
    // computed at run time.
    let out = Driver::default()
        .compile(
            "
            array A[10][64];
            n = 10;
            doall i = 1..n {
                doall j = 1..64 {
                    A[i][j] = i * 100 + j;
                }
            }
            ",
        )
        .unwrap();
    assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
    // Runtime trips report the symbolic marker.
    assert!(out.coalesced[0].dims.is_empty());
    assert!(out.transformed_source.contains("lcs_total = 64 * n"));
    // Constant recovery: the inner-stride division is by the literal.
    assert!(
        out.transformed_source.contains("ceildiv(jc, 64)"),
        "expected literal-stride recovery, got:\n{}",
        out.transformed_source
    );
    assert!(
        !out.transformed_source.contains("lcs_0"),
        "no per-level stride scalar should be materialized:\n{}",
        out.transformed_source
    );
}

#[test]
fn shifted_or_strided_constant_levels_coalesce_next_to_symbolic_ones() {
    // Normalization rewrites the constant level and leaves the unit-form
    // `1..n` level alone, so neither nest is skipped.
    for src in [
        "
        array A[5][9];
        n = 9;
        doall i = 0..4 {
            doall j = 1..n {
                A[i + 1][j] = i * 100 + j;
            }
        }
        ",
        "
        array A[9][8];
        n = 9;
        doall i = 1..n {
            doall j = 2..8 step 2 {
                A[i][j] = i * 100 + j;
            }
        }
        ",
    ] {
        let out = Driver::default().compile(src).unwrap();
        assert_eq!(out.coalesced.len(), 1, "{src}");
        assert!(out.skipped.is_empty(), "{:?}", out.skipped);
        assert!(out.coalesced[0].dims.is_empty(), "runtime trip count");
    }
}

#[test]
fn mixed_partial_collapse_of_constant_band_under_symbolic_outer() {
    // The banded levels are constant even though the nest has a symbolic
    // outer level; the band coalesces with literal recovery and full
    // metadata.
    let out = Driver::new(DriverOptions {
        coalesce: CoalesceOptions::builder().levels(1, 3).build(),
        ..Default::default()
    })
    .compile(
        "
        array A[6][4][5];
        n = 6;
        doall i = 1..n {
            doall j = 1..4 {
                doall k = 1..5 {
                    A[i][j][k] = i + 10 * j + 100 * k;
                }
            }
        }
        ",
    )
    .unwrap();
    assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
    assert_eq!(out.coalesced[0].dims, vec![4, 5]);
    assert_eq!(out.coalesced[0].total_iterations, 20);
    assert_eq!(out.coalesced[0].levels, (1, 3));
    assert!(!out.transformed_source.contains("lcs_"));
}

#[test]
fn mixed_partial_collapse_of_symbolic_band_under_constant_outer() {
    // Band (0, 2) where one banded trip is symbolic: the stride
    // preamble precedes the whole rewritten loop.
    let out = Driver::new(DriverOptions {
        coalesce: CoalesceOptions::builder().levels(0, 2).build(),
        ..Default::default()
    })
    .compile(
        "
        array A[6][4][5];
        m = 4;
        doall i = 1..6 {
            doall j = 1..m {
                doall k = 1..5 {
                    A[i][j][k] = i + 10 * j + 100 * k;
                }
            }
        }
        ",
    )
    .unwrap();
    assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
    assert!(out.coalesced[0].dims.is_empty());
    assert!(out.transformed_source.contains("lcs_total"));
}

#[test]
fn custom_pass_order_is_honored() {
    let options = DriverOptions {
        pass_order: Some(vec!["normalize".to_string(), "coalesce".to_string()]),
        ..Default::default()
    };
    let out = Driver::new(options)
        .compile(
            "
            array A[6][4];
            doall i = 1..6 {
                doall j = 1..4 {
                    A[i][j] = i + j;
                }
            }
            ",
        )
        .unwrap();
    assert_eq!(out.coalesced.len(), 1);
    let passes: Vec<&str> = out
        .trace
        .events
        .iter()
        .filter(|e| e.nest == Some(0))
        .map(|e| e.pass.as_str())
        .collect();
    assert_eq!(passes, vec!["normalize", "coalesce"]);
}

#[test]
fn unknown_pass_name_is_reported() {
    use lc_driver::PassManager;
    let err = PassManager::with_pipeline(DriverOptions::default(), &["coalesce", "optimize"])
        .err()
        .expect("unknown name must be rejected");
    assert!(err.contains("optimize"), "{err}");
    assert!(
        err.contains("coalesce"),
        "error lists registered passes: {err}"
    );
}

#[test]
fn registry_resolves_the_default_order() {
    use lc_driver::{pass_by_name, DEFAULT_PASS_ORDER};
    for name in DEFAULT_PASS_ORDER {
        let pass = pass_by_name(name).expect("default pass must be registered");
        assert_eq!(pass.name(), name);
    }
    assert!(pass_by_name("no-such-pass").is_none());
}

#[test]
fn validate_each_pass_traces_structural_validations() {
    let options = DriverOptions {
        validate_each_pass: true,
        ..Default::default()
    };
    // Imperfect nest: perfection applies (structural), then coalesce.
    let out = Driver::new(options)
        .compile(
            "
            array A[6][4];
            array R[6];
            doall i = 1..6 {
                R[i] = i * 2;
                doall j = 1..4 {
                    A[i][j] = i + j;
                }
            }
            ",
        )
        .unwrap();
    assert_eq!(out.coalesced.len(), 1, "{:?}", out.skipped);
    let validations: Vec<&str> = out
        .trace
        .events
        .iter()
        .filter(|e| e.outcome == TraceOutcome::Validated && e.nest == Some(0))
        .map(|e| e.pass.as_str())
        .collect();
    assert_eq!(validations, vec!["validate:perfect", "validate:coalesce"]);
    // The trace (with the new event names) still round-trips.
    let text = out.trace.to_json_string();
    assert_eq!(
        lc_driver::PipelineTrace::from_json_string(&text).unwrap(),
        out.trace
    );
}

#[test]
fn pass_rewrites_summarizes_the_pipeline() {
    let out = Driver::default()
        .compile(
            "
            array A[6][4];
            doall i = 2..7 {
                doall j = 1..4 {
                    A[i - 1][j] = i + j;
                }
            }
            ",
        )
        .unwrap();
    let rewrites = out.trace.pass_rewrites();
    let get = |name: &str| {
        rewrites
            .iter()
            .find(|(p, _)| *p == name)
            .map(|(_, n)| *n)
            .unwrap_or_else(|| panic!("pass {name} missing from {rewrites:?}"))
    };
    assert_eq!(get("normalize"), 1, "one offset header renormalized");
    assert_eq!(get("coalesce"), 2, "two levels collapsed");
}
