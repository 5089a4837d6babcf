//! The traced replay: the same seeded inputs compiled in-process, with a
//! span around every call into a layer's public API. Nothing inside the
//! program is instrumented; the spans live here.
//!
//! `Driver::compile` is the parent span. The children re-run its steps
//! through the same public pieces `PassManager::compile_program` uses
//! (`NestAnalyses`, `NestState`, `PassCx`, `pass_by_name`), with
//! `NestAnalyses::deps` forced up front so dependence analysis gets a
//! span of its own. The replay must reproduce the driver's output and
//! pass outcomes exactly; its span totals are cross-checked against the
//! driver's own `PipelineTrace`.

use std::collections::BTreeMap;
use std::time::Instant;

use lc_driver::cache::NestAnalyses;
use lc_driver::json::Json;
use lc_driver::pass::{Decision, NestState, Pass, PassCx, PassOutcome};
use lc_driver::pipeline::VALIDATE_SEED;
use lc_driver::trace::{finding_to_json, TraceOutcome};
use lc_driver::{pass_by_name, Driver, DriverOutput, DEFAULT_PASS_ORDER};
use lc_ir::interp::Interp;
use lc_ir::parser::parse_program;
use lc_ir::printer::print_program;
use lc_ir::stmt::Stmt;
use lc_lint::{ConstEnv, LintSet, Severity};
use lc_xform::validate::{check_equivalent, seeded_store};

use crate::stats::median;

/// Allowed ratio between the replay's pass + validate span totals and the
/// `PipelineTrace` events of the same compiles: the two are separate
/// timings of the same work, so they agree only up to scheduling noise.
pub const SPAN_RATIO_TOLERANCE: (f64, f64) = (0.5, 2.0);

/// Summed span nanoseconds and counts over one pass through the inputs.
#[derive(Debug, Default, Clone)]
struct Totals {
    programs: u64,
    bytes: u64,
    compile: u64,
    parse: u64,
    deps: u64,
    passes: BTreeMap<&'static str, u64>,
    validate: u64,
    print: u64,
    render: u64,
    interp: u64,
    steps: u64,
    lint_source: u64,
    findings: u64,
    deps_computed: u64,
    nests: u64,
    coalesced: u64,
    /// Pass + validate events the driver's own trace reported.
    trace_spans: u64,
    batch_item: u64,
    /// Pass name → (applied, skipped) nests.
    outcomes: BTreeMap<&'static str, (u64, u64)>,
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos().max(1) as u64
}

/// The `/compile` envelope, rendered through the public `Json` API the
/// way the server renders it.
pub fn envelope(out: &DriverOutput) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("source", Json::Str(out.transformed_source.clone())),
        ("coalesced_nests", Json::Int(out.coalesced.len() as i64)),
        (
            "skipped",
            Json::Arr(out.skipped.iter().map(|s| s.to_json()).collect()),
        ),
        (
            "lints",
            Json::Arr(out.lints.iter().map(finding_to_json).collect()),
        ),
        ("trace", out.trace.to_json()),
    ])
}

/// What the pipeline would trace for a pass outcome.
fn traced(outcome: PassOutcome) -> TraceOutcome {
    match outcome {
        PassOutcome::Applied { rewrites } => TraceOutcome::Applied { rewrites },
        PassOutcome::Skipped(reason) => TraceOutcome::Skipped { reason },
        PassOutcome::Noop => TraceOutcome::Noop,
        PassOutcome::Analyzed { findings, .. } => TraceOutcome::Analyzed {
            findings: findings.len() as u64,
            denied: findings
                .iter()
                .filter(|f| f.severity == Severity::Deny)
                .count() as u64,
        },
    }
}

/// Replay one source, adding its spans to `t`. Errors describe where the
/// replay and the driver disagree.
fn replay_one(
    driver: &Driver,
    passes: &[Box<dyn Pass>],
    src: &str,
    t: &mut Totals,
) -> Result<(), String> {
    let s = Instant::now();
    let out = driver.compile(src).map_err(|e| e.to_string())?;
    t.compile += nanos(s);

    let s = Instant::now();
    let program = parse_program(src).map_err(|e| e.to_string())?;
    t.parse += nanos(s);
    t.bytes += src.len() as u64;

    let options = driver.options();
    let mut transformed = program.clone();
    transformed.body.clear();
    let mut coalesced = 0usize;
    let mut env = ConstEnv::new();
    let mut replayed: Vec<(usize, &'static str, TraceOutcome)> = Vec::new();
    for (idx, stmt) in program.body.iter().enumerate() {
        let Stmt::Loop(l) = stmt else {
            lc_lint::absorb_stmt(&mut env, stmt);
            transformed.body.push(stmt.clone());
            continue;
        };
        let mut cache = NestAnalyses::new(l);
        let mut state = NestState::with_env(idx, env.clone());
        lc_lint::absorb_stmt(&mut env, stmt);
        let s = Instant::now();
        // Symbolic nests fail normalization; the passes see the memoized
        // error exactly as they would have computed it.
        let _ = cache.deps();
        t.deps += nanos(s);
        for pass in passes {
            let s = Instant::now();
            let outcome = pass
                .run(
                    &mut state,
                    &mut PassCx {
                        options,
                        cache: &mut cache,
                    },
                )
                .map_err(|e| format!("pass {} failed: {e}", pass.name()))?;
            *t.passes.entry(pass.name()).or_default() += nanos(s);
            let outcome = traced(outcome);
            let tally = t.outcomes.entry(pass.name()).or_default();
            match outcome {
                TraceOutcome::Applied { .. } => tally.0 += 1,
                TraceOutcome::Skipped { .. } => tally.1 += 1,
                _ => {}
            }
            replayed.push((idx, pass.name(), outcome));
        }
        t.nests += 1;
        match state.decision {
            Some(Decision::Coalesced { stmts, .. }) => {
                transformed.body.extend(stmts);
                coalesced += 1;
            }
            _ => transformed.body.push(stmt.clone()),
        }
    }
    t.coalesced += coalesced as u64;
    if options.validate && coalesced > 0 {
        let s = Instant::now();
        check_equivalent(&program, &transformed, VALIDATE_SEED).map_err(|e| e.to_string())?;
        t.validate += nanos(s);
    }
    let s = Instant::now();
    let printed = print_program(&transformed);
    t.print += nanos(s);

    let s = Instant::now();
    let body = envelope(&out).to_string();
    t.render += nanos(s);
    std::hint::black_box(body);

    let s = Instant::now();
    let (_, stats) = Interp::new()
        .run_on(&program, seeded_store(&program, VALIDATE_SEED))
        .map_err(|e| e.to_string())?;
    t.interp += nanos(s);
    t.steps += stats.steps;

    let s = Instant::now();
    let findings = lc_lint::lint_source(src, &LintSet::default()).map_err(|e| e.to_string())?;
    t.lint_source += nanos(s);
    t.findings += findings.len() as u64;
    t.deps_computed += out.trace.cache.deps_computed;
    t.programs += 1;

    // Cross-check against the driver: same output, same pass outcomes.
    if printed != out.transformed_source {
        return Err("replayed output differs from Driver::compile".to_string());
    }
    let driver_events: Vec<(usize, &str, &TraceOutcome)> = out
        .trace
        .events
        .iter()
        .filter(|e| DEFAULT_PASS_ORDER.contains(&e.pass.as_str()))
        .map(|e| (e.nest.unwrap_or(usize::MAX), e.pass.as_str(), &e.outcome))
        .collect();
    let same = driver_events.len() == replayed.len()
        && driver_events
            .iter()
            .zip(&replayed)
            .all(|(d, r)| d.0 == r.0 && d.1 == r.1 && *d.2 == r.2);
    if !same {
        return Err("replayed pass outcomes differ from the driver's trace".to_string());
    }
    t.trace_spans += out
        .trace
        .events
        .iter()
        .filter(|e| DEFAULT_PASS_ORDER.contains(&e.pass.as_str()) || e.pass == "validate")
        .map(|e| e.nanos)
        .sum::<u64>();
    Ok(())
}

/// The per-layer report of a replay.
pub struct Layers {
    /// Metric name → (value, unit), in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Replay/driver disagreements (empty on a clean run).
    pub errors: Vec<String>,
    /// Per-pass outcome tallies over one repetition: pass name →
    /// (applied, skipped) nests.
    pub outcomes: BTreeMap<&'static str, (u64, u64)>,
}

/// Replay `sources` `reps` times and report the median per-program span
/// of every layer.
pub fn replay(sources: &[&str], reps: usize) -> Layers {
    let driver = Driver::default();
    let passes: Vec<Box<dyn Pass>> = DEFAULT_PASS_ORDER
        .iter()
        .map(|n| pass_by_name(n).expect("default passes are registered"))
        .collect();
    let mut errors = Vec::new();
    let mut runs: Vec<Totals> = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let mut t = Totals::default();
        for src in sources {
            if let Err(e) = replay_one(&driver, &passes, src, &mut t) {
                errors.push(e);
            }
        }
        let batch = driver.compile_batch(sources);
        t.batch_item = batch.iter().map(|b| b.nanos).sum();
        errors.extend(
            batch
                .iter()
                .filter_map(|b| b.result.as_ref().err().map(|e| e.to_string())),
        );
        runs.push(t);
    }
    errors.sort();
    errors.dedup();

    let outcomes = runs[0].outcomes.clone();
    let per_program = |f: &dyn Fn(&Totals) -> f64| {
        let v: Vec<f64> = runs
            .iter()
            .map(|t| f(t) / t.programs.max(1) as f64)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let ratio = |f: &dyn Fn(&Totals) -> f64, g: &dyn Fn(&Totals) -> f64| {
        let v: Vec<f64> = runs.iter().map(|t| f(t) / g(t).max(1.0)).collect();
        median(&v).unwrap_or(0.0)
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let pass = |t: &Totals, name: &str| us(t.passes.get(name).copied().unwrap_or(0));
    let spans = |t: &Totals| {
        (t.parse + t.deps + t.passes.values().sum::<u64>() + t.validate + t.print) as f64
    };
    let static_spans =
        |t: &Totals| (t.parse + t.deps + t.passes.values().sum::<u64>() + t.print) as f64;

    let metrics = vec![
        ("driver.compile.us", per_program(&|t| us(t.compile)), "us"),
        ("ir.parse.us", per_program(&|t| us(t.parse)), "us"),
        (
            "ir.parse.mb_per_s",
            ratio(&|t| t.bytes as f64 * 1e3, &|t| t.parse as f64),
            "MB/s",
        ),
        ("analysis.deps.us", per_program(&|t| us(t.deps)), "us"),
        (
            "lint.analyze.us",
            per_program(&|t| pass(t, "analyze")),
            "us",
        ),
        ("lint.source.us", per_program(&|t| us(t.lint_source)), "us"),
        (
            "lint.findings",
            per_program(&|t| t.findings as f64),
            "count",
        ),
        (
            "xform.normalize.us",
            per_program(&|t| pass(t, "normalize")),
            "us",
        ),
        (
            "xform.perfect.us",
            per_program(&|t| pass(t, "perfect")),
            "us",
        ),
        (
            "xform.interchange.us",
            per_program(&|t| pass(t, "interchange")),
            "us",
        ),
        (
            "xform.coalesce.us",
            per_program(&|t| pass(t, "coalesce")),
            "us",
        ),
        (
            "xform.strength.us",
            per_program(&|t| pass(t, "strength-reduce")),
            "us",
        ),
        (
            "xform.coalesce.applied_frac",
            ratio(&|t| t.coalesced as f64, &|t| t.nests as f64),
            "ratio",
        ),
        ("xform.validate.us", per_program(&|t| us(t.validate)), "us"),
        (
            "xform.validate.share",
            ratio(&|t| t.validate as f64, &|t| t.compile as f64),
            "ratio",
        ),
        ("ir.interp.steps", per_program(&|t| t.steps as f64), "count"),
        (
            "ir.interp.ns_per_step",
            ratio(&|t| t.interp as f64, &|t| t.steps as f64),
            "ns",
        ),
        ("ir.print.us", per_program(&|t| us(t.print)), "us"),
        ("service.render.us", per_program(&|t| us(t.render)), "us"),
        (
            "driver.cache.deps_computed",
            per_program(&|t| t.deps_computed as f64),
            "count",
        ),
        (
            "driver.static.share",
            ratio(&static_spans, &|t| t.compile as f64),
            "ratio",
        ),
        (
            "driver.unaccounted.share",
            ratio(&|t| t.compile as f64 - spans(t), &|t| t.compile as f64),
            "ratio",
        ),
        (
            "driver.trace.span_ratio",
            ratio(
                &|t| (t.deps + t.passes.values().sum::<u64>() + t.validate) as f64,
                &|t| t.trace_spans as f64,
            ),
            "ratio",
        ),
        (
            "driver.batch.item_us",
            per_program(&|t| us(t.batch_item)),
            "us",
        ),
    ];
    Layers {
        metrics,
        errors,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_driver_on_every_shape() {
        let corpus = lc_service::corpus::corpus72();
        let sources: Vec<&str> = corpus.iter().take(6).map(String::as_str).collect();
        let layers = replay(&sources, 1);
        assert!(layers.errors.is_empty(), "{:?}", layers.errors);
        let get = |name: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert!(get("driver.compile.us") > 0.0);
        assert!(get("xform.validate.share") > 0.0 && get("xform.validate.share") < 1.0);
        // Corpus shapes: 1 + 2 analyzed nests, and none for the symbolic one.
        assert_eq!(get("driver.cache.deps_computed"), 1.0);
        assert!(layers.outcomes["coalesce"].0 > 0);
        assert!(layers.outcomes["coalesce"].1 > 0);
    }

    #[test]
    fn replay_reports_a_driver_error() {
        let layers = replay(&["array A[2]; doall i = 1..3 {"], 1);
        assert!(!layers.errors.is_empty());
    }
}
