//! The differential oracle: compile a generated program under a random
//! pass pipeline, interpret original and transformed on the same seeded
//! store, and classify any disagreement.
//!
//! The oracle's ground truth is the `lc-ir` interpreter. Both programs
//! run under the *same* forward `doall` order, so the comparison is
//! sound even for programs the legality analysis declines to transform;
//! when a nest actually coalesced, the transformed program additionally
//! must be insensitive to `doall` iteration order (reverse and shuffled
//! runs), since a coalesced `doall` that only works forward is wrong.
//! Validation trusts a shadowed forward run that sees no cross-iteration
//! conflict in place of those runs, so for both programs the oracle
//! runs them anyway whenever the shadow run is clean
//! ([`Divergence::ShadowUnsound`]).
//!
//! A compile returning `Err` is *not* a finding by itself — `Overflow`
//! on a near-`i64::MAX` trip product, for example, is the designed
//! answer — with one exception: an error reporting that per-pass
//! validation observed a divergence is a real finding
//! ([`Divergence::ValidationFailed`]). Panics, non-deterministic output,
//! and interpreter disagreements are always findings.

use std::panic::{catch_unwind, AssertUnwindSafe};

use lc_driver::{Driver, DriverOptions, DEFAULT_PASS_ORDER};
use lc_ir::interp::{DoallOrder, Interp, Lowered, Store};
use lc_ir::printer::print_program;
use lc_ir::program::Program;
use lc_lint::{LintCode, LintSet, Severity};
use lc_sched::advise::AdviseParams;
use lc_xform::coalesce::CoalesceOptions;
use lc_xform::recovery::RecoveryScheme;
use lc_xform::validate::seeded_store;

use crate::gen::{self, GenConfig};
use crate::rng::Rng;

/// Interpreter step budget per oracle run: far above anything a case
/// within [`gen::MAX_INTERP_COST`] iterations needs, so hitting it means
/// the transformed program loops where the original did not.
const STEP_BUDGET: u64 = 10_000_000;

/// How original and transformed disagreed. Every variant is a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The compiler panicked.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Two identical compiles produced different output.
    NonDeterminism {
        /// First transformed source.
        first: String,
        /// Second transformed source.
        second: String,
    },
    /// The driver's own per-pass validation observed a divergence.
    ValidationFailed {
        /// The validation error message.
        message: String,
    },
    /// Interpreting the transformed program failed (or succeeded) where
    /// the original did the opposite.
    ExecutionSplit {
        /// What the original run produced (`"ok"` or the error).
        original: String,
        /// What the transformed run produced.
        transformed: String,
    },
    /// Both ran; a cell holds a different, non-initial value.
    ValueMismatch {
        /// Array holding the first differing cell.
        array: String,
        /// Flat (row-major) index of that cell.
        flat: usize,
        /// Value the original computed.
        original: i64,
        /// Value the transformed program computed.
        transformed: i64,
    },
    /// Both ran; the transformed program left a cell at its seeded
    /// initial value where the original wrote — an iteration was
    /// skipped.
    SpuriousSkip {
        /// Array holding the skipped cell.
        array: String,
        /// Flat (row-major) index of that cell.
        flat: usize,
        /// Value the original wrote there.
        original: i64,
    },
    /// The transformed program's result depends on `doall` iteration
    /// order even though a nest was coalesced.
    OrderDependence {
        /// Which order diverged from the forward run.
        order: String,
    },
    /// `lc-lint` certified the *original* program race-free, yet its
    /// result depends on `doall` iteration order — the certificate is
    /// unsound.
    LintUnsound {
        /// Which order diverged from the forward run.
        order: String,
    },
    /// The shadowed forward run (`Interp::run_shadowed`) reported no
    /// cross-iteration conflict, yet the result depends on `doall`
    /// iteration order — validation would have skipped the run that
    /// shows it.
    ShadowUnsound {
        /// Which program: `"original"` or `"transformed"`.
        program: String,
        /// Which order diverged from the forward run.
        order: String,
    },
}

impl Divergence {
    /// Coarse class, stable across shrinking: the shrinker accepts a
    /// smaller program only when it reproduces the same kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Divergence::Panic { .. } => "panic",
            Divergence::NonDeterminism { .. } => "non-determinism",
            Divergence::ValidationFailed { .. } => "validation-failed",
            Divergence::ExecutionSplit { .. } => "execution-split",
            Divergence::ValueMismatch { .. } => "value-mismatch",
            Divergence::SpuriousSkip { .. } => "spurious-skip",
            Divergence::OrderDependence { .. } => "order-dependence",
            Divergence::LintUnsound { .. } => "lint-unsound",
            Divergence::ShadowUnsound { .. } => "shadow-unsound",
        }
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Panic { message } => write!(f, "compiler panicked: {message}"),
            Divergence::NonDeterminism { .. } => {
                write!(f, "two identical compiles produced different output")
            }
            Divergence::ValidationFailed { message } => {
                write!(f, "per-pass validation failed: {message}")
            }
            Divergence::ExecutionSplit {
                original,
                transformed,
            } => write!(
                f,
                "original run: {original}; transformed run: {transformed}"
            ),
            Divergence::ValueMismatch {
                array,
                flat,
                original,
                transformed,
            } => write!(
                f,
                "{array}[flat {flat}]: original {original}, transformed {transformed}"
            ),
            Divergence::SpuriousSkip {
                array,
                flat,
                original,
            } => write!(
                f,
                "{array}[flat {flat}]: original wrote {original}, transformed never wrote it"
            ),
            Divergence::OrderDependence { order } => {
                write!(f, "transformed result changes under {order} doall order")
            }
            Divergence::LintUnsound { order } => {
                write!(
                    f,
                    "lint-certified program changes result under {order} doall order"
                )
            }
            Divergence::ShadowUnsound { program, order } => write!(
                f,
                "{program} program passed the shadow run but changes result under {order} doall order"
            ),
        }
    }
}

/// Everything one oracle invocation produced.
#[derive(Debug, Clone)]
pub struct OracleResult {
    /// The finding, if any.
    pub divergence: Option<Divergence>,
    /// Whether compilation returned `Ok`.
    pub compiled: bool,
    /// The compile error, when it returned `Err` (acceptable).
    pub compile_error: Option<String>,
    /// How many nests were coalesced.
    pub coalesced: usize,
    /// Whether the programs were actually executed and compared.
    pub interpreted: bool,
}

/// A random subset / permutation of [`DEFAULT_PASS_ORDER`]. One third of
/// the time the full default order (the configuration users actually
/// run); otherwise each pass joins with probability 3/4 and the result
/// is shuffled half the time.
pub fn random_pipeline(rng: &mut Rng) -> Vec<String> {
    if rng.chance(1, 3) {
        return DEFAULT_PASS_ORDER.iter().map(|s| s.to_string()).collect();
    }
    let mut names: Vec<String> = DEFAULT_PASS_ORDER
        .iter()
        .filter(|_| rng.chance(3, 4))
        .map(|s| s.to_string())
        .collect();
    if rng.chance(1, 2) {
        rng.shuffle(&mut names);
    }
    names
}

/// Random driver options. The driver's final validation stays off (the
/// oracle does its own, with control over when interpretation is
/// affordable).
pub fn random_options(rng: &mut Rng) -> DriverOptions {
    let mut coalesce = CoalesceOptions::builder()
        .scheme(if rng.chance(1, 4) {
            RecoveryScheme::DivMod
        } else {
            RecoveryScheme::Ceiling
        })
        .auto_normalize(!rng.chance(1, 8))
        .strength_reduce(rng.chance(1, 4));
    if rng.chance(1, 4) {
        let start = rng.below(3) as usize;
        let end = start + 1 + rng.below(3) as usize;
        coalesce = coalesce.levels(start, end);
    }
    let mut options = DriverOptions {
        coalesce: coalesce.build(),
        enable_perfection: !rng.chance(1, 8),
        enable_interchange: !rng.chance(1, 8),
        validate: false,
        advise: None,
        pass_order: None,
        validate_each_pass: false,
        lints: random_lints(rng),
    };
    if rng.chance(1, 8) {
        options.advise = Some(AdviseParams {
            p: 1 + rng.below(64),
            ..AdviseParams::default()
        });
    }
    options
}

/// Random lint configuration: usually the default (everything warns, so
/// the analyze stage runs but never vetoes), sometimes the pre-analyzer
/// all-allow configuration, and occasionally a hard `deny` on the race
/// lint so the fuzzer exercises the veto path too.
pub fn random_lints(rng: &mut Rng) -> LintSet {
    if rng.chance(1, 4) {
        return LintSet::all_allow();
    }
    let mut set = LintSet::default();
    if rng.chance(1, 8) {
        set = set.with(LintCode::DoallRace, Severity::Deny);
    }
    set
}

/// Run the full differential check for one program under one
/// configuration. `interp` gates execution (callers pass `false` for
/// compile-only extreme cases).
pub fn run_program(
    program: &Program,
    pipeline: &[String],
    options: &DriverOptions,
    interp_seed: u64,
    interp: bool,
) -> OracleResult {
    let names: Vec<&str> = pipeline.iter().map(String::as_str).collect();
    let driver = Driver::with_pipeline(options.clone(), &names)
        .expect("pipeline names come from the registry");

    let no_finding = |compiled: bool, err: Option<String>, coalesced: usize| OracleResult {
        divergence: None,
        compiled,
        compile_error: err,
        coalesced,
        interpreted: false,
    };

    // Compile twice: a panic is a finding, and the two outputs must be
    // byte-identical (determinism is part of the compiler's contract —
    // the serving layer's cache depends on it).
    let mut outputs = Vec::with_capacity(2);
    for _ in 0..2 {
        match catch_unwind(AssertUnwindSafe(|| driver.compile_program(program))) {
            Ok(result) => outputs.push(result),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                return OracleResult {
                    divergence: Some(Divergence::Panic { message }),
                    compiled: false,
                    compile_error: None,
                    coalesced: 0,
                    interpreted: false,
                };
            }
        }
    }
    let second = outputs.pop().unwrap();
    let first = outputs.pop().unwrap();
    match (&first, &second) {
        (Ok(a), Ok(b)) if a.transformed_source != b.transformed_source => {
            return OracleResult {
                divergence: Some(Divergence::NonDeterminism {
                    first: a.transformed_source.clone(),
                    second: b.transformed_source.clone(),
                }),
                compiled: true,
                compile_error: None,
                coalesced: a.coalesced.len(),
                interpreted: false,
            };
        }
        (Err(a), Err(b)) if a.to_string() != b.to_string() => {
            return OracleResult {
                divergence: Some(Divergence::NonDeterminism {
                    first: a.to_string(),
                    second: b.to_string(),
                }),
                compiled: false,
                compile_error: Some(a.to_string()),
                coalesced: 0,
                interpreted: false,
            };
        }
        _ => {}
    }

    let output = match first {
        Ok(o) => o,
        Err(e) => {
            let message = e.to_string();
            // The one compile error that IS a finding: per-pass
            // validation watched a structural pass change the program's
            // meaning.
            if message.contains("diverges from original") {
                return OracleResult {
                    divergence: Some(Divergence::ValidationFailed { message }),
                    compiled: false,
                    compile_error: None,
                    coalesced: 0,
                    interpreted: false,
                };
            }
            return no_finding(false, Some(message), 0);
        }
    };

    if !interp {
        return no_finding(true, None, output.coalesced.len());
    }

    // Differential execution on the same seeded store, same order.
    let base = seeded_store(program, interp_seed);
    let run = |p: &Program, order: DoallOrder| {
        Interp::new()
            .with_order(order)
            .with_budget(STEP_BUDGET)
            .run_on(p, base.clone())
            .map(|(store, _)| store)
    };
    let original_run = run(program, DoallOrder::Forward);
    let transformed_run = run(&output.transformed, DoallOrder::Forward);
    let (want, got) = match (original_run, transformed_run) {
        (Ok(w), Ok(g)) => (w, g),
        // Identical failures are agreement: overflow in a generated
        // body happens at the same iteration in both programs.
        (Err(a), Err(b)) if a.to_string() == b.to_string() => {
            return OracleResult {
                interpreted: true,
                ..no_finding(true, None, output.coalesced.len())
            };
        }
        (a, b) => {
            let render = |r: &Result<Store, lc_ir::Error>| match r {
                Ok(_) => "ok".to_string(),
                Err(e) => e.to_string(),
            };
            return OracleResult {
                divergence: Some(Divergence::ExecutionSplit {
                    original: render(&a),
                    transformed: render(&b),
                }),
                compiled: true,
                compile_error: None,
                coalesced: output.coalesced.len(),
                interpreted: true,
            };
        }
    };

    if let Some(d) = first_difference(&want, &got, &base) {
        return OracleResult {
            divergence: Some(d),
            compiled: true,
            compile_error: None,
            coalesced: output.coalesced.len(),
            interpreted: true,
        };
    }

    // The shadow run must be sound: validation skips the reverse and
    // shuffled runs of a program it passes, so here they run anyway.
    let shuffle = interp_seed ^ 0x5EED;
    for (name, p) in [("original", program), ("transformed", &output.transformed)] {
        if let Some(order) = shadow_unsound(p, &base, shuffle) {
            return OracleResult {
                divergence: Some(Divergence::ShadowUnsound {
                    program: name.to_string(),
                    order: order.to_string(),
                }),
                compiled: true,
                compile_error: None,
                coalesced: output.coalesced.len(),
                interpreted: true,
            };
        }
    }

    // The lint layer's certificate must be sound: when `lc-lint`
    // declares the *original* program race-free, its result may not
    // depend on `doall` iteration order. This checks the analyzer
    // itself, independent of whether anything was transformed.
    if lc_lint::certifies_order_independent(program) {
        for (name, order) in [
            ("reverse", DoallOrder::Reverse),
            ("shuffled", DoallOrder::Shuffled(interp_seed ^ 0x5EED)),
        ] {
            match run(program, order) {
                Ok(store) if store.digest() == want.digest() => {}
                _ => {
                    return OracleResult {
                        divergence: Some(Divergence::LintUnsound {
                            order: name.to_string(),
                        }),
                        compiled: true,
                        compile_error: None,
                        coalesced: output.coalesced.len(),
                        interpreted: true,
                    };
                }
            }
        }
    }

    // A coalesced doall must not care about iteration order.
    if !output.coalesced.is_empty() {
        for (name, order) in [
            ("reverse", DoallOrder::Reverse),
            ("shuffled", DoallOrder::Shuffled(interp_seed ^ 0x5EED)),
        ] {
            match run(&output.transformed, order) {
                Ok(store) if store.digest() == got.digest() => {}
                _ => {
                    return OracleResult {
                        divergence: Some(Divergence::OrderDependence {
                            order: name.to_string(),
                        }),
                        compiled: true,
                        compile_error: None,
                        coalesced: output.coalesced.len(),
                        interpreted: true,
                    };
                }
            }
        }
    }

    OracleResult {
        interpreted: true,
        ..no_finding(true, None, output.coalesced.len())
    }
}

/// The order under which `p` contradicts a conflict-free shadowed
/// forward run from `base`, if any.
fn shadow_unsound(p: &Program, base: &Store, shuffle: u64) -> Option<&'static str> {
    let code = Lowered::new(p).ok()?;
    let interp = Interp::new().with_budget(STEP_BUDGET);
    let Ok((want, _, true)) = interp.run_shadowed(&code, base.clone()) else {
        return None;
    };
    [
        ("reverse", DoallOrder::Reverse),
        ("shuffled", DoallOrder::Shuffled(shuffle)),
    ]
    .into_iter()
    .find(|&(_, order)| {
        let run = interp
            .clone()
            .with_order(order)
            .run_lowered(&code, base.clone());
        !matches!(run, Ok((store, _)) if store == want)
    })
    .map(|(name, _)| name)
}

/// Parse and check one source program — the entry point minimized
/// regression snippets call. Returns the divergence, if any.
pub fn check_source(
    src: &str,
    pipeline: &[&str],
    options: &DriverOptions,
    interp_seed: u64,
    interp: bool,
) -> Option<Divergence> {
    let program = lc_ir::parser::parse_program(src).expect("regression source must parse");
    let pipeline: Vec<String> = pipeline.iter().map(|s| s.to_string()).collect();
    run_program(&program, &pipeline, options, interp_seed, interp).divergence
}

/// First cell where the two final stores disagree, classified against
/// the seeded base store: a transformed value still equal to the base is
/// a skipped write, anything else a miscomputation. Arrays are visited
/// in sorted name order so the report is deterministic.
fn first_difference(want: &Store, got: &Store, base: &Store) -> Option<Divergence> {
    let mut names: Vec<String> = want.iter().map(|(n, _)| n.to_string()).collect();
    names.sort();
    for name in names {
        let (Some(w), Some(g)) = (want.data(&name), got.data(&name)) else {
            continue;
        };
        let b = base.data(&name);
        for (flat, (wv, gv)) in w.iter().zip(g.iter()).enumerate() {
            if wv != gv {
                let base_v = b.and_then(|d| d.get(flat)).copied();
                return Some(if Some(*gv) == base_v {
                    Divergence::SpuriousSkip {
                        array: name.clone(),
                        flat,
                        original: *wv,
                    }
                } else {
                    Divergence::ValueMismatch {
                        array: name.clone(),
                        flat,
                        original: *wv,
                        transformed: *gv,
                    }
                });
            }
        }
    }
    None
}

/// One complete fuzz case: generate, pick a configuration, run the
/// oracle. Fully determined by `(root, case)`.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Case index under the root seed.
    pub case: u64,
    /// The generated program, printed.
    pub source: String,
    /// Pipeline the case compiled under.
    pub pipeline: Vec<String>,
    /// Options the case compiled under.
    pub options: DriverOptions,
    /// Interpreter seed used for the differential run.
    pub interp_seed: u64,
    /// Whether the case was executed (vs compile-only).
    pub interp: bool,
    /// What the oracle concluded.
    pub result: OracleResult,
    /// The generated program itself.
    pub program: Program,
}

/// Run case number `case` of the stream rooted at `root`.
pub fn run_case(root: &Rng, case: u64, cfg: &GenConfig) -> CaseOutcome {
    let mut rng = root.fork(case);
    let generated = gen::generate(&mut rng, cfg);
    let pipeline = random_pipeline(&mut rng);
    let mut options = random_options(&mut rng);
    let interp = generated.interp_cost.is_some();
    if interp && rng.chance(1, 8) {
        options.validate_each_pass = true;
    }
    let interp_seed = rng.next_u64();
    let result = run_program(&generated.program, &pipeline, &options, interp_seed, interp);
    CaseOutcome {
        case,
        source: print_program(&generated.program),
        pipeline,
        options,
        interp_seed,
        interp,
        result,
        program: generated.program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::parser::parse_program;

    #[test]
    fn clean_program_has_no_divergence() {
        let p = parse_program(
            "
            array A[4][5];
            doall i = 1..4 { doall j = 1..5 { A[i][j] = 10 * i + j; } }
            ",
        )
        .unwrap();
        let pipeline: Vec<String> = DEFAULT_PASS_ORDER.iter().map(|s| s.to_string()).collect();
        let r = run_program(&p, &pipeline, &DriverOptions::default(), 7, true);
        assert!(r.divergence.is_none(), "{:?}", r.divergence);
        assert!(r.compiled && r.interpreted);
        assert_eq!(r.coalesced, 1);
    }

    #[test]
    fn a_wrong_transformation_is_caught() {
        // Simulate a buggy compiler by comparing two programs that
        // really differ: the "transformed" one skips the last iteration.
        let original = parse_program("array A[6]; doall i = 1..6 { A[i] = i * 2; }").unwrap();
        let broken = parse_program("array A[6]; doall i = 1..5 { A[i] = i * 2; }").unwrap();
        let base = seeded_store(&original, 3);
        let (want, _) = Interp::new().run_on(&original, base.clone()).unwrap();
        let (got, _) = Interp::new().run_on(&broken, base.clone()).unwrap();
        let d = first_difference(&want, &got, &base).expect("must differ");
        assert_eq!(d.kind(), "spurious-skip");
    }

    #[test]
    fn identity_pipeline_is_fine() {
        let p = parse_program("array A[3]; doall i = 1..3 { A[i] = i; }").unwrap();
        let r = run_program(&p, &[], &DriverOptions::default(), 1, true);
        assert!(r.divergence.is_none());
        assert_eq!(r.coalesced, 0);
    }

    #[test]
    fn cases_are_reproducible() {
        let root = Rng::new(0xC0A1E5CE);
        let cfg = GenConfig::default();
        for case in 0..10 {
            let a = run_case(&root, case, &cfg);
            let b = run_case(&root, case, &cfg);
            assert_eq!(a.source, b.source);
            assert_eq!(a.pipeline, b.pipeline);
            assert_eq!(a.result.divergence.is_none(), b.result.divergence.is_none());
        }
    }
}
