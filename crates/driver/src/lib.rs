//! `lc-driver` — the instrumented pass driver for the loop-coalescing
//! workspace.
//!
//! The seed pipeline (`loop_coalescing::coalesce_source`) wired the
//! transformation entry points together ad hoc: every entry point
//! re-extracted, re-normalized, and re-analyzed its nest, and the only
//! observable output was the final program. This crate replaces that
//! wiring with a proper driver:
//!
//! * [`PassManager`] — runs the standard pipeline (analyze → normalize →
//!   perfection → interchange → advise → coalesce → strength-reduce)
//!   over every top-level nest, then validates the rewrite against the
//!   interpreter. The `analyze` stage runs the `lc-lint` checks and can
//!   veto a nest (`deny` severity → [`SkipReason::LintDenied`]).
//! * [`cache::NestAnalyses`] — memoizes nest extraction, normalization,
//!   and dependence analysis per nest, with hit/miss counters
//!   ([`cache::CacheStats`]); each analysis runs **once per nest
//!   version** — the nest as written, and again after each structural
//!   rewrite — and the lints, interchange, the advisor and coalescing all
//!   read that one answer.
//! * [`trace::PipelineTrace`] — a timed, JSON-serializable record of
//!   every pass invocation (applied / skipped-with-diagnostic /
//!   validated), plus a human-readable [`trace::PipelineTrace::report`].
//! * [`Driver::compile_batch`] — compiles many programs on a
//!   self-scheduled worker pool (one shared atomic counter, in the
//!   spirit of the paper's fetch&add dispatcher) with deterministic,
//!   input-ordered results.
//!
//! # Quick example
//!
//! ```
//! use lc_driver::Driver;
//!
//! let out = Driver::default()
//!     .compile(
//!         "
//!         array A[100][50];
//!         doall i = 1..100 {
//!             doall j = 1..50 {
//!                 A[i][j] = i * j;
//!             }
//!         }
//!         ",
//!     )
//!     .unwrap();
//! assert!(out.transformed_source.contains("doall jc = 1..5000"));
//! assert_eq!(out.trace.cache.deps_computed, 1); // one nest version, one analysis
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod json;
pub mod pass;
pub mod pipeline;
pub mod sync;
pub mod trace;

use std::fmt;

use lc_ir::parser::parse_program;
use lc_ir::program::Program;
use lc_ir::{Result, SkipReason};
use lc_lint::{Finding, LintSet};
use lc_sched::advise::AdviseParams;
use lc_xform::coalesce::{CoalesceInfo, CoalesceOptions};

pub use batch::BatchItem;
pub use cache::CacheStats;
pub use pass::{Pass, PassOutcome};
pub use pipeline::{pass_by_name, PassManager, DEFAULT_PASS_ORDER};
pub use trace::{PipelineTrace, TraceEvent, TraceOutcome};

/// A nest the pipeline left untouched, with its typed diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skip {
    /// Index of the nest's statement in the program body.
    pub nest: usize,
    /// Why coalescing declined.
    pub reason: SkipReason,
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)
    }
}

/// `{"nest":…,"reason":…}`, the reason tagged by `kind`.
impl json::WriteJson for Skip {
    fn write_json(&self, w: &mut json::JsonWriter) {
        w.obj(|o| {
            o.key("nest").int(self.nest as i64);
            o.key("reason").value(&self.reason);
        });
    }
}

impl Skip {
    /// Serialize as a JSON object (see its [`json::WriteJson`] impl).
    pub fn to_json(&self) -> json::Json {
        json::tree(self)
    }

    /// Deserialize from [`Skip::to_json`] output.
    pub fn from_json(v: &json::Json) -> std::result::Result<Skip, String> {
        Ok(Skip {
            nest: v.int_field("nest")? as usize,
            reason: trace::skip_reason_from_json(v.field("reason")?)?,
        })
    }
}

/// Driver configuration: the coalescing options plus which enabling
/// passes run.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Options forwarded to the coalescing transformation (band, scheme,
    /// normalization, strength reduction, …).
    pub coalesce: CoalesceOptions,
    /// Run the nest-perfection pass (sink imperfect statements under
    /// first/last-iteration guards).
    pub enable_perfection: bool,
    /// Run the interchange pass (move serial outermost levels inward).
    pub enable_interchange: bool,
    /// Validate the transformed program against the interpreter.
    pub validate: bool,
    /// When set, the advise pass picks the best legal collapse band for
    /// these machine parameters, overriding `coalesce.levels` per nest.
    pub advise: Option<AdviseParams>,
    /// Pass names to run, in order, instead of
    /// [`pipeline::DEFAULT_PASS_ORDER`]. Every name must be registered
    /// in [`pipeline::pass_by_name`]; [`Driver::new`] panics otherwise.
    pub pass_order: Option<Vec<String>>,
    /// Interpret-and-compare the program against the original after
    /// every *structural* pass application (perfection, interchange,
    /// coalesce), not just once at the end. Each check is traced as a
    /// `validate:{pass}` event; a divergence aborts the compilation.
    /// Expensive — a debugging aid for pass development, off by default.
    pub validate_each_pass: bool,
    /// Per-lint severities for the `analyze` stage. The default is
    /// every lint at `warn`: findings are collected into
    /// [`DriverOutput::lints`] and traced, but never block the
    /// pipeline. A lint at `deny` turns its first finding on a nest
    /// into a [`SkipReason::LintDenied`] skip — the nest is left
    /// untransformed. [`LintSet::all_allow`] disables the stage.
    pub lints: LintSet,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            coalesce: CoalesceOptions::default(),
            enable_perfection: true,
            enable_interchange: true,
            validate: true,
            advise: None,
            pass_order: None,
            validate_each_pass: false,
            lints: LintSet::default(),
        }
    }
}

impl DriverOptions {
    /// A stable fingerprint of every knob that can change a
    /// compilation's output. Two drivers with equal fingerprints produce
    /// byte-identical results for the same source, so the fingerprint
    /// (hashed together with the source) is a sound compile-cache key —
    /// the serving layer builds its content-addressed cache on exactly
    /// this.
    ///
    /// The encoding is the `Debug` rendering of the options: every field
    /// of [`DriverOptions`], [`CoalesceOptions`], and
    /// [`AdviseParams`] derives `Debug` structurally, so any field
    /// change — including future added fields — changes the fingerprint.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }

    /// The configuration the `loop_coalescing` facade uses to stay
    /// byte-compatible with the seed `coalesce_source` pipeline:
    /// coalesce + validate only, no structural enabling passes.
    pub fn facade_compat(coalesce: CoalesceOptions) -> Self {
        DriverOptions {
            coalesce,
            enable_perfection: false,
            enable_interchange: false,
            validate: true,
            advise: None,
            pass_order: None,
            validate_each_pass: false,
            // The seed pipeline predates the analyzer; keep its
            // behaviour (and pass roster) byte-identical.
            lints: LintSet::all_allow(),
        }
    }
}

/// Everything one compilation produced.
#[derive(Debug, Clone)]
pub struct DriverOutput {
    /// The transformed program.
    pub transformed: Program,
    /// The transformed program pretty-printed as DSL source.
    pub transformed_source: String,
    /// Metadata for every nest that was coalesced, in body order. A nest
    /// whose band has a symbolic trip count reports empty `dims` and
    /// zero `total_iterations`.
    pub coalesced: Vec<CoalesceInfo>,
    /// Nests left untouched, with typed diagnostics.
    pub skipped: Vec<Skip>,
    /// Findings the `analyze` stage reported, in nest order. Empty when
    /// the stage is not in the pipeline or every lint is at `allow`.
    pub lints: Vec<Finding>,
    /// The timed record of every pass invocation plus cache counters.
    pub trace: PipelineTrace,
}

/// The single entry point: a configured pass pipeline ready to compile
/// programs (and batches of programs).
pub struct Driver {
    manager: PassManager,
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new(DriverOptions::default())
    }
}

impl Driver {
    /// Build a driver running the standard pipeline under `options`.
    pub fn new(options: DriverOptions) -> Self {
        Driver {
            manager: PassManager::standard(options),
        }
    }

    /// Fallible constructor: build a driver running exactly the named
    /// passes, in order. Unlike [`Driver::new`], an unknown pass name in
    /// `order` (or in `options.pass_order`, which `order` overrides) is
    /// reported as an error instead of panicking — the entry point for
    /// callers assembling pipelines from untrusted or generated input,
    /// such as the differential fuzzer permuting
    /// [`pipeline::DEFAULT_PASS_ORDER`]. The returned driver is
    /// re-runnable: one handle compiles any number of programs (also
    /// concurrently).
    pub fn with_pipeline(
        options: DriverOptions,
        order: &[&str],
    ) -> std::result::Result<Self, String> {
        Ok(Driver {
            manager: PassManager::with_pipeline(options, order)?,
        })
    }

    /// Names of the configured pipeline's passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.manager.pass_names()
    }

    /// The configured options.
    pub fn options(&self) -> &DriverOptions {
        self.manager.options()
    }

    /// The underlying pass manager.
    pub fn manager(&self) -> &PassManager {
        &self.manager
    }

    /// Parse DSL source and compile it.
    pub fn compile(&self, src: &str) -> Result<DriverOutput> {
        self.manager.compile_program(&parse_program(src)?)
    }

    /// Compile an already-parsed program.
    pub fn compile_program(&self, program: &Program) -> Result<DriverOutput> {
        self.manager.compile_program(program)
    }

    /// Compile every source in parallel on a self-scheduled worker
    /// pool. Results preserve input order and are identical to calling
    /// [`Driver::compile`] sequentially; each [`BatchItem`] additionally
    /// records its own wall time, and a panic while compiling one item
    /// becomes that item's error instead of aborting the batch.
    pub fn compile_batch<S: AsRef<str> + Sync>(&self, sources: &[S]) -> Vec<BatchItem> {
        batch::compile_batch(self, sources)
    }
}

// The serving layer shares one `Driver` across a worker pool; keep the
// whole output type tree thread-mobile too.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Driver>();
    assert_send_sync::<DriverOptions>();
    assert_send_sync::<DriverOutput>();
    assert_send_sync::<BatchItem>();
};
