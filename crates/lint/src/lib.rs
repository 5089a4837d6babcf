//! `lc-lint` — static legality & race analysis over the loop IR.
//!
//! The coalescing transformation (crate `lc-xform`) is only sound when
//! every collapsed level really is DOALL; the paper simply *assumes* the
//! nest is parallel and the pipeline historically trusted the `doall`
//! keyword the same way, checking correctness only dynamically. This
//! crate supplies the missing static layer: a registry of IR-level
//! checks that emit typed, machine-readable [`Finding`]s with stable
//! codes, severities, and (when linting source text) line numbers.
//!
//! It is a thin client of `lc-ir`, which owns every analysis it reports:
//! the GCD + Banerjee dependence tester ([`lc_ir::analysis::depend`]),
//! scalar flow and constant propagation ([`lc_ir::analysis::scalars`]),
//! the one IR walker ([`lc_ir::analysis::walk`]) and the loop-header
//! lines the parser records
//! ([`lc_ir::parser::parse_program_with_loop_lines`]).
//!
//! # Lint codes
//!
//! | Code  | Slug                  | Meaning                                           |
//! |-------|-----------------------|---------------------------------------------------|
//! | LC001 | `doall-race`          | a `doall` level carries a dependence              |
//! | LC002 | `trip-overflow`       | coalesced trip count can exceed `i64::MAX`        |
//! | LC003 | `non-affine-subscript`| subscript analyzed conservatively                 |
//! | LC004 | `dead-induction`      | recovered index never read in the body            |
//! | LC005 | `reduction-in-doall`  | scalar carried across a `doall`'s iterations (body or inner bound) |
//!
//! # Soundness
//!
//! The lints are *conservative*: on programs whose subscripts are affine
//! they have no false negatives (LC001 reports every dependence the
//! Banerjee/GCD tester cannot disprove; non-affine subscripts are
//! treated as conflicting with everything). They may report findings
//! that cannot occur dynamically — that is the safe direction for a
//! legality analysis. [`certifies_order_independent`] builds on this to
//! give the fuzzer a falsifiable contract: when it returns `true`, the
//! final array store of the program must be identical under every
//! `doall` iteration order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod render;

use std::collections::BTreeSet;
use std::fmt;

use lc_ir::analysis::affine::Affine;
use lc_ir::analysis::depend::{analyze_nest, format_direction, NestDeps};
use lc_ir::analysis::nest::{extract_nest, LoopHeader, Nest};
use lc_ir::analysis::scalars::{
    assigned_scalars, carried_scalars, const_value, read_vars, CarriedScalar,
};
use lc_ir::analysis::walk::{Visit, Walker};
use lc_ir::printer::print_expr;
use lc_ir::{Loop, Program, Stmt, Symbol};

/// The constant environment LC002 resolves *bounded-symbolic* trip
/// counts under (`n = 4000000000; … 1..n`), and the statement folder the
/// driver builds it with. Both live in [`lc_ir::analysis::scalars`].
pub use lc_ir::analysis::scalars::{absorb_stmt, ConstEnv};

/// Stable identifier of one check in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// LC001: a level declared `doall` carries a flow/anti/output
    /// dependence.
    DoallRace,
    /// LC002: the product of trip counts can exceed `i64::MAX`, so a
    /// coalesced index would overflow.
    TripOverflow,
    /// LC003: a subscript is not affine and the dependence tester had to
    /// treat it conservatively.
    NonAffineSubscript,
    /// LC004: a loop index is never read in the nest body, so its
    /// recovery code after coalescing is pure overhead.
    DeadInduction,
    /// LC005: a scalar carried across the iterations of a parallel
    /// level, read in the body or in an inner level's bound before the
    /// iteration assigns it; `s = s + …` is reported as a reduction.
    ReductionInDoall,
}

impl LintCode {
    /// Every lint, in code order. Drives registry iteration.
    pub const ALL: [LintCode; 5] = [
        LintCode::DoallRace,
        LintCode::TripOverflow,
        LintCode::NonAffineSubscript,
        LintCode::DeadInduction,
        LintCode::ReductionInDoall,
    ];

    /// Stable code string, e.g. `"LC001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::DoallRace => "LC001",
            LintCode::TripOverflow => "LC002",
            LintCode::NonAffineSubscript => "LC003",
            LintCode::DeadInduction => "LC004",
            LintCode::ReductionInDoall => "LC005",
        }
    }

    /// Human-oriented kebab-case name, e.g. `"doall-race"`.
    pub fn slug(self) -> &'static str {
        match self {
            LintCode::DoallRace => "doall-race",
            LintCode::TripOverflow => "trip-overflow",
            LintCode::NonAffineSubscript => "non-affine-subscript",
            LintCode::DeadInduction => "dead-induction",
            LintCode::ReductionInDoall => "reduction-in-doall",
        }
    }

    /// Parse either the code (`LC001`) or the slug (`doall-race`).
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL
            .into_iter()
            .find(|c| c.code().eq_ignore_ascii_case(s) || c.slug() == s)
    }

    fn index(self) -> usize {
        match self {
            LintCode::DoallRace => 0,
            LintCode::TripOverflow => 1,
            LintCode::NonAffineSubscript => 2,
            LintCode::DeadInduction => 3,
            LintCode::ReductionInDoall => 4,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How a lint's findings are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The lint does not run; no findings are produced.
    Allow,
    /// Findings are reported but do not block anything.
    Warn,
    /// Findings are reported *and* fatal: the driver refuses to
    /// transform the nest (`SkipReason::LintDenied`) and the CLI exits
    /// non-zero.
    Deny,
}

impl Severity {
    /// Lower-case name: `allow`, `warn`, or `deny`.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-lint severity configuration. The default is every lint at
/// [`Severity::Warn`]: findings are reported but nothing is blocked, so
/// enabling the analyzer never changes what a pipeline produces unless
/// the user opts into `deny`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSet {
    levels: [Severity; 5],
}

impl Default for LintSet {
    fn default() -> Self {
        LintSet {
            levels: [Severity::Warn; 5],
        }
    }
}

impl LintSet {
    /// All lints at `warn` (same as `Default`).
    pub fn new() -> LintSet {
        LintSet::default()
    }

    /// All lints at `allow` — the analyzer is effectively off.
    pub fn all_allow() -> LintSet {
        LintSet {
            levels: [Severity::Allow; 5],
        }
    }

    /// Current severity of a lint.
    pub fn level(&self, code: LintCode) -> Severity {
        self.levels[code.index()]
    }

    /// Set the severity of a lint.
    pub fn set(&mut self, code: LintCode, sev: Severity) {
        self.levels[code.index()] = sev;
    }

    /// Builder-style [`LintSet::set`].
    pub fn with(mut self, code: LintCode, sev: Severity) -> LintSet {
        self.set(code, sev);
        self
    }

    /// Set the severity of the lint named by `spec` (a code like `LC001`,
    /// a slug like `doall-race`, or `all` for every lint). Errors with a
    /// human-readable message on an unknown name.
    pub fn set_by_name(&mut self, spec: &str, sev: Severity) -> Result<(), String> {
        if spec == "all" {
            self.levels = [sev; 5];
            return Ok(());
        }
        match LintCode::parse(spec) {
            Some(c) => {
                self.set(c, sev);
                Ok(())
            }
            None => Err(format!(
                "unknown lint `{spec}` (expected a code like LC001, a slug like doall-race, or `all`)"
            )),
        }
    }

    /// True when every lint is at `allow` — the analyze stage can skip
    /// all work.
    pub fn all_allowed(&self) -> bool {
        self.levels.iter().all(|s| *s == Severity::Allow)
    }

    /// True when at least one lint is at `deny`.
    pub fn any_denied(&self) -> bool {
        self.levels.contains(&Severity::Deny)
    }
}

/// One diagnostic produced by a lint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub code: LintCode,
    /// Effective severity it fired at.
    pub severity: Severity,
    /// Index of the top-level statement the nest belongs to.
    pub nest: usize,
    /// 0-based level within the (sub)nest, when the finding points at a
    /// specific loop level.
    pub level: Option<usize>,
    /// 1-based source line of the relevant loop header. Only populated
    /// by [`lint_source`]; IR-level linting has no source positions.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Machine-readable key/value details (dependence kind, direction
    /// vector, access sites, suggested band, …).
    pub details: Vec<(String, String)>,
    /// Pre-order index of the relevant loop header among all loop
    /// headers of the program; [`lint_source`] maps it to a line.
    pub(crate) ordinal: Option<usize>,
}

impl Finding {
    /// Look up a detail value by key.
    pub fn detail(&self, key: &str) -> Option<&str> {
        self.details
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn detail(k: &str, v: impl Into<String>) -> (String, String) {
    (k.to_string(), v.into())
}

/// One perfect (sub)nest carved out of a top-level loop statement, with
/// the pre-order ordinal of each level's header.
struct SubNest {
    nest: Nest,
    level_ordinals: Vec<usize>,
}

/// Lints one top-level loop statement (and every nest nested below it).
///
/// The driver's `analyze` stage runs each lint individually so it can
/// report per-lint timings; [`lint_program`] runs them all. LC001 is the
/// one lint that needs dependence analysis; it reads the root nest's from
/// [`NestLinter::with_root_deps`] when the caller already holds one, and
/// analyses the rest itself.
pub struct NestLinter<'a> {
    nest_index: usize,
    env: &'a ConstEnv,
    root: Loop,
    root_ordinal: usize,
    subnests: Vec<SubNest>,
    root_deps: Option<&'a NestDeps>,
}

impl<'a> NestLinter<'a> {
    /// Prepare to lint `l`, the loop at top-level statement `nest_index`.
    pub fn new(l: &Loop, nest_index: usize, env: &'a ConstEnv) -> NestLinter<'a> {
        let mut counter = 0usize;
        NestLinter::with_ordinals(l, nest_index, env, &mut counter)
    }

    /// As [`NestLinter::new`], threading a global pre-order loop-header
    /// counter so [`lint_source`] can attach line numbers.
    pub fn with_ordinals(
        l: &Loop,
        nest_index: usize,
        env: &'a ConstEnv,
        counter: &mut usize,
    ) -> NestLinter<'a> {
        let root_ordinal = *counter;
        let mut subnests = Vec::new();
        collect_subnests(l, counter, &mut subnests);
        NestLinter {
            nest_index,
            env,
            root: l.clone(),
            root_ordinal,
            subnests,
            root_deps: None,
        }
    }

    /// Use `deps`, the dependence analysis of the perfect nest extracted
    /// from the linted loop, instead of analysing that nest again.
    pub fn with_root_deps(mut self, deps: &'a NestDeps) -> NestLinter<'a> {
        self.root_deps = Some(deps);
        self
    }

    /// Run a single lint at the given severity.
    pub fn run(&mut self, code: LintCode, severity: Severity) -> Vec<Finding> {
        match code {
            LintCode::DoallRace => self.lc001(severity),
            LintCode::TripOverflow => self.lc002(severity),
            LintCode::NonAffineSubscript => self.lc003(severity),
            LintCode::DeadInduction => self.lc004(severity),
            LintCode::ReductionInDoall => self.lc005(severity),
        }
    }

    /// Run every lint enabled in `set` (skipping `allow`), in code order.
    pub fn run_all(&mut self, set: &LintSet) -> Vec<Finding> {
        let mut out = Vec::new();
        for code in LintCode::ALL {
            let sev = set.level(code);
            if sev == Severity::Allow {
                continue;
            }
            out.extend(self.run(code, sev));
        }
        out
    }

    /// LC001: every `doall` level must be dependence-free.
    fn lc001(&mut self, severity: Severity) -> Vec<Finding> {
        let mut out = Vec::new();
        for (si, sn) in self.subnests.iter().enumerate() {
            if !sn.nest.loops.iter().any(|h| h.kind.is_doall()) {
                continue;
            }
            let owned;
            let deps = match self.root_deps.filter(|_| si == 0) {
                Some(d) => Some(d),
                None => {
                    owned = analyze_nest(&sn.nest).ok();
                    owned.as_ref()
                }
            };
            let Some(deps) = deps else {
                // Analysis failure: stay conservative and treat every
                // doall level as potentially racy.
                for (k, h) in sn.nest.loops.iter().enumerate() {
                    if h.kind.is_doall() {
                        out.push(Finding {
                            code: LintCode::DoallRace,
                            severity,
                            nest: self.nest_index,
                            level: Some(k),
                            line: None,
                            message: format!(
                                "`doall {}` (level {k}): dependence analysis failed; \
                                 treating the level as potentially racy",
                                h.var
                            ),
                            details: vec![detail("kind", "unknown")],
                            ordinal: Some(sn.level_ordinals[k]),
                        });
                    }
                }
                continue;
            };
            let band = suggested_band(deps);
            for (k, h) in sn.nest.loops.iter().enumerate() {
                if !h.kind.is_doall() {
                    continue;
                }
                let Some(b) = deps.explain(k) else { continue };
                let direction = format_direction(b.direction);
                let kind = b.dep.kind.name();
                out.push(Finding {
                    code: LintCode::DoallRace,
                    severity,
                    nest: self.nest_index,
                    level: Some(k),
                    line: None,
                    message: format!(
                        "`doall {}` (level {k}) carries a {kind} dependence on `{}` \
                         with direction {direction} between statements {} and {}; \
                         iterations are not independent",
                        h.var, b.dep.array, b.dep.src_stmt, b.dep.dst_stmt
                    ),
                    details: vec![
                        detail("kind", kind),
                        detail("array", b.dep.array.to_string()),
                        detail("direction", direction.clone()),
                        detail("src_stmt", b.dep.src_stmt.to_string()),
                        detail("dst_stmt", b.dep.dst_stmt.to_string()),
                        detail("suggested_band", band.clone()),
                    ],
                    ordinal: Some(sn.level_ordinals[k]),
                });
            }
        }
        out
    }

    /// LC002: the coalesced trip count `N1·…·Nm` must fit in `i64`.
    fn lc002(&mut self, severity: Severity) -> Vec<Finding> {
        let mut out = Vec::new();
        for sn in &self.subnests {
            if sn.nest.depth() < 2 {
                continue; // a single level cannot overflow by coalescing
            }
            let mut product: u128 = 1;
            let mut trips = Vec::new();
            for h in &sn.nest.loops {
                match folded_trip_count(h, self.env) {
                    Some(t) => {
                        product = product.saturating_mul(t);
                        trips.push(t.to_string());
                    }
                    // Unknown trips count as 1 so only *provable*
                    // overflows fire.
                    None => trips.push("?".to_string()),
                }
            }
            if product > i64::MAX as u128 {
                out.push(Finding {
                    code: LintCode::TripOverflow,
                    severity,
                    nest: self.nest_index,
                    level: None,
                    line: None,
                    message: format!(
                        "coalescing this depth-{} nest multiplies trip counts [{}] to \
                         {product}, which exceeds i64::MAX ({}); the coalesced index \
                         would overflow",
                        sn.nest.depth(),
                        trips.join(", "),
                        i64::MAX
                    ),
                    details: vec![
                        detail("trips", trips.join(",")),
                        detail("product", product.to_string()),
                    ],
                    ordinal: Some(sn.level_ordinals[0]),
                });
            }
        }
        out
    }

    /// LC003: explain subscripts the dependence tester treats
    /// conservatively.
    fn lc003(&mut self, severity: Severity) -> Vec<Finding> {
        let mut out = Vec::new();
        let nest_index = self.nest_index;
        // The walker numbers loops in the pre-order `collect_subnests`
        // does, from 0 at the root.
        let root_ordinal = self.root_ordinal;
        Walker::default().walk_loop(&self.root, &mut |v| {
            let Visit::Access(a) = v else { return };
            for (dim, ix) in a.indices.iter().enumerate() {
                if Affine::from_expr(ix).is_some() {
                    continue;
                }
                let array = a.array;
                out.push(Finding {
                    code: LintCode::NonAffineSubscript,
                    severity,
                    nest: nest_index,
                    level: None,
                    line: None,
                    message: format!(
                        "subscript `{}` (dimension {dim} of `{array}`) is not affine; \
                         the dependence tester treats it as conflicting with every \
                         reference to `{array}`, so the nest is analyzed conservatively",
                        print_expr(ix)
                    ),
                    details: vec![
                        detail("array", array.to_string()),
                        detail("dim", dim.to_string()),
                        detail("subscript", print_expr(ix)),
                    ],
                    ordinal: Some(root_ordinal + a.ordinal),
                });
            }
        });
        out
    }

    /// LC004: a level whose index is never read makes recovery code pure
    /// overhead.
    fn lc004(&mut self, severity: Severity) -> Vec<Finding> {
        let mut out = Vec::new();
        for sn in &self.subnests {
            let mut header_vars = Vec::new();
            for h in &sn.nest.loops {
                for e in [&h.lower, &h.upper, &h.step] {
                    e.variables(&mut header_vars);
                }
            }
            let mut used = read_vars(&sn.nest.body, false);
            used.extend(header_vars);
            for (k, h) in sn.nest.loops.iter().enumerate() {
                if used.contains(&h.var) {
                    continue;
                }
                out.push(Finding {
                    code: LintCode::DeadInduction,
                    severity,
                    nest: self.nest_index,
                    level: Some(k),
                    line: None,
                    message: format!(
                        "index `{}` of level {k} is never read in the nest body; after \
                         coalescing, recovering it is pure overhead — consider \
                         collapsing only the band of live levels (partial collapse)",
                        h.var
                    ),
                    details: vec![detail("var", h.var.to_string())],
                    ordinal: Some(sn.level_ordinals[k]),
                });
            }
        }
        out
    }

    /// LC005: a scalar carried across the iterations of a parallel
    /// level. Asking about the outermost `doall` level of each (sub)nest
    /// covers every inner one: its iterations run everything theirs do.
    fn lc005(&mut self, severity: Severity) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut seen: BTreeSet<Symbol> = BTreeSet::new();
        for sn in &self.subnests {
            let Some(level) = sn.nest.loops.iter().position(|h| h.kind.is_doall()) else {
                continue;
            };
            for CarriedScalar { var, reduction } in carried_scalars(&sn.nest, level) {
                if !seen.insert(var.clone()) {
                    continue; // already reported at an outer (sub)nest
                }
                let message = if reduction {
                    format!(
                        "scalar `{var}` forms a reduction (`{var} = {var} ⊕ …`) inside \
                         a parallel level; iterations are not independent — apply a \
                         reduction strategy or privatize the accumulator"
                    )
                } else {
                    format!(
                        "scalar `{var}` may be read before it is assigned within one \
                         iteration of a parallel level (cross-iteration scalar \
                         dependence); iterations are not independent"
                    )
                };
                out.push(Finding {
                    code: LintCode::ReductionInDoall,
                    severity,
                    nest: self.nest_index,
                    level: None,
                    line: None,
                    message,
                    details: vec![
                        detail("var", var.to_string()),
                        detail(
                            "idiom",
                            if reduction {
                                "reduction"
                            } else {
                                "cross-iteration"
                            },
                        ),
                    ],
                    ordinal: Some(sn.level_ordinals[0]),
                });
            }
        }
        out
    }
}

/// Outermost contiguous run of dependence-free levels, rendered as
/// `levels [s, e)` (or `none` when every level is carried).
fn suggested_band(deps: &NestDeps) -> String {
    let par = deps.parallelizable_levels();
    let start = match par.iter().position(|p| *p) {
        Some(s) => s,
        None => return "none".to_string(),
    };
    let end = par[start..]
        .iter()
        .position(|p| !*p)
        .map(|off| start + off)
        .unwrap_or(par.len());
    format!("levels [{start}, {end})")
}

fn collect_subnests(l: &Loop, counter: &mut usize, out: &mut Vec<SubNest>) {
    let nest = extract_nest(l);
    let level_ordinals: Vec<usize> = (0..nest.depth())
        .map(|_| {
            let o = *counter;
            *counter += 1;
            o
        })
        .collect();
    let body = nest.body.clone();
    out.push(SubNest {
        nest,
        level_ordinals,
    });
    subnests_in_stmts(&body, counter, out);
}

fn subnests_in_stmts(stmts: &[Stmt], counter: &mut usize, out: &mut Vec<SubNest>) {
    for s in stmts {
        match s {
            Stmt::Loop(l) => collect_subnests(l, counter, out),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                subnests_in_stmts(then_body, counter, out);
                subnests_in_stmts(else_body, counter, out);
            }
            _ => {}
        }
    }
}

/// Trip count of a header whose bounds fold to constants under `env`.
fn folded_trip_count(h: &LoopHeader, env: &ConstEnv) -> Option<u128> {
    let [lo, hi, step] = [&h.lower, &h.upper, &h.step].map(|e| const_value(e, env));
    lc_ir::arith::trip_count(lo?, hi?, step?)
}

/// Lint a whole program: walk top-level statements in order, building
/// the constant-propagation environment from straight-line scalar
/// assignments, and run every enabled lint on each loop statement
/// (including nests nested below imperfect levels and inside `if`
/// bodies).
pub fn lint_program(prog: &Program, set: &LintSet) -> Vec<Finding> {
    let mut out = Vec::new();
    if set.all_allowed() {
        return out;
    }
    let mut env = ConstEnv::new();
    let mut counter = 0usize;
    lint_stmt_list(&prog.body, set, &mut env, &mut counter, None, &mut out);
    out
}

fn lint_stmt_list(
    stmts: &[Stmt],
    set: &LintSet,
    env: &mut ConstEnv,
    counter: &mut usize,
    enclosing_nest: Option<usize>,
    out: &mut Vec<Finding>,
) {
    for (i, s) in stmts.iter().enumerate() {
        let nest_index = enclosing_nest.unwrap_or(i);
        match s {
            Stmt::Loop(l) => {
                let mut linter = NestLinter::with_ordinals(l, nest_index, env, counter);
                out.extend(linter.run_all(set));
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                // Branch assignments are not definite: lint each branch
                // under a cloned environment. Ordinal bookkeeping still
                // threads through both branches in textual order.
                let mut t = env.clone();
                lint_stmt_list(then_body, set, &mut t, counter, Some(nest_index), out);
                let mut e = env.clone();
                lint_stmt_list(else_body, set, &mut e, counter, Some(nest_index), out);
            }
            Stmt::AssignScalar { .. } | Stmt::AssignArray { .. } => {}
        }
        // Afterwards the statement's effect (including invalidation of
        // scalars a loop or branch might have reassigned) flows into the
        // environment the *next* statement is linted under.
        absorb_stmt(env, s);
    }
}

/// Parse `src` and lint it, attaching to each finding the 1-based source
/// line of its loop header, as the parser recorded it.
pub fn lint_source(src: &str, set: &LintSet) -> lc_ir::Result<Vec<Finding>> {
    let (prog, lines) = lc_ir::parser::parse_program_with_loop_lines(src)?;
    let mut findings = lint_program(&prog, set);
    for f in &mut findings {
        if let Some(o) = f.ordinal {
            f.line = lines.get(o).copied();
        }
    }
    Ok(findings)
}

/// Fuzzing contract: when this returns `true`, interpreting the program
/// must produce the same final **array store** under every `doall`
/// iteration order (`Forward`, `Reverse`, `Shuffled(_)`). The
/// interpreter reorders only `doall` loops, so the certificate requires:
///
/// 1. no LC001 finding — every `doall` level of every (sub)nest is
///    dependence-free under the conservative tester;
/// 2. no LC005 finding — no scalar is carried across the iterations of
///    the outermost `doall` level of any (sub)nest, whether it is read in
///    the body or in an inner level's bound
///    ([`lc_ir::analysis::scalars::carried_scalars`]);
/// 3. no scalar assigned under a `doall` loop is read after that loop
///    completes (a last-writer-wins scalar escaping into later code
///    would leak the iteration order).
///
/// A `false` answer makes no claim either way — it only means the
/// conservative analysis could not prove independence.
pub fn certifies_order_independent(prog: &Program) -> bool {
    let set = LintSet::all_allow()
        .with(LintCode::DoallRace, Severity::Warn)
        .with(LintCode::ReductionInDoall, Severity::Warn);
    if !lint_program(prog, &set).is_empty() {
        return false;
    }
    let mut poisoned = BTreeSet::new();
    scan_escapes(&prog.body, &mut poisoned, true)
}

/// Walk `stmts` keeping the set of scalars whose value is
/// order-dependent (assigned under a completed `doall`); any read of
/// such a scalar fails the certificate. `definite` is true only for
/// statement lists that are guaranteed to execute exactly once, where a
/// reassignment un-poisons a scalar.
fn scan_escapes(stmts: &[Stmt], poisoned: &mut BTreeSet<Symbol>, definite: bool) -> bool {
    for s in stmts {
        // A loop index shadows a poisoned scalar of the same name only
        // within that loop's body.
        if !poisoned.is_empty() && !read_vars(std::slice::from_ref(s), true).is_disjoint(poisoned) {
            return false;
        }
        match s {
            Stmt::AssignScalar { var, .. } => {
                if definite {
                    poisoned.remove(var);
                }
            }
            Stmt::AssignArray { .. } => {}
            Stmt::Loop(l) => {
                // A scalar a nested doall writes at the end of trip `t`
                // reaches the reads at the start of trip `t+1`, so the
                // body starts out poisoned by its own doall writes.
                let mut inner = poisoned.clone();
                inner.extend(assigned_scalars(&l.body, true));
                if !scan_escapes(&l.body, &mut inner, false) {
                    return false;
                }
                // After the loop completes, every scalar assigned under a
                // doall within it is order-dependent.
                poisoned.extend(assigned_scalars(std::slice::from_ref(s), true));
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut t = poisoned.clone();
                if !scan_escapes(then_body, &mut t, false) {
                    return false;
                }
                let mut e = poisoned.clone();
                if !scan_escapes(else_body, &mut e, false) {
                    return false;
                }
                poisoned.extend(assigned_scalars(std::slice::from_ref(s), true));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_ir::parser::parse_program;

    fn lint(src: &str) -> Vec<Finding> {
        lint_program(&parse_program(src).unwrap(), &LintSet::default())
    }

    fn codes(findings: &[Finding]) -> Vec<LintCode> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn lc001_positive_racy_doall_reports_direction() {
        let f = lint(
            "
            array A[8];
            doall i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::DoallRace)
            .expect("LC001 must fire on a racy doall");
        assert_eq!(hit.level, Some(0));
        assert_eq!(hit.detail("kind"), Some("flow"));
        assert_eq!(hit.detail("direction"), Some("(<)"));
        assert!(hit.message.contains("(<)"), "{}", hit.message);
        assert_eq!(hit.detail("suggested_band"), Some("none"));
    }

    #[test]
    fn lc001_fires_on_a_negative_step_race() {
        // Iteration order runs i downward, so A[i + 1] is written one
        // iteration before it is read: a flow dependence, carried forward.
        let src = "
            array A[12];
            doall i = 10..1 step -1 {
                A[i] = A[i + 1] + 1;
            }
            ";
        let f = lint(src);
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::DoallRace)
            .expect("LC001 must fire on a reversed racy doall");
        assert_eq!(hit.detail("kind"), Some("flow"));
        assert_eq!(hit.detail("direction"), Some("(<)"));
        assert!(!certifies_order_independent(&parse_program(src).unwrap()));
    }

    #[test]
    fn lc001_fires_on_a_symbolic_negative_step_race() {
        let src = "
            array A[12];
            s = 0 - 1;
            doall i = 10..1 step s {
                A[i] = A[i + 1] + 1;
            }
            ";
        assert!(codes(&lint(src)).contains(&LintCode::DoallRace));
        assert!(!certifies_order_independent(&parse_program(src).unwrap()));
    }

    #[test]
    fn lc001_fires_on_a_race_through_an_inner_bound() {
        // The bound of `j` reads A[i + 1], which iteration i + 1 writes.
        let src = "
            array A[6];
            for k = 1..6 { A[k] = k % 3 + 1; }
            doall i = 1..4 {
                for j = 1..A[i + 1] {
                    A[i] = j;
                }
            }
            ";
        let f = lint(src);
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::DoallRace)
            .expect("LC001 must see the read in the inner bound");
        assert_eq!((hit.nest, hit.level), (1, Some(0)));
        assert_eq!(hit.detail("kind"), Some("anti"));
        let p = parse_program(src).unwrap();
        assert!(!certifies_order_independent(&p));
        let run = |order| {
            lc_ir::interp::Interp::new()
                .with_order(order)
                .run(&p)
                .unwrap()
                .digest()
        };
        assert_ne!(
            run(lc_ir::interp::DoallOrder::Forward),
            run(lc_ir::interp::DoallOrder::Reverse),
            "the witness must really be order-dependent"
        );
    }

    #[test]
    fn lc001_negative_clean_doall_is_silent() {
        let f = lint(
            "
            array A[8][8];
            doall i = 1..8 {
                doall j = 1..8 {
                    A[i][j] = i + j;
                }
            }
            ",
        );
        assert!(
            !codes(&f).contains(&LintCode::DoallRace),
            "clean nest must not trip LC001: {f:?}"
        );
    }

    #[test]
    fn lc001_suggests_the_outer_legal_band() {
        // Inner level carries a recurrence; outer is clean.
        let f = lint(
            "
            array A[8][8];
            doall i = 1..8 {
                doall j = 2..8 {
                    A[i][j] = A[i][j - 1] + 1;
                }
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::DoallRace)
            .expect("LC001 on the inner level");
        assert_eq!(hit.level, Some(1));
        assert_eq!(hit.detail("suggested_band"), Some("levels [0, 1)"));
    }

    #[test]
    fn lc001_fires_on_doall_subnest_below_imperfect_code() {
        let f = lint(
            "
            array A[8];
            for t = 1..3 {
                s = t;
                doall i = 2..8 {
                    A[i] = A[i - 1] + s;
                }
            }
            ",
        );
        assert!(
            codes(&f).contains(&LintCode::DoallRace),
            "must recurse into sub-nests: {f:?}"
        );
    }

    #[test]
    fn lc002_positive_constant_trip_overflow() {
        let f = lint(
            "
            array A[4];
            doall i = 1..4000000000 {
                doall j = 1..4000000000 {
                    A[1] = 0;
                }
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::TripOverflow)
            .expect("16e18 iterations exceed i64::MAX");
        assert_eq!(hit.detail("product"), Some("16000000000000000000"));
    }

    #[test]
    fn lc002_positive_bounded_symbolic_trips() {
        let f = lint(
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
        );
        assert!(
            codes(&f).contains(&LintCode::TripOverflow),
            "const-propagated symbolic bounds must be resolved: {f:?}"
        );
    }

    #[test]
    fn lc002_folds_division_like_the_interpreter() {
        let f = lint(
            "
            array A[4];
            n = 8000000000 / 2;
            doall i = 1..n {
                doall j = 1..n {
                    A[1] = 0;
                }
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::TripOverflow)
            .expect("n folds to 4e9, and 16e18 iterations exceed i64::MAX");
        assert_eq!(hit.detail("trips"), Some("4000000000,4000000000"));
    }

    #[test]
    fn lc002_negative_small_and_unknown_trips() {
        let f = lint(
            "
            array A[4][4];
            doall i = 1..4 {
                doall j = 1..m {
                    A[i][1] = i;
                }
            }
            ",
        );
        assert!(
            !codes(&f).contains(&LintCode::TripOverflow),
            "unknown trips count as 1; only provable overflows fire: {f:?}"
        );
    }

    #[test]
    fn lc003_positive_names_the_subscript() {
        let f = lint(
            "
            array A[100];
            doall i = 1..8 {
                A[i * i] = i;
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::NonAffineSubscript)
            .expect("i * i is not affine");
        assert_eq!(hit.detail("subscript"), Some("i * i"));
        assert_eq!(hit.detail("array"), Some("A"));
    }

    #[test]
    fn lc003_lines_point_at_the_innermost_loop() {
        let src = "array A[100];\nfor t = 1..2 {\n    A[t] = t;\n}\nfor t = 1..2 {\n    for i = 1..8 {\n        A[i * i] = i;\n    }\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::NonAffineSubscript)
            .unwrap();
        assert_eq!((hit.nest, hit.line), (1, Some(6)));
    }

    #[test]
    fn lc003_negative_affine_subscripts() {
        let f = lint(
            "
            array A[40];
            doall i = 1..8 {
                A[2 * i + 3] = i;
            }
            ",
        );
        assert!(!codes(&f).contains(&LintCode::NonAffineSubscript), "{f:?}");
    }

    #[test]
    fn lc004_positive_dead_outer_index() {
        let f = lint(
            "
            array A[8];
            doall t = 1..5 {
                doall i = 1..8 {
                    A[i] = i;
                }
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::DeadInduction)
            .expect("t is never read");
        assert_eq!(hit.detail("var"), Some("t"));
        assert_eq!(hit.level, Some(0));
    }

    #[test]
    fn lc004_negative_index_used_in_inner_bound() {
        // k is only used by the inner loop's bound — still live.
        let f = lint(
            "
            array A[8];
            for k = 1..4 {
                doall i = 1..k {
                    A[i] = i;
                }
            }
            ",
        );
        assert!(!codes(&f).contains(&LintCode::DeadInduction), "{f:?}");
    }

    #[test]
    fn lc005_positive_reduction_idiom() {
        let f = lint(
            "
            array A[8];
            doall i = 1..8 {
                s = s + A[i];
            }
            ",
        );
        let hit = f
            .iter()
            .find(|x| x.code == LintCode::ReductionInDoall)
            .expect("s = s + … is a reduction in a doall");
        assert_eq!(hit.detail("var"), Some("s"));
        assert_eq!(hit.detail("idiom"), Some("reduction"));
    }

    #[test]
    fn lc005_fires_on_a_scalar_read_in_an_inner_bound() {
        // The inner bound is evaluated inside each iteration of `doall
        // i`, after an earlier iteration may have run `t = 5`.
        for inner in ["for", "doall"] {
            let src = format!(
                "
                array A[4][5];
                t = 2;
                doall i = 1..4 {{
                    {inner} j = 1..t {{
                        A[i][j] = i + j;
                        t = 5;
                    }}
                }}
                "
            );
            let f = lint(&src);
            let hit = f
                .iter()
                .find(|x| x.code == LintCode::ReductionInDoall)
                .unwrap_or_else(|| panic!("`{inner} j = 1..t` reads t in the doall: {f:?}"));
            assert_eq!(hit.detail("var"), Some("t"));
            assert_eq!(hit.detail("idiom"), Some("cross-iteration"));
            assert!(!certifies_order_independent(&parse_program(&src).unwrap()));
        }
    }

    #[test]
    fn lc005_inner_bound_carried_by_a_serial_level_is_fine() {
        // Here the bound read is carried across `for i`, not the doall.
        let f = lint(
            "
            array A[4][5];
            t = 2;
            for i = 1..4 {
                doall j = 1..t {
                    A[i][j] = i + j;
                    t = 5;
                }
            }
            ",
        );
        assert!(!codes(&f).contains(&LintCode::ReductionInDoall), "{f:?}");
    }

    #[test]
    fn lc005_negative_per_iteration_temp() {
        let f = lint(
            "
            array A[8];
            doall i = 1..8 {
                t = i * 2;
                A[i] = t;
            }
            ",
        );
        assert!(!codes(&f).contains(&LintCode::ReductionInDoall), "{f:?}");
    }

    #[test]
    fn lc005_serial_reduction_is_fine() {
        let f = lint(
            "
            array A[8];
            for i = 1..8 {
                s = s + A[i];
            }
            ",
        );
        assert!(!codes(&f).contains(&LintCode::ReductionInDoall), "{f:?}");
    }

    #[test]
    fn severities_and_allow_filtering() {
        let src = "
            array A[8];
            doall i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
        ";
        let prog = parse_program(src).unwrap();
        let denying = LintSet::default().with(LintCode::DoallRace, Severity::Deny);
        let f = lint_program(&prog, &denying);
        assert!(f
            .iter()
            .any(|x| x.code == LintCode::DoallRace && x.severity == Severity::Deny));
        let allowing = LintSet::default().with(LintCode::DoallRace, Severity::Allow);
        let f = lint_program(&prog, &allowing);
        assert!(!codes(&f).contains(&LintCode::DoallRace));
        assert!(lint_program(&prog, &LintSet::all_allow()).is_empty());
    }

    #[test]
    fn lint_set_parses_names() {
        let mut set = LintSet::default();
        set.set_by_name("doall-race", Severity::Deny).unwrap();
        assert_eq!(set.level(LintCode::DoallRace), Severity::Deny);
        set.set_by_name("LC005", Severity::Allow).unwrap();
        assert_eq!(set.level(LintCode::ReductionInDoall), Severity::Allow);
        set.set_by_name("all", Severity::Warn).unwrap();
        assert!(!set.any_denied());
        assert!(set.set_by_name("LC999", Severity::Warn).is_err());
    }

    #[test]
    fn lint_source_attaches_lines() {
        let src = "array A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1] + 1;\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let hit = f.iter().find(|x| x.code == LintCode::DoallRace).unwrap();
        assert_eq!(hit.line, Some(2));
    }

    #[test]
    fn lint_source_lines_inside_nested_loops() {
        let src = "array A[8][8];\nfor t = 1..3 {\n    doall i = 1..8 {\n        doall j = 2..8 {\n            A[i][j] = A[i][j - 1];\n        }\n    }\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let hit = f.iter().find(|x| x.code == LintCode::DoallRace).unwrap();
        // The carried level is `j`, declared on line 4.
        assert_eq!(hit.line, Some(4));
    }

    #[test]
    fn lint_source_lines_skip_an_array_named_doall() {
        let src =
            "array doall[2];\narray A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1] + doall[1];\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let hit = f.iter().find(|x| x.code == LintCode::DoallRace).unwrap();
        assert_eq!(hit.line, Some(3));
    }

    #[test]
    fn lint_source_lines_skip_a_loop_variable_named_for() {
        let src = "array A[8][8];\ndoall for = 1..8 {\n    doall j = 2..8 {\n        A[for][j] = A[for][j - 1];\n    }\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let hit = f.iter().find(|x| x.code == LintCode::DoallRace).unwrap();
        // The carried level is `j`, declared on line 3.
        assert_eq!((hit.level, hit.line), (Some(1), Some(3)));
    }

    #[test]
    fn certify_accepts_clean_program() {
        let p = parse_program(
            "
            array A[8][8];
            doall i = 1..8 {
                doall j = 1..8 {
                    A[i][j] = i * 10 + j;
                }
            }
            ",
        )
        .unwrap();
        assert!(certifies_order_independent(&p));
    }

    #[test]
    fn certify_rejects_racy_doall() {
        let p = parse_program(
            "
            array A[8];
            doall i = 1..8 {
                A[1] = i;
            }
            ",
        )
        .unwrap();
        assert!(!certifies_order_independent(&p));
    }

    #[test]
    fn certify_rejects_scalar_escaping_a_doall() {
        // s's final value is the last iteration's — order-dependent —
        // and it flows into B. No LC001 (A writes are disjoint), no
        // LC005 (s is written before read within the iteration): only
        // the escape rule catches it.
        let p = parse_program(
            "
            array A[8];
            array B[1];
            doall i = 1..8 {
                s = i;
                A[i] = s;
            }
            B[1] = s;
            ",
        )
        .unwrap();
        assert!(!certifies_order_independent(&p));
    }

    #[test]
    fn certify_rejects_scalar_escaping_within_a_serial_loop() {
        // The doall is nested in a serial loop and the escape happens to
        // a later sibling inside that loop's body.
        let p = parse_program(
            "
            array A[8][8];
            array B[8];
            for t = 1..8 {
                doall i = 1..8 {
                    s = i + t;
                    A[t][i] = s;
                }
                B[t] = s;
            }
            ",
        )
        .unwrap();
        assert!(!certifies_order_independent(&p));
    }

    #[test]
    fn certify_rejects_scalar_escaping_across_a_serial_loop_back_edge() {
        // The read of `s` precedes the doall in the body, but the doall's
        // last writer from trip `t` is what trip `t+1` reads: forward and
        // reverse doall orders leave different values in B.
        let src = "
            array A[8];
            array B[8];
            s = 0;
            for t = 1..3 {
                B[t] = s;
                doall i = 1..8 {
                    s = i;
                    A[i] = 0;
                }
            }
            ";
        let p = parse_program(src).unwrap();
        assert!(!certifies_order_independent(&p));

        let run = |order| {
            lc_ir::interp::Interp::new()
                .with_order(order)
                .run(&p)
                .unwrap()
                .digest()
        };
        assert_ne!(
            run(lc_ir::interp::DoallOrder::Forward),
            run(lc_ir::interp::DoallOrder::Reverse),
            "the witness must really be order-dependent"
        );
    }

    #[test]
    fn certify_allows_scalar_read_after_serial_reassignment() {
        let p = parse_program(
            "
            array A[8];
            array B[1];
            doall i = 1..8 {
                s = i;
                A[i] = s;
            }
            s = 7;
            B[1] = s;
            ",
        )
        .unwrap();
        assert!(certifies_order_independent(&p));
    }

    #[test]
    fn certify_ignores_serial_and_doacross_loops() {
        // The interpreter never reorders serial or doacross loops, so a
        // carried dependence there does not block the certificate.
        let p = parse_program(
            "
            array A[8];
            for i = 2..8 {
                A[i] = A[i - 1] + 1;
            }
            ",
        )
        .unwrap();
        assert!(certifies_order_independent(&p));
    }
}
