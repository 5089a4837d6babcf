//! Per-pass observability: timed, serializable pipeline traces.
//!
//! Every pass invocation the [`crate::PassManager`] makes is recorded as
//! a [`TraceEvent`]: which nest, which pass, what happened
//! ([`TraceOutcome`]), and how long it took (nanoseconds, clamped to a
//! minimum of 1 so "this pass ran" is always distinguishable from "this
//! pass never ran"). The whole [`PipelineTrace`] serializes to JSON (see
//! [`crate::json`] for why not serde) and back, and renders as a
//! human-readable report.

use std::fmt::Write as _;

use lc_ir::{BoundPart, SkipReason, Symbol};

use crate::cache::CacheStats;
use crate::json::{self, Json, JsonWriter, WriteJson};

/// What a pass did to one nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The pass rewrote something; `rewrites` counts the pass's own unit
    /// of work (headers normalized, levels coalesced, cost units saved).
    Applied {
        /// Pass-specific rewrite count.
        rewrites: u64,
    },
    /// The pass declined, with a typed diagnostic.
    Skipped {
        /// Why the pass did not apply.
        reason: SkipReason,
    },
    /// The pass ran and had nothing to do.
    Noop,
    /// A validation step ran and the program passed.
    Validated,
    /// The `analyze` stage (or one of its `lint:LCxxx` sub-steps) ran.
    Analyzed {
        /// Findings reported.
        findings: u64,
        /// Findings at `deny` severity (each vetoes its nest).
        denied: u64,
    },
}

/// One timed pass invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Index of the nest in the program body, or `None` for
    /// program-level steps (validation).
    pub nest: Option<usize>,
    /// Pass name (`"normalize"`, `"coalesce"`, …).
    pub pass: String,
    /// What happened.
    pub outcome: TraceOutcome,
    /// Wall time of the invocation in nanoseconds (always ≥ 1).
    pub nanos: u64,
}

/// The full record of one compilation: every pass event, the aggregated
/// analysis-cache counters, and total wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Pass events in execution order.
    pub events: Vec<TraceEvent>,
    /// Analysis-cache counters summed over all nests.
    pub cache: CacheStats,
    /// Total wall time of the compilation in nanoseconds.
    pub total_nanos: u64,
}

impl PipelineTrace {
    /// Distinct pass names in first-seen order.
    pub fn passes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.pass.as_str()) {
                out.push(&e.pass);
            }
        }
        out
    }

    /// Events recorded for one nest.
    pub fn events_for(&self, nest: usize) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.nest == Some(nest))
    }

    /// Names of passes that reported [`TraceOutcome::Applied`] on `nest`.
    pub fn applied_passes(&self, nest: usize) -> Vec<&str> {
        self.events_for(nest)
            .filter(|e| matches!(e.outcome, TraceOutcome::Applied { .. }))
            .map(|e| e.pass.as_str())
            .collect()
    }

    /// Total rewrites reported by a pass across all nests.
    pub fn rewrites(&self, pass: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pass == pass)
            .map(|e| match e.outcome {
                TraceOutcome::Applied { rewrites } => rewrites,
                _ => 0,
            })
            .sum()
    }

    /// Per-pass rewrite totals in first-seen order — the pipeline's
    /// work summary, computed from the events (the serialized trace
    /// schema is unchanged). Passes that never applied report `0`.
    pub fn pass_rewrites(&self) -> Vec<(&str, u64)> {
        self.passes()
            .into_iter()
            .map(|p| (p, self.rewrites(p)))
            .collect()
    }

    /// Total time spent in a pass (nanoseconds) across all nests.
    pub fn pass_nanos(&self, pass: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.pass == pass)
            .map(|e| e.nanos)
            .sum()
    }

    /// Render a human-readable report: one line per event plus per-pass
    /// and cache summaries.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "pipeline trace ({} events)", self.events.len());
        for e in &self.events {
            let where_ = match e.nest {
                Some(n) => format!("nest {n}"),
                None => "program".to_string(),
            };
            let what = match &e.outcome {
                TraceOutcome::Applied { rewrites } => format!("applied ({rewrites} rewrites)"),
                TraceOutcome::Skipped { reason } => format!("skipped: {reason}"),
                TraceOutcome::Noop => "no-op".to_string(),
                TraceOutcome::Validated => "validated".to_string(),
                TraceOutcome::Analyzed { findings, denied } => {
                    format!("analyzed ({findings} findings, {denied} denied)")
                }
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<16} {:>10}ns  {}",
                where_, e.pass, e.nanos, what
            );
        }
        let _ = writeln!(out, "per-pass totals:");
        for (pass, rewrites) in self.pass_rewrites() {
            let _ = writeln!(
                out,
                "  {:<16} {:>10}ns  {} rewrites",
                pass,
                self.pass_nanos(pass),
                rewrites
            );
        }
        let c = &self.cache;
        let _ = writeln!(
            out,
            "analysis cache: nest {}+{}h, normalize {}+{}h, deps {}+{}h",
            c.nest_computed,
            c.nest_hits,
            c.normalize_computed,
            c.normalize_hits,
            c.deps_computed,
            c.deps_hits
        );
        let _ = writeln!(out, "total: {}ns", self.total_nanos);
        out
    }

    /// Serialize the trace to a JSON document (see [`WriteJson`] for
    /// the schema).
    pub fn to_json(&self) -> Json {
        json::tree(self)
    }

    /// Serialize to a JSON string.
    pub fn to_json_string(&self) -> String {
        json::render(self)
    }

    /// Deserialize a trace from [`PipelineTrace::to_json`] output.
    pub fn from_json(v: &Json) -> Result<PipelineTrace, String> {
        let mut events = Vec::new();
        for e in v
            .field("events")?
            .as_arr()
            .ok_or("`events` is not an array")?
        {
            let nest = match e.field("nest")? {
                Json::Null => None,
                Json::Int(n) => Some(*n as usize),
                _ => return Err("`nest` must be null or an integer".into()),
            };
            events.push(TraceEvent {
                nest,
                pass: e.str_field("pass")?.to_string(),
                outcome: outcome_from_json(e.field("outcome")?)?,
                nanos: e.int_field("nanos")? as u64,
            });
        }
        let c = v.field("cache")?;
        let cache = CacheStats {
            nest_computed: c.int_field("nest_computed")? as u64,
            nest_hits: c.int_field("nest_hits")? as u64,
            normalize_computed: c.int_field("normalize_computed")? as u64,
            normalize_hits: c.int_field("normalize_hits")? as u64,
            deps_computed: c.int_field("deps_computed")? as u64,
            deps_hits: c.int_field("deps_hits")? as u64,
        };
        Ok(PipelineTrace {
            events,
            cache,
            total_nanos: v.int_field("total_nanos")? as u64,
        })
    }

    /// Deserialize from a JSON string.
    pub fn from_json_string(src: &str) -> Result<PipelineTrace, String> {
        PipelineTrace::from_json(&Json::parse(src)?)
    }
}

impl WriteJson for PipelineTrace {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| {
            o.key("events").arr(&self.events, |w, e| {
                w.obj(|o| {
                    opt_int(o.key("nest"), e.nest);
                    o.key("pass").str(&e.pass);
                    o.key("outcome").value(&e.outcome);
                    o.key("nanos").int(e.nanos as i64);
                })
            });
            let c = &self.cache;
            o.key("cache").obj(|o| {
                o.key("nest_computed").int(c.nest_computed as i64);
                o.key("nest_hits").int(c.nest_hits as i64);
                o.key("normalize_computed").int(c.normalize_computed as i64);
                o.key("normalize_hits").int(c.normalize_hits as i64);
                o.key("deps_computed").int(c.deps_computed as i64);
                o.key("deps_hits").int(c.deps_hits as i64);
            });
            o.key("total_nanos").int(self.total_nanos as i64);
        });
    }
}

/// An optional index: an integer, or `null`.
fn opt_int(w: &mut JsonWriter, n: Option<usize>) {
    match n {
        Some(n) => w.int(n as i64),
        None => w.null(),
    }
}

impl WriteJson for TraceOutcome {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| match self {
            TraceOutcome::Applied { rewrites } => {
                o.key("kind").str("applied");
                o.key("rewrites").int(*rewrites as i64);
            }
            TraceOutcome::Skipped { reason } => {
                o.key("kind").str("skipped");
                o.key("reason").value(reason);
            }
            TraceOutcome::Noop => o.key("kind").str("noop"),
            TraceOutcome::Validated => o.key("kind").str("validated"),
            TraceOutcome::Analyzed { findings, denied } => {
                o.key("kind").str("analyzed");
                o.key("findings").int(*findings as i64);
                o.key("denied").int(*denied as i64);
            }
        });
    }
}

fn outcome_from_json(v: &Json) -> Result<TraceOutcome, String> {
    match v.str_field("kind")? {
        "applied" => Ok(TraceOutcome::Applied {
            rewrites: v.int_field("rewrites")? as u64,
        }),
        "skipped" => Ok(TraceOutcome::Skipped {
            reason: skip_reason_from_json(v.field("reason")?)?,
        }),
        "noop" => Ok(TraceOutcome::Noop),
        "validated" => Ok(TraceOutcome::Validated),
        "analyzed" => Ok(TraceOutcome::Analyzed {
            findings: v.int_field("findings")? as u64,
            denied: v.int_field("denied")? as u64,
        }),
        other => Err(format!("unknown outcome kind `{other}`")),
    }
}

fn bound_part_str(p: BoundPart) -> &'static str {
    match p {
        BoundPart::Lower => "lower",
        BoundPart::Upper => "upper",
        BoundPart::Step => "step",
    }
}

/// Serialize a [`SkipReason`] as a tagged JSON object.
pub fn skip_reason_to_json(r: &SkipReason) -> Json {
    json::tree(r)
}

/// A tagged object: `kind` names the variant, the other keys carry its
/// fields.
impl WriteJson for SkipReason {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| match self {
            SkipReason::BandOutOfRange { start, end, depth } => {
                o.key("kind").str("band-out-of-range");
                o.key("start").int(*start as i64);
                o.key("end").int(*end as i64);
                o.key("depth").int(*depth as i64);
            }
            SkipReason::CarriedDependence { level, var } => {
                o.key("kind").str("carried-dependence");
                o.key("level").int(*level as i64);
                o.key("var").str(var.as_str());
            }
            SkipReason::ScalarReduction { var } => {
                o.key("kind").str("scalar-reduction");
                o.key("var").str(var.as_str());
            }
            SkipReason::SymbolicBound { var, part } => {
                o.key("kind").str("symbolic-bound");
                o.key("var").str(var.as_str());
                o.key("part").str(bound_part_str(*part));
            }
            SkipReason::SymbolicBounds => o.key("kind").str("symbolic-bounds"),
            SkipReason::NotNormalized { var } => {
                o.key("kind").str("not-normalized");
                o.key("var").str(var.as_str());
            }
            SkipReason::VariantBound { var, dep } => {
                o.key("kind").str("variant-bound");
                o.key("var").str(var.as_str());
                o.key("dep").str(dep.as_str());
            }
            SkipReason::InterchangeOutOfRange { level, depth } => {
                o.key("kind").str("interchange-out-of-range");
                o.key("level").int(*level as i64);
                o.key("depth").int(*depth as i64);
            }
            SkipReason::NotRectangular { var, other } => {
                o.key("kind").str("not-rectangular");
                o.key("var").str(var.as_str());
                o.key("other").str(other.as_str());
            }
            SkipReason::InterchangeIllegal { level, array } => {
                o.key("kind").str("interchange-illegal");
                o.key("level").int(*level as i64);
                o.key("array").str(array.as_str());
            }
            SkipReason::ImperfectNest { found } => {
                o.key("kind").str("imperfect-nest");
                o.key("found").int(*found as i64);
            }
            SkipReason::NothingLegal => o.key("kind").str("nothing-legal"),
            SkipReason::LintDenied { code, message } => {
                o.key("kind").str("lint-denied");
                o.key("code").str(code);
                o.key("message").str(message);
            }
            SkipReason::Other(m) => {
                o.key("kind").str("other");
                o.key("message").str(m);
            }
            // `SkipReason` is #[non_exhaustive]; future variants
            // degrade to a message-only encoding rather than failing
            // to serialize.
            other => {
                o.key("kind").str("other");
                o.key("message").str(&other.to_string());
            }
        });
    }
}

/// Deserialize a [`SkipReason`] from [`skip_reason_to_json`] output.
pub fn skip_reason_from_json(v: &Json) -> Result<SkipReason, String> {
    let var = |k: &str| -> Result<Symbol, String> { Ok(Symbol::new(v.str_field(k)?)) };
    Ok(match v.str_field("kind")? {
        "band-out-of-range" => SkipReason::BandOutOfRange {
            start: v.int_field("start")? as usize,
            end: v.int_field("end")? as usize,
            depth: v.int_field("depth")? as usize,
        },
        "carried-dependence" => SkipReason::CarriedDependence {
            level: v.int_field("level")? as usize,
            var: var("var")?,
        },
        "scalar-reduction" => SkipReason::ScalarReduction { var: var("var")? },
        "symbolic-bound" => SkipReason::SymbolicBound {
            var: var("var")?,
            part: match v.str_field("part")? {
                "lower" => BoundPart::Lower,
                "upper" => BoundPart::Upper,
                "step" => BoundPart::Step,
                p => return Err(format!("unknown bound part `{p}`")),
            },
        },
        "symbolic-bounds" => SkipReason::SymbolicBounds,
        "not-normalized" => SkipReason::NotNormalized { var: var("var")? },
        "variant-bound" => SkipReason::VariantBound {
            var: var("var")?,
            dep: var("dep")?,
        },
        "interchange-out-of-range" => SkipReason::InterchangeOutOfRange {
            level: v.int_field("level")? as usize,
            depth: v.int_field("depth")? as usize,
        },
        "not-rectangular" => SkipReason::NotRectangular {
            var: var("var")?,
            other: var("other")?,
        },
        "interchange-illegal" => SkipReason::InterchangeIllegal {
            level: v.int_field("level")? as usize,
            array: var("array")?,
        },
        "imperfect-nest" => SkipReason::ImperfectNest {
            found: v.int_field("found")? as usize,
        },
        "nothing-legal" => SkipReason::NothingLegal,
        "lint-denied" => SkipReason::LintDenied {
            code: v.str_field("code")?.to_string(),
            message: v.str_field("message")?.to_string(),
        },
        "other" => SkipReason::Other(v.str_field("message")?.to_string()),
        other => return Err(format!("unknown skip reason kind `{other}`")),
    })
}

/// Serialize one `lc-lint` [`Finding`](lc_lint::Finding) as a JSON
/// object (see its [`WriteJson`] impl for the schema).
pub fn finding_to_json(f: &lc_lint::Finding) -> Json {
    json::tree(f)
}

/// A finding is an object with a fixed key order (`code`, `slug`,
/// `severity`, `nest`, `level`, `line`, `message`, `details`). Service
/// envelopes and the `lc-lint` CLI's corpus report both use it, so they
/// share one schema.
impl WriteJson for lc_lint::Finding {
    fn write_json(&self, w: &mut JsonWriter) {
        w.obj(|o| {
            o.key("code").str(self.code.code());
            o.key("slug").str(self.code.slug());
            o.key("severity").str(self.severity.name());
            o.key("nest").int(self.nest as i64);
            opt_int(o.key("level"), self.level);
            opt_int(o.key("line"), self.line);
            o.key("message").str(&self.message);
            o.key("details").obj(|d| {
                for (k, v) in &self.details {
                    d.key(k).str(v);
                }
            });
        });
    }
}

/// The corpus report: one `{"index":…,"findings":[…]}` line per
/// program, wrapped in a JSON array. Committed as
/// `tests/fixtures/corpus_lints.json` and diffed by CI.
pub fn corpus_report_json(per_program: &[(usize, Vec<lc_lint::Finding>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (index, findings)) in per_program.iter().enumerate() {
        let mut w = JsonWriter::new();
        w.obj(|o| {
            o.key("index").int(*index as i64);
            o.key("findings").arr(findings, JsonWriter::value);
        });
        out.push_str(&w.into_string());
        if i + 1 < per_program.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_lint::{lint_source, LintCode, LintSet};

    #[test]
    fn trace_round_trips_through_json() {
        let trace = PipelineTrace {
            events: vec![
                TraceEvent {
                    nest: Some(0),
                    pass: "normalize".into(),
                    outcome: TraceOutcome::Applied { rewrites: 2 },
                    nanos: 120,
                },
                TraceEvent {
                    nest: Some(0),
                    pass: "coalesce".into(),
                    outcome: TraceOutcome::Skipped {
                        reason: SkipReason::CarriedDependence {
                            level: 1,
                            var: Symbol::new("i"),
                        },
                    },
                    nanos: 340,
                },
                TraceEvent {
                    nest: None,
                    pass: "validate".into(),
                    outcome: TraceOutcome::Validated,
                    nanos: 999,
                },
            ],
            cache: CacheStats {
                nest_computed: 1,
                nest_hits: 3,
                normalize_computed: 1,
                normalize_hits: 2,
                deps_computed: 1,
                deps_hits: 1,
            },
            total_nanos: 5000,
        };
        let text = trace.to_json_string();
        assert_eq!(PipelineTrace::from_json_string(&text).unwrap(), trace);
    }

    #[test]
    fn report_mentions_every_pass() {
        let trace = PipelineTrace {
            events: vec![TraceEvent {
                nest: Some(0),
                pass: "coalesce".into(),
                outcome: TraceOutcome::Applied { rewrites: 2 },
                nanos: 10,
            }],
            cache: CacheStats::default(),
            total_nanos: 10,
        };
        let report = trace.report();
        assert!(report.contains("coalesce"));
        assert!(report.contains("2 rewrites"));
        assert!(report.contains("analysis cache"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
    }

    #[test]
    fn finding_json_is_single_line_and_stable() {
        let src = "array A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1];\n}\n";
        let f = lint_source(src, &LintSet::default()).unwrap();
        let racy = f.iter().find(|x| x.code == LintCode::DoallRace).unwrap();
        let json = finding_to_json(racy).to_string();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"code\":\"LC001\",\"slug\":\"doall-race\""));
        assert!(json.contains("\"line\":2"));
        assert!(json.contains("\"direction\":\"(<)\""));
    }

    #[test]
    fn corpus_report_shape() {
        let report = corpus_report_json(&[(0, vec![]), (1, vec![])]);
        assert_eq!(
            report,
            "[\n{\"index\":0,\"findings\":[]},\n{\"index\":1,\"findings\":[]}\n]\n"
        );
    }
}
