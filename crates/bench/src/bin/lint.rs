//! `lc-lint` — run the static legality & race analyzer over DSL
//! sources from the command line.
//!
//! ```text
//! lc-lint [FILE...] [--corpus] [--format text|json]
//!         [--deny SPEC]... [--allow SPEC]... [--warn SPEC]...
//! ```
//!
//! Inputs are positional files, or the built-in 72-program benchmark
//! corpus with `--corpus` (both may be combined; corpus programs come
//! first). `SPEC` is a lint code (`LC001`), a slug (`doall-race`), or
//! `all`; severity flags apply left to right on top of the default
//! everything-at-`warn` configuration.
//!
//! `--format text` (default) prints rustc-flavoured diagnostics to
//! stdout; `--format json` prints the corpus report
//! (`[{"index":…,"findings":[…]}, …]`), byte-stable for a given input
//! set, which CI diffs against `tests/fixtures/corpus_lints.json`.
//!
//! Exit status: 0 when no finding reached `deny`, 1 when at least one
//! did, 2 on usage or I/O errors.

use std::process::ExitCode;

use lc_driver::trace::corpus_report_json;
use lc_lint::render::finding_to_text;
use lc_lint::{lint_source, Finding, LintSet, Severity};
use lc_service::corpus::corpus72;

const USAGE: &str = "usage: lc-lint [FILE...] [--corpus] [--format text|json]
               [--deny SPEC]... [--allow SPEC]... [--warn SPEC]...
  FILE           DSL source file(s) to analyze
  --corpus       analyze the built-in 72-program benchmark corpus
  --format FMT   text (default) or json (the committed corpus report)
  --deny SPEC    escalate a lint to deny   (SPEC: LC001 | doall-race | all)
  --allow SPEC   silence a lint
  --warn SPEC    reset a lint to warn";

enum Format {
    Text,
    Json,
}

struct Args {
    files: Vec<String>,
    corpus: bool,
    format: Format,
    set: LintSet,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        files: Vec::new(),
        corpus: false,
        format: Format::Text,
        set: LintSet::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--corpus" => args.corpus = true,
            "--format" => {
                args.format = match take("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("bad --format {other:?} (text or json)")),
                };
            }
            "--deny" => args.set.set_by_name(&take("--deny")?, Severity::Deny)?,
            "--allow" => args.set.set_by_name(&take("--allow")?, Severity::Allow)?,
            "--warn" => args.set.set_by_name(&take("--warn")?, Severity::Warn)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            file => args.files.push(file.to_string()),
        }
    }
    if !args.corpus && args.files.is_empty() {
        return Err("nothing to analyze: pass FILE(s) or --corpus".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lc-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // (label, source) per input, corpus first.
    let mut inputs: Vec<(String, String)> = Vec::new();
    if args.corpus {
        for (i, src) in corpus72().iter().enumerate() {
            inputs.push((format!("corpus[{i}]"), src.clone()));
        }
    }
    for path in &args.files {
        match std::fs::read_to_string(path) {
            Ok(src) => inputs.push((path.clone(), src)),
            Err(e) => {
                eprintln!("lc-lint: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut per_program: Vec<(usize, Vec<Finding>)> = Vec::new();
    for (index, (label, src)) in inputs.iter().enumerate() {
        match lint_source(src, &args.set) {
            Ok(findings) => per_program.push((index, findings)),
            Err(e) => {
                eprintln!("lc-lint: {label}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut denied = 0usize;
    let mut total = 0usize;
    for (_, findings) in &per_program {
        total += findings.len();
        denied += findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .count();
    }

    match args.format {
        Format::Json => print!("{}", corpus_report_json(&per_program)),
        Format::Text => {
            for ((_, findings), (label, _)) in per_program.iter().zip(&inputs) {
                for f in findings {
                    print!("{label}: {}", finding_to_text(f));
                }
            }
            eprintln!(
                "lc-lint: {} program(s), {total} finding(s), {denied} denied",
                inputs.len()
            );
        }
    }

    if denied > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
