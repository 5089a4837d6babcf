//! `lc-fuzz` — differential fuzzer for the loop-coalescing pipeline.
//!
//! Nest mode (default) generates `--cases` seeded programs, runs each
//! through the execution oracle under a random pass pipeline, shrinks
//! any finding, and writes a report plus a ready-to-paste regression
//! test into `--out`. Stdout is fully deterministic for a given seed —
//! counts and an FNV digest of every outcome, never timing — so CI can
//! run the binary twice and `diff` the output. Timing goes to stderr.
//!
//! `--service` mode instead fuzzes a loopback `lc-service` server with
//! malformed HTTP/JSON and reports contract violations.
//!
//! Exit status: 0 when no findings, 1 on findings, 2 on usage errors.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use lc_fuzz::gen::GenConfig;
use lc_fuzz::oracle::{run_case, CaseOutcome};
use lc_fuzz::rng::Rng;
use lc_fuzz::service_fuzz;
use lc_fuzz::shrink::{regression_snippet, shrink_case};

const USAGE: &str = "usage: lc-fuzz [--seed N] [--cases N] [--max-rank N] [--out DIR] [--service]
  --seed N      root seed, decimal or 0x-hex   (default 0xC0A1E5CE)
  --cases N     number of fuzz cases           (default 200)
  --max-rank N  deepest generated nest, 1..=6  (default 6)
  --out DIR     where findings are written     (default findings)
  --service     fuzz a loopback lc-service server with malformed
                HTTP/JSON instead of fuzzing the compiler";

struct Args {
    seed: u64,
    cases: u64,
    max_rank: usize,
    out: PathBuf,
    service: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xC0A1E5CE,
        cases: 200,
        max_rank: 6,
        out: PathBuf::from("findings"),
        service: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                let v = take("--seed")?;
                args.seed = parse_u64(&v).ok_or_else(|| format!("bad --seed {v:?}"))?;
            }
            "--cases" => {
                let v = take("--cases")?;
                args.cases = parse_u64(&v).ok_or_else(|| format!("bad --cases {v:?}"))?;
            }
            "--max-rank" => {
                let v = take("--max-rank")?;
                let rank = parse_u64(&v).ok_or_else(|| format!("bad --max-rank {v:?}"))?;
                if !(1..=6).contains(&rank) {
                    return Err("--max-rank must be in 1..=6".to_string());
                }
                args.max_rank = rank as usize;
            }
            "--out" => args.out = PathBuf::from(take("--out")?),
            "--service" => args.service = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// An FNV-1a-shaped hash over the deterministic parts of every outcome:
/// the digest in the summary changes iff any case's program,
/// configuration, or verdict changes. It starts from the FNV-64 offset
/// basis but multiplies by `0x1000_0000_01b3`, not the FNV-64 prime
/// `0x100_0000_01b3` that `lc_service::cache::fnv1a` and `Store::digest`
/// use. The constant stays as is: the digest CI pins depends on it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

fn write_finding(out: &Path, outcome: &CaseOutcome, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let divergence = outcome
        .result
        .divergence
        .as_ref()
        .expect("only called for findings");
    let kind = divergence.kind();

    // Shrink first — the report leads with the minimized program.
    let (small, steps) = shrink_case(
        &outcome.program,
        &outcome.pipeline,
        &outcome.options,
        outcome.interp_seed,
        outcome.interp,
        divergence,
    );
    let minimized = lc_ir::printer::print_program(&small);

    let mut report = String::new();
    let _ = writeln!(report, "lc-fuzz finding: {kind}");
    let _ = writeln!(report, "root seed: {seed:#x}, case {}", outcome.case);
    let _ = writeln!(
        report,
        "reproduce: lc-fuzz --seed {seed:#x} --cases {}",
        outcome.case + 1
    );
    let _ = writeln!(report, "pipeline: {:?}", outcome.pipeline);
    let _ = writeln!(report, "interp seed: {:#x}", outcome.interp_seed);
    let _ = writeln!(report, "divergence: {divergence}");
    let _ = writeln!(
        report,
        "\n--- minimized ({steps} shrink steps) ---\n{minimized}"
    );
    let _ = writeln!(report, "--- original ---\n{}", outcome.source);
    std::fs::write(
        out.join(format!("case-{}-{kind}.txt", outcome.case)),
        report,
    )?;

    let snippet = regression_snippet(
        &format!("seed_{seed:x}_case_{}", outcome.case),
        &small,
        &outcome.pipeline,
        &outcome.options,
        outcome.interp_seed,
        outcome.interp,
        kind,
    );
    std::fs::write(
        out.join(format!("case-{}-regression.rs", outcome.case)),
        snippet,
    )
}

fn fuzz_nests(args: &Args) -> ExitCode {
    let started = Instant::now();
    let root = Rng::new(args.seed);
    let cfg = GenConfig {
        max_rank: args.max_rank,
    };

    let mut digest = Fnv::new();
    let mut compiled = 0u64;
    let mut compile_errors = 0u64;
    let mut interpreted = 0u64;
    let mut coalesced_nests = 0u64;
    let mut findings = 0u64;
    // Per-class finding counts. Every kind is always printed (zeros
    // included) so CI can assert e.g. `lint-unsound=0` with a grep.
    const KINDS: [&str; 9] = [
        "panic",
        "non-determinism",
        "validation-failed",
        "execution-split",
        "value-mismatch",
        "spurious-skip",
        "order-dependence",
        "lint-unsound",
        "shadow-unsound",
    ];
    let mut by_kind = [0u64; KINDS.len()];

    println!(
        "lc-fuzz: seed {:#x}, cases {}, max rank {}",
        args.seed, args.cases, args.max_rank
    );
    for case in 0..args.cases {
        let outcome = run_case(&root, case, &cfg);
        digest.eat(outcome.source.as_bytes());
        digest.eat(format!("{:?}", outcome.pipeline).as_bytes());
        digest.eat(&outcome.interp_seed.to_le_bytes());
        compiled += u64::from(outcome.result.compiled);
        compile_errors += u64::from(outcome.result.compile_error.is_some());
        interpreted += u64::from(outcome.result.interpreted);
        coalesced_nests += outcome.result.coalesced as u64;
        match &outcome.result.divergence {
            None => digest.eat(b"ok"),
            Some(d) => {
                digest.eat(d.kind().as_bytes());
                findings += 1;
                if let Some(slot) = KINDS.iter().position(|k| *k == d.kind()) {
                    by_kind[slot] += 1;
                }
                println!("FINDING case {case}: {} — {d}", d.kind());
                if let Err(e) = write_finding(&args.out, &outcome, args.seed) {
                    eprintln!("could not write finding for case {case}: {e}");
                }
            }
        }
    }

    println!("cases: {}", args.cases);
    println!("compiled: {compiled}");
    println!("compile-errors: {compile_errors}");
    println!("interpreted: {interpreted}");
    println!("coalesced-nests: {coalesced_nests}");
    println!("findings: {findings}");
    let classes: Vec<String> = KINDS
        .iter()
        .zip(by_kind)
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    println!("classes: {}", classes.join(" "));
    println!("digest: {:#018x}", digest.0);
    eprintln!("elapsed: {:?}", started.elapsed());

    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fuzz_service(args: &Args) -> ExitCode {
    let started = Instant::now();
    println!(
        "lc-fuzz --service: seed {:#x}, random cases {}",
        args.seed, args.cases
    );
    let report = service_fuzz::run(args.seed, args.cases);
    // Counts (responses vs dropped connections) depend on socket timing,
    // so only the verdict and any violations go to stdout.
    for v in &report.violations {
        println!("VIOLATION: {v}");
    }
    println!("violations: {}", report.violations.len());
    eprintln!(
        "sent {} inputs, parsed {} responses, elapsed {:?}",
        report.cases,
        report.responses,
        started.elapsed()
    );
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lc-fuzz: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.service {
        fuzz_service(&args)
    } else {
        fuzz_nests(&args)
    }
}
