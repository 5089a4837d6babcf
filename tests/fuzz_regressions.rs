//! Shrinker-minimized regressions from local `lc-fuzz` runs, plus the
//! meta-properties the fuzzer itself relies on.
//!
//! Each `fuzz_regression_*` test was emitted by the shrinker
//! (`lc-fuzz` writes a ready-to-paste snippet into `findings/` next to
//! the human-readable report) after a local sweep, then kept here
//! forever so the bug stays fixed. To reproduce a CI finding locally:
//!
//! ```text
//! cargo run --release -p lc-fuzz -- --seed <seed from the CI log> \
//!     --cases <failing case + 1> --out findings/
//! ```

use lc_fuzz::gen::{self, GenConfig};
use lc_fuzz::oracle::run_case;
use lc_fuzz::rng::Rng;
use lc_fuzz::shrink::shrink_with;
use lc_ir::parser::parse_program;
use lc_ir::printer::print_program;

/// Found by `lc-fuzz --seed 0xC0A1E5CE` (case 37) during the first
/// 100k-case local sweep: with strength reduction on, two identical
/// compiles could emit differently-numbered `rc_*` temporaries because
/// `intern_shared_divisions` resolved equal-profit ties by HashMap
/// iteration order. Minimized by the shrinker from a rank-3 nest; the
/// two `ceildiv` recovery terms of the empty coalesced band tie exactly.
#[test]
fn fuzz_regression_seed_c0a1e5ce_case_37() {
    let src = r#"
array R[7];
array W[3][2][3];
doall i = 1..1 {
    doall j = 2..3 {
        doall k = (-1)..0 {
        }
    }
}
"#;
    let coalesce = lc_xform::coalesce::CoalesceOptions::builder()
        .scheme(lc_xform::recovery::RecoveryScheme::Ceiling)
        .levels_opt(None)
        .auto_normalize(true)
        .strength_reduce(true)
        .build();
    let options = lc_driver::DriverOptions {
        coalesce,
        enable_perfection: false,
        enable_interchange: true,
        validate: false,
        advise: None,
        pass_order: None,
        validate_each_pass: false,
        lints: lc_lint::LintSet::all_allow(),
    };
    let divergence = lc_fuzz::oracle::check_source(
        src,
        &["coalesce", "normalize", "perfect", "interchange"],
        &options,
        0xdfe42d8be2cd69a8,
        true,
    );
    assert!(divergence.is_none(), "{divergence:?}");
}

/// A `doall` whose negative step reverses its iteration order carries a
/// flow dependence forward in time. The dependence tester used to ignore
/// `step`, so `certifies_order_independent` signed this program off and
/// the oracle's reverse run contradicted it (`lint-unsound`). The
/// generator only emits positive steps, so it never produced this shape.
#[test]
fn fuzz_oracle_audits_a_reversed_race() {
    let src = r#"
array A[12];
doall i = 10..1 step -1 {
    A[i] = A[i + 1] + 1;
}
"#;
    let divergence = lc_fuzz::oracle::check_source(
        src,
        &lc_driver::DEFAULT_PASS_ORDER,
        &lc_driver::DriverOptions::default(),
        0xC0A1E5CE,
        true,
    );
    assert!(divergence.is_none(), "{divergence:?}");
}

/// The upper bound of `for j` is evaluated inside every iteration of
/// `doall i`, so the `t = 5` of the first iteration to run changes the
/// trip count of every later one. LC005 used to scan only the nest body,
/// so `certifies_order_independent` signed this program off and the
/// oracle's reverse run contradicted it (`lint-unsound`).
#[test]
fn fuzz_oracle_audits_a_scalar_read_in_an_inner_bound() {
    let src = r#"
array A[4][5];
t = 2;
doall i = 1..4 {
    for j = 1..t {
        A[i][j] = i + j;
        t = 5;
    }
}
"#;
    let divergence = lc_fuzz::oracle::check_source(
        src,
        &lc_driver::DEFAULT_PASS_ORDER,
        &lc_driver::DriverOptions::default(),
        0xC0A1E5CE,
        true,
    );
    assert!(divergence.is_none(), "{divergence:?}");
}

/// Two symbolic upper bounds below 1: the nest runs no iterations, but
/// the stride chain multiplied the raw bounds, so `lcs_total` was
/// `(-2) * (-3) = 6` and the coalesced loop indexed `A[0][..]`. Both
/// `coalesce_source` and `Driver::compile` failed with "subscript 0 out
/// of bounds". Each symbolic factor is now clamped to `max(U, 0)`.
#[test]
fn symbolic_trips_below_one_multiply_to_no_iterations() {
    let src = r#"
array A[3][3];
n = -2;
m = -3;
doall i = 1..n {
    doall j = 1..m {
        A[i][j] = 1;
    }
}
"#;
    let out = loop_coalescing::coalesce_source(src).unwrap();
    assert!(
        out.transformed_source.contains("max(n, 0)"),
        "{}",
        out.transformed_source
    );
    let compiled = lc_driver::Driver::new(lc_driver::DriverOptions::default())
        .compile(src)
        .unwrap();
    assert_eq!(compiled.coalesced.len(), 1);
    let divergence = lc_fuzz::oracle::check_source(
        src,
        &lc_driver::DEFAULT_PASS_ORDER,
        &lc_driver::DriverOptions::default(),
        0xC0A1E5CE,
        true,
    );
    assert!(divergence.is_none(), "{divergence:?}");
}

/// The CI seed must stay clean: the exact configuration the push-gate
/// fuzz job runs, compressed to a smoke-sized prefix.
#[test]
fn ci_seed_prefix_is_clean() {
    let root = Rng::new(0xC0A1E5CE);
    let cfg = GenConfig::default();
    for case in 0..50 {
        let outcome = run_case(&root, case, &cfg);
        assert!(
            outcome.result.divergence.is_none(),
            "case {case} diverged: {:?}\n{}",
            outcome.result.divergence,
            outcome.source
        );
    }
}

/// Generator determinism is what makes every CI failure reproducible
/// from just the logged seed — same seed, same byte-identical programs.
#[test]
fn generator_is_deterministic_across_runs() {
    let cfg = GenConfig::default();
    for seed in [0u64, 0xC0A1E5CE, u64::MAX] {
        let a = gen::generate(&mut Rng::new(seed), &cfg);
        let b = gen::generate(&mut Rng::new(seed), &cfg);
        assert_eq!(
            print_program(&a.program),
            print_program(&b.program),
            "seed {seed:#x}"
        );
        assert_eq!(a.interp_cost, b.interp_cost);
    }
}

/// The shrinker must converge (bounded steps) and actually shrink: a
/// predicate needing only one deep write leaves nothing else behind.
#[test]
fn shrinker_converges_and_minimizes() {
    let p = parse_program(
        "
        array W[6][6];
        array R[4];
        extra = 5;
        doall i = 1..6 {
            doall j = 1..6 {
                W[i][j] = R[2] + extra;
                W[i][j] = 1;
            }
        }
        ",
    )
    .unwrap();
    let writes_w = |p: &lc_ir::program::Program| print_program(p).contains("W[");
    let (small, steps) = shrink_with(&p, writes_w);
    assert!(steps > 0, "nothing was shrunk");
    assert!(steps < lc_fuzz::shrink::MAX_SHRINK_STEPS);
    let text = print_program(&small);
    assert!(writes_w(&small));
    // Loops and the unrelated scalar are gone; a bare W write remains.
    assert!(!text.contains("doall"), "{text}");
    assert!(!text.contains("extra"), "{text}");
}
