//! The committed lint baseline for the 72-program benchmark corpus:
//! `tests/fixtures/corpus_lints.json` is exactly what
//! `lc-lint --corpus --format json` prints, and CI diffs the two. This
//! test keeps the fixture honest from inside `cargo test` as well, so a
//! lint behavior change cannot land without updating the baseline
//! (regenerate with `UPDATE_FIXTURE=1 cargo test --test lint_corpus`).

use lc_driver::trace::corpus_report_json;
use lc_lint::{lint_source, Finding, LintCode, LintSet, Severity};
use lc_service::corpus::corpus72;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/corpus_lints.json"
);

#[test]
fn corpus_findings_match_the_committed_baseline() {
    let set = LintSet::default();
    let per_program: Vec<(usize, Vec<Finding>)> = corpus72()
        .iter()
        .enumerate()
        .map(|(i, src)| {
            (
                i,
                lint_source(src, &set).expect("corpus programs must parse"),
            )
        })
        .collect();
    let got = corpus_report_json(&per_program);

    if std::env::var_os("UPDATE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; regenerate with UPDATE_FIXTURE=1");
    assert_eq!(
        got, want,
        "corpus lint findings diverged from tests/fixtures/corpus_lints.json; \
         if intentional, regenerate with UPDATE_FIXTURE=1 cargo test --test lint_corpus"
    );
}

/// The seeded racy fixtures CI feeds to the `lc-lint` CLI under
/// `--deny <slug>`: each must trip its lint, and the certificate the
/// fuzzer trusts must refuse it. The reverse fixture runs its race
/// downward by a negative step; in iteration order the dependence is
/// still carried forward. In the scalar fixture the bound of `for j` is
/// read inside every iteration of `doall i`, after an earlier iteration
/// may have run `t = 5`. In the array-bound fixture the bound of `for j`
/// reads `A[i + 1]`, which iteration `i + 1` writes.
#[test]
fn racy_doall_fixture_trips_lc001() {
    for (name, code, key, value) in [
        ("racy_doall.lc", LintCode::DoallRace, "direction", "(<)"),
        (
            "racy_doall_reverse.lc",
            LintCode::DoallRace,
            "direction",
            "(<)",
        ),
        ("racy_array_bound.lc", LintCode::DoallRace, "kind", "anti"),
        (
            "racy_scalar_bound.lc",
            LintCode::ReductionInDoall,
            "var",
            "t",
        ),
    ] {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).expect("fixture present");

        let findings = lint_source(&src, &LintSet::default()).unwrap();
        let race = findings
            .iter()
            .find(|f| f.code == code)
            .unwrap_or_else(|| panic!("{name} must trip {code}"));
        assert_eq!(race.severity, Severity::Warn);
        assert_eq!(race.detail(key), Some(value));

        // Under --deny <slug> the same finding escalates.
        let mut deny = LintSet::default();
        deny.set_by_name(code.slug(), Severity::Deny).unwrap();
        let findings = lint_source(&src, &deny).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.code == code && f.severity == Severity::Deny));

        let program = lc_ir::parser::parse_program(&src).unwrap();
        assert!(
            !lc_lint::certifies_order_independent(&program),
            "a racy program must never be certified order-independent"
        );
    }
}
