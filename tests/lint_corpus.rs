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

/// The seeded racy-DOALL fixtures CI feeds to the `lc-lint` CLI under
/// `--deny doall-race`: each must trip LC001 with a direction vector, and
/// the certificate the fuzzer trusts must refuse it. The reverse fixture
/// runs its race downward by a negative step; in iteration order the
/// dependence is still carried forward.
#[test]
fn racy_doall_fixture_trips_lc001() {
    for name in ["racy_doall.lc", "racy_doall_reverse.lc"] {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(path).expect("fixture present");

        let findings = lint_source(&src, &LintSet::default()).unwrap();
        let race = findings
            .iter()
            .find(|f| f.code == LintCode::DoallRace)
            .expect("racy doall must trip LC001");
        assert_eq!(race.severity, Severity::Warn);
        assert_eq!(race.detail("direction"), Some("(<)"));

        // Under --deny doall-race the same finding escalates.
        let mut deny = LintSet::default();
        deny.set_by_name("doall-race", Severity::Deny).unwrap();
        let findings = lint_source(&src, &deny).unwrap();
        assert!(findings
            .iter()
            .any(|f| f.code == LintCode::DoallRace && f.severity == Severity::Deny));

        let program = lc_ir::parser::parse_program(&src).unwrap();
        assert!(
            !lc_lint::certifies_order_independent(&program),
            "a racy program must never be certified order-independent"
        );
    }
}
