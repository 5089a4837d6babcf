//! Failure-injection integration tests: every layer must reject bad input
//! with a descriptive error instead of panicking or silently mis-running.

use loop_coalescing::coalesce_source;
use loop_coalescing::driver::Driver;
use loop_coalescing::ir::interp::Interp;
use loop_coalescing::ir::parser::parse_program;
use loop_coalescing::ir::{Error, Stmt};
use loop_coalescing::xform::coalesce::{coalesce_loop, CoalesceOptions};

#[test]
fn parse_errors_surface_through_the_pipeline() {
    for bad in [
        "doall i = 1..4 { A[i] = ",       // truncated
        "array A[4]; doall i 1..4 { }",   // missing '='
        "array A[4]; A[0x] = 1;",         // bad token
        "array A; A[1] = 1;",             // missing extent
        "array A[4]; if i { A[1] = 1; }", // condition without comparison
    ] {
        match coalesce_source(bad) {
            Err(Error::Parse { .. }) => {}
            other => panic!("`{bad}` should be a parse error, got {other:?}"),
        }
    }
}

#[test]
fn semantic_check_errors_surface() {
    assert!(matches!(
        coalesce_source("B[1] = 0;"),
        Err(Error::UnknownArray(_))
    ));
    assert!(matches!(
        coalesce_source("array A[2][2]; A[1] = 0;"),
        Err(Error::RankMismatch { .. })
    ));
    assert!(matches!(
        coalesce_source("array A[2]; array A[3]; A[1] = 0;"),
        Err(Error::DuplicateArray(_))
    ));
}

#[test]
fn runtime_errors_are_reported_not_hidden() {
    // Division by zero inside a loop body.
    let p = parse_program(
        "
        array A[4];
        doall i = 1..4 {
            A[i] = 10 / (i - 2);
        }
        ",
    )
    .unwrap();
    assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));

    // Out-of-bounds subscript.
    let p = parse_program(
        "
        array A[4];
        doall i = 1..5 {
            A[i] = i;
        }
        ",
    )
    .unwrap();
    assert!(matches!(
        Interp::new().run(&p),
        Err(Error::OutOfBounds { .. })
    ));
}

#[test]
fn transformed_programs_preserve_runtime_errors() {
    // The coalesced version of a program that traps must also trap (same
    // error kind) — the rewrite may not mask faults.
    let src = "
        array A[6][6];
        doall i = 1..6 {
            doall j = 1..6 {
                A[i][j] = 100 / (i + j - 2);
            }
        }
        ";
    let p = parse_program(src).unwrap();
    let Stmt::Loop(l) = &p.body[0] else { panic!() };
    let out = coalesce_loop(l, &CoalesceOptions::default()).unwrap();
    let mut p2 = p.clone();
    p2.body[0] = Stmt::Loop(out.transformed);
    assert_eq!(Interp::new().run(&p), Err(Error::DivisionByZero));
    assert_eq!(Interp::new().run(&p2), Err(Error::DivisionByZero));
}

#[test]
fn step_budget_guards_against_runaway_transformed_loops() {
    let src = "
        array A[64][64];
        doall i = 1..64 {
            doall j = 1..64 {
                A[i][j] = i;
            }
        }
        ";
    let p = parse_program(src).unwrap();
    let r = Interp::new().with_budget(100).run(&p);
    assert!(matches!(r, Err(Error::StepBudgetExceeded { .. })));
}

#[test]
fn coalesce_error_messages_name_the_obstacle() {
    let cases = [
        ("array A[8]; for i = 2..8 { A[i] = A[i - 1]; }", "carried"),
        (
            "array A[8]; s = 0; for i = 1..8 { s = s + A[i]; }",
            "scalar",
        ),
    ];
    for (src, needle) in cases {
        let p = parse_program(src).unwrap();
        let l = p
            .body
            .iter()
            .find_map(|s| match s {
                Stmt::Loop(l) => Some(l),
                _ => None,
            })
            .unwrap();
        match coalesce_loop(l, &CoalesceOptions::default()) {
            Err(Error::Unsupported(m)) => {
                let msg = m.to_string();
                assert!(msg.contains(needle), "message `{msg}` lacks `{needle}`")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}

#[test]
fn overflowing_iteration_space_is_rejected() {
    use loop_coalescing::xform::recovery::total_iterations;
    assert!(total_iterations(&[u64::MAX, 2]).is_err());
    assert!(total_iterations(&[1 << 32, 1 << 32]).is_err());
}

#[test]
fn empty_and_degenerate_loops_flow_through_every_layer() {
    // Zero-trip nests coalesce to an empty loop and run cleanly.
    let out = coalesce_source(
        "
        array A[4][4];
        doall i = 1..0 {
            doall j = 1..4 {
                A[i][j] = 1;
            }
        }
        ",
    )
    .unwrap();
    assert_eq!(out.coalesced.len(), 1);
    assert_eq!(out.coalesced[0].total_iterations, 0);
    let store = Interp::new().run(&out.transformed).unwrap();
    assert_eq!(store.get("A", &[1, 1]).unwrap(), 0);
}

/// Validation seeds every declared array element, so a program declaring
/// more elements than the interpreter's step budget is declined with a
/// typed error before anything is allocated — not a capacity-overflow
/// panic (2^61 elements here) or an allocation the size of the
/// declaration.
#[test]
fn huge_declared_arrays_are_declined_before_validation_allocates() {
    use loop_coalescing::xform::validate::check_order_independent;
    let src = "
        array R[6];
        array W[1048576][2097152][1048576];
        doall i = 1..1048576 {
            doall j = 1..2097152 {
                doall k = 1..1048576 {
                    W[i][j][k] = i + j * 3;
                }
            }
        }
        ";
    let budget = Interp::new().step_budget;
    let out = std::panic::catch_unwind(|| Driver::default().compile(src))
        .expect("compile must not panic");
    assert_eq!(out.err(), Some(Error::StepBudgetExceeded { budget }));
    let prog = parse_program(src).unwrap();
    assert_eq!(
        check_order_independent(&prog, 1),
        Err(Error::StepBudgetExceeded { budget })
    );
}

/// `i64::MIN / -1` has no `i64` quotient: the interpreter and the driver's
/// validation must report it as a typed overflow instead of panicking.
#[test]
fn min_over_minus_one_is_a_typed_overflow_on_every_path() {
    let min = "m = 0 - 9223372036854775807 - 1;";
    for (value, want) in [
        ("m / (0 - 1)", Err(Error::Overflow)),
        ("ceildiv(m, 0 - 1)", Err(Error::Overflow)),
        ("m % (0 - 1)", Ok(0)),
    ] {
        let prog = parse_program(&format!("array A[1]; {min} A[1] = {value};")).unwrap();
        let got = Interp::new().run(&prog).map(|s| s.get("A", &[1]).unwrap());
        assert_eq!(got, want, "{value}");
    }

    let src = format!(
        "array A[4][4];
        {min}
        doall i = 1..4 {{
            doall j = 1..4 {{
                A[i][j] = m / (0 - 1);
            }}
        }}"
    );
    let out = std::panic::catch_unwind(|| Driver::default().compile(&src))
        .expect("compile must not panic");
    assert_eq!(out.err(), Some(Error::Overflow));
}
