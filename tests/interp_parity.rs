//! Interpreter parity: `tests/fixtures/interp_parity.txt` records what the
//! interpreter reports for a fixed input set under every `doall` order —
//! `steps`, `ops` and the final store digest, or the error's `Display`
//! text. T5's simulated costs, the fuzz digest and the validation verdicts
//! all read these numbers, so any change to the executor must reproduce
//! them exactly. Regenerate (only after an intentional accounting change)
//! with `UPDATE_FIXTURE=1 cargo test --test interp_parity`.
//!
//! Inputs: the six `all_small()` paper kernels, the 72-program service
//! corpus, and the first 200 fuzz-generator programs at the CI seed, each
//! run on `seeded_store(p, SEED)` under `Forward`, `Reverse` and
//! `Shuffled(0xABCD)`.

use std::fmt::Write as _;

use lc_fuzz::gen::{generate, GenConfig};
use lc_fuzz::rng::Rng;
use lc_ir::interp::{DoallOrder, Interp};
use lc_ir::parser::parse_program;
use lc_ir::program::Program;
use lc_service::corpus::corpus72;
use lc_workloads::kernels::all_small;
use lc_xform::validate::seeded_store;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/interp_parity.txt"
);

const SEED: u64 = 0xC0A1E5CE;

const ORDERS: [(&str, DoallOrder); 3] = [
    ("fwd", DoallOrder::Forward),
    ("rev", DoallOrder::Reverse),
    ("shuf", DoallOrder::Shuffled(0xABCD)),
];

/// Each input is labelled; `None` marks a fuzz case the generator flags
/// compile-only (near-`2^63` trip counts, arrays too large to allocate),
/// which the fuzzer never executes either.
fn inputs() -> Vec<(String, Option<Program>)> {
    let mut out: Vec<(String, Option<Program>)> = all_small()
        .into_iter()
        .map(|k| (format!("kernel:{}", k.name), Some(k.program)))
        .collect();
    for (i, src) in corpus72().iter().enumerate() {
        out.push((
            format!("corpus:{i}"),
            Some(parse_program(src).expect("corpus programs parse")),
        ));
    }
    let root = Rng::new(SEED);
    let cfg = GenConfig::default();
    for case in 0..200 {
        let g = generate(&mut root.fork(case), &cfg);
        out.push((format!("fuzz:{case}"), g.interp_cost.map(|_| g.program)));
    }
    out
}

fn report() -> String {
    let mut out = String::new();
    for (label, prog) in inputs() {
        let Some(prog) = prog else {
            writeln!(out, "{label} compile-only").unwrap();
            continue;
        };
        for (order_name, order) in ORDERS {
            let run = Interp::new()
                .with_order(order)
                .run_on(&prog, seeded_store(&prog, SEED));
            match run {
                Ok((store, stats)) => writeln!(
                    out,
                    "{label} {order_name} steps={} ops={} digest={:#018x}",
                    stats.steps,
                    stats.ops,
                    store.digest()
                ),
                Err(e) => writeln!(out, "{label} {order_name} error: {e}"),
            }
            .unwrap();
        }
    }
    out
}

#[test]
fn interpreter_matches_the_committed_parity_fixture() {
    let got = report();
    if std::env::var_os("UPDATE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("parity fixture missing; regenerate with UPDATE_FIXTURE=1");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "interp_parity.txt line {} diverged", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "interp_parity.txt line count diverged"
    );
}
