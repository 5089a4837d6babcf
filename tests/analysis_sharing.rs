//! The driver analyses each nest's dependences once per nest version:
//! the nest as written, and again after each structural rewrite
//! (perfection, interchange). Lints, interchange legality, the band
//! advisor and both coalescing paths read that one analysis.

use lc_service::corpus::corpus72;
use loop_coalescing::driver::{Driver, DriverOutput, TraceOutcome};
use loop_coalescing::ir::{Program, Stmt};
use loop_coalescing::workloads::kernels;

fn assert_once_per_version(what: &str, program: &Program, out: &DriverOutput) {
    let nests = program
        .body
        .iter()
        .filter(|s| matches!(s, Stmt::Loop(_)))
        .count() as u64;
    let rewrites = out
        .trace
        .events
        .iter()
        .filter(|e| e.pass == "perfect" || e.pass == "interchange")
        .filter(|e| matches!(e.outcome, TraceOutcome::Applied { .. }))
        .count() as u64;
    let computed = out.trace.cache.deps_computed;
    assert!(
        computed <= nests + rewrites,
        "{what}: {computed} analyses for {nests} nests and {rewrites} rewrites"
    );
}

#[test]
fn dependence_analysis_runs_once_per_nest_version() {
    let driver = Driver::default();
    for (k, src) in corpus72().iter().enumerate() {
        let program = loop_coalescing::ir::parser::parse_program(src).unwrap();
        let out = driver.compile_program(&program).unwrap();
        assert_once_per_version(&format!("corpus program {k}"), &program, &out);
    }
    for kernel in kernels::all_small() {
        let out = driver.compile_program(&kernel.program).unwrap();
        assert_once_per_version(kernel.name, &kernel.program, &out);
    }
}
