//! Integration: the layers agree with each other.
//!
//! * the IR-emitted recovery statements compute exactly what the shared
//!   `lc-space` math computes;
//! * the simulator's dispatch accounting matches the scheduler's analytic
//!   counts;
//! * the real runtime's chunk sequence matches the dispenser's for
//!   deterministic single-worker configurations.

use loop_coalescing::ir::analysis::depend::analyze_nest;
use loop_coalescing::ir::analysis::nest::extract_nest;
use loop_coalescing::ir::interp::Interp;
use loop_coalescing::ir::program::Program;
use loop_coalescing::ir::stmt::{Loop, Stmt};
use loop_coalescing::ir::{Expr, Symbol};
use loop_coalescing::machine::cost::CostModel;
use loop_coalescing::machine::sim::{simulate_loop, LoopSchedule};
use loop_coalescing::sched::dispatch::single_loop_dispatch;
use loop_coalescing::sched::policy::{Dispenser, PolicyKind};
use loop_coalescing::space;
use loop_coalescing::xform::coalesce::{coalesce_band, CoalesceOptions};
use loop_coalescing::xform::recovery::{recovery_stmts, RecoveryScheme};

#[test]
fn ir_recovery_matches_space_math_for_many_shapes() {
    for dims in [vec![7u64], vec![4, 9], vec![3, 5, 2], vec![2, 2, 2, 3]] {
        let n: u64 = dims.iter().product();
        for scheme in [RecoveryScheme::Ceiling, RecoveryScheme::DivMod] {
            let j = Symbol::new("j");
            let vars: Vec<Symbol> = (0..dims.len())
                .map(|k| Symbol::new(format!("i{k}")))
                .collect();
            let mut body = recovery_stmts(scheme, &j, &vars, &dims);

            // The coalescer emits exactly these statements for the
            // all-constant normalized nest of the same shape.
            let last = dims.len() - 1;
            let mut nest = Loop::doall(vars[last].clone(), dims[last] as i64, Vec::new());
            for k in (0..last).rev() {
                nest = Loop::doall(vars[k].clone(), dims[k] as i64, vec![Stmt::Loop(nest)]);
            }
            let nest = extract_nest(&nest);
            let opts = CoalesceOptions::builder()
                .scheme(scheme)
                .coalesced_var("j")
                .build();
            let out = coalesce_band(&nest, &analyze_nest(&nest).unwrap(), &opts).unwrap();
            assert!(out.preamble.is_empty());
            assert_eq!(out.transformed.body, body, "{scheme:?} dims {dims:?}");

            // Encode the recovered vector into OUT[j] with positional
            // weights so one store checks every index.
            let mut enc = Expr::lit(0);
            for (k, v) in vars.iter().enumerate() {
                let weight = 100i64.pow((dims.len() - 1 - k) as u32);
                enc = enc + Expr::Var(v.clone()) * Expr::lit(weight);
            }
            body.push(Stmt::store("OUT", vec![Expr::var("j")], enc));
            let prog = Program::new()
                .with_array("OUT", vec![n as usize])
                .with_stmt(Stmt::Loop(Loop::doall("j", n as i64, body)));
            let store = Interp::new().run(&prog).unwrap();
            for jv in 1..=n as i64 {
                let want: i64 = space::recover_divmod(jv, &dims)
                    .iter()
                    .enumerate()
                    .map(|(k, ix)| ix * 100i64.pow((dims.len() - 1 - k) as u32))
                    .sum();
                assert_eq!(
                    store.get("OUT", &[jv]).unwrap(),
                    want,
                    "{scheme:?} dims {dims:?} j={jv}"
                );
            }
        }
    }
}

#[test]
fn simulator_fetch_adds_match_scheduler_accounting() {
    let cost = CostModel::default();
    for kind in [
        PolicyKind::SelfSched,
        PolicyKind::Chunked(8),
        PolicyKind::Guided,
    ] {
        for (n, p) in [(100u64, 4usize), (1000, 16), (37, 8)] {
            let sim = simulate_loop(n, p, LoopSchedule::Dynamic(kind), &cost, &|_| 10);
            let analytic = single_loop_dispatch(n, p, kind);
            // Both sides count one successful fetch per chunk plus one
            // exhaustion fetch per processor.
            assert_eq!(
                sim.fetch_adds, analytic.fetch_adds,
                "{kind:?} n={n} p={p}: simulator fetches {} vs analytic {}",
                sim.fetch_adds, analytic.fetch_adds
            );
            assert_eq!(sim.chunks, analytic.chunks, "{kind:?} n={n} p={p}");
        }
    }
}

#[test]
fn runtime_single_worker_chunks_match_dispenser() {
    use loop_coalescing::runtime::{parallel_for_chunks, RuntimeOptions};
    use std::sync::Mutex;
    for kind in [
        PolicyKind::SelfSched,
        PolicyKind::Chunked(16),
        PolicyKind::Trapezoid,
        PolicyKind::Factoring,
    ] {
        let n = 500u64;
        let seen = Mutex::new(Vec::new());
        parallel_for_chunks(
            n,
            &RuntimeOptions {
                threads: 1,
                policy: kind,
            },
            |c| seen.lock().unwrap().push((c.start, c.len)),
        );
        let want: Vec<(u64, u64)> = Dispenser::with_kind(n, 1, kind)
            .drain()
            .into_iter()
            .map(|c| (c.start, c.len))
            .collect();
        assert_eq!(*seen.lock().unwrap(), want, "{kind:?}");
    }
}

#[test]
fn simulator_static_block_matches_bounds_formula() {
    use loop_coalescing::sched::bounds::coalesced_block_length;
    use loop_coalescing::sched::policy::StaticKind;
    // Free machine, unit body: makespan == ceil(n/p) * body exactly.
    let cost = CostModel::free();
    for (n, p) in [(100u64, 4usize), (97, 8), (5, 16)] {
        let sim = simulate_loop(n, p, LoopSchedule::Static(StaticKind::Block), &cost, &|_| 7);
        assert_eq!(
            sim.makespan,
            coalesced_block_length(n, p as u64) * 7,
            "n={n} p={p}"
        );
    }
}

#[test]
fn odometer_walk_equals_interpreted_nest_order() {
    // Run a 3-level serial IR nest writing a sequence counter, then check
    // the odometer enumerates cells in exactly that order.
    let dims = [3u64, 2, 4];
    let src = "
        array SEQ[3][2][4];
        c = 0;
        for i = 1..3 {
            for j = 1..2 {
                for k = 1..4 {
                    c = c + 1;
                    SEQ[i][j][k] = c;
                }
            }
        }
    ";
    let prog = loop_coalescing::ir::parser::parse_program(src).unwrap();
    let store = Interp::new().run(&prog).unwrap();
    let mut odo = space::Odometer::new(&dims);
    for expect in 1..=24i64 {
        let iv = odo.indices();
        assert_eq!(store.get("SEQ", iv).unwrap(), expect);
        odo.advance();
    }
}
