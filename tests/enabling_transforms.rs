//! Integration: the enabling transformations (perfection, interchange)
//! compose with coalescing into full pipelines.

use loop_coalescing::ir::analysis::{analyze_nest, extract_nest};
use loop_coalescing::ir::interp::{DoallOrder, Interp};
use loop_coalescing::ir::parser::parse_program;
use loop_coalescing::ir::program::Program;
use loop_coalescing::ir::stmt::{Loop, Stmt};
use loop_coalescing::xform::coalesce::{coalesce_loop, CoalesceOptions};
use loop_coalescing::xform::interchange::interchange;
use loop_coalescing::xform::perfect::perfect_one_level;

fn loop_at(p: &Program, idx: usize) -> Loop {
    match &p.body[idx] {
        Stmt::Loop(l) => l.clone(),
        other => panic!("expected loop at {idx}: {other:?}"),
    }
}

fn run_all_orders(p: &Program) -> lc_ir::interp::Store {
    let fwd = Interp::new().run(p).unwrap();
    for order in [DoallOrder::Reverse, DoallOrder::Shuffled(77)] {
        let other = Interp::new().with_order(order).run(p).unwrap();
        assert_eq!(fwd, other, "program is doall-order dependent");
    }
    fwd
}

#[test]
fn perfect_then_coalesce_pipeline() {
    // An imperfect nest: prologue + a 2-deep inner nest. Perfection
    // guards keep everything in one loop, which then coalesces whole
    // (guards and all).
    let src = "
        array D[10];
        array M[10][12];
        doall i = 1..10 {
            D[i] = i * i - 3;
            doall j = 1..12 {
                M[i][j] = i * 100 + j;
            }
        }
    ";
    let p = parse_program(src).unwrap();
    let original = Interp::new().run(&p).unwrap();

    let perfected = perfect_one_level(&loop_at(&p, 0)).unwrap();
    let out = coalesce_loop(&perfected, &CoalesceOptions::default()).unwrap();
    assert_eq!(out.info.total_iterations, 120);

    let mut p2 = p.clone();
    p2.body[0] = Stmt::Loop(out.transformed);
    let transformed = run_all_orders(&p2);
    assert_eq!(original, transformed);
}

#[test]
fn interchange_then_coalesce_inner_band() {
    // Column recurrence: i carries, j is free. Interchange brings j
    // outward; the (now outer) j level alone is coalescible.
    let src = "
        array A[16][16];
        for i = 2..16 {
            for j = 1..16 {
                A[i][j] = A[i - 1][j] + j;
            }
        }
    ";
    let p = parse_program(src).unwrap();
    let original = Interp::new().run(&p).unwrap();

    let l = loop_at(&p, 0);
    let deps = analyze_nest(&extract_nest(&l)).unwrap();
    let swapped = interchange(&l, 0, &deps).unwrap();
    assert_eq!(swapped.var.as_str(), "j");
    let out = coalesce_loop(&swapped, &CoalesceOptions::builder().levels(0, 1).build()).unwrap();

    let mut p2 = p.clone();
    p2.body[0] = Stmt::Loop(out.transformed);
    let transformed = Interp::new().run(&p2).unwrap();
    assert_eq!(original, transformed);
}
