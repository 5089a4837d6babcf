//! Interpreter throughput: `Interp::run_on` over each small paper kernel
//! (reported per run and as ns per interpreter step), and the full
//! validation check `check_equivalent` on the 100×50 quickstart nest that
//! `bench_driver` compiles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use lc_driver::{Driver, DriverOptions};
use lc_ir::interp::Interp;
use lc_ir::parser::parse_program;
use lc_workloads::kernels::all_small;
use lc_xform::validate::{check_equivalent, seeded_store};

const QUICKSTART: &str = "
    array A[100][50];
    doall i = 1..100 {
        doall j = 1..50 {
            A[i][j] = i * j;
        }
    }
";

const SEED: u64 = 0xC0A1E5CE;

/// Best-of-`reps` wall time of `run`, divided by the steps one run takes.
fn ns_per_step(steps: u64, reps: usize, mut run: impl FnMut()) -> f64 {
    let best = (0..reps)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .min()
        .unwrap_or_default();
    best.as_nanos() as f64 / steps.max(1) as f64
}

fn bench_run_on(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp");
    group.sample_size(20);
    for k in all_small() {
        let store = seeded_store(&k.program, SEED);
        let interp = Interp::new();
        let (_, stats) = interp.run_on(&k.program, store.clone()).unwrap();
        let run = || {
            interp
                .run_on(black_box(&k.program), black_box(store.clone()))
                .unwrap()
        };
        group.bench_with_input(BenchmarkId::new("run_on", k.name), &k, |b, _| b.iter(run));
        println!(
            "bench interp/ns_per_step/{:<37} {:>12.1} ns/step ({} steps)",
            k.name,
            ns_per_step(stats.steps, 200, || {
                black_box(run());
            }),
            stats.steps
        );
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    let mut group = c.benchmark_group("validate");
    group.sample_size(20);
    let original = parse_program(QUICKSTART).unwrap();
    let transformed = Driver::new(DriverOptions {
        validate: false,
        ..Default::default()
    })
    .compile_program(&original)
    .unwrap()
    .transformed;
    group.bench_function("check_equivalent/quickstart-100x50", |b| {
        b.iter(|| check_equivalent(black_box(&original), black_box(&transformed), SEED).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_run_on, bench_validate);
criterion_main!(benches);
