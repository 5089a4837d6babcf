//! Driver overhead and batch-compilation throughput: the full
//! instrumented pipeline on a single program, the facade-compatible
//! configuration, and `compile_batch` at increasing batch sizes — plus
//! the serving codec: parsing a `/batch` request body and writing a
//! `/compile` envelope.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lc_driver::json::Json;
use lc_driver::{Driver, DriverOptions};
use lc_service::corpus::corpus72;
use lc_service::server::compile_envelope;
use lc_xform::coalesce::CoalesceOptions;

const QUICKSTART: &str = "
    array A[100][50];
    doall i = 1..100 {
        doall j = 1..50 {
            A[i][j] = i * j;
        }
    }
";

fn batch_sources(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| {
            let rows = 4 + (k % 13);
            format!(
                "array B[{rows}][8]; doall i = 1..{rows} {{ doall j = 1..8 {{ B[i][j] = i + j; }} }}"
            )
        })
        .collect()
}

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("driver");
    group.sample_size(20);

    let full = Driver::default();
    group.bench_function("compile/full-pipeline", |b| {
        b.iter(|| full.compile(black_box(QUICKSTART)).unwrap())
    });

    let compat = Driver::new(DriverOptions::facade_compat(CoalesceOptions::default()));
    group.bench_function("compile/facade-compat", |b| {
        b.iter(|| compat.compile(black_box(QUICKSTART)).unwrap())
    });

    let fast = Driver::new(DriverOptions {
        validate: false,
        ..Default::default()
    });
    group.bench_function("compile/no-validate", |b| {
        b.iter(|| fast.compile(black_box(QUICKSTART)).unwrap())
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("driver_batch");
    group.sample_size(10);
    let driver = Driver::new(DriverOptions {
        validate: false,
        ..Default::default()
    });
    for n in [16usize, 64, 256] {
        let sources = batch_sources(n);
        group.bench_with_input(BenchmarkId::new("parallel", n), &sources, |b, s| {
            b.iter(|| driver.compile_batch(black_box(s)))
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &sources, |b, s| {
            b.iter(|| {
                s.iter()
                    .map(|src| driver.compile(black_box(src)))
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

/// The server's codec on its own: the parse of a 32-program `/batch`
/// request body, and the byte writer rendering the quickstart nest's
/// `/compile` envelope.
fn bench_json(c: &mut Criterion) {
    let mut group = c.benchmark_group("json");
    group.sample_size(100);

    let sources = corpus72().into_iter().take(32).map(Json::Str).collect();
    let body = Json::obj(vec![("sources", Json::Arr(sources))]).to_string();
    group.bench_with_input(
        BenchmarkId::new("parse/batch-body-bytes", body.len()),
        &body,
        |b, body| b.iter(|| Json::parse(black_box(body)).unwrap()),
    );

    let out = Driver::default().compile(QUICKSTART).unwrap();
    group.bench_function("render/compile-envelope", |b| {
        b.iter(|| compile_envelope(black_box(&out)))
    });
    group.finish();
}

criterion_group!(benches, bench_compile, bench_batch, bench_json);
criterion_main!(benches);
