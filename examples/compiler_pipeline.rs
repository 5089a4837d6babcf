//! The full compiler story on one program, driven through the
//! instrumented pass driver (`lc-driver`): normalization, nest
//! perfection, interchange, coalescing with typed skip diagnostics, and
//! the per-pass trace with cache counters.
//!
//! ```text
//! cargo run --example compiler_pipeline
//! ```

use loop_coalescing::driver::{Driver, DriverOptions};
use loop_coalescing::xform::coalesce::CoalesceOptions;

fn main() {
    // ── 1. the default pipeline on a mixed program ──────────────────────
    //
    // Three top-level nests: a clean doall nest (coalesces), a column
    // recurrence (interchange moves the parallel level outward, but the
    // full band still carries, so it is skipped with a typed reason),
    // and a symbolic-bound nest (falls back to symbolic coalescing).
    let src = "
        array A[20][30];
        array R[16][16];
        array S[12][9];
        n = 12;
        m = 9;
        doall i = 1..20 {
            doall j = 1..30 {
                A[i][j] = i * j;
            }
        }
        for i = 2..16 {
            for j = 1..16 {
                R[i][j] = R[i - 1][j] + j;
            }
        }
        doall i = 1..n {
            doall j = 1..m {
                S[i][j] = i * 100 + j;
            }
        }
    ";
    let driver = Driver::default();
    let out = driver.compile(src).unwrap();

    println!("── transformed program ──────────────────────────────────");
    print!("{}", out.transformed_source);

    println!("\n── typed skip diagnostics ───────────────────────────────");
    for skip in &out.skipped {
        println!("nest {}: {}", skip.nest, skip);
    }

    // ── 2. per-pass observability ───────────────────────────────────────
    //
    // Every pass invocation is timed and recorded; analyses (extraction,
    // normalization, dependence testing) are cached per nest version, so
    // the counters show each one computed once for the nest as written
    // and once more after each structural rewrite (perfection,
    // interchange).
    println!("\n── pipeline trace ───────────────────────────────────────");
    print!("{}", out.trace.report());

    // The trace serializes without serde (hand-rolled JSON — the build
    // is fully offline) and round-trips:
    let json = out.trace.to_json_string();
    let back = loop_coalescing::driver::PipelineTrace::from_json_string(&json).unwrap();
    assert_eq!(back.cache, out.trace.cache);
    println!("\ntrace JSON: {} bytes, round-trips OK", json.len());

    // ── 3. facade-compatible mode ───────────────────────────────────────
    //
    // DriverOptions::facade_compat reproduces the seed `coalesce_source`
    // pipeline byte for byte: coalesce + validate only, no structural
    // enabling passes.
    let compat = Driver::new(DriverOptions::facade_compat(CoalesceOptions::default()))
        .compile(src)
        .unwrap();
    println!(
        "\nfacade-compat mode: {} coalesced, {} skipped (same as coalesce_source)",
        compat.coalesced.len(),
        compat.skipped.len()
    );

    // ── 4. parallel batch compilation ───────────────────────────────────
    //
    // The batch compiler is itself a self-scheduled loop — workers pull
    // the next program index from one shared atomic counter, the
    // software analogue of the paper's fetch&add dispatcher. Results
    // keep input order and match sequential compilation exactly.
    let programs: Vec<String> = (1..=64)
        .map(|k| {
            format!("array B[{k}][8]; doall i = 1..{k} {{ doall j = 1..8 {{ B[i][j] = i + j; }} }}")
        })
        .collect();
    let results = driver.compile_batch(&programs);
    let coalesced = results
        .iter()
        .filter(|r| r.result.as_ref().is_ok_and(|o| !o.coalesced.is_empty()))
        .count();
    let batch_nanos: u64 = results.iter().map(|r| r.nanos).sum();
    println!(
        "\nbatch: compiled {} programs in parallel, {} coalesced, {:.1}ms of worker time",
        results.len(),
        coalesced,
        batch_nanos as f64 / 1e6
    );
}
