//! The repository benchmark: drives a child `lc-serve` with a seeded
//! closed-loop workload, checks every answer against an in-process
//! compile, and reports end-to-end metrics (`--trace 0`) or per-layer
//! metrics from an in-process traced replay (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path lcbench/Cargo.toml -- \
//!     --workload batch-small|compile-kernels|serve-warm|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every answer matched and every workload
//! hygiene check held. See `README.md` next to this file.

mod calib;
mod check;
mod gen;
mod layers;
mod load;
mod server;
mod stats;

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use check::Reference;
use gen::{Op, Stream, Workload};
use load::{Answer, LoadResult, Sample};
use server::{Counters, Server};
use stats::{median, percentile, tail_supported};

/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Slices of the load window; throughput, latency and CPU per program
/// are medians over them, and the host is calibrated between them.
const SLICES: usize = 10;
/// Replays of the traced inputs; each per-layer span is the median.
const REPLAY_REPS: usize = 3;
/// Sources the post-load probes send (traced runs only).
const PROBE_SOURCES: usize = 16;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    /// Requests timed (a `/batch` request is one sample).
    latency_samples: usize,
    /// Hygiene and cross-check violations; any makes the run incorrect.
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of a duration sample in microseconds, 0 when empty.
fn median_us(v: &[Duration]) -> f64 {
    median(&v.iter().map(|d| us(*d)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Requests generated ahead of the load: roughly twice what today's
/// server answers in `seconds`, so generation stays out of the measured
/// loop; the stream extends itself past the pool if a faster server
/// needs more.
fn pool_size(w: Workload, seconds: f64) -> usize {
    let per_second = match w {
        Workload::BatchSmall => 350.0,
        Workload::CompileKernels => 600.0,
        Workload::ServeWarm => 24000.0,
    };
    (per_second * seconds).ceil() as usize
}

/// Per-answer verification tallies.
#[derive(Default)]
struct Verified {
    attempted: u64,
    failed: u64,
    /// Round trip minus the server-side compile, for `/compile` misses.
    miss_overheads: Vec<Duration>,
    hit_rtts: Vec<Duration>,
    analyze_rtts: Vec<Duration>,
    /// (coalesced, loop nests) over every compiled program answered.
    coalesced: (u64, u64),
    recovery: Vec<u64>,
    designed_hits: u64,
    unexpected_cache_outcomes: u64,
    first_error: Option<String>,
    /// Verdicts by (answer hash, source identity); for `/compile` the
    /// value is the envelope's `trace.total_nanos`.
    memo: HashMap<(u64, usize), Result<u64, String>>,
}

impl Verified {
    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    /// Check one answer against the references.
    fn add(
        &mut self,
        sample: &Sample,
        op: &Op,
        body: &[u8],
        refs: &HashMap<Arc<str>, Result<Reference, String>>,
    ) {
        let n = op.programs() as u64;
        self.attempted += n;
        let mut wants = Vec::with_capacity(op.sources().len());
        for s in op.sources() {
            match refs.get(s) {
                Some(Ok(r)) => wants.push(r),
                Some(Err(e)) => return self.fail(n, || format!("in-process compile failed: {e}")),
                None => return self.fail(n, || "no reference computed".to_string()),
            }
        }
        match sample.status {
            Some(200) => {}
            Some(code) => {
                return self.fail(n, || {
                    format!("HTTP {code}: {}", String::from_utf8_lossy(body))
                })
            }
            None => {
                return self.fail(n, || {
                    format!("exchange failed: {}", String::from_utf8_lossy(body))
                })
            }
        }
        match op {
            Op::Batch(_) => {
                if let Err((bad, why)) = check::check_batch(body, &wants) {
                    self.fail(bad as u64, || format!("/batch item: {why}"));
                }
            }
            Op::Compile { source, .. } | Op::Analyze(source) => {
                // Cache hits repeat byte-identical bodies: check each
                // distinct (answer, source) pair once.
                let key = (sample.body, Arc::as_ptr(source) as *const u8 as usize);
                let verdict = self
                    .memo
                    .entry(key)
                    .or_insert_with(|| match op {
                        Op::Analyze(_) => check::check_analyze(body, wants[0]).map(|()| 0),
                        _ => check::check_compile(body, wants[0]),
                    })
                    .clone();
                match (op, verdict) {
                    (_, Err(e)) => self.fail(1, || e),
                    (Op::Compile { expect_hit, .. }, Ok(total_nanos)) => {
                        if sample.cache_hit {
                            self.hit_rtts.push(sample.latency);
                        } else {
                            self.miss_overheads.push(
                                sample
                                    .latency
                                    .saturating_sub(Duration::from_nanos(total_nanos)),
                            );
                        }
                        if *expect_hit {
                            self.designed_hits += 1;
                        }
                        if sample.cache_hit != *expect_hit {
                            self.unexpected_cache_outcomes += 1;
                        }
                    }
                    (_, Ok(_)) => self.analyze_rtts.push(sample.latency),
                }
            }
        }
        if !matches!(op, Op::Analyze(_)) {
            for r in wants {
                self.coalesced.0 += r.coalesced as u64;
                self.coalesced.1 += r.loop_nests as u64;
                self.recovery.extend(&r.recovery_costs);
            }
        }
    }
}

/// `/compile` requests for `sources`, none expected to hit the cache.
fn compile_ops(sources: &[Arc<str>]) -> Vec<Op> {
    sources
        .iter()
        .map(|s| Op::Compile {
            source: s.clone(),
            expect_hit: false,
        })
        .collect()
}

/// Start the server `SETUP_REPS` times (sending `prime` after each
/// start), keep the last instance, and return it with every set-up time
/// in seconds, each scaled to the nominal host speed by a calibration
/// taken just before it, and the last priming answers.
fn set_up(
    bin: &Path,
    prime: &[Op],
    nproc: usize,
) -> std::io::Result<(Server, Vec<f64>, Vec<Answer>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let speed = calib::NOMINAL_MS / calib::measure();
        let start = Instant::now();
        let server = Server::start(bin, nproc)?;
        let primed = if prime.is_empty() {
            Vec::new()
        } else {
            load::send_all(server.addr, prime, nproc)
        };
        times.push(start.elapsed().as_secs_f64() * speed);
        if rep + 1 == SETUP_REPS {
            return Ok((server, times, primed));
        }
        server.stop()?;
    }
    unreachable!("SETUP_REPS is at least 1")
}

/// For traced runs: a `/compile` (a miss unless already cached), a
/// `/compile` hit, and an `/analyze` for each of the first
/// `PROBE_SOURCES` distinct programs sent.
fn probe_ops(sent: &[&Op]) -> Vec<Op> {
    let mut seen = HashSet::new();
    sent.iter()
        .flat_map(|op| op.sources())
        .filter(|s| seen.insert(Arc::clone(s)))
        .take(PROBE_SOURCES)
        .flat_map(|s| {
            [
                Op::Compile {
                    source: s.clone(),
                    expect_hit: false,
                },
                Op::Compile {
                    source: s.clone(),
                    expect_hit: true,
                },
                Op::Analyze(s.clone()),
            ]
        })
        .collect()
}

/// Check every answer of `answers` (sample + body, sample.op indexing
/// `ops`).
fn verify<'a>(
    answers: impl Iterator<Item = (&'a Sample, &'a [u8])>,
    ops: &[Op],
    refs: &HashMap<Arc<str>, Result<Reference, String>>,
) -> Verified {
    let mut v = Verified::default();
    for (sample, body) in answers {
        v.add(sample, &ops[sample.op], body, refs);
    }
    v
}

/// Per-slice throughput, latency percentiles and server CPU per program,
/// each scaled to the nominal host speed ([`calib::NOMINAL_MS`]).
struct Slices {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    cpu: Vec<f64>,
    /// Raw (unscaled) throughput, for the progress line.
    raw_rate: Vec<f64>,
}

/// Bin answers into the load's slices by arrival time. A slice's host
/// speed is read from the calibrations on either side of it.
fn slices(result: &LoadResult, ops: &[Op], report: &mut Report) -> Slices {
    let n = result.windows.len();
    let mut per_slice = vec![(0u64, Vec::new()); n];
    for sample in &result.samples {
        let k = result
            .windows
            .iter()
            .position(|w| sample.done <= w.to)
            .unwrap_or(n - 1);
        per_slice[k].0 += ops[sample.op].programs() as u64;
        per_slice[k].1.push(ms(sample.latency));
    }
    let mut out = Slices {
        rate: vec![],
        p50: vec![],
        p95: vec![],
        cpu: vec![],
        raw_rate: vec![],
    };
    for (k, (programs, lat)) in per_slice.iter_mut().enumerate() {
        lat.sort_by(f64::total_cmp);
        report.require(tail_supported(lat.len(), 95), || {
            format!("slice {k}: {} requests cannot support a p95", lat.len())
        });
        // Above 1 when the host ran faster than nominal.
        let speed = calib::NOMINAL_MS / ((result.calib_ms[k] + result.calib_ms[k + 1]) / 2.0);
        let w = result.windows[k];
        let programs = (*programs).max(1) as f64;
        let rate = programs / (w.to - w.from).as_secs_f64();
        out.raw_rate.push(rate);
        out.rate.push(rate / speed);
        out.p50.push(percentile(lat, 50).unwrap_or(0.0) * speed);
        out.p95.push(percentile(lat, 95).unwrap_or(0.0) * speed);
        out.cpu.push(w.cpu_s * 1e3 / programs * speed);
    }
    out
}

/// Workload hygiene, from `/metrics` deltas over the measured window.
fn check_hygiene(
    report: &mut Report,
    w: Workload,
    sent: &[&Op],
    v: &Verified,
    d: &dyn Fn(&str) -> u64,
) {
    let hits = d("lc_cache_hits_total");
    report.require(d("lc_jobs_panicked_total") == 0, || {
        "a compile job panicked".into()
    });
    report.require(d("lc_responses_5xx_total") == 0, || {
        "the server answered 5xx".into()
    });
    match w {
        Workload::BatchSmall | Workload::CompileKernels => {
            let programs: Vec<&Arc<str>> = sent.iter().flat_map(|op| op.sources()).collect();
            let unique: HashSet<&Arc<str>> = programs.iter().copied().collect();
            report.require(unique.len() == programs.len(), || {
                format!("{} repeated inputs", programs.len() - unique.len())
            });
            report.require(hits == 0, || format!("cold workload saw {hits} cache hits"));
        }
        Workload::ServeWarm => {
            // Misses evict least-recently-used entries per shard, so a hot
            // corpus entry in a crowded shard can very rarely be evicted
            // between two of its hits: allow 1 in 1000 designed hits to
            // miss. A designed miss can never hit (its source is unique).
            let slack = v.designed_hits / 1000;
            report.require(
                hits <= v.designed_hits
                    && v.designed_hits - hits <= slack
                    && v.unexpected_cache_outcomes <= slack,
                || {
                    format!(
                        "{hits} cache hits, {} designed, {} unexpected outcomes",
                        v.designed_hits, v.unexpected_cache_outcomes
                    )
                },
            );
            let share = hits as f64 / d("lc_compile_requests_total").max(1) as f64;
            report.require(share >= 0.9, || format!("cache-hit share {share:.3} < 0.9"));
        }
    }
}

/// The inputs the traced replay compiles: the first 8 batches of
/// `batch-small`, the first 12 kernels, the corpus plus 8 misses of
/// `serve-warm`.
fn replay_sources(w: Workload, ops: &[Op], corpus: &[Arc<str>]) -> Vec<Arc<str>> {
    let first = |n: usize, keep: &dyn Fn(&Op) -> bool| -> Vec<Arc<str>> {
        ops.iter()
            .filter(|o| keep(o))
            .take(n)
            .flat_map(|o| o.sources().to_vec())
            .collect()
    };
    match w {
        Workload::BatchSmall => first(8, &|_| true),
        Workload::CompileKernels => first(12, &|_| true),
        Workload::ServeWarm => {
            let misses = first(8, &|o| {
                matches!(
                    o,
                    Op::Compile {
                        expect_hit: false,
                        ..
                    }
                )
            });
            corpus.iter().cloned().chain(misses).collect()
        }
    }
}

/// Per-layer metrics of the in-process replay, with its cross-checks.
fn replay_layers(report: &mut Report, w: Workload, sources: &[Arc<str>]) {
    let sources: Vec<&str> = sources.iter().map(|s| &**s).collect();
    let layers = layers::replay(&sources, REPLAY_REPS);
    for e in &layers.errors {
        report.problems.push(format!("replay: {e}"));
    }
    let ratio = layers
        .metrics
        .iter()
        .find(|m| m.0 == "driver.trace.span_ratio")
        .map_or(0.0, |m| m.1);
    let (lo, hi) = layers::SPAN_RATIO_TOLERANCE;
    report.require((lo..=hi).contains(&ratio), || {
        format!("replay spans / PipelineTrace events = {ratio:.3}, outside {lo}..{hi}")
    });
    if w == Workload::BatchSmall {
        // The mix exists to make every pass and the skip paths act.
        for (pass, applied) in [
            ("normalize", true),
            ("perfect", true),
            ("interchange", true),
            ("coalesce", false),
        ] {
            let (a, s) = layers.outcomes.get(pass).copied().unwrap_or_default();
            report.require(if applied { a > 0 } else { s > 0 }, || {
                let what = if applied { "applied" } else { "skipped" };
                format!("no {what} {pass} in the replay")
            });
        }
    }
    for (name, value, unit) in layers.metrics {
        report.push(name, value, unit);
    }
}

fn run_workload(bin: &Path, w: Workload, args: &Args) -> std::io::Result<Report> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::default();

    let t_gen = Instant::now();
    let stream = Stream::new(w, args.seed, pool_size(w, args.seconds));
    let again = gen::Inputs::new(w, args.seed).take(64);
    report.require(
        gen::digest(&again) == gen::digest(&stream.ops()[..64.min(stream.ops().len())]),
        || "equal seeds generated different inputs".to_string(),
    );
    let corpus: Vec<Arc<str>> = stream.corpus().to_vec();
    let stream = Mutex::new(stream);
    let gen_s = t_gen.elapsed().as_secs_f64();

    // Set-up (priming the cache on `serve-warm`), then the measured loop.
    let prime = match w {
        Workload::ServeWarm => compile_ops(&corpus),
        _ => Vec::new(),
    };
    let (server, setup_times, primed) = set_up(bin, &prime, nproc)?;
    let pid = server.pid();
    let before: Counters = server.metrics()?;
    let result = load::closed_loop(
        server.addr,
        &stream,
        w.clients(nproc),
        (
            SLICES,
            Duration::from_secs_f64(args.seconds / SLICES as f64),
        ),
        args.trace,
        pid,
    );
    let after = server.metrics()?;
    let rss_mb = stats::peak_rss_mb(pid)?;
    let ops: Vec<Op> = stream
        .into_inner()
        .expect("stream lock poisoned")
        .ops()
        .to_vec();
    let sent: Vec<&Op> = result.samples.iter().map(|s| &ops[s.op]).collect();

    // Traced runs probe the idle server afterwards, outside the hygiene
    // window, for the service spans a workload's own mix does not send.
    let probe = if args.trace {
        probe_ops(&sent)
    } else {
        Vec::new()
    };
    let probes: Vec<Answer> = probe
        .iter()
        .enumerate()
        .map(|(i, op)| load::send(server.addr, i, op, Instant::now()))
        .collect();
    server.stop()?;

    // References for every distinct source answered, computed in-process.
    let mut seen = HashSet::new();
    let distinct: Vec<Arc<str>> = sent
        .iter()
        .flat_map(|op| op.sources())
        .chain(&corpus)
        .chain(probe.iter().flat_map(|op| op.sources()))
        .filter(|s| seen.insert(Arc::clone(s)))
        .cloned()
        .collect();
    let t_refs = Instant::now();
    let refs = check::references(&distinct, nproc);
    let refs_s = t_refs.elapsed().as_secs_f64();

    let body = |sample: &Sample| -> &[u8] {
        result
            .bodies
            .get(&sample.body)
            .map_or(&[][..], Vec::as_slice)
    };
    let v = verify(result.samples.iter().map(|s| (s, body(s))), &ops, &refs);
    report.attempted = v.attempted;
    report.failed = v.failed;
    if let Some(e) = &v.first_error {
        report.problems.push(format!("first failed op: {e}"));
    }
    let pv = verify(primed.iter().map(|(s, b)| (s, &b[..])), &prime, &refs);
    report.require(pv.failed == 0 && pv.unexpected_cache_outcomes == 0, || {
        format!("priming failed: {:?}", pv.first_error)
    });
    let d = |name: &str| after.delta(&before, name);
    check_hygiene(&mut report, w, &sent, &v, &d);

    let sl = slices(&result, &ops, &mut report);
    eprintln!(
        "{}: {} requests, {} programs; generated {} requests in {gen_s:.2} s, references in \
         {refs_s:.2} s; per-slice programs/s {:.0?}, calibration ms {:.3?}",
        w.name(),
        result.samples.len(),
        v.attempted,
        ops.len(),
        sl.raw_rate,
        result.calib_ms,
    );
    report.latency_samples = result.samples.len();

    if !args.trace {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        report.push("setup_s", med(&setup_times), "s");
        report.push("ops_per_s", med(&sl.rate), "1/s");
        report.push("latency_p50_ms", med(&sl.p50), "ms");
        report.push("latency_p95_ms", med(&sl.p95), "ms");
        report.push("cpu_ms_per_op", med(&sl.cpu), "ms");
        report.push("peak_rss_mb", rss_mb, "MB");
        report.push(
            "coalesced_frac",
            v.coalesced.0 as f64 / v.coalesced.1.max(1) as f64,
            "ratio",
        );
        report.push(
            "recovery_ops_per_iter",
            v.recovery.iter().sum::<u64>() as f64 / v.recovery.len().max(1) as f64,
            "ops",
        );
        return Ok(report);
    }

    // Traced run: service spans from the load, else from the probes.
    let pr = verify(probes.iter().map(|(s, b)| (s, &b[..])), &probe, &refs);
    report.require(pr.failed == 0, || {
        format!("probe failed: {:?}", pr.first_error)
    });
    let io_rtt = median_us(&result.healthz);
    let or_probe = |load: &[Duration], probe: &[Duration]| {
        median_us(if load.is_empty() { probe } else { load })
    };
    let hits = d("lc_cache_hits_total");
    let lookups = hits + d("lc_cache_misses_total");
    let count = |name: &str| d(name) as f64;
    report.push("service.io.rtt_us", io_rtt, "us");
    report.push(
        "service.cache.hit_rtt_us",
        or_probe(&v.hit_rtts, &pr.hit_rtts),
        "us",
    );
    report.push(
        "service.cache.hit_frac",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    report.push(
        "service.cache.evictions",
        count("lc_cache_evictions_total"),
        "count",
    );
    report.push(
        "service.queue.wait_us",
        or_probe(&v.miss_overheads, &pr.miss_overheads) - io_rtt,
        "us",
    );
    report.push(
        "service.queue.rejected",
        count("lc_jobs_rejected_total"),
        "count",
    );
    report.push(
        "service.queue.expired",
        count("lc_jobs_expired_total"),
        "count",
    );
    report.push(
        "service.analyze.rtt_us",
        or_probe(&v.analyze_rtts, &pr.analyze_rtts),
        "us",
    );
    replay_layers(&mut report, w, &replay_sources(w, &ops, &corpus));
    Ok(report)
}

/// Render a float as JSON (finite values only; others become `null`).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lc-perfbench: {e}");
            eprintln!(
                "usage: lc-perfbench --workload <batch-small|compile-kernels|serve-warm|all> \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let bin = match server::build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lc-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let single = args.workloads.len() == 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        let report = match run_workload(&bin, w, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("lc-perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        for p in &report.problems {
            eprintln!("lc-perfbench: {}: {p}", w.name());
        }
        println!(
            "{} failed_frac {} ({} of {} ops); {} latency samples",
            w.name(),
            report.failed as f64 / report.attempted.max(1) as f64,
            report.failed,
            report.attempted,
            report.latency_samples,
        );
        for m in &report.metrics {
            println!("{} {} {} {}", w.name(), m.name, num(m.value), m.unit);
        }
        attempted += report.attempted;
        failed += report.failed;
        correct &= report.failed == 0 && report.problems.is_empty();
        for m in report.metrics {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", w.name(), m.name)
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
