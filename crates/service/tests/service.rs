//! End-to-end tests over a real loopback socket: cold-compile parity
//! with the facade, cache hits observable in `/metrics`, 429 load
//! shedding, deadline expiry, graceful drain, queue wait, and the
//! connection-thread paths that must keep answering under compile
//! saturation — plus the load generator run in-process.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lc_driver::json::Json;
use lc_driver::trace::finding_to_json;
use lc_driver::{Driver, DriverOptions};
use lc_service::client::{self, ClientError};
use lc_service::corpus::corpus72;
use lc_service::http::Response;
use lc_service::loadgen::{run as loadgen_run, LoadTarget, LoadgenConfig};
use lc_service::metrics::scrape_counter;
use lc_service::server::compile_envelope;
use lc_service::{Server, ServiceConfig};
use lc_xform::coalesce::CoalesceOptions;

const TIMEOUT: Duration = Duration::from_secs(30);

const PROGRAM: &str = "array A[6][4];
doall i = 1..6 {
    doall j = 1..4 {
        A[i][j] = i * j;
    }
}";

/// A server in the facade-compatible configuration (what
/// `loop_coalescing::coalesce_source` runs).
fn facade_server(config: impl FnOnce(&mut ServiceConfig)) -> Server {
    let mut cfg = ServiceConfig {
        driver: DriverOptions::facade_compat(CoalesceOptions::default()),
        workers: 2,
        ..ServiceConfig::default()
    };
    config(&mut cfg);
    Server::start(cfg, "127.0.0.1:0").expect("bind loopback")
}

fn metrics_text(server: &Server) -> String {
    client::get(server.addr(), "/metrics", TIMEOUT)
        .expect("GET /metrics")
        .body_text()
}

/// Poll `/metrics` until exactly `n` jobs were enqueued and the queue
/// holds `depth` of them (the rest were popped by a worker).
fn wait_for_queue(server: &Server, n: u64, depth: u64) {
    let give_up = Instant::now() + TIMEOUT;
    loop {
        let text = metrics_text(server);
        if scrape_counter(&text, "lc_jobs_enqueued_total") == Some(n)
            && scrape_counter(&text, "lc_queue_depth") == Some(depth)
        {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "timed out waiting for {n} jobs, {depth} queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `PROGRAM` with a different constant: a distinct cache key.
fn unique_program(k: usize) -> String {
    PROGRAM.replace("i * j", &format!("i * j + {k}"))
}

/// `POST /compile` of `unique_program(k)` on a thread of its own; joins
/// to the response status.
fn post_unique_in_background(addr: SocketAddr, k: usize) -> JoinHandle<u16> {
    std::thread::spawn(move || {
        client::post(addr, "/compile", unique_program(k).as_bytes(), TIMEOUT)
            .unwrap()
            .status
    })
}

#[test]
fn cold_compile_matches_the_facade_byte_for_byte() {
    let server = facade_server(|_| {});
    let resp = client::post(server.addr(), "/compile", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    assert_eq!(resp.header("x-cache"), Some("miss"));

    let body = Json::parse(&resp.body_text()).expect("response is valid JSON");
    assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
    let served = body.str_field("source").unwrap();

    let facade = loop_coalescing::coalesce_source(PROGRAM).unwrap();
    assert_eq!(
        served, facade.transformed_source,
        "served source must be byte-identical to coalesce_source"
    );
    assert!(body.get("trace").is_some(), "trace must ride along");
    server.shutdown();
}

#[test]
fn repeat_requests_hit_the_cache_and_bodies_are_identical() {
    let server = facade_server(|_| {});
    let cold = client::post(server.addr(), "/compile", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-cache"), Some("miss"));

    let warm = client::post(server.addr(), "/compile", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "hit must be byte-identical to miss");

    let text = metrics_text(&server);
    assert_eq!(scrape_counter(&text, "lc_cache_hits_total"), Some(1));
    assert_eq!(scrape_counter(&text, "lc_cache_misses_total"), Some(1));
    assert_eq!(scrape_counter(&text, "lc_cache_insertions_total"), Some(1));
    assert_eq!(scrape_counter(&text, "lc_cache_entries"), Some(1));
    // Only the miss consumed a worker.
    assert_eq!(scrape_counter(&text, "lc_jobs_enqueued_total"), Some(1));
    assert_eq!(scrape_counter(&text, "lc_jobs_completed_total"), Some(1));
    server.shutdown();
}

/// The final `validate` step settles a clean coalesced program with the
/// shadowed forward run alone; a program that also holds a (benign,
/// same-value) racing `doall` needs the reverse and shuffled runs. The
/// counters are process-wide and other tests compile concurrently, so
/// only growth is asserted.
#[test]
fn metrics_split_validations_between_shadow_and_fallback() {
    let server = facade_server(|_| {});
    let counts = || {
        let text = metrics_text(&server);
        let get = |name| scrape_counter(&text, name).expect(name);
        (
            get("lc_validate_shadow_settled_total"),
            get("lc_validate_fallback_total"),
        )
    };
    let compile = |src: &str| {
        let r = client::post(server.addr(), "/compile", src.as_bytes(), TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{}", r.body_text());
    };
    let (settled, _) = counts();
    compile(&unique_program(9001));
    assert!(
        counts().0 > settled,
        "a clean program is settled by the shadow run"
    );

    let (_, fallbacks) = counts();
    compile(&format!(
        "array F[1];\n{}\ndoall k = 1..4 {{ F[1] = 7; }}",
        unique_program(9002)
    ));
    assert!(counts().1 > fallbacks, "a racing doall takes the fallback");
    server.shutdown();
}

#[test]
fn distinct_sources_are_distinct_cache_keys() {
    let server = facade_server(|_| {});
    let other = PROGRAM.replace("i * j", "i + j");
    let a = client::post(server.addr(), "/compile", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    let b = client::post(server.addr(), "/compile", other.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(a.header("x-cache"), Some("miss"));
    assert_eq!(b.header("x-cache"), Some("miss"));
    assert_ne!(a.body, b.body);
    server.shutdown();
}

#[test]
fn full_queue_sheds_load_with_429() {
    // One slow worker, one queue slot: the first request occupies the
    // worker, the second fills the queue, the third must be shed.
    let server = facade_server(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        cfg.synthetic_delay = Some(Duration::from_millis(400));
    });
    let addr = server.addr();
    let sources: Vec<String> = (0..6).map(unique_program).collect();
    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter()
            .map(|src| {
                scope.spawn(move || {
                    client::post(addr, "/compile", src.as_bytes(), TIMEOUT)
                        .map(|r| r.status)
                        .unwrap_or(0)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed = statuses.iter().filter(|&&s| s == 429).count();
    let ok = statuses.iter().filter(|&&s| s == 200).count();
    assert!(
        shed >= 1,
        "6 concurrent requests against 1 worker + 1 slot must shed, got {statuses:?}"
    );
    assert!(
        ok >= 1,
        "some requests must still succeed, got {statuses:?}"
    );

    let text = metrics_text(&server);
    assert_eq!(
        scrape_counter(&text, "lc_jobs_rejected_total"),
        Some(shed as u64)
    );
    server.shutdown();
}

#[test]
fn queued_past_deadline_is_answered_503_without_compiling() {
    let server = facade_server(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        cfg.synthetic_delay = Some(Duration::from_millis(300));
    });
    let addr = server.addr();
    // Occupy the single worker...
    let warm = std::thread::spawn(move || {
        client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT).map(|r| r.status)
    });
    std::thread::sleep(Duration::from_millis(50));
    // ...then submit a job that can only be reached after ~300ms but
    // allows 1ms: by the time the worker pops it, it has expired.
    let late = client::request(
        addr,
        "POST",
        "/compile",
        &[("x-deadline-ms", "1")],
        PROGRAM.replace("i * j", "i - j").as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(late.status, 503, "body: {}", late.body_text());
    assert_eq!(warm.join().unwrap().unwrap(), 200);

    let text = metrics_text(&server);
    assert_eq!(scrape_counter(&text, "lc_jobs_expired_total"), Some(1));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = facade_server(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        cfg.synthetic_delay = Some(Duration::from_millis(300));
    });
    let addr = server.addr();
    // A slow request that will still be queued/compiling when the drain
    // begins...
    let in_flight = std::thread::spawn(move || {
        client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT).map(|r| r.status)
    });
    std::thread::sleep(Duration::from_millis(50));
    // ...drain...
    let bye = client::post(addr, "/shutdown", b"", TIMEOUT).unwrap();
    assert_eq!(bye.status, 200);
    // ...the in-flight request still completes with its real answer.
    assert_eq!(in_flight.join().unwrap().unwrap(), 200);
    // New work is refused (connect may also fail once the acceptor is
    // gone; both count as refusal).
    if let Ok(resp) = client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT) {
        assert_eq!(resp.status, 503, "draining server must refuse new work");
    }
    server.join();
}

#[test]
fn batch_reports_per_item_results_and_wall_times() {
    let server = facade_server(|_| {});
    let good = PROGRAM.replace('\n', " ");
    let bad = "this is not a program";
    let body = Json::obj(vec![(
        "sources",
        Json::Arr(vec![
            Json::Str(good.clone()),
            Json::Str(bad.to_string()),
            Json::Str(good),
        ]),
    )])
    .to_string();
    let resp = client::post(server.addr(), "/batch", body.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let v = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(v.int_field("succeeded").unwrap(), 2);
    assert_eq!(v.int_field("failed").unwrap(), 1);
    let items = v.get("items").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), 3);
    assert_eq!(items[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(items[1].get("ok"), Some(&Json::Bool(false)));
    assert!(items[1].str_field("error").is_ok());
    for item in items {
        assert!(
            item.int_field("nanos").unwrap() >= 1,
            "every item reports its wall time"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_typed_statuses() {
    let server = facade_server(|cfg| {
        cfg.max_body_bytes = 512;
    });
    let addr = server.addr();

    let health = client::get(addr, "/healthz", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        Json::parse(&health.body_text()).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );

    assert_eq!(client::get(addr, "/nope", TIMEOUT).unwrap().status, 404);
    assert_eq!(client::get(addr, "/compile", TIMEOUT).unwrap().status, 405);
    assert_eq!(
        client::post(addr, "/metrics", b"", TIMEOUT).unwrap().status,
        405
    );

    // Not-a-program source: a typed 422, not a hung worker.
    let resp = client::post(addr, "/compile", b"zzz not a program", TIMEOUT).unwrap();
    assert_eq!(resp.status, 422);
    assert!(Json::parse(&resp.body_text())
        .unwrap()
        .str_field("error")
        .is_ok());

    // Empty body.
    assert_eq!(
        client::post(addr, "/compile", b"", TIMEOUT).unwrap().status,
        422
    );

    // A multi-byte character is a parse error, on both endpoints.
    for path in ["/compile", "/analyze"] {
        let resp = client::post(addr, path, "x = 1; €".as_bytes(), TIMEOUT).unwrap();
        assert_eq!(resp.status, 422, "{path}: {}", resp.body_text());
        assert!(resp.body_text().contains('€'), "{}", resp.body_text());
    }

    // Bad deadline header.
    let resp = client::request(
        addr,
        "POST",
        "/compile",
        &[("x-deadline-ms", "soon")],
        PROGRAM.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.status, 400);

    // Oversized body → 413 before compiling anything.
    let big = vec![b'x'; 4096];
    let resp = client::post(addr, "/compile", &big, TIMEOUT).unwrap();
    assert_eq!(resp.status, 413);

    // Bad batch bodies.
    assert_eq!(
        client::post(addr, "/batch", b"not json", TIMEOUT)
            .unwrap()
            .status,
        400
    );
    assert_eq!(
        client::post(addr, "/batch", b"{\"sources\":[]}", TIMEOUT)
            .unwrap()
            .status,
        422
    );
    server.shutdown();
}

#[test]
fn analyze_reports_lint_findings_without_compiling() {
    // Default config: all lints at `warn`, so findings are reported but
    // nothing is denied.
    let server = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    let racy = "array A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1];\n}\n";

    let resp = client::post(addr, "/analyze", racy.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let v = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(v.int_field("denied").unwrap(), 0);
    let findings = v.get("findings").and_then(Json::as_arr).unwrap();
    let race = findings
        .iter()
        .find(|f| f.str_field("code") == Ok("LC001"))
        .expect("racy doall must trigger LC001");
    assert_eq!(race.str_field("severity"), Ok("warn"));
    assert!(
        race.str_field("message").unwrap().contains("dependence"),
        "finding carries a human-readable explanation"
    );

    // A clean program comes back with an empty findings array.
    let clean = client::post(addr, "/analyze", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(clean.status, 200);
    let v = Json::parse(&clean.body_text()).unwrap();
    assert_eq!(v.get("findings"), Some(&Json::Arr(Vec::new())));

    // Typed errors: garbage and empty bodies are 422, GET is 405.
    assert_eq!(
        client::post(addr, "/analyze", b"zzz not a program", TIMEOUT)
            .unwrap()
            .status,
        422
    );
    assert_eq!(
        client::post(addr, "/analyze", b"", TIMEOUT).unwrap().status,
        422
    );
    assert_eq!(client::get(addr, "/analyze", TIMEOUT).unwrap().status, 405);

    let text = metrics_text(&server);
    assert_eq!(scrape_counter(&text, "lc_analyze_requests_total"), Some(4));
    assert!(scrape_counter(&text, "lc_lint_findings_total").unwrap() >= 1);
    assert_eq!(scrape_counter(&text, "lc_lint_denied_total"), Some(0));
    server.shutdown();
}

#[test]
fn compile_envelope_carries_warned_lints_without_blocking() {
    // Default config again: the analyze stage runs in the pipeline and
    // warned findings ride along in the `/compile` envelope.
    let server = Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("bind loopback");
    let racy = "array A[8];\ndoall i = 2..8 {\n    A[i] = A[i - 1];\n}\n";
    let resp = client::post(server.addr(), "/compile", racy.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body_text());
    let v = Json::parse(&resp.body_text()).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    let lints = v.get("lints").and_then(Json::as_arr).unwrap();
    assert!(
        lints.iter().any(|f| f.str_field("code") == Ok("LC001")),
        "warned LC001 must appear in the compile envelope"
    );
    // The coalescer still skips the nest for its own legality reason
    // (carried dependence) — but a warn-level lint must never be the
    // thing that vetoed it.
    let skipped = v.get("skipped").and_then(Json::as_arr).unwrap();
    assert!(
        skipped
            .iter()
            .all(|s| s.get("reason").unwrap().str_field("kind") != Ok("lint-denied")),
        "a warn-level finding must not veto the nest: {skipped:?}"
    );
    server.shutdown();
}

#[test]
fn loadgen_runs_the_corpus_and_reports_quantiles() {
    let server = facade_server(|cfg| {
        cfg.workers = 4;
        cfg.cache_capacity = 128;
    });
    let corpus = corpus72();
    let report = loadgen_run(
        server.addr(),
        &corpus,
        &LoadgenConfig {
            concurrency: 4,
            rounds: 2,
            timeout: TIMEOUT,
            target: LoadTarget::Compile,
        },
    );
    assert_eq!(report.requests, 144);
    assert_eq!(report.ok_200, 144, "default queue must absorb this load");
    // Round two is served from the cache. In principle a round-1/round-2
    // request pair for the same program can race (both miss), so allow
    // slack below the ideal 72 — but the bulk must be hits.
    assert!(
        report.cache_hits_observed >= 36,
        "expected most of round two to hit the cache, got {} hits",
        report.cache_hits_observed
    );
    assert!(report.throughput_milli_rps > 0);
    assert!(report.p50_micros > 0);
    assert!(report.p50_micros <= report.p95_micros);
    assert!(report.p95_micros <= report.p99_micros);
    assert!(report.p99_micros <= report.max_micros);

    // The report is the BENCH_service.json payload: valid JSON with the
    // contract fields.
    let v = report.to_json();
    let parsed = Json::parse(&v.to_string()).unwrap();
    for field in [
        "throughput_milli_rps",
        "p50_micros",
        "p95_micros",
        "p99_micros",
    ] {
        assert!(parsed.get(field).is_some(), "missing {field}");
    }

    // Server-side counters line up with what the clients saw.
    let text = metrics_text(&server);
    let hits = scrape_counter(&text, "lc_cache_hits_total").unwrap();
    assert_eq!(hits, report.cache_hits_observed);
    assert_eq!(
        scrape_counter(&text, "lc_compile_requests_total"),
        Some(144)
    );
    server.shutdown();
}

/// Zero every `nanos` / `total_nanos` field so envelopes from different
/// runs are comparable; everything else must stay byte-identical.
fn normalize_envelope(v: &mut Json) {
    match v {
        Json::Arr(items) => items.iter_mut().for_each(normalize_envelope),
        Json::Obj(pairs) => {
            for (key, val) in pairs.iter_mut() {
                if key == "nanos" || key == "total_nanos" {
                    *val = Json::Int(0);
                } else {
                    normalize_envelope(val);
                }
            }
        }
        _ => {}
    }
}

/// Regression pin for the transformation-layer refactor: the `/compile`
/// envelope (coalesced source, skip diagnostics, and the full trace —
/// timings normalized) must remain byte-identical to the pre-refactor
/// facade output for the whole 72-program corpus. Regenerate the golden
/// fixture with `UPDATE_FIXTURE=1 cargo test -p lc-service` only when
/// an intentional output change is being made.
#[test]
fn compile_envelopes_match_the_pre_refactor_fixture() {
    const FIXTURE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/envelope72.jsonl"
    );
    let server = facade_server(|cfg| cfg.workers = 4);
    let mut lines = Vec::new();
    for (k, src) in corpus72().iter().enumerate() {
        let resp = client::post(server.addr(), "/compile", src.as_bytes(), TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "program {k}: {}", resp.body_text());
        let mut body = Json::parse(&resp.body_text()).expect("envelope is valid JSON");
        normalize_envelope(&mut body);
        lines.push(body.to_string());
    }
    server.shutdown();

    let got = lines.join("\n") + "\n";
    if std::env::var_os("UPDATE_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("golden fixture missing; regenerate with UPDATE_FIXTURE=1");
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g, w,
            "envelope for corpus program {k} diverged from the pre-refactor fixture"
        );
    }
    assert_eq!(got, want, "envelope line count diverged from the fixture");
}

/// Regression test for the quadratic `/batch` parse: a 1 MiB body used
/// to take about 23 s (every string character re-validated the rest of
/// the document as UTF-8), past the default deadline. A linear parse
/// answers within the client timeout.
#[test]
fn megabyte_batch_body_is_parsed_in_linear_time() {
    let server = facade_server(|cfg| cfg.max_body_bytes = 2 * 1024 * 1024);
    let body = format!("{{\"sources\":[\"{}\",1]}}", "a".repeat(1024 * 1024));
    let resp = client::post(
        server.addr(),
        "/batch",
        body.as_bytes(),
        Duration::from_secs(5),
    )
    .expect("answer within the client timeout");
    assert_eq!(resp.status, 422, "body: {}", resp.body_text());
    assert_eq!(
        Json::parse(&resp.body_text()).unwrap().str_field("error"),
        Ok("every source must be a string")
    );
    server.shutdown();
}

/// The server writes `/compile` envelopes with the byte writer; the
/// fixture test above parses and re-renders them, so it cannot see
/// formatting drift between the writer and the `Json` tree. Pin the raw
/// bytes against the tree built from each type's `to_json()` instead,
/// for every corpus program under the fixture's configuration and the
/// default one (which also runs the lints).
#[test]
fn compile_envelope_bytes_equal_the_json_tree_rendering() {
    let drivers = [
        Driver::new(DriverOptions::facade_compat(CoalesceOptions::default())),
        Driver::default(),
    ];
    for driver in &drivers {
        for (k, src) in corpus72().iter().enumerate() {
            let out = driver.compile(src).unwrap();
            let tree = Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("source", Json::Str(out.transformed_source.clone())),
                ("coalesced_nests", Json::Int(out.coalesced.len() as i64)),
                (
                    "skipped",
                    Json::Arr(out.skipped.iter().map(|s| s.to_json()).collect()),
                ),
                (
                    "lints",
                    Json::Arr(out.lints.iter().map(finding_to_json).collect()),
                ),
                ("trace", out.trace.to_json()),
            ]);
            assert_eq!(
                String::from_utf8(compile_envelope(&out)).unwrap(),
                tree.to_string(),
                "corpus program {k}"
            );
        }
    }
}

/// The queue-wait histogram measures `try_push` to `pop` on the server.
/// With one worker sleeping `DELAY` per job, the last of two jobs queued
/// behind a busy worker waits about twice the delay.
#[test]
fn queue_wait_is_measured_from_push_to_pop() {
    const DELAY: Duration = Duration::from_millis(300);
    let server = facade_server(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 8;
        cfg.synthetic_delay = Some(DELAY);
    });
    let addr = server.addr();
    let busy = post_unique_in_background(addr, 0);
    wait_for_queue(&server, 1, 0);
    let queued = [
        post_unique_in_background(addr, 1),
        post_unique_in_background(addr, 2),
    ];
    wait_for_queue(&server, 3, 2);
    for h in std::iter::once(busy).chain(queued) {
        assert_eq!(h.join().unwrap(), 200);
    }
    let text = metrics_text(&server);
    assert_eq!(scrape_counter(&text, "lc_queue_wait_count"), Some(3));
    let delay_us = DELAY.as_micros() as u64;
    assert!(scrape_counter(&text, "lc_queue_wait_sum_micros").unwrap() >= delay_us);
    // With three observations p99 is the largest, rounded up to its
    // bucket's upper edge.
    assert!(scrape_counter(&text, "lc_queue_wait_p99_micros").unwrap() >= delay_us);
    server.shutdown();
}

/// Send one request and require a 200 within 100 ms.
fn prompt_200(what: &str, send: impl FnOnce() -> Result<Response, ClientError>) -> Response {
    let started = Instant::now();
    let resp = send().unwrap();
    let took = started.elapsed();
    assert_eq!(resp.status, 200, "{what}: {}", resp.body_text());
    assert!(took < Duration::from_millis(100), "{what} took {took:?}");
    resp
}

/// With the only worker busy and the only queue slot taken, cache hits,
/// `/analyze` and `/healthz` are still answered promptly on connection
/// threads, while one more unique compile is shed with 429.
#[test]
fn connection_thread_paths_answer_under_compile_saturation() {
    let server = facade_server(|cfg| {
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        cfg.synthetic_delay = Some(Duration::from_millis(400));
    });
    let addr = server.addr();
    let primed = client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(primed.status, 200);
    let busy = post_unique_in_background(addr, 0);
    wait_for_queue(&server, 2, 0);
    let queued = post_unique_in_background(addr, 1);
    wait_for_queue(&server, 3, 1);

    let hit = prompt_200("cache hit", || {
        client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT)
    });
    assert_eq!(hit.header("x-cache"), Some("hit"));
    prompt_200("/analyze", || {
        client::post(addr, "/analyze", PROGRAM.as_bytes(), TIMEOUT)
    });
    prompt_200("/healthz", || client::get(addr, "/healthz", TIMEOUT));

    let shed = client::post(addr, "/compile", unique_program(2).as_bytes(), TIMEOUT).unwrap();
    assert_eq!(shed.status, 429, "body: {}", shed.body_text());
    assert_eq!(busy.join().unwrap(), 200);
    assert_eq!(queued.join().unwrap(), 200);
    assert_eq!(
        scrape_counter(&metrics_text(&server), "lc_jobs_rejected_total"),
        Some(1)
    );
    server.shutdown();
}

/// Send `bytes` on a raw connection, then `later` (if any) after a
/// pause that lets the server answer and close first, and read to EOF
/// without half-closing: the way a client that trusts `Connection:
/// close` reads. Returns what arrived and how long the exchange took; a
/// write failing because the server already closed is ignored. The
/// pause only makes the close-first order likely: if `later` arrives
/// before the server looks, it drains until its read timeout instead,
/// and the answer is the same.
fn raw_read_to_eof(addr: SocketAddr, bytes: &[u8], later: Option<&[u8]>) -> (Vec<u8>, Duration) {
    use std::io::{Read, Write};
    let started = Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(bytes).unwrap();
    if let Some(later) = later {
        std::thread::sleep(Duration::from_millis(100));
        let _ = stream.write_all(later);
    }
    let mut wire = Vec::new();
    // Bytes sent after the server closed can make it reset the
    // connection; what arrived before the reset is still read.
    let _ = stream.read_to_end(&mut wire);
    (wire, started.elapsed())
}

fn parse_wire(wire: &[u8]) -> Response {
    lc_service::http::read_response(&mut std::io::BufReader::new(wire))
        .unwrap_or_else(|e| panic!("{e}: {:?}", String::from_utf8_lossy(wire)))
}

fn post_bytes(target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// A client that reads a `Connection: close` answer to EOF without
/// closing its own side first gets the answer and EOF at once: the
/// server closes as soon as it has answered a fully read request,
/// instead of waiting out its read timeout for the client's FIN.
#[test]
fn client_reading_to_eof_gets_the_answer_without_half_closing() {
    let server = facade_server(|cfg| cfg.read_timeout = Duration::from_secs(10));
    let addr = server.addr();
    let healthz = b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n".to_vec();
    for (what, request) in [
        ("/healthz", healthz),
        ("/compile miss", post_bytes("/compile", PROGRAM.as_bytes())),
        ("/compile hit", post_bytes("/compile", PROGRAM.as_bytes())),
    ] {
        let (wire, took) = raw_read_to_eof(addr, &request, None);
        let resp = parse_wire(&wire);
        assert_eq!(resp.status, 200, "{what}: {}", resp.body_text());
        assert!(wire.ends_with(&resp.body), "{what}: nothing after the body");
        assert!(took < Duration::from_secs(2), "{what} took {took:?}");
    }
    server.shutdown();
}

/// Bytes beyond the declared body never cost the client its answer:
/// sent with the request they are drained before the close, and sent
/// after the server closed they arrive too late to reset it.
#[test]
fn bytes_after_the_body_still_leave_a_complete_answer() {
    let server = facade_server(|_| {});
    let addr = server.addr();
    let request = post_bytes("/compile", PROGRAM.as_bytes());
    let extra = b"GET /healthz HTTP/1.1\r\n\r\n trailing noise";
    let together = [request.clone(), extra.to_vec()].concat();
    // Sent together the extra bytes are pending when the server
    // answers, so it drains until the client closes: read by length.
    let resp = client::send_raw(addr, &together, false, TIMEOUT).unwrap();
    let client::RawOutcome::Response(resp) = resp else {
        panic!("no answer: {resp:?}")
    };
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    // Sent in a later write, after the server closed.
    let (wire, _) = raw_read_to_eof(addr, &request, Some(extra));
    let resp = parse_wire(&wire);
    assert_eq!(resp.status, 200, "{}", resp.body_text());
    assert_eq!(resp.header("x-cache"), Some("hit"));
    assert_eq!(client::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
    server.shutdown();
}

/// A body over the cap is answered 413 without being read; the drain
/// keeps the unread body from resetting the answer off the wire.
#[test]
fn oversized_body_still_delivers_its_413() {
    let server = facade_server(|cfg| cfg.max_body_bytes = 512);
    let request = post_bytes("/compile", &[b'x'; 4096]);
    for close_write in [false, true] {
        match client::send_raw(server.addr(), &request, close_write, TIMEOUT).unwrap() {
            client::RawOutcome::Response(resp) => {
                assert_eq!(resp.status, 413, "{}", resp.body_text())
            }
            other => panic!("close_write {close_write}: no answer: {other:?}"),
        }
    }
    server.shutdown();
}

/// An answer far larger than one socket write can take arrives intact,
/// as a miss and as a hit written from the cached envelope.
#[test]
fn answers_over_64_kib_arrive_intact() {
    let server = facade_server(|_| {});
    let mut program = String::from("array A[3][4];\n");
    for k in 0..150 {
        program.push_str(&format!(
            "doall i = 1..3 {{ doall j = 1..4 {{ A[i][j] = i + j + {k}; }} }}\n"
        ));
    }
    let miss = client::post(server.addr(), "/compile", program.as_bytes(), TIMEOUT).unwrap();
    assert_eq!(miss.status, 200, "{}", miss.body_text());
    assert!(miss.body.len() > 64 * 1024, "{} bytes", miss.body.len());
    let body = Json::parse(&miss.body_text()).unwrap();
    assert_eq!(body.int_field("coalesced_nests").unwrap(), 150);
    let facade = loop_coalescing::coalesce_source(&program).unwrap();
    assert_eq!(body.str_field("source").unwrap(), facade.transformed_source);
    let (wire, _) = raw_read_to_eof(
        server.addr(),
        &post_bytes("/compile", program.as_bytes()),
        None,
    );
    let hit = parse_wire(&wire);
    assert_eq!(hit.header("x-cache"), Some("hit"));
    assert_eq!(hit.body, miss.body);
    server.shutdown();
}

/// `/metrics` times every connection in four stages. A scrape sees its
/// own dispatch and read, the handle of every earlier request, and the
/// write of every earlier request whose thread has finished writing.
#[test]
fn metrics_time_the_connection_stages() {
    let server = facade_server(|_| {});
    let addr = server.addr();
    for _ in 0..3 {
        assert_eq!(client::get(addr, "/healthz", TIMEOUT).unwrap().status, 200);
        assert_eq!(
            client::post(addr, "/compile", PROGRAM.as_bytes(), TIMEOUT)
                .unwrap()
                .status,
            200
        );
    }
    // A client gets its answer before the server records the write.
    let give_up = Instant::now() + TIMEOUT;
    let text = loop {
        let text = metrics_text(&server);
        if scrape_counter(&text, "lc_stage_write_count") >= Some(6) {
            break text;
        }
        assert!(Instant::now() < give_up, "writes never recorded:\n{text}");
        std::thread::sleep(Duration::from_millis(1));
    };
    let scrapes = scrape_counter(&text, "lc_stage_dispatch_count").unwrap() - 6;
    assert!(scrapes >= 1);
    assert_eq!(
        scrape_counter(&text, "lc_stage_read_count"),
        Some(6 + scrapes)
    );
    // Every earlier answer was handled before it was written, but an
    // earlier scrape's thread may not have recorded its write yet.
    let handled = 6 + scrapes - 1;
    assert_eq!(
        scrape_counter(&text, "lc_stage_handle_count"),
        Some(handled)
    );
    let written = scrape_counter(&text, "lc_stage_write_count").unwrap();
    assert!((6..=handled).contains(&written), "{written} of {handled}");
    for stage in ["dispatch", "read", "handle", "write"] {
        for q in ["p50", "p95", "p99"] {
            let name = format!("lc_stage_{stage}_{q}_micros");
            assert!(scrape_counter(&text, &name).unwrap() >= 1, "{name}");
        }
    }
    server.shutdown();
}

/// A visible-ASCII `X-Request-Id` comes back on the answer; a value with
/// a CR in it (or none at all) leaves the answer exactly as it would be
/// without the header.
#[test]
fn request_ids_are_echoed_only_when_safe() {
    let server = facade_server(|_| {});
    let addr = server.addr();
    let healthz = |id: Option<&str>| {
        let mut request = String::from("GET /healthz HTTP/1.1\r\n");
        if let Some(id) = id {
            request.push_str(&format!("x-request-id: {id}\r\n"));
        }
        request.push_str("\r\n");
        raw_read_to_eof(addr, request.as_bytes(), None).0
    };
    let plain = healthz(None);
    let plain_text = String::from_utf8(plain.clone()).unwrap();
    assert!(!plain_text.contains("x-request-id"));
    let echoed = String::from_utf8(healthz(Some("req-7f3a"))).unwrap();
    assert_eq!(
        echoed,
        plain_text.replace("content-length", "x-request-id: req-7f3a\r\ncontent-length")
    );
    for unsafe_id in ["a\rHTTP/1.1 500 Boom", "\u{7f}", &"r".repeat(129)] {
        assert_eq!(healthz(Some(unsafe_id)), plain, "{unsafe_id:?}");
    }
    let resp = client::request(
        addr,
        "POST",
        "/compile",
        &[("X-Request-Id", "batch-1/item-2")],
        PROGRAM.as_bytes(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(resp.header("x-request-id"), Some("batch-1/item-2"));
    server.shutdown();
}
