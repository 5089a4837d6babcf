//! Output checks: every answer is compared with an in-process compile
//! (or lint) of the same input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use lc_driver::json::Json;
use lc_driver::{Driver, DriverOptions};
use lc_ir::stmt::Stmt;
use lc_lint::LintSet;

/// What an in-process compile of one source says the server must answer,
/// plus the generated-code quality facts the end-to-end metrics need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// `Driver::compile` output, byte for byte.
    pub transformed: String,
    /// Nests coalesced.
    pub coalesced: usize,
    /// Top-level loop nests in the input.
    pub loop_nests: usize,
    /// `recovery_cost_per_iteration` of every nest coalesced with
    /// constant trip counts.
    pub recovery_costs: Vec<u64>,
    /// Lint findings `lint_source` reports under the default lint set.
    pub findings: usize,
}

/// Compile and lint `src` in-process, as the server's default
/// configuration does.
pub fn reference(driver: &Driver, src: &str) -> Result<Reference, String> {
    let program = lc_ir::parser::parse_program(src).map_err(|e| e.to_string())?;
    let out = driver.compile(src).map_err(|e| e.to_string())?;
    let findings = lc_lint::lint_source(src, &LintSet::default())
        .map_err(|e| e.to_string())?
        .len();
    Ok(Reference {
        transformed: out.transformed_source,
        coalesced: out.coalesced.len(),
        loop_nests: program
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::Loop(_)))
            .count(),
        recovery_costs: out
            .coalesced
            .iter()
            .filter(|c| !c.dims.is_empty())
            .map(|c| c.recovery_cost_per_iteration)
            .collect(),
        findings,
    })
}

/// The server's default configuration with interpreter validation off.
/// Validation can reject a rewrite but never changes one, and a rejection
/// reaches the client as a non-200 answer, so the expected output is the
/// same at a small fraction of the cost.
pub fn reference_driver() -> Driver {
    Driver::new(DriverOptions {
        validate: false,
        ..DriverOptions::default()
    })
}

/// References for every distinct source, computed on `threads` threads.
/// A source the compiler rejects maps to its error.
pub fn references(
    sources: &[Arc<str>],
    threads: usize,
) -> HashMap<Arc<str>, Result<Reference, String>> {
    let driver = reference_driver();
    let next = AtomicUsize::new(0);
    let out = Mutex::new(HashMap::with_capacity(sources.len()));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(src) = sources.get(i) else { break };
                let r = reference(&driver, src);
                out.lock()
                    .expect("reference map lock poisoned")
                    .insert(src.clone(), r);
            });
        }
    });
    out.into_inner().expect("reference map lock poisoned")
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))
}

/// Compare one compiled item (`/compile` envelope or `/batch` item) with
/// its reference.
fn check_item(item: &Json, want: &Reference) -> Result<(), String> {
    if item.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "item not ok: {}",
            item.get("error").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    let got = item.str_field("source")?;
    if got != want.transformed {
        return Err("transformed source differs from the in-process compile".to_string());
    }
    let nests = item.int_field("coalesced_nests")?;
    if nests != want.coalesced as i64 {
        return Err(format!(
            "coalesced_nests {nests}, in-process compile coalesced {}",
            want.coalesced
        ));
    }
    Ok(())
}

/// Check a `/compile` answer; on success return the envelope's
/// `trace.total_nanos`.
pub fn check_compile(body: &[u8], want: &Reference) -> Result<u64, String> {
    let v = parse_body(body)?;
    check_item(&v, want)?;
    let total = v.field("trace")?.int_field("total_nanos")?;
    u64::try_from(total).map_err(|_| "negative trace.total_nanos".to_string())
}

/// Check a `/batch` answer item by item. On failure returns how many
/// items failed (a malformed answer fails every item) and the first
/// reason.
pub fn check_batch(body: &[u8], want: &[&Reference]) -> Result<(), (usize, String)> {
    let v = parse_body(body).map_err(|e| (want.len(), e))?;
    let items = v
        .get("items")
        .and_then(Json::as_arr)
        .filter(|items| items.len() == want.len())
        .ok_or_else(|| {
            (
                want.len(),
                "batch answer lacks one item per source".to_string(),
            )
        })?;
    let errors: Vec<String> = items
        .iter()
        .zip(want)
        .filter_map(|(item, r)| check_item(item, r).err())
        .collect();
    match errors.first() {
        None => Ok(()),
        Some(first) => Err((errors.len(), first.clone())),
    }
}

/// Check an `/analyze` answer's finding count.
pub fn check_analyze(body: &[u8], want: &Reference) -> Result<(), String> {
    let v = parse_body(body)?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err("analyze answer not ok".to_string());
    }
    let n = v
        .get("findings")
        .and_then(Json::as_arr)
        .ok_or("analyze answer has no findings array")?
        .len();
    if n != want.findings {
        return Err(format!(
            "{n} findings, in-process lint found {}",
            want.findings
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "array A[4][5];\ndoall i = 1..4 {\n    doall j = 1..5 {\n        A[i][j] = i + j;\n    }\n}\n";

    fn envelope(src: &str) -> Vec<u8> {
        let out = Driver::default().compile(src).unwrap();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("source", Json::Str(out.transformed_source.clone())),
            ("coalesced_nests", Json::Int(out.coalesced.len() as i64)),
            ("trace", out.trace.to_json()),
        ])
        .to_string()
        .into_bytes()
    }

    #[test]
    fn references_without_validation_match_the_server_configuration() {
        let corpus = lc_service::corpus::corpus72();
        for src in corpus.iter().take(9).map(String::as_str) {
            let full = reference(&Driver::default(), src).unwrap();
            assert_eq!(reference(&reference_driver(), src).unwrap(), full);
        }
    }

    #[test]
    fn reference_matches_a_faithful_answer() {
        let want = reference(&Driver::default(), SRC).unwrap();
        assert_eq!(want.coalesced, 1);
        assert_eq!(want.loop_nests, 1);
        assert_eq!(want.recovery_costs.len(), 1);
        assert!(check_compile(&envelope(SRC), &want).unwrap() > 0);
    }

    #[test]
    fn output_check_rejects_a_corrupted_answer() {
        let want = reference(&Driver::default(), SRC).unwrap();
        let good = String::from_utf8(envelope(SRC)).unwrap();
        // One byte of the transformed program changed.
        let flipped = good.replacen("doall jc", "doall jd", 1);
        assert_ne!(flipped, good);
        assert!(check_compile(flipped.as_bytes(), &want).is_err());
        // A wrong nest count with the right source.
        let miscount = good.replacen("\"coalesced_nests\":1", "\"coalesced_nests\":0", 1);
        assert_ne!(miscount, good);
        assert!(check_compile(miscount.as_bytes(), &want).is_err());
        // Truncated, and an error envelope.
        assert!(check_compile(&good.as_bytes()[..good.len() / 2], &want).is_err());
        assert!(check_compile(br#"{"ok":false,"error":"x"}"#, &want).is_err());
    }

    #[test]
    fn batch_check_counts_failed_items() {
        let want = reference(&Driver::default(), SRC).unwrap();
        let item = String::from_utf8(envelope(SRC)).unwrap();
        let body = format!("{{\"ok\":true,\"items\":[{item},{item}]}}");
        assert_eq!(check_batch(body.as_bytes(), &[&want, &want]), Ok(()));
        let bad = item.replacen("doall jc", "doall jd", 1);
        let body = format!("{{\"ok\":true,\"items\":[{item},{bad}]}}");
        assert_eq!(
            check_batch(body.as_bytes(), &[&want, &want]).unwrap_err().0,
            1
        );
        assert_eq!(check_batch(b"{}", &[&want, &want]).unwrap_err().0, 2);
    }

    #[test]
    fn analyze_check_compares_finding_counts() {
        let want = reference(&Driver::default(), SRC).unwrap();
        assert_eq!(want.findings, 0);
        assert!(check_analyze(br#"{"ok":true,"findings":[],"denied":0}"#, &want).is_ok());
        assert!(check_analyze(br#"{"ok":true,"findings":[{}],"denied":0}"#, &want).is_err());
    }
}
