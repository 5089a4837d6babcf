//! Malformed-input fuzzing for the `lc-service` compile server.
//!
//! Starts a real server on a loopback socket and throws broken HTTP and
//! JSON at it: truncated request lines, lying and garbage
//! `Content-Length` headers, invalid UTF-8 bodies, pathologically deep
//! JSON and DSL nesting, oversized heads, raw binary noise. The contract
//! under attack:
//!
//! * every parseable response is a **typed 4xx** (400/408/413/422) —
//!   never a 5xx and never a success for garbage;
//! * the server never hangs (client timeouts turn a hang into a
//!   violation);
//! * the process survives: after the barrage, `/healthz` still answers
//!   200 and a well-formed `/compile` still works. A stack overflow in
//!   a recursive parser would abort the whole process here, which is
//!   exactly what the depth limits in `lc-ir`'s DSL parser and
//!   `lc-driver`'s JSON parser exist to prevent.

use std::time::Duration;

use lc_service::client::{self, RawOutcome};
use lc_service::server::{Server, ServiceConfig};

use crate::rng::Rng;

/// What a service-fuzz run observed.
#[derive(Debug, Clone)]
pub struct ServiceFuzzReport {
    /// Malformed inputs sent.
    pub cases: u64,
    /// Responses parsed back (the rest were dropped connections).
    pub responses: u64,
    /// Contract violations, each human-readable. Empty means pass.
    pub violations: Vec<String>,
}

impl ServiceFuzzReport {
    /// True when the server upheld the contract on every input.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

const TIMEOUT: Duration = Duration::from_secs(5);

/// The handcrafted malformed corpus: each entry is (label, bytes,
/// close-write-after-send).
fn handcrafted() -> Vec<(&'static str, Vec<u8>, bool)> {
    let deep_json = {
        let mut b = b"{\"sources\":".to_vec();
        b.extend(std::iter::repeat_n(b'[', 20_000));
        let mut head = format!(
            "POST /batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            b.len()
        )
        .into_bytes();
        head.extend_from_slice(&b);
        head
    };
    // A body at the default 1 MiB cap: one string of almost 1 MiB, then
    // a non-string source, so the answer (422) needs the whole string
    // lexed. A lexer that is quadratic in the string took ~23 s here.
    let huge_json = {
        let pad = 1024 * 1024 - br#"{"sources":["",1]}"#.len();
        let body = format!("{{\"sources\":[\"{}\",1]}}", "a".repeat(pad));
        let mut head = format!(
            "POST /batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        head.extend_from_slice(body.as_bytes());
        head
    };
    let deep_dsl = {
        let mut src = b"array A[1];\nA[1] = ".to_vec();
        src.extend(std::iter::repeat_n(b'(', 30_000));
        src.push(b'1');
        src.extend(std::iter::repeat_n(b')', 30_000));
        src.push(b';');
        let mut head = format!(
            "POST /compile HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            src.len()
        )
        .into_bytes();
        head.extend_from_slice(&src);
        head
    };
    vec![
        ("empty", Vec::new(), true),
        ("truncated-request-line", b"POST /comp".to_vec(), true),
        ("missing-version", b"POST /compile\r\n\r\n".to_vec(), true),
        (
            "unknown-method",
            b"BREW /compile HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
            false,
        ),
        (
            "garbage-content-length",
            b"POST /compile HTTP/1.1\r\ncontent-length: banana\r\n\r\n".to_vec(),
            false,
        ),
        (
            "negative-content-length",
            b"POST /compile HTTP/1.1\r\ncontent-length: -5\r\n\r\n".to_vec(),
            false,
        ),
        (
            "huge-content-length",
            b"POST /compile HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n".to_vec(),
            false,
        ),
        (
            "truncated-body",
            b"POST /compile HTTP/1.1\r\ncontent-length: 400\r\n\r\narray A[1];".to_vec(),
            true,
        ),
        (
            "invalid-utf8-body",
            b"POST /compile HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\xfd\xfc".to_vec(),
            false,
        ),
        (
            "header-without-colon",
            b"POST /compile HTTP/1.1\r\nno-colon-here\r\ncontent-length: 0\r\n\r\n".to_vec(),
            false,
        ),
        (
            "oversized-head",
            {
                let mut b = b"POST /compile HTTP/1.1\r\nx-pad: ".to_vec();
                b.extend(std::iter::repeat_n(b'a', 64 * 1024));
                b.extend_from_slice(b"\r\n\r\n");
                b
            },
            false,
        ),
        (
            "bad-json-batch",
            b"POST /batch HTTP/1.1\r\ncontent-length: 14\r\n\r\n{\"sources\": [x".to_vec(),
            false,
        ),
        ("deep-json-batch", deep_json, false),
        ("huge-json-batch", huge_json, false),
        ("deep-dsl-compile", deep_dsl, false),
        // Bytes after the declared body: the answer must still arrive
        // whole, with the leftovers drained rather than reset.
        (
            "trailing-request-after-body",
            b"POST /compile HTTP/1.1\r\ncontent-length: 4\r\n\r\n\xff\xfe\xfd\xfc\
              GET /healthz HTTP/1.1\r\n\r\n"
                .to_vec(),
            false,
        ),
        (
            "trailing-noise-after-body-half-closed",
            b"POST /compile HTTP/1.1\r\ncontent-length: 2\r\n\r\n\xff\xfe\0\0\0\x80garbage"
                .to_vec(),
            true,
        ),
        (
            "trailing-bytes-after-empty-body",
            b"BREW /compile HTTP/1.1\r\ncontent-length: 0\r\n\r\nxyz".to_vec(),
            false,
        ),
        // A character of more than two bytes where the lexer looks for
        // two-character punctuation: a parse error (422), not a panic.
        (
            "multibyte-dsl-source",
            "POST /compile HTTP/1.1\r\ncontent-length: 10\r\n\r\nx = 1; €"
                .as_bytes()
                .to_vec(),
            false,
        ),
    ]
}

/// A seeded random corruption of a valid request: truncate, flip bytes,
/// or splice noise.
fn corrupted(rng: &mut Rng) -> Vec<u8> {
    let valid = b"POST /compile HTTP/1.1\r\ncontent-length: 38\r\n\r\narray A[2];\ndoall i = 1..2 { A[i]=i; }".to_vec();
    let mut bytes = valid;
    match rng.below(3) {
        0 => {
            // Truncate somewhere.
            let cut = 1 + rng.below(bytes.len() as u64 - 1) as usize;
            bytes.truncate(cut);
        }
        1 => {
            // Flip a handful of bytes.
            for _ in 0..1 + rng.below(6) {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] = rng.next_u64() as u8;
            }
        }
        _ => {
            // Splice random noise into the middle.
            let at = rng.below(bytes.len() as u64) as usize;
            let noise: Vec<u8> = (0..rng.below(32)).map(|_| rng.next_u64() as u8).collect();
            bytes.splice(at..at, noise);
        }
    }
    bytes
}

/// Fuzz a fresh loopback server with the handcrafted corpus plus
/// `random_cases` seeded corruptions, then verify the server still
/// serves. Violations (5xx, garbage accepted with 2xx, post-barrage
/// health failure) are collected rather than panicking so the binary can
/// report them all.
pub fn run(seed: u64, random_cases: u64) -> ServiceFuzzReport {
    let server =
        Server::start(ServiceConfig::default(), "127.0.0.1:0").expect("loopback server must start");
    let addr = server.addr();
    let mut report = ServiceFuzzReport {
        cases: 0,
        responses: 0,
        violations: Vec::new(),
    };

    // `must_reject` holds for the handcrafted corpus, where every entry
    // is malformed by construction. Random corruptions of a valid
    // request can land on another *valid* request (flip a digit in the
    // body), so for those only the no-5xx half of the contract applies.
    let check = |label: &str,
                 bytes: &[u8],
                 close_write: bool,
                 must_reject: bool,
                 report: &mut ServiceFuzzReport| {
        report.cases += 1;
        match client::send_raw(addr, bytes, close_write, TIMEOUT) {
            Ok(RawOutcome::Response(resp)) => {
                report.responses += 1;
                if resp.status >= 500 {
                    report.violations.push(format!(
                        "{label}: got {} — malformed input must never be a server error",
                        resp.status
                    ));
                } else if must_reject && resp.status < 400 {
                    report.violations.push(format!(
                        "{label}: got {} — malformed input accepted as success",
                        resp.status
                    ));
                }
            }
            // A dropped connection is acceptable for malformed input;
            // hangs surface as Io(timeout) here, which is also a drop
            // from the client's perspective — the post-barrage health
            // check below is what catches a wedged server.
            Ok(RawOutcome::NoResponse(_)) => {}
            Err(e) => {
                report
                    .violations
                    .push(format!("{label}: could not reach server: {e}"));
            }
        }
    };

    for (label, bytes, close_write) in handcrafted() {
        check(label, &bytes, close_write, true, &mut report);
    }
    let mut rng = Rng::new(seed);
    for i in 0..random_cases {
        let bytes = corrupted(&mut rng);
        check(&format!("random-{i}"), &bytes, true, false, &mut report);
    }

    // The server must have survived all of it.
    match client::get(addr, "/healthz", TIMEOUT) {
        Ok(resp) if resp.status == 200 => {}
        Ok(resp) => report
            .violations
            .push(format!("post-barrage /healthz answered {}", resp.status)),
        Err(e) => report
            .violations
            .push(format!("post-barrage /healthz unreachable: {e}")),
    }
    let program = b"array A[3][4];\ndoall i = 1..3 { doall j = 1..4 { A[i][j] = i + j; } }";
    match client::post(addr, "/compile", program, TIMEOUT) {
        Ok(resp) if resp.status == 200 => {}
        Ok(resp) => report
            .violations
            .push(format!("post-barrage /compile answered {}", resp.status)),
        Err(e) => report
            .violations
            .push(format!("post-barrage /compile unreachable: {e}")),
    }

    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_upholds_the_contract() {
        let report = run(0xF00D, 24);
        assert!(
            report.passed(),
            "violations:\n{}",
            report.violations.join("\n")
        );
        assert!(report.cases > 30);
    }
}
