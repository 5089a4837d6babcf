//! A hand-rolled HTTP/1.1 subset over blocking streams.
//!
//! The workspace builds offline, so the serving layer cannot pull in
//! hyper/axum; this module implements exactly the protocol surface the
//! compile server and its clients need: `Content-Length`-framed request
//! and response bodies, case-insensitive header lookup, and hard limits
//! on header and body sizes. No chunked encoding, no keep-alive — every
//! exchange is one request, one response, `Connection: close`.
//!
//! A response goes out in one vectored write of head and body
//! ([`Response::write_to`]), and its body may be any byte container, so
//! the server can answer with a body it shares with its cache instead
//! of a copy.

use std::fmt::Write as _;
use std::io::{self, BufRead, IoSlice, Write};

use lc_driver::json::Json;

/// Cap on the request line + headers, to bound memory per connection.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The request target, e.g. `/compile`.
    pub target: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why reading a message from the wire failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending anything.
    Closed,
    /// The socket read timed out (maps to 408 on the server side).
    Timeout,
    /// Head or body exceeded its size limit (maps to 413).
    TooLarge {
        /// The limit that was exceeded, in bytes.
        limit: usize,
    },
    /// The bytes were not a well-formed HTTP/1.1 message (maps to 400).
    Malformed(&'static str),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Closed => write!(f, "connection closed"),
            ReadError::Timeout => write!(f, "read timed out"),
            ReadError::TooLarge { limit } => write!(f, "message exceeds {limit} bytes"),
            ReadError::Malformed(what) => write!(f, "malformed message: {what}"),
            ReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> ReadError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ReadError::Timeout,
            io::ErrorKind::UnexpectedEof => ReadError::Malformed("truncated message"),
            _ => ReadError::Io(e),
        }
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, bounding total head
/// bytes consumed so far.
fn read_line(reader: &mut impl BufRead, consumed: &mut usize) -> Result<String, ReadError> {
    let mut buf = Vec::new();
    // Read byte-wise via fill_buf to honor the head limit without
    // over-reading into the body.
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if buf.is_empty() {
                return Err(ReadError::Closed);
            }
            return Err(ReadError::Malformed("truncated line"));
        }
        let nl = available.iter().position(|&b| b == b'\n');
        let take = nl.map(|i| i + 1).unwrap_or(available.len());
        if *consumed + buf.len() + take > MAX_HEAD_BYTES {
            return Err(ReadError::TooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if nl.is_some() {
            break;
        }
    }
    *consumed += buf.len();
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ReadError::Malformed("non-UTF-8 header bytes"))
}

/// Read one request: request line, headers, `Content-Length` body.
pub fn read_request(
    reader: &mut impl BufRead,
    max_body_bytes: usize,
) -> Result<Request, ReadError> {
    let mut consumed = 0usize;
    let request_line = read_line(reader, &mut consumed)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(ReadError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ReadError::Malformed("missing request target"))?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut consumed) {
            Ok(l) => l,
            Err(ReadError::Closed) => return Err(ReadError::Malformed("truncated headers")),
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header without `:`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ReadError::Malformed("bad content-length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(ReadError::TooLarge {
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// An HTTP response (used on both sides: built by the server, parsed by
/// the client). The body is any byte container: a parsed response holds
/// a `Vec<u8>`, and the server may answer with a body it shares.
#[derive(Debug, Clone)]
pub struct Response<B = Vec<u8>> {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length`/`Connection` are added when
    /// writing).
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: B,
}

impl Response {
    /// A response with the given status and a plain-text body.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![(
                "content-type".to_string(),
                "text/plain; charset=utf-8".to_string(),
            )],
            body: body.into().into_bytes(),
        }
    }

    /// A response with the given status and a JSON body.
    pub fn json(status: u16, value: &Json) -> Response {
        Response::json_body(status, value.to_string().into_bytes())
    }

    /// A JSON error envelope: `{"ok":false,"error":"..."}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(
            status,
            &Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::Str(message.into())),
            ]),
        )
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl<B> Response<B> {
    /// A response with the given status and an already rendered JSON
    /// body (e.g. from a [`lc_driver::json::JsonWriter`]).
    pub fn json_body(status: u16, body: B) -> Response<B> {
        Response {
            status,
            headers: vec![("content-type".to_string(), "application/json".to_string())],
            body,
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response<B> {
        self.headers.push((name.to_ascii_lowercase(), value.into()));
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

impl<B: AsRef<[u8]>> Response<B> {
    /// Serialize onto the wire, adding framing headers. Head and body go
    /// out in one vectored write, repeated only for what a partial write
    /// left over.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        let body = self.body.as_ref();
        let mut head = String::new();
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (k, v) in &self.headers {
            let _ = write!(head, "{k}: {v}\r\n");
        }
        let _ = write!(head, "content-length: {}\r\n", body.len());
        let _ = write!(head, "connection: close\r\n\r\n");
        write_all_vectored(writer, head.as_bytes(), body)?;
        writer.flush()
    }
}

/// Write `first` then `second`, each call offering both as one vectored
/// write of what is still unwritten.
fn write_all_vectored(
    writer: &mut impl Write,
    mut first: &[u8],
    mut second: &[u8],
) -> io::Result<()> {
    while !first.is_empty() || !second.is_empty() {
        match writer.write_vectored(&[IoSlice::new(first), IoSlice::new(second)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let from_first = n.min(first.len());
                first = &first[from_first..];
                second = &second[n - from_first..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parse one response (client side).
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, ReadError> {
    let mut consumed = 0usize;
    let status_line = read_line(reader, &mut consumed)?;
    let mut parts = status_line.split_ascii_whitespace();
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported HTTP version"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(ReadError::Malformed("bad status code"))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut consumed)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ReadError::Malformed("header without `:`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let body = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => {
            let len = v
                .parse::<usize>()
                .map_err(|_| ReadError::Malformed("bad content-length"))?;
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            // `Connection: close` framing: read to EOF.
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };

    Ok(Response {
        status,
        headers,
        body,
    })
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body() {
        let wire = b"POST /compile HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(&wire[..]), 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/compile");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_bare_lf_lines_and_no_body() {
        let wire = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(&mut BufReader::new(&wire[..]), 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let wire = b"POST /compile HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        match read_request(&mut BufReader::new(&wire[..]), 1024) {
            Err(ReadError::TooLarge { limit: 1024 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_connection_reports_closed() {
        let wire: &[u8] = b"";
        assert!(matches!(
            read_request(&mut BufReader::new(wire), 1024),
            Err(ReadError::Closed)
        ));
    }

    #[test]
    fn response_round_trips_over_the_wire() {
        let resp = Response::text(200, "hi there").with_header("x-cache", "hit");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let back = read_response(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(back.header("x-cache"), Some("hit"));
        assert_eq!(back.body_text(), "hi there");
    }

    /// A writer that takes at most `step` bytes per call, across slices,
    /// like a socket whose send buffer has room for only part.
    struct Trickle {
        step: usize,
        calls: usize,
        wire: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.step;
            for buf in bufs {
                let n = buf.len().min(room);
                self.wire.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.step - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let resp = Response::json_body(200, body.clone()).with_header("x-cache", "hit");
        let mut whole = Vec::new();
        resp.write_to(&mut whole).unwrap();
        for step in [1, 7, 4096, 65_536] {
            let mut trickle = Trickle {
                step,
                calls: 0,
                wire: Vec::new(),
            };
            resp.write_to(&mut trickle).unwrap();
            assert_eq!(trickle.wire, whole, "step {step}");
            assert_eq!(trickle.calls, whole.len().div_ceil(step), "step {step}");
        }
        let back = read_response(&mut BufReader::new(&whole[..])).unwrap();
        assert_eq!(back.body, body);
    }

    #[test]
    fn head_and_body_bytes_are_pinned() {
        let resp =
            Response::json_body(200, b"{\"ok\":true}".to_vec()).with_header("x-cache", "hit");
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        assert_eq!(
            wire,
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nx-cache: hit\r\n\
              content-length: 11\r\nconnection: close\r\n\r\n{\"ok\":true}"
        );
    }

    #[test]
    fn error_envelope_is_json() {
        let resp = Response::error(429, "queue full");
        let v = Json::parse(&resp.body_text()).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(v.str_field("error").unwrap(), "queue full");
    }
}
