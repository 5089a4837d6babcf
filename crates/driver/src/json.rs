//! JSON for the driver and the compile server: a value type, a parser
//! and one byte writer.
//!
//! The workspace builds offline with no registry access, so rather than
//! depending on `serde`/`serde_json` this module hand-rolls the tiny
//! subset the driver needs: null, booleans, 64-bit integers, strings,
//! arrays, and objects. Floats are deliberately unsupported — every
//! number the driver emits (counters, nanosecond timings, nest indices)
//! is integral, and keeping integers exact makes round-trips lossless.
//!
//! **Writing.** [`JsonWriter`] appends JSON text straight to a byte
//! buffer, escaping each string in runs: the unescaped stretch between
//! two special bytes is copied with one `push_str`. Every type the
//! driver serializes — [`crate::trace::PipelineTrace`],
//! [`crate::trace::TraceOutcome`], [`crate::Skip`],
//! [`lc_ir::SkipReason`] and lint [`lc_lint::Finding`]s — writes its
//! schema once, in its [`WriteJson`] impl, and the compile server
//! renders its responses with those impls without building a tree.
//! [`Json`]'s `Display` goes through the same writer, and each type's
//! `to_json()` tree is [`tree`], the parse of the writer's bytes, so
//! there is one codec and one schema per type.
//!
//! **Parsing.** [`Json::parse`] is linear in its input: a string is
//! lexed in runs up to the next `"` or `\`, each appended with one
//! `push_str`. Both delimiters are ASCII, so a run never ends inside a
//! multi-byte character, and the input is a `&str`, so the runs need no
//! UTF-8 check. Parsing reports a typed [`ParseError`]; in particular
//! integer literals outside `i64` are rejected with
//! [`ParseError::IntOutOfRange`] rather than whatever `from_str` would
//! say, and `\uXXXX` escapes understand UTF-16 surrogate pairs (a lone
//! surrogate is [`ParseError::LoneSurrogate`]).

use std::fmt::{self, Write as _};

/// Maximum container nesting depth [`Json::parse`] accepts. The parser
/// is recursive-descent, so without a cap an adversarial document of
/// tens of thousands of `[` would exhaust the thread stack — and a
/// stack overflow aborts the whole process, which the compile server
/// (whose `/batch` route parses untrusted JSON on connection threads)
/// cannot tolerate. Beyond this depth parsing reports
/// [`ParseError::TooDeep`]. Every document the driver itself emits
/// nests a handful of levels.
pub const MAX_JSON_DEPTH: usize = 256;

/// A JSON value. Object keys keep insertion order so output is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (the driver never emits floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Why a JSON document failed to parse. Every variant carries the byte
/// offset where the problem was detected (except end-of-input errors,
/// which have no position past the end to point at).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An all-digit integer literal that does not fit in `i64`.
    IntOutOfRange {
        /// The offending literal text.
        literal: String,
        /// Byte offset of the literal.
        at: usize,
    },
    /// A number with a fraction or exponent (floats are unsupported).
    Float {
        /// Byte offset of the `.`/`e`/`E`.
        at: usize,
    },
    /// A misspelled `null` / `true` / `false`.
    InvalidLiteral {
        /// Byte offset of the literal.
        at: usize,
    },
    /// A byte that cannot start or continue a value.
    Unexpected {
        /// Byte offset of the unexpected input.
        at: usize,
    },
    /// A specific punctuation byte was required.
    Expected {
        /// What was required (rendered for messages, e.g. "`,` or `]`").
        what: &'static str,
        /// Byte offset where it was required.
        at: usize,
    },
    /// Input ended inside a string literal.
    UnterminatedString,
    /// An unknown `\x` escape.
    UnknownEscape {
        /// The escaped byte, as a char.
        escape: char,
    },
    /// A `\u` escape that is truncated or not four hex digits.
    BadUnicodeEscape {
        /// Byte offset of the escape payload.
        at: usize,
    },
    /// A UTF-16 surrogate (`\uD800`–`\uDFFF`) without its partner: a
    /// high surrogate not followed by a low one, or a bare low
    /// surrogate.
    LoneSurrogate {
        /// The surrogate code unit.
        code: u16,
    },
    /// Bytes after the end of the document.
    TrailingInput {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
    /// Containers nested deeper than [`MAX_JSON_DEPTH`].
    TooDeep {
        /// The depth limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::IntOutOfRange { literal, at } => {
                write!(f, "integer `{literal}` out of i64 range (byte {at})")
            }
            ParseError::Float { at } => write!(f, "floats are unsupported (byte {at})"),
            ParseError::InvalidLiteral { at } => write!(f, "invalid literal at byte {at}"),
            ParseError::Unexpected { at } => write!(f, "unexpected input at byte {at}"),
            ParseError::Expected { what, at } => write!(f, "expected {what} at byte {at}"),
            ParseError::UnterminatedString => write!(f, "unterminated string"),
            ParseError::UnknownEscape { escape } => write!(f, "unknown escape `\\{escape}`"),
            ParseError::BadUnicodeEscape { at } => write!(f, "bad \\u escape at byte {at}"),
            ParseError::LoneSurrogate { code } => {
                write!(f, "lone UTF-16 surrogate \\u{code:04x}")
            }
            ParseError::TrailingInput { at } => write!(f, "trailing input at byte {at}"),
            ParseError::TooDeep { limit } => {
                write!(f, "containers nested deeper than {limit} levels")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

impl Json {
    /// Object constructor from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Move the value of a key out of an object (the first, like
    /// [`Json::get`]).
    pub fn take(self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Required-field lookup with a readable error.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Required integer field.
    pub fn int_field(&self, key: &str) -> Result<i64, String> {
        self.field(key)?
            .as_int()
            .ok_or_else(|| format!("field `{key}` is not an integer"))
    }

    /// Required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("field `{key}` is not a string"))
    }

    /// Parse a JSON document, in time linear in its length.
    pub fn parse(src: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ParseError::TrailingInput { at: p.pos });
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(self))
    }
}

impl WriteJson for Json {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Int(n) => w.int(*n),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => w.arr(items, JsonWriter::value),
            Json::Obj(pairs) => w.obj(|o| {
                for (k, v) in pairs {
                    o.key(k).value(v);
                }
            }),
        }
    }
}

/// A type with one JSON schema, written by [`WriteJson::write_json`].
/// [`render`] gives its text and [`tree`] its [`Json`] value, both from
/// that one method.
pub trait WriteJson {
    /// Append this value's JSON to `w`.
    fn write_json(&self, w: &mut JsonWriter);
}

/// A value's JSON text.
pub fn render<T: WriteJson + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new();
    value.write_json(&mut w);
    w.into_string()
}

/// A value's JSON as a tree: the parse of [`render`]'s text, so the tree
/// and the bytes come from the same schema code.
pub fn tree<T: WriteJson + ?Sized>(value: &T) -> Json {
    Json::parse(&render(value)).expect("JsonWriter emits valid JSON")
}

/// Appends JSON text to a growing buffer. Values are written in
/// document order and [`JsonWriter::obj`] and [`JsonWriter::arr`] place
/// the separators; the caller writes one value per document, per array
/// item and per [`ObjectWriter::key`].
///
/// ```
/// use lc_driver::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.obj(|o| {
///     o.key("ok").bool(true);
///     o.key("items").arr([1, 2], |w, n| w.int(n));
///     o.key("quote").str("say \"hi\"");
/// });
/// assert_eq!(w.into_string(), r#"{"ok":true,"items":[1,2],"quote":"say \"hi\""}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    // A `String` rather than a `Vec<u8>`: only `&str` slices and ASCII
    // are ever appended, and keeping that invariant in the type lets
    // `into_string` skip a UTF-8 check. `into_bytes` is free.
    out: String,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The text written so far, as bytes (e.g. an HTTP body).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_bytes()
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    /// `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// An integer.
    pub fn int(&mut self, n: i64) {
        let _ = write!(self.out, "{n}");
    }

    /// A string, quoted and escaped: `"`, `\`, `\n`, `\r` and `\t` get
    /// their short escapes, other control characters `\u00XX`, and
    /// everything else (including non-ASCII) is copied verbatim.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            // `b` is ASCII, so `i` is a char boundary.
            self.out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    self.out.push_str("\\u00");
                    self.out.push(char::from(HEX[usize::from(b >> 4)]));
                    self.out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// A value with its own schema.
    pub fn value<T: WriteJson + ?Sized>(&mut self, v: &T) {
        v.write_json(self);
    }

    /// An array: `each` writes one element per item.
    pub fn arr<I: IntoIterator>(
        &mut self,
        items: I,
        mut each: impl FnMut(&mut JsonWriter, I::Item),
    ) {
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            each(self, item);
        }
        self.out.push(']');
    }

    /// An object: `fields` writes its members through
    /// [`ObjectWriter::key`], in order.
    pub fn obj(&mut self, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
        self.out.push('{');
        fields(&mut ObjectWriter {
            w: self,
            first: true,
        });
        self.out.push('}');
    }
}

/// Writes the members of one object; see [`JsonWriter::obj`].
pub struct ObjectWriter<'w> {
    w: &'w mut JsonWriter,
    first: bool,
}

impl ObjectWriter<'_> {
    /// Start a member: writes the key, and returns the writer that must
    /// then write exactly one value.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        if !self.first {
            self.w.out.push(',');
        }
        self.first = false;
        self.w.str(key);
        self.w.out.push(':');
        self.w
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::Expected { what, at: self.pos })
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(ParseError::InvalidLiteral { at: self.pos })
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(ParseError::Unexpected { at: self.pos }),
        }
    }

    /// Bump the container depth around `[`/`{` recursion, rejecting
    /// documents nested beyond [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        self.depth += 1;
        let r = if self.depth > MAX_JSON_DEPTH {
            Err(ParseError::TooDeep {
                limit: MAX_JSON_DEPTH,
            })
        } else {
            f(self)
        };
        self.depth -= 1;
        r
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            // A bare `-` with no digits.
            return Err(ParseError::Unexpected { at: self.pos });
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(ParseError::Float { at: self.pos });
        }
        let text = &self.src[start..self.pos];
        // The literal is sign + digits only, so the sole possible
        // `from_str` failure is i64 overflow — report it as such instead
        // of leaking `ParseIntError`'s message.
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| ParseError::IntOutOfRange {
                literal: text.to_string(),
                at: start,
            })
    }

    /// Four hex digits of a `\u` escape (the `\u` itself already eaten).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let at = self.pos;
        // `get` is `None` past the end or off a char boundary, and
        // `from_str_radix` tolerates a leading `+`, which JSON does not.
        let hex = self
            .src
            .get(at..at + 4)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or(ParseError::BadUnicodeEscape { at })?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| ParseError::BadUnicodeEscape { at })?;
        self.pos += 4;
        Ok(code)
    }

    /// A `\uXXXX` escape, combining UTF-16 surrogate pairs into their
    /// code point (`\ud83d\ude00` → 😀). Unpaired surrogates are typed
    /// errors, not replacement characters.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let code = self.hex4()?;
        if (0xDC00..=0xDFFF).contains(&code) {
            return Err(ParseError::LoneSurrogate { code: code as u16 });
        }
        if (0xD800..=0xDBFF).contains(&code) {
            let high = code;
            if self.peek() != Some(b'\\') || self.bytes.get(self.pos + 1) != Some(&b'u') {
                return Err(ParseError::LoneSurrogate { code: high as u16 });
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(ParseError::LoneSurrogate { code: high as u16 });
            }
            let combined = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            // Surrogate-pair arithmetic lands in 0x10000..=0x10FFFF,
            // which is always a valid char.
            return Ok(char::from_u32(combined).unwrap());
        }
        // A BMP non-surrogate code unit is always a valid char.
        Ok(char::from_u32(code).unwrap())
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "`\"`")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece. Both
            // are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or(ParseError::UnterminatedString)?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or(ParseError::UnterminatedString)?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => {
                    return Err(ParseError::UnknownEscape {
                        escape: esc as char,
                    })
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "`[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => {
                    return Err(ParseError::Expected {
                        what: "`,` or `]`",
                        at: self.pos,
                    })
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "`{`")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "`:`")?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => {
                    return Err(ParseError::Expected {
                        what: "`,` or `}`",
                        at: self.pos,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("a", Json::Int(-42)),
            ("b", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::Str("line\n\"quoted\" \\ tab\t".into())),
            ("o", Json::obj(vec![("inner", Json::Int(7))])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(matches!(
            Json::parse("1.5"),
            Err(ParseError::Float { at: 1 })
        ));
        assert!(Json::parse("[1,]").is_err());
        assert!(matches!(
            Json::parse("{\"a\":1} x"),
            Err(ParseError::TrailingInput { .. })
        ));
        assert!(matches!(
            Json::parse("-"),
            Err(ParseError::Unexpected { .. })
        ));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.field("k").unwrap().as_arr().unwrap()[1],
            Json::Str("A\n".into())
        );
    }

    #[test]
    fn i64_boundaries_parse_exactly() {
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
    }

    #[test]
    fn out_of_range_integers_are_typed_errors() {
        assert_eq!(
            Json::parse("9223372036854775808"),
            Err(ParseError::IntOutOfRange {
                literal: "9223372036854775808".into(),
                at: 0,
            })
        );
        assert_eq!(
            Json::parse("[-9223372036854775809]"),
            Err(ParseError::IntOutOfRange {
                literal: "-9223372036854775809".into(),
                at: 1,
            })
        );
        // A huge literal, way past u64 too.
        assert!(matches!(
            Json::parse("123456789012345678901234567890"),
            Err(ParseError::IntOutOfRange { .. })
        ));
    }

    #[test]
    fn surrogate_pairs_combine() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".into())
        );
        // Printer emits astral chars verbatim; the parser reads them back.
        let v = Json::Str("a😀b\u{10FFFF}".into());
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn lone_surrogates_are_typed_errors() {
        assert_eq!(
            Json::parse("\"\\ud83d\""),
            Err(ParseError::LoneSurrogate { code: 0xD83D })
        );
        assert_eq!(
            Json::parse("\"\\udc00\""),
            Err(ParseError::LoneSurrogate { code: 0xDC00 })
        );
        // High surrogate followed by a non-surrogate escape.
        assert_eq!(
            Json::parse("\"\\ud800\\u0041\""),
            Err(ParseError::LoneSurrogate { code: 0xD800 })
        );
    }

    #[test]
    fn deeply_nested_arrays_are_rejected_not_overflowed() {
        let depth = 100_000;
        let src = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(
            Json::parse(&src),
            Err(ParseError::TooDeep {
                limit: MAX_JSON_DEPTH
            })
        );
        // Same for objects.
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("{\"k\":");
        }
        assert!(matches!(Json::parse(&src), Err(ParseError::TooDeep { .. })));
    }

    #[test]
    fn nesting_below_the_limit_parses() {
        let depth = MAX_JSON_DEPTH;
        let src = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&src).is_ok());
        let src = format!("{}1{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(Json::parse(&src).is_err());
    }

    #[test]
    fn escape_of_a_multi_byte_character_is_unknown() {
        // The escaped byte is the character's UTF-8 lead byte.
        assert_eq!(
            Json::parse("\"a\\é\""),
            Err(ParseError::UnknownEscape { escape: '\u{c3}' })
        );
        assert_eq!(
            Json::parse("\"\\😀\""),
            Err(ParseError::UnknownEscape { escape: '\u{f0}' })
        );
    }

    #[test]
    fn input_ending_inside_a_string_is_unterminated() {
        for src in ["\"abc\\", "\"\\", "\"abc", "\"é", "[\"a\\\"", "{\"k\\"] {
            assert_eq!(
                Json::parse(src),
                Err(ParseError::UnterminatedString),
                "{src:?}"
            );
        }
    }

    #[test]
    fn writer_escapes_in_runs_and_matches_display() {
        let s = "plain \"q\" back\\slash\n\r\t\u{0}\u{1f}\u{7f} é😀 end";
        let mut w = JsonWriter::new();
        w.str(s);
        let text = w.into_string();
        assert_eq!(
            text,
            "\"plain \\\"q\\\" back\\\\slash\\n\\r\\t\\u0000\\u001f\u{7f} é😀 end\""
        );
        assert_eq!(Json::Str(s.into()).to_string(), text);
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn truncated_unicode_escapes_are_typed_errors() {
        assert!(matches!(
            Json::parse("\"\\u00\""),
            Err(ParseError::BadUnicodeEscape { .. })
        ));
        assert!(matches!(
            Json::parse("\"\\u\""),
            Err(ParseError::BadUnicodeEscape { .. })
        ));
        // A multi-byte character inside the four hex digits.
        assert_eq!(
            Json::parse("\"\\u0é1\""),
            Err(ParseError::BadUnicodeEscape { at: 3 })
        );
    }
}
