//! Property tests for `lc_driver::json`: print → parse is the identity
//! for every value the driver can emit, including hostile strings
//! (escapes, control characters, astral-plane characters that a UTF-16
//! encoder would split into surrogate pairs) and boundary integers
//! (`i64::MIN`/`i64::MAX`) — and the byte writer prints exactly what a
//! character-at-a-time reference printer does.

use std::fmt::Write as _;

use lc_driver::json::{render, Json, JsonWriter, ParseError};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// Characters that stress the printer's escaping and the parser's
/// decoder: quotes, backslashes, every shorthand escape, raw control
/// characters, multi-byte BMP characters, and astral-plane characters.
fn hostile_char() -> impl Strategy<Value = char> {
    select(vec![
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{8}',
        '\u{c}',
        '\u{0}',
        '\u{1f}',
        ' ',
        'a',
        'Z',
        '0',
        'é',
        'λ',
        '中',
        '\u{FFFD}',
        '\u{FFFF}',
        '😀',
        '🚀',
        '\u{10000}',
        '\u{10FFFF}',
    ])
}

fn hostile_string() -> impl Strategy<Value = String> {
    vec(hostile_char(), 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// Integers biased toward the edges of the `i64` domain.
fn edge_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::MIN + 1),
        Just(i64::MAX - 1),
        Just(0i64),
        Just(-1i64),
        -1_000_000i64..1_000_000,
    ]
}

/// Arbitrary JSON trees built from the hostile leaves.
fn arb_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        proptest::bool::ANY.prop_map(Json::Bool),
        edge_int().prop_map(Json::Int),
        hostile_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Json::Arr),
            vec((hostile_string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}

/// The reference printer: one character at a time, the format the
/// writer's run-based escaper must reproduce byte for byte.
fn reference(v: &Json, out: &mut String) {
    fn string(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => write!(out, "{b}").unwrap(),
        Json::Int(n) => write!(out, "{n}").unwrap(),
        Json::Str(s) => string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                string(k, out);
                out.push(':');
                reference(v, out);
            }
            out.push('}');
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn documents_of_hundreds_of_hostile_strings_round_trip(
        strings in vec(hostile_string(), 200..400),
    ) {
        let doc = Json::Arr(vec![
            Json::Arr(strings.iter().cloned().map(Json::Str).collect()),
            Json::Obj(strings.iter().map(|s| (s.clone(), Json::Str(s.clone()))).collect()),
        ]);
        let text = doc.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(doc));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_bytes_equal_display_and_the_reference_printer(v in arb_json()) {
        let mut w = JsonWriter::new();
        w.value(&v);
        let bytes = w.into_bytes();
        let mut want = String::new();
        reference(&v, &mut want);
        prop_assert_eq!(&bytes, &want.clone().into_bytes());
        prop_assert_eq!(render(&v), v.to_string());
        prop_assert_eq!(v.to_string(), want);
    }

    #[test]
    fn print_parse_round_trips(v in arb_json()) {
        let text = v.to_string();
        let back = Json::parse(&text);
        prop_assert_eq!(back.as_ref(), Ok(&v), "text was: {}", text);
    }

    #[test]
    fn integers_round_trip_exactly(n in edge_int()) {
        let text = Json::Int(n).to_string();
        prop_assert_eq!(Json::parse(&text), Ok(Json::Int(n)));
    }

    #[test]
    fn strings_round_trip_through_escaping(s in hostile_string()) {
        let text = Json::Str(s.clone()).to_string();
        // The printed form is itself valid UTF-8 with balanced quotes.
        prop_assert!(text.starts_with('"') && text.ends_with('"'));
        prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
    }

    #[test]
    fn magnitudes_beyond_i64_are_rejected_with_the_typed_error(
        extra_digit in 0u32..10,
        negative in proptest::bool::ANY,
    ) {
        // Append a digit to i64::MAX's decimal text: always out of range.
        let body = format!("{}{}", i64::MAX, extra_digit);
        let text = if negative { format!("-{body}") } else { body };
        match Json::parse(&text) {
            Err(ParseError::IntOutOfRange { literal, at: 0 }) => {
                prop_assert_eq!(literal, text);
            }
            other => prop_assert!(false, "expected IntOutOfRange, got {:?}", other),
        }
    }
}

/// The canonical surrogate-pair cases, exhaustively rather than randomly:
/// every astral char the hostile alphabet contains must survive a trip
/// through explicit `\uXXXX` pair encoding too.
#[test]
fn explicit_surrogate_pair_escapes_decode() {
    for (c, hi, lo) in [
        ('😀', 0xD83Du32, 0xDE00u32),
        ('🚀', 0xD83D, 0xDE80),
        ('\u{10000}', 0xD800, 0xDC00),
        ('\u{10FFFF}', 0xDBFF, 0xDFFF),
    ] {
        let text = format!("\"\\u{hi:04x}\\u{lo:04x}\"");
        assert_eq!(
            Json::parse(&text).unwrap(),
            Json::Str(c.to_string()),
            "pair ({hi:04x}, {lo:04x})"
        );
    }
}

#[test]
fn i64_min_literal_round_trips() {
    let v = Json::Arr(vec![Json::Int(i64::MIN), Json::Int(i64::MAX)]);
    let text = v.to_string();
    assert_eq!(text, "[-9223372036854775808,9223372036854775807]");
    assert_eq!(Json::parse(&text).unwrap(), v);
}
