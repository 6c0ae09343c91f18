//! A minimal self-contained JSON layer for [`NocSpec`](crate::NocSpec)
//! persistence.
//!
//! The container this reproduction builds in has no network access to a
//! crates registry, so the usual `serde`/`serde_json` pair is unavailable;
//! this module provides the small subset the spec format needs: a [`Value`]
//! tree, a strict parser, and a pretty printer. The encoding conventions
//! mirror serde's defaults (externally tagged enums, `null` for `None`) so
//! specs stay readable and stable.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. The spec format only uses unsigned integers.
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Ordered map so output is deterministic.
    Obj(BTreeMap<String, Value>),
}

/// Error produced by [`parse`] or by the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of what went wrong.
    pub msg: String,
    /// Byte offset in the input, when known.
    pub at: Option<usize>,
}

impl JsonError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            at: None,
        }
    }

    fn at(msg: impl Into<String>, at: usize) -> Self {
        JsonError {
            msg: msg.into(),
            at: Some(at),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} (at byte {at})", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value as `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a number.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected number, got {other:?}"))),
        }
    }

    /// The value as `usize`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a number that fits.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64()?).map_err(|_| JsonError::new("number too large for usize"))
    }

    /// The value as `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a number that fits.
    pub fn as_u32(&self) -> Result<u32, JsonError> {
        u32::try_from(self.as_u64()?).map_err(|_| JsonError::new("number too large for u32"))
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!("expected bool, got {other:?}"))),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(JsonError::new(format!("expected string, got {other:?}"))),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not an array.
    pub fn as_arr(&self) -> Result<&[Value], JsonError> {
        match self {
            Value::Arr(v) => Ok(v),
            other => Err(JsonError::new(format!("expected array, got {other:?}"))),
        }
    }

    /// Fetches a required object field.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not an object or lacks `key`.
    pub fn get(&self, key: &str) -> Result<&Value, JsonError> {
        match self {
            Value::Obj(m) => m
                .get(key)
                .ok_or_else(|| JsonError::new(format!("missing field `{key}`"))),
            other => Err(JsonError::new(format!("expected object, got {other:?}"))),
        }
    }

    /// Fetches an optional object field: `None` when the key is absent or
    /// the value is not an object — the back-compat lookup for fields added
    /// after older spec files were written.
    pub fn get_opt(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Interprets the value as an externally tagged enum: either a bare
    /// string (unit variant) or a single-key object (data variant).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] for any other shape.
    pub fn as_variant(&self) -> Result<(&str, Option<&Value>), JsonError> {
        match self {
            Value::Str(s) => Ok((s, None)),
            Value::Obj(m) if m.len() == 1 => {
                let (k, v) = m.iter().next().expect("len checked");
                Ok((k, Some(v)))
            }
            other => Err(JsonError::new(format!(
                "expected enum variant (string or 1-key object), got {other:?}"
            ))),
        }
    }
}

/// Pretty-prints `v` with two-space indentation (serde_json style).
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out
}

/// Prints `v` on one line with no whitespace (serde_json `to_string`
/// style). Objects are `BTreeMap`-backed, so the output is deterministic —
/// the byte-stable form used for checked-in snapshot goldens, where the
/// pretty printer's line-per-array-element would inflate a large state
/// vector by an order of magnitude.
pub fn to_string_compact(v: &Value) -> String {
    let mut out = String::new();
    write_compact(v, &mut out);
    out
}

/// Appends the decimal digits of `n` — the text of `n.to_string()` — from a
/// stack buffer, so a number costs no allocation of its own.
fn write_num(n: u64, out: &mut String) {
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    let mut rest = n;
    while rest > 0 {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("digits are ascii"));
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            // A state stream is a long array of numbers: write those in
            // place, and reserve a digit and a comma for each element.
            out.reserve(2 * items.len() + 2);
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match item {
                    Value::Num(n) => write_num(*n, out),
                    other => write_compact(other, out),
                }
            }
            out.push(']');
        }
        Value::Obj(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

/// Starts a new line indented `level` steps of two spaces.
fn newline(level: usize, out: &mut String) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent + 1, out);
                write_value(item, indent + 1, out);
            }
            newline(indent, out);
            out.push(']');
        }
        Value::Obj(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent + 1, out);
                write_string(k, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
            }
            newline(indent, out);
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting depth accepted by [`parse`] (matches
/// serde_json's default recursion limit; deeper input is rejected as an
/// error instead of overflowing the stack).
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, trailing garbage, or nesting
/// deeper than the parser's depth bound (`MAX_DEPTH`).
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut pos = 0usize;
    let v = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(JsonError::at("trailing characters after document", pos));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(format!("expected `{}`", c as char), *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::at("nesting too deep", *pos));
    }
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                // A number right at the element's start (the compact form of
                // a state stream) is read here; anything else — whitespace
                // first, nesting, errors — goes the general way.
                let item = match b.get(*pos) {
                    Some(c) if c.is_ascii_digit() && depth < MAX_DEPTH => {
                        Value::Num(parse_num(b, pos)?)
                    }
                    _ => parse_value(text, pos, depth + 1)?,
                };
                items.push(item);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(JsonError::at("expected `,` or `]`", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let v = parse_value(text, pos, depth + 1)?;
                m.insert(key, v);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(m));
                    }
                    _ => return Err(JsonError::at("expected `,` or `}`", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => Ok(Value::Num(parse_num(b, pos)?)),
        Some(_) => Err(JsonError::at("unexpected character", *pos)),
    }
}

/// Reads the unsigned integer starting at `*pos` (a digit). JSON forbids
/// leading zeros; a value past `u64::MAX` is out of range. Both errors
/// point at the number's first byte.
fn parse_num(b: &[u8], pos: &mut usize) -> Result<u64, JsonError> {
    let start = *pos;
    if b[start] == b'0' && b.get(start + 1).is_some_and(u8::is_ascii_digit) {
        return Err(JsonError::at("number has a leading zero", start));
    }
    let mut n = 0u64;
    while let Some(&c) = b.get(*pos).filter(|c| c.is_ascii_digit()) {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add(u64::from(c - b'0')))
            .ok_or_else(|| JsonError::at("number out of range", start))?;
        *pos += 1;
    }
    Ok(n)
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(JsonError::at(format!("expected `{lit}`"), *pos))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        // Copy the run up to the next byte that needs a decision. Those
        // bytes are ASCII, hence char boundaries of `text`.
        let run = *pos;
        while b
            .get(*pos)
            .is_some_and(|&c| c != b'"' && c != b'\\' && c >= 0x20)
        {
            *pos += 1;
        }
        s.push_str(&text[run..*pos]);
        match b.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => s.push(parse_unicode_escape(b, pos)?),
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(JsonError::at("control character in string", *pos)),
        }
    }
}

/// Decodes the `\u` escape whose `u` is at `*pos`, leaving `*pos` on its
/// last hex digit. A high surrogate followed by an escaped low surrogate
/// is one code point; an unpaired surrogate is an error.
fn parse_unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, JsonError> {
    let at = *pos;
    let mut code = hex4(b, at)?;
    *pos += 4;
    if (0xD800..0xDC00).contains(&code) && b.get(*pos + 1..*pos + 3) == Some(b"\\u") {
        let low = hex4(b, *pos + 2)?;
        if (0xDC00..0xE000).contains(&low) {
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            *pos += 6;
        }
    }
    char::from_u32(code).ok_or_else(|| JsonError::at("bad \\u code point", at))
}

/// The four hex digits after the `u` at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = b
        .get(at + 1..at + 5)
        .ok_or_else(|| JsonError::at("truncated \\u escape", at))?;
    hex.iter().try_fold(0u32, |code, &c| {
        char::from(c)
            .to_digit(16)
            .map(|d| code << 4 | d)
            .ok_or_else(|| JsonError::at("bad \\u escape", at))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aethereal_testkit::prelude::*;
    use aethereal_testkit::Rng64;

    #[test]
    fn roundtrip_nested() {
        let v = Value::obj(vec![
            ("a", Value::Num(3)),
            ("b", Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("c", Value::Str("x\"y\\z".into())),
        ]);
        let s = to_string_pretty(&v);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\":}").is_err());
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"k\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str().unwrap(),
            "A\n"
        );
    }

    #[test]
    fn deep_nesting_rejected_not_overflowed() {
        let deep = "[".repeat(50_000);
        let err = parse(&deep).expect_err("must reject");
        assert!(err.msg.contains("nesting too deep"), "{err}");
        // At the limit itself, parsing still works — also for a number read
        // in place by its array.
        let nested = |k: usize| format!("{}0{}", "[".repeat(k), "]".repeat(k));
        assert!(parse(&nested(100)).is_ok());
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err, JsonError::at("nesting too deep", MAX_DEPTH + 1));
    }

    #[test]
    fn numbers_render_like_to_string() {
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(to_string_compact(&Value::Num(n)), n.to_string());
            assert_eq!(to_string_pretty(&Value::Num(n)), n.to_string());
            let arr = Value::Arr(vec![Value::Num(n), Value::Num(n)]);
            assert_eq!(to_string_compact(&arr), format!("[{n},{n}]"));
            assert_eq!(to_string_pretty(&arr), format!("[\n  {n},\n  {n}\n]"));
        }
    }

    #[test]
    fn number_past_u64_max_is_out_of_range_at_its_first_byte() {
        assert_eq!(parse(&u64::MAX.to_string()).unwrap(), Value::Num(u64::MAX));
        for (text, at) in [
            ("18446744073709551616", 0),
            ("[7,18446744073709551616]", 3),
            ("[7, 99999999999999999999]", 4),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err, JsonError::at("number out of range", at), "{text}");
        }
    }

    #[test]
    fn leading_zeros_are_refused() {
        assert_eq!(parse("0").unwrap(), Value::Num(0));
        assert_eq!(
            parse("[0,10,0]").unwrap(),
            Value::Arr(vec![Value::Num(0), Value::Num(10), Value::Num(0)])
        );
        for (text, at) in [("007", 0), ("[1,00]", 3), ("[ 01 ]", 2), ("{\"a\":05}", 5)] {
            let err = parse(text).expect_err(text);
            assert_eq!(
                err,
                JsonError::at("number has a leading zero", at),
                "{text}"
            );
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_refused() {
        for c in ['\u{0}', '\n', '\t', '\u{1f}'] {
            let text = format!("\"a{c}b\"");
            let err = parse(&text).expect_err("raw control character");
            assert_eq!(err, JsonError::at("control character in string", 2));
        }
        // Escaped, they are fine — and the printer escapes them. Every
        // short escape JSON defines is read.
        let s = Value::Str("a\u{0}\n\t\u{1f}b".into());
        assert_eq!(parse(&to_string_compact(&s)).unwrap(), s);
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t""#).unwrap(),
            Value::Str("\"\\/\u{8}\u{c}\n\r\t".into())
        );
    }

    #[test]
    fn escaped_surrogate_pairs_decode_and_lone_surrogates_do_not() {
        // `esc(["d83d", "de00"])` is the JSON text of two `\u` escapes.
        let esc = |codes: &[&str]| codes.iter().map(|c| format!("\\u{c}")).collect::<String>();
        assert_eq!(
            parse(&format!("\"x{}y\"", esc(&["d83d", "de00"]))).unwrap(),
            Value::Str("x\u{1F600}y".into())
        );
        assert_eq!(
            parse(&format!("\"{}\"", esc(&["D834", "DD1E"]))).unwrap(),
            Value::Str("\u{1D11E}".into())
        );
        for text in [
            format!("\"{}\"", esc(&["d83d"])),
            format!("\"{}\"", esc(&["de00"])),
            format!("\"{}x\"", esc(&["d83d"])),
            format!("\"{}\"", esc(&["d83d", "0041"])),
            format!("\"{}\"", esc(&["d83d", "d83d"])),
        ] {
            let err = parse(&text).expect_err(&text);
            assert_eq!(err, JsonError::at("bad \\u code point", 2), "{text}");
        }
        let err = parse(r#""\ud83d\uzzzz""#).expect_err("bad hex in the low half");
        assert_eq!(err, JsonError::at("bad \\u escape", 8));
    }

    /// A random value up to `depth` levels deep: number arrays (the shape
    /// of a state stream) are common, strings carry escapes and non-ASCII.
    fn random_value(rng: &mut Rng64, depth: u32) -> Value {
        const CHARS: [char; 10] = ['a', 'Z', '"', '\\', '/', '\n', '\u{1}', 'é', '→', '😀'];
        let leaf = depth == 0 || rng.chance(0.4);
        match rng.below(if leaf { 4 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.chance(0.5)),
            2 => Value::Num(rng.next_u64() >> rng.below(64)),
            3 => Value::Str(
                (0..rng.below(6))
                    .map(|_| CHARS[rng.below_usize(CHARS.len())])
                    .collect(),
            ),
            4 => Value::Arr(
                (0..rng.below(12))
                    .map(|_| Value::Num(rng.next_u64() >> rng.below(64)))
                    .collect(),
            ),
            5 => Value::Arr(
                (0..rng.below(5))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.below(5))
                    .map(|i| (format!("k{i}"), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// `text` with random JSON whitespace before and after every
    /// structural character outside strings, so between every two tokens.
    fn respaced(text: &str, rng: &mut Rng64) -> String {
        const WS: [char; 4] = [' ', '\t', '\n', '\r'];
        let mut pad = |out: &mut String| {
            for _ in 0..rng.below(3) {
                out.push(WS[rng.below_usize(WS.len())]);
            }
        };
        let mut out = String::new();
        let (mut in_str, mut escaped) = (false, false);
        pad(&mut out);
        for c in text.chars() {
            let structural = !in_str && "[]{},:".contains(c);
            if structural {
                pad(&mut out);
            }
            out.push(c);
            if structural {
                pad(&mut out);
            }
            if in_str {
                (in_str, escaped) = (escaped || c != '"', !escaped && c == '\\');
            } else {
                in_str = c == '"';
            }
        }
        pad(&mut out);
        out
    }

    proptest! {
        #[test]
        fn values_round_trip_through_both_printers_and_any_whitespace(seed in any::<u64>()) {
            let mut rng = Rng64::seed_from_u64(seed);
            let v = random_value(&mut rng, 4);
            for text in [to_string_compact(&v), to_string_pretty(&v)] {
                prop_assert_eq!(parse(&text).unwrap(), v.clone());
                let spaced = respaced(&text, &mut rng);
                prop_assert_eq!(parse(&spaced).unwrap(), v.clone());
            }
        }
    }

    #[test]
    fn variant_accessor() {
        let unit = Value::Str("Direct".into());
        assert_eq!(unit.as_variant().unwrap(), ("Direct", None));
        let data = Value::obj(vec![("Ring", Value::Num(4))]);
        let (tag, body) = data.as_variant().unwrap();
        assert_eq!(tag, "Ring");
        assert_eq!(body.unwrap().as_u64().unwrap(), 4);
    }
    #[test]
    fn compact_round_trips_and_matches_pretty_semantics() {
        let v = Value::obj(vec![
            ("arr", Value::Arr(vec![Value::Num(1), Value::Num(2)])),
            ("b", Value::Bool(true)),
            ("s", Value::Str("a\"b".into())),
            ("z", Value::Null),
        ]);
        let compact = to_string_compact(&v);
        assert!(!compact.contains('\n'), "compact output is one line");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
        assert_eq!(compact, r#"{"arr":[1,2],"b":true,"s":"a\"b","z":null}"#);
    }
}
