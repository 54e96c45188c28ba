//! The workspace's one JSON codec: a [`Json`] value, a writer with two
//! layouts, and a reader.
//!
//! Every JSON file and body the workspace emits — `manifest.json`,
//! `metrics.json`, `trace.json`, `trace.chrome.json`, `repro --json`
//! artifacts, `repro serve`'s `/v1/manifest` — is built as a [`Json`] and
//! written here; every JSON it reads back (manifests for the sentinel,
//! Criterion estimates) goes through [`parse`].
//!
//! * **Layouts.** [`Json::pretty`] is for files: two-space indent,
//!   `"key": value`, one element per line, `[]`/`{}` when empty, no
//!   trailing newline. [`Json::compact`] is for HTTP bodies: no
//!   whitespace at all.
//! * **Numbers.** Integers are exact: [`Json::U64`] for non-negative
//!   values and [`Json::I64`] for negative ones, so a `u64` seed
//!   round-trips. Floats are written with `{:?}`, Rust's shortest
//!   representation that reads back to the same bits, so they always
//!   carry a `.` or an exponent and never read back as integers.
//! * **Null.** `None` and non-finite floats are written as `null`.
//! * **Key order.** An object keeps its keys in insertion order; the
//!   emitting types insert them in field-declaration order.
//!
//! The reader is recursive descent over the strict grammar of RFC 8259:
//! every string escape including surrogate pairs, integer tokens kept
//! exact, nesting capped at `MAX_DEPTH` so hostile input is an error
//! rather than a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    U64(u64),
    /// A negative integer, exact. Built through `From<i64>`, which keeps
    /// non-negative values in [`Json::U64`] as [`parse`] does.
    I64(i64),
    /// A float; non-finite values are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `fields`, in the given order.
    pub fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value under `key` (the first, if repeated); `None` when the
    /// key is missing or `self` is not an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value of any number, integers converted.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value of a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The file layout: two-space indent, `"key": value`, no trailing
    /// newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The body layout: no whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Appends `self` to `out`; `indent` is the current depth in the
    /// pretty layout, `None` in the compact one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => write_seq(out, indent, ['[', ']'], items, |out, item, inner| {
                item.write(out, inner)
            }),
            Json::Object(fields) => write_seq(
                out,
                indent,
                ['{', '}'],
                fields,
                |out, (key, value), inner| {
                    write_string(out, key);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                },
            ),
        }
    }
}

/// Writes a bracketed, comma-separated sequence; in the pretty layout
/// each element goes on its own line one level deeper.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    if !items.is_empty() {
        let inner = indent.map(|depth| depth + 1);
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            newline(out, inner);
            write_item(out, item, inner);
        }
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Writes `s` as a string literal: `"` and `\` escaped, control
/// characters as their short escape or `\u00XX`, everything else as is.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::U64(v.into())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        match u64::try_from(v) {
            Ok(v) => Json::U64(v),
            Err(_) => Json::I64(v),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<&String> for Json {
    fn from(v: &String) -> Self {
        Json::Str(v.clone())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Why a text is not JSON, or not the JSON a decoder expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error with `message`.
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Error(message.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Parses one JSON value, surrounded by optional whitespace.
pub fn parse(text: &str) -> Result<Json, Error> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.pos < text.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    fn enter(&mut self, depth: usize) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.pos += 1;
        self.skip_whitespace();
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Json, Error> {
        self.enter(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_whitespace();
            if self.eat(b']') {
                return Ok(Json::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, Error> {
        self.enter(depth)?;
        let mut fields = Vec::new();
        if self.eat(b'}') {
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a key"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            fields.push((key, self.value(depth)?));
            self.skip_whitespace();
            if self.eat(b'}') {
                return Ok(Json::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    fn digits(&mut self) -> Result<(), Error> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        let mut integer = true;
        if self.eat(b'.') {
            integer = false;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            self.digits()?;
        }
        let token = &self.text[start..self.pos];
        if integer {
            if let Ok(v) = token.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = token.parse::<i64>() {
                return Ok(Json::from(v));
            }
        }
        // Integers beyond 64 bits read as floats; magnitudes beyond f64
        // are refused, since they could only be written back as `null`.
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(Error(format!("number out of range at byte {start}"))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let Some(byte) = self.peek() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        Ok(match byte {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF => {
                        if !(self.eat(b'\\') && self.eat(b'u')) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.error("unpaired surrogate"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    0xDC00..=0xDFFF => return Err(self.error("unpaired surrogate")),
                    _ => unit,
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?
            }
            _ => return Err(self.error("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.error("expected four hex digits"))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::object([
            ("name", "run".into()),
            ("seed", u64::MAX.into()),
            ("offset", (-3i64).into()),
            ("wall", 0.25.into()),
            ("missing", Option::<f64>::None.into()),
            ("flags", vec![true, false].into_iter().collect()),
            ("empty", Json::Array(Vec::new())),
            ("nested", Json::object([("inner", Json::object([]))])),
        ])
    }

    #[test]
    fn pretty_layout_indents_two_spaces_without_trailing_newline() {
        assert_eq!(
            sample().pretty(),
            "{\n  \"name\": \"run\",\n  \"seed\": 18446744073709551615,\n  \
             \"offset\": -3,\n  \"wall\": 0.25,\n  \"missing\": null,\n  \
             \"flags\": [\n    true,\n    false\n  ],\n  \"empty\": [],\n  \
             \"nested\": {\n    \"inner\": {}\n  }\n}"
        );
    }

    #[test]
    fn compact_layout_has_no_whitespace() {
        assert_eq!(
            sample().compact(),
            "{\"name\":\"run\",\"seed\":18446744073709551615,\"offset\":-3,\
             \"wall\":0.25,\"missing\":null,\"flags\":[true,false],\"empty\":[],\
             \"nested\":{\"inner\":{}}}"
        );
    }

    #[test]
    fn both_layouts_read_back_equal() {
        let value = sample();
        assert_eq!(parse(&value.pretty()), Ok(value.clone()));
        assert_eq!(parse(&value.compact()), Ok(value));
    }

    #[test]
    fn floats_use_the_shortest_round_trip_form_and_non_finite_is_null() {
        let text = |v: f64| Json::F64(v).compact();
        assert_eq!(text(1.0), "1.0");
        assert_eq!(text(-0.0), "-0.0");
        assert_eq!(text(1e-7), "1e-7");
        assert_eq!(text(0.1), "0.1");
        assert_eq!(text(f64::NAN), "null");
        assert_eq!(text(f64::INFINITY), "null");
        assert_eq!(parse("1.0"), Ok(Json::F64(1.0)));
        assert_eq!(parse("1"), Ok(Json::U64(1)));
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let text = |s: &str| Json::from(s).compact();
        assert_eq!(text("plain"), "\"plain\"");
        assert_eq!(text("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(text("x\ny\r\t"), "\"x\\ny\\r\\t\"");
        assert_eq!(text("\u{8}\u{c}\u{1}\u{1f}"), "\"\\b\\f\\u0001\\u001f\"");
        assert_eq!(text("é𝄞"), "\"é𝄞\"");
    }

    #[test]
    fn every_escape_reads_back_including_surrogate_pairs() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\té𝄞""#),
            Ok(Json::from("\"\\/\u{8}\u{c}\n\r\té𝄞"))
        );
        for bad in [
            r#""\ud834""#,
            r#""\udd1e""#,
            r#""\ud834A""#,
            r#""\x""#,
            r#""\u12""#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_stay_exact_and_out_of_range_numbers_are_refused() {
        assert_eq!(parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Json::I64(i64::MIN)));
        assert_eq!(parse("-0"), Ok(Json::U64(0)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::F64(1.8446744073709552e19))
        );
        assert!(parse("1e400").is_err());
        for bad in ["01", "1.", ".5", "+1", "1e", "-", "--1"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            "nul",
            "[1,]",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 2]",
            "{1:2}",
            "\"a\nb\"",
            "1 2",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn lookups_are_typed() {
        let value = sample();
        assert_eq!(value.get("seed").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(value.get("offset").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(value.get("name").and_then(Json::as_str), Some("run"));
        assert_eq!(value.get("name").and_then(Json::as_u64), None);
        assert_eq!(
            value.get("flags").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(value.get("nope"), None);
        assert_eq!(Json::Null.get("seed"), None);
    }
}
