//! The workspace's one JSON value model: a strict parser and a compact
//! writer.
//!
//! The workspace builds fully offline, so nothing here leans on `serde`.
//! It lives in `ants-obs`, the crate with no dependencies, so every
//! layer above (telemetry snapshots, reports, workload specs, the serve
//! wire format) reads and writes one model; `ants-sim` re-exports it as
//! `ants_sim::json`.
//!
//! * [`Json`] — a parsed or built value. Non-negative integer literals
//!   without fraction or exponent parse to [`Json::Int`] (an exact
//!   `u64`): telemetry counters, nanosecond totals and request seeds
//!   must not round above 2^53. Every other number is [`Json::Num`].
//!   Object keys keep document order, so a round-trip test can assert a
//!   serializer's field order, not just its field set.
//!
//! Every JSON document the workspace writes is a [`Json`] tree printed by
//! [`Json::serialize`]: reports, telemetry snapshots and serve events
//! alike. Non-finite floats print as the string sentinels `"NaN"`,
//! `"Inf"` and `"-Inf"`, which [`Json::as_number`] maps back.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Real documents
/// nest a handful of levels; the bound keeps a hostile request line from
/// exhausting a daemon thread's stack.
const MAX_DEPTH: usize = 256;

/// Append `s` escaped for a JSON string body (no surrounding quotes).
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Serialize an `f64` as a JSON token, losslessly.
///
/// JSON has no NaN/infinity tokens, so the non-finite values serialize
/// as the string sentinels `"NaN"`, `"Inf"`, and `"-Inf"`. Consumers
/// that want the numeric value back go through [`Json::as_number`],
/// which maps the sentinels to their `f64`s; a plain JSON reader still
/// sees a well-formed document.
fn number(x: f64) -> String {
    if x.is_finite() {
        // Rust's `Display` for floats is the shortest representation that
        // round-trips, which is exactly what a machine-readable report
        // wants. Note `-0.0` prints as `-0`, which parses back to `-0.0`.
        format!("{x}")
    } else if x.is_nan() {
        "\"NaN\"".to_string()
    } else if x > 0.0 {
        "\"Inf\"".to_string()
    } else {
        "\"-Inf\"".to_string()
    }
}

/// A parsed or built JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal with no fraction or exponent that
    /// fits in a `u64`, held exactly.
    Int(u64),
    /// Any other number (`-0` keeps its sign).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&[u64]> for Json {
    fn from(values: &[u64]) -> Json {
        Json::Arr(values.iter().map(|&n| Json::Int(n)).collect())
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// The byte offset and nature of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys in document order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// The value as an exact `u64`: [`Json::Int`] only, so `-1`, `1.5`
    /// and `1e3` are `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a number, if it is one ([`Json::Int`] widens to
    /// `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a number, honouring the non-finite string sentinels
    /// [`Json::serialize`] emits: `"NaN"`, `"Inf"`, and `"-Inf"` map back to
    /// their `f64` values. Use this wherever a document cell is
    /// semantically numeric (report rows, snapshot diffs, the serve wire
    /// format); use [`Json::as_f64`] when only a literal JSON number
    /// will do.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Inf" => Some(f64::INFINITY),
                "-Inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            other => other.as_f64(),
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize the tree as a compact one-line JSON document.
    ///
    /// Floats print in their shortest round-trip form, and non-finite
    /// values round-trip via the string sentinels; integers print exactly; object keys keep
    /// their order. A `parse`/`serialize` round trip is therefore stable
    /// after the first pass.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => out.push_str(&number(*x)),
            Json::Str(s) => {
                out.push('"');
                push_escaped(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    push_escaped(out, k);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one slice.
            // Both delimiters are ASCII, so the run ends on a char
            // boundary, and the whole string costs linear time.
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is already consumed: a
    /// BMP scalar, or a high surrogate followed by `\u` and its low half.
    /// Lone surrogates are errors.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let text = self.text;
        let v = text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A string's escaped body (without the surrounding quotes).
    fn escape(s: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, s);
        out
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": "x,y"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.keys(), vec!["a", "c"]);
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x,y"));
    }

    #[test]
    fn parses_nested_documents() {
        let doc =
            Json::parse(r#"{"a": 1, "b": [2, 3.5, "x"], "c": {"d": true, "e": null}, "f": -1}"#)
                .unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        let b = doc.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(b[0].as_u64(), Some(2));
        assert_eq!(b[1], Json::Num(3.5));
        assert_eq!(b[2].as_str(), Some("x"));
        assert_eq!(doc.get("c").and_then(|c| c.get("d")), Some(&Json::Bool(true)));
        assert_eq!(doc.get("c").and_then(|c| c.get("e")), Some(&Json::Null));
        assert_eq!(doc.get("f"), Some(&Json::Num(-1.0)));
    }

    /// Only plain non-negative integer literals that fit are exact
    /// integers; everything else stays a float, so `-0` keeps its sign
    /// and `as_u64` refuses what a seed must not silently become.
    #[test]
    fn u64_integers_survive_exactly() {
        for n in [0, 1, (1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let doc = Json::parse(&format!("{{\"n\":{n}}}")).unwrap();
            assert_eq!(doc.get("n").and_then(Json::as_u64), Some(n));
            assert_eq!(doc.serialize(), format!("{{\"n\":{n}}}"));
        }
        for (text, x) in [("-0", -0.0f64), ("-1", -1.0), ("1.5", 1.5), ("1e3", 1e3), ("1.0", 1.0)] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.as_u64(), None, "{text}");
            assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
        }
        let past_max = Json::parse("18446744073709551616").unwrap();
        assert_eq!(past_max, Json::Num(18446744073709551616.0));
        assert_eq!(Json::Int(u64::MAX).as_number(), Some(u64::MAX as f64));
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g — ünïcode";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}\u{1f41c}";
        let tree = Json::obj([("s", Json::from(original))]);
        let line = tree.serialize();
        assert_eq!(line, format!("{{\"s\":\"{}\"}}", escape(original)));
        assert_eq!(Json::parse(&line).unwrap(), tree);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        for lone in [r#""\ud83d""#, r#""\ude00""#, r#""\ud83dx""#, r#""\ud83dA""#] {
            assert!(Json::parse(lone).is_err(), "accepted {lone}");
        }
        for bad in [r#""\u+041""#, r#""\u00"#, r#""\u00g1""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("+5").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\"}", "{\"a\":1} x", "\"open", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4, "{e}");
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(1 << 20);
        assert!(Json::parse(&deep).unwrap_err().message.contains("deep"));
    }

    /// A megabyte string parses in linear time (the per-character loop
    /// this replaced re-validated the rest of the document each step and
    /// took tens of seconds here).
    #[test]
    fn long_strings_parse_in_linear_time() {
        let reps = 1 << 17;
        let body = "ab\\\"c\u{e9}\u{1f41c} ".repeat(reps);
        let doc = format!("{{\"spec\":\"{body}\"}}");
        assert!(doc.len() > 1 << 20);
        let t0 = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(2), "{:?}", t0.elapsed());
        let s = v.get("spec").and_then(Json::as_str).unwrap();
        assert_eq!(s.len(), body.len() - reps, "one byte per unescaped quote");
    }

    #[test]
    fn number_serializer_round_trips() {
        for x in [0.0, 1.5, -3.25e-7, 1234567890.125, f64::MAX] {
            let v = Json::parse(&number(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x));
            assert_eq!(v.as_number(), Some(x));
        }
        assert_eq!(number(f64::NAN), "\"NaN\"");
        assert_eq!(number(f64::INFINITY), "\"Inf\"");
        assert_eq!(number(f64::NEG_INFINITY), "\"-Inf\"");
    }

    /// The acceptance contract: NaN, ±Inf, and -0.0 survive a
    /// serialize → parse → read-back round trip bit-for-bit.
    #[test]
    fn non_finite_numbers_round_trip() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
            let v = Json::parse(&number(x)).unwrap();
            let back = v.as_number().expect("numeric after round trip");
            assert_eq!(back.to_bits(), x.to_bits(), "lost {x:?}");
        }
        // Plain strings are not numbers; the sentinel mapping is exact.
        assert_eq!(Json::Str("nan".into()).as_number(), None);
        assert_eq!(Json::Str("Infinity".into()).as_number(), None);
        assert_eq!(Json::Null.as_number(), None);
    }

    #[test]
    fn serialize_round_trips_documents() {
        let doc = r#"{"a":[1,2,{"b":null}],"c":"x\"y","d":true,"e":"NaN","f":-0.5}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.serialize(), doc);
        assert_eq!(Json::parse(&v.serialize()).unwrap(), v);
        // Non-finite numbers serialize as sentinels and re-parse as
        // sentinel strings — still numeric through as_number.
        let tree = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(-0.0)]);
        assert_eq!(tree.serialize(), r#"["Inf",-0]"#);
        let back = Json::parse(&tree.serialize()).unwrap();
        let items = back.as_array().unwrap();
        assert_eq!(items[0].as_number(), Some(f64::INFINITY));
        assert_eq!(items[1].as_number().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        assert_eq!(v.keys(), vec!["z", "a", "m"]);
        let built = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(built.serialize(), r#"{"z":1,"a":2}"#);
    }
}
