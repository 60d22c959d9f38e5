//! Offline stand-in for `serde_json`: [`to_string`] drives the shim
//! `serde::Serialize` JSON writer, and [`Value`] / [`from_str`] provide
//! the parsing half that the durable catalog store (`pip-store`) reads
//! snapshots and WAL payloads back through.
//!
//! Numbers are kept as their source text ([`Value::Number`] stores the
//! literal) so `u64` identifiers and shortest-round-trip `f64`s survive
//! the trip without precision loss — accessors parse on demand.

use std::fmt;

/// Serialization / parse error.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    fn parse(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out);
    Ok(out)
}

/// A parsed JSON document.
///
/// Object keys keep insertion order (a `Vec` of pairs) so that a
/// serialize → parse → serialize round trip is byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// The number's source text, verbatim (full precision preserved).
    Number(String),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Build a number value from anything with a JSON-compatible display.
    pub fn number(n: impl fmt::Display) -> Value {
        Value::Number(n.to_string())
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl serde::Serialize for Value {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(n),
            Value::String(s) => serde::write_json_string(s, out),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.serialize_json(out);
                }
                out.push(']');
            }
            Value::Object(o) => {
                out.push('{');
                for (i, (k, v)) in o.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::write_json_string(k, out);
                    out.push(':');
                    v.serialize_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(Error::parse(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The whole document; `pos` is a byte offset that always sits on a
    /// char boundary (it only steps over ASCII bytes or whole chars).
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// Nesting cap: deep-recursion guard for hostile inputs.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(Error::parse("document nests too deeply"));
        }
        match self.peek() {
            None => Err(Error::parse("unexpected end of input")),
            Some(b'n') if self.eat_lit("null") => Ok(Value::Null),
            Some(b't') if self.eat_lit("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::parse(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => {
                            return Err(Error::parse(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::parse(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            ))),
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() {
                saw_digit = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        if !saw_digit {
            return Err(Error::parse(format!("malformed number at byte {start}")));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        // Validate it is a real number now so accessors can't surprise.
        text.parse::<f64>()
            .map_err(|_| Error::parse(format!("malformed number '{text}'")))?;
        Ok(Value::Number(text.to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::parse("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pair?
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if !(self.eat_lit("\\u")) {
                                    return Err(Error::parse("lone high surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::parse("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(c)
                                    .ok_or_else(|| Error::parse("bad surrogate pair"))?
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| Error::parse("bad \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        other => {
                            return Err(Error::parse(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Decode only the char at `pos`, so a parse stays
                    // linear in the document's length.
                    let c = self.text[self.pos..].chars().next().expect("peeked a byte");
                    if (c as u32) < 0x20 {
                        return Err(Error::parse("unescaped control character"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Four hex digits of a `\u` escape (cursor past them on return).
    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let s = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| Error::parse("truncated or non-hex \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| Error::parse("bad \\u escape"))?;
        self.pos = end;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_via_trait() {
        assert_eq!(super::to_string(&vec![1i64, 2, 3]).unwrap(), "[1,2,3]");
        assert_eq!(super::to_string("hi").unwrap(), "\"hi\"");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str(" true ").unwrap(), Value::Bool(true));
        assert_eq!(from_str("false").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap().as_i64(), Some(42));
        assert_eq!(from_str("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(from_str("\"a\\nb\"").unwrap().as_str(), Some("a\nb"));
    }

    #[test]
    fn numbers_keep_full_precision() {
        let big = u64::MAX.to_string();
        assert_eq!(from_str(&big).unwrap().as_u64(), Some(u64::MAX));
        let v = from_str("0.1").unwrap();
        assert_eq!(v.as_f64(), Some(0.1));
        // Shortest-round-trip floats survive serialize → parse → read.
        let x = 0.30000000000000004_f64;
        let v = from_str(&x.to_string()).unwrap();
        assert_eq!(v.as_f64().map(f64::to_bits), Some(x.to_bits()));
    }

    #[test]
    fn parse_containers_and_lookup() {
        let v = from_str(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].get("b").unwrap().as_str(), Some("x"));
        assert!(v.get("zzz").is_none());
        assert_eq!(from_str("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(from_str("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        assert_eq!(from_str("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert!(from_str("\"\\ud83d\"").is_err());
    }

    #[test]
    fn raw_multibyte_characters() {
        assert_eq!(from_str("\"é\"").unwrap().as_str(), Some("é"));
        assert_eq!(from_str("\"a😀b\"").unwrap().as_str(), Some("a😀b"));
        // A multibyte char as the document's very last string byte.
        let v = from_str("[\"x\", \"ü😀\"]").unwrap();
        assert_eq!(v.as_array().unwrap()[1].as_str(), Some("ü😀"));
        assert!(from_str("\"\\u00é\"").is_err());
    }

    #[test]
    fn parse_time_is_linear_in_document_length() {
        fn doc(rows: usize) -> String {
            let rows: Vec<String> = (0..rows)
                .map(|i| format!(r#"{{"name":"row-{i}-é","v":{i}.5}}"#))
                .collect();
            format!("[{}]", rows.join(","))
        }
        fn best_of_3(text: &str) -> std::time::Duration {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    from_str(text).unwrap();
                    t.elapsed()
                })
                .min()
                .unwrap()
        }
        let (small, large) = (doc(2_000), doc(16_000));
        let ratio = best_of_3(&large).as_secs_f64() / best_of_3(&small).as_secs_f64();
        // Linear is about 8x; re-scanning the rest of the document per
        // char (quadratic) is about 60x.
        assert!(ratio < 24.0, "8x the document took {ratio:.1}x as long");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "tru",
            "1.2.3",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}",
            "\"unterminated",
            "[1] trailing",
            "nul",
            "+1",
            "01a",
        ] {
            assert!(from_str(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str(&deep).is_err(), "depth guard missing");
    }

    #[test]
    fn value_serializes_back() {
        let text = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true}}"#;
        let v = from_str(text).unwrap();
        assert_eq!(super::to_string(&v).unwrap(), text);
    }
}
