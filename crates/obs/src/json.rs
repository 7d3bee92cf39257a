//! Minimal dependency-free JSON value type, writer, and parser.
//!
//! The workspace is offline by policy, so run reports cannot lean on
//! `serde`. This module implements exactly the subset the repo needs:
//! a value enum whose objects preserve insertion order (deterministic
//! output), a writer that renders integers exactly, and a
//! recursive-descent parser used by `scripts/check.sh`'s smoke test to
//! prove emitted reports are well formed.

use std::fmt;

/// A JSON value. Object keys keep insertion order so rendering is
/// deterministic — the writer performs no sorting of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer, rendered exactly.
    Int(i64),
    /// An unsigned integer, rendered exactly.
    UInt(u64),
    /// A finite float. Non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64 if it is an integer (or integral float).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) if i >= 0 => Some(i as u64),
            Json::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the compact JSON text of the value to `out` — what
    /// [`Json::render`] returns, without a buffer of its own.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{i}"));
            }
            Json::UInt(u) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{u}"));
            }
            Json::Float(f) => {
                if f.is_finite() {
                    // `{f:?}` always keeps a decimal point or exponent,
                    // so the value re-parses as a float.
                    let _ = fmt::Write::write_fmt(out, format_args!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Appends `s` as a JSON string literal: what `Json::str(s)` renders
    /// to, without building the value.
    pub fn render_str_into(s: &str, out: &mut String) {
        write_escaped(s, out);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Appends `s` as a JSON string literal. Runs of bytes that need no
/// escape are copied in bulk; every byte that does is ASCII, so each run
/// ends on a char boundary.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = fmt::Write::write_fmt(out, format_args!("\\u{b:04x}"));
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parses JSON text into a [`Json`] value.
///
/// Accepts the standard grammar (RFC 8259) minus `\uXXXX` surrogate
/// pairs, which the workspace never emits. Returns a message naming
/// the byte offset on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // The input is already a `str` and the run is bounded by ASCII
            // bytes, so it is copied without revalidating it.
            s.push_str(
                self.text
                    .get(start..self.pos)
                    .ok_or_else(|| format!("invalid utf-8 near byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| format!("bad \\u at byte {}", self.pos))?,
                                16,
                            )
                            .map_err(|_| format!("bad \\u at byte {}", self.pos))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_exact_for_integers() {
        let v = Json::obj(vec![
            ("a", Json::UInt(u64::MAX)),
            ("b", Json::Int(i64::MIN)),
            ("c", Json::Float(1.5)),
        ]);
        assert_eq!(
            v.render(),
            format!("{{\"a\":{},\"b\":{},\"c\":1.5}}", u64::MAX, i64::MIN)
        );
    }

    #[test]
    fn round_trip_preserves_structure() {
        let v = Json::obj(vec![
            ("name", Json::str("e10 \"obs\"\n")),
            ("ok", Json::Bool(true)),
            ("n", Json::Null),
            (
                "xs",
                Json::Arr(vec![Json::UInt(0), Json::Int(-3), Json::Float(0.25)]),
            ),
            ("nested", Json::obj(vec![("k", Json::str("v"))])),
        ]);
        let text = v.render();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, v);
        // Rendering the parse result reproduces the bytes: order preserved.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse_json(r#"{"s":"a\tbA\"\\"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\tbA\"\\"));
    }

    #[test]
    fn accessors_work() {
        let v = parse_json(r#"{"u":7,"i":-2,"f":2.5,"a":[1]}"#).unwrap();
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("i").and_then(Json::as_f64), Some(-2.0));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(2.5));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert!(v.get("missing").is_none());
    }
}
