//! The workspace's one JSON codec: [`escape_into`] for the hand-written
//! emitters and [`Json`], a small reader.
//!
//! The workspace carries no serde. Every `to_json` builds its document
//! with `format!`/`push_str` and passes string payloads through
//! [`escape_into`]; every reader (bench trajectories and baselines,
//! `qz-snap/v1` snapshots, the CLI's JSON tests) goes through
//! [`Json::parse`].
//!
//! The reader is total and linear in the input length:
//!
//! - any input yields a value or an `Err`, never a panic: nesting deeper
//!   than [`MAX_DEPTH`] is an error rather than a stack overflow;
//! - strings are scanned once, copying unescaped runs wholesale;
//! - the grammar is RFC 8259's, numbers included (`+1`, `.5`, `1.`
//!   and `01` are rejected), and raw control characters inside strings
//!   are rejected.
//!
//! Numbers are read as `f64`, so integers above 2^53 round. Formats
//! that need exact 64-bit integers (`qz-snap/v1`) carry them as strings.

use core::fmt::Write as _;
use std::string::String;
use std::vec::Vec;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Appends `s` to `out` as the body of a JSON string literal (without
/// the surrounding quotes): `"`, `\`, `\n`, `\r` and `\t` get their
/// short escapes, other control characters `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// [`escape_into`] a fresh string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// A parsed JSON value (objects keep key order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (read as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// A short message with the byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut r = Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = r.value(0)?;
        r.skip_ws();
        if r.pos != r.bytes.len() {
            return Err(r.error("trailing garbage"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Cursor over the document. `pos` only ever stops on an ASCII byte
/// or the end, so `text[a..pos]` slices stay on char boundaries.
struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", char::from(b))))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(String::from("unexpected end of input")),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("bad literal"))
        }
    }

    /// Consumes a run of ASCII digits; false if there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return Err(self.error("bad number"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.error("bad fraction"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if !self.digits() {
                return Err(self.error("bad exponent"));
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(String::from("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(0..=0x1f) => return Err(self.error("raw control character in string")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes the escape after a backslash. Lone surrogates decode to
    /// U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(String::from("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi)
                    && self.bytes[self.pos..].starts_with(b"\\u")
                {
                    let save = self.pos;
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        self.pos = save;
                        hi
                    }
                } else {
                    hi
                };
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => {
                self.pos -= 1;
                return Err(self.error("bad escape"));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(digits.iter().fold(0, |acc, &d| {
            acc * 16 + char::from(d).to_digit(16).unwrap_or(0)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_grammar_accepts_and_rejects() {
        let ok = |s: &str| Json::parse(s).is_ok();
        assert!(ok(r#"{"a": [1, -2.5e3, "x\"y", true, null], "b": {}}"#));
        for bad in ["", "{", r#"{"a": 1,}"#, "[1 2]", "07a", "{}extra"] {
            assert!(!ok(bad), "accepted {bad:?}");
        }
        for bad in [
            "+1",
            ".5",
            "1.",
            "-",
            "01",
            "1e",
            "1e+",
            "0x10",
            "NaN",
            "-Infinity",
        ] {
            assert!(!ok(bad), "accepted number {bad:?}");
        }
        for good in ["0", "-0", "1.5", "1E9", "1e-7", "-12.25e+2"] {
            assert!(ok(good), "rejected number {good:?}");
        }
        assert!(!ok("\"tab\there\""), "raw control character");
        assert!(!ok(r#""\x""#), "unknown escape");
        assert!(!ok(r#""\u+123""#), "sign inside \\u digits");
    }

    #[test]
    fn strings_decode_escapes_and_surrogate_pairs() {
        let s = Json::parse(r#""a\n\té😀\ud800z é""#).unwrap();
        assert_eq!(s.as_str(), Some("a\n\té\u{1F600}\u{fffd}z é"));
    }

    #[test]
    fn escape_round_trips_through_the_reader() {
        let raw = "quote \" slash \\ nl \n cr \r tab \t bell \u{7} é";
        let doc = format!("\"{}\"", escape(raw));
        assert!(!doc.contains('\n') && !doc.contains('\u{7}'));
        assert!(doc.contains("\\u0007"));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(1_000_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }
}
