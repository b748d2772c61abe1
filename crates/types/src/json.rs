//! The workspace's one JSON codec (no serde): [`Writer`], which every
//! emitter streams its document through, and [`Json`], the reader
//! every parser uses.
//!
//! The writer owns the decisions an emitter would otherwise make for
//! itself: it places every separator, escapes every key and string,
//! prints integers exactly (a `u64` fault seed is never rounded through
//! `f64`) and floats shortest round-trip ([`Writer::new`]) or with six
//! fixed decimals ([`Writer::report`]), `null` when non-finite. It
//! builds no tree: values go straight into the caller's `String`.
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
//! that need exact 64-bit integers (`qz-snap/v2`, and the seeds of the
//! fleet and fault reports) carry them as strings ([`DecimalU64`]).

use core::fmt::Write as _;
use std::string::String;
use std::vec::Vec;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Appends `s` to `out` as the body of a JSON string literal (without
/// the surrounding quotes): `"`, `\`, `\n`, `\r` and `\t` get their
/// short escapes, other control characters `\u00XX`. Runs that need
/// no escape (every byte to escape is ASCII) are copied wholesale.
fn escape_into(out: &mut String, mut s: &str) {
    while let Some(i) = s.bytes().position(needs_escape) {
        out.push_str(&s[..i]);
        match s.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// A streaming JSON emitter over a borrowed `String`. Containers are
/// closures, so they always close; at most 64 can be open at once.
///
/// ```
/// let mut out = String::new();
/// qz_types::json::Writer::new(&mut out).obj(|w| {
///     w.field("id", "a\"b").field("seed", u64::MAX).field("x", f64::NAN);
///     w.key("tags").items(["t", "u"]);
/// });
/// assert_eq!(out, r#"{"id":"a\"b","seed":18446744073709551615,"x":null,"tags":["t","u"]}"#);
/// ```
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    report: bool,
    /// Open containers.
    depth: u32,
    /// Bit `d - 1` is set once the container at depth `d` has a member.
    filled: u64,
    /// A key was just written: the next value follows it directly.
    keyed: bool,
    /// Indent of the line break [`Writer::line_break`] asked for.
    pending_break: Option<usize>,
}

impl<'a> Writer<'a> {
    /// A compact writer (no whitespace) printing floats shortest
    /// round-trip.
    pub fn new(out: &'a mut String) -> Writer<'a> {
        Writer {
            out,
            report: false,
            depth: 0,
            filled: 0,
            keyed: false,
            pending_break: None,
        }
    }

    /// The layout of the fleet and fault reports: the outer two levels
    /// of containers put one member per line, two spaces a level, deeper
    /// ones stay inline as `{"k": v, "l": w}`; six fixed float decimals.
    pub fn report(out: &'a mut String) -> Writer<'a> {
        Writer {
            report: true,
            ..Writer::new(out)
        }
    }

    /// Whether members of the innermost open container go one per line.
    fn breaks_lines(&self) -> bool {
        self.report && self.depth <= 2
    }

    /// Starts a new line at `level` indents when the layout or a
    /// [`line_break`](Self::line_break) asks for one.
    fn newline(&mut self, level: u32) {
        let layout = self.breaks_lines().then_some(2 * level as usize);
        if let Some(indent) = layout.or_else(|| self.pending_break.take()) {
            self.out.push('\n');
            self.out.extend(core::iter::repeat_n(' ', indent));
        }
    }

    /// The separator and line break before a key or an unkeyed value.
    fn member(&mut self) {
        if core::mem::take(&mut self.keyed) || self.depth == 0 {
            return;
        }
        let bit = 1u64 << (self.depth - 1);
        if self.filled & bit != 0 {
            self.out.push(',');
            if self.report && !self.breaks_lines() {
                self.out.push(' ');
            }
        }
        self.filled |= bit;
        self.newline(self.depth);
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.member();
        assert!(self.depth < 64, "JSON writer nesting is limited to 64");
        self.out.push(open);
        self.depth += 1;
        self.filled &= !(1u64 << (self.depth - 1));
        body(self);
        self.newline(self.depth - 1);
        self.depth -= 1;
        self.out.push(close);
        self
    }

    /// An object whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// An array whose elements `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    /// An array of `items`.
    pub fn items<I>(&mut self, items: I) -> &mut Self
    where
        I: IntoIterator,
        I::Item: WriteJson,
    {
        self.arr(|w| {
            for item in items {
                item.write_json(w);
            }
        })
    }

    /// An object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str(if self.report { "\": " } else { "\":" });
        self.keyed = true;
        self
    }

    /// One value (an array element, or the value after [`key`](Self::key)).
    pub fn value(&mut self, value: impl WriteJson) -> &mut Self {
        value.write_json(self);
        self
    }

    /// An object member: [`key`](Self::key) then [`value`](Self::value).
    pub fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// A string value rendered from format arguments, escaped like any
    /// other string (`w.str_fmt(format_args!("{hash:#018x}"))`).
    pub fn str_fmt(&mut self, args: core::fmt::Arguments<'_>) -> &mut Self {
        self.member();
        self.out.push('"');
        let start = self.out.len();
        let _ = self.out.write_fmt(args);
        if self.out[start..].bytes().any(needs_escape) {
            let raw = self.out.split_off(start);
            escape_into(self.out, &raw);
        }
        self.out.push('"');
        self
    }

    /// A `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.display("null");
        self
    }

    /// A value that is already JSON text (an embedded document, or a
    /// number a frozen format renders its own way), copied verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.member();
        self.out.push_str(json);
        self
    }

    /// Starts the next member (or the closing bracket) on a new line
    /// indented `indent` spaces where the layout would not.
    pub fn line_break(&mut self, indent: usize) -> &mut Self {
        self.pending_break = Some(indent);
        self
    }

    fn display(&mut self, v: impl core::fmt::Display) {
        self.member();
        let _ = write!(self.out, "{v}");
    }
}

/// A value a [`Writer`] can emit.
pub trait WriteJson {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut Writer<'_>);
}

/// Renders `value` as a compact JSON document.
pub fn to_string(value: impl WriteJson) -> String {
    let mut out = String::new();
    Writer::new(&mut out).value(value);
    out
}

macro_rules! write_json_display {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, w: &mut Writer<'_>) {
                w.display(self);
            }
        }
    )*};
}

write_json_display!(bool, u8, u32, u64, usize);

impl WriteJson for f64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        if !self.is_finite() {
            w.null();
        } else if w.report {
            w.display(format_args!("{self:.6}"));
        } else {
            w.display(self);
        }
    }
}

impl WriteJson for str {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.str_fmt(format_args!("{self}"));
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut Writer<'_>) {
        self.as_str().write_json(w);
    }
}

/// A `u64` written as a decimal JSON string, so it reads back exactly
/// through any `f64`-based reader, [`Json`] included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecimalU64(pub u64);

impl WriteJson for DecimalU64 {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.str_fmt(format_args!("{}", self.0));
    }
}

/// `None` is `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut Writer<'_>) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.null();
            }
        }
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, w: &mut Writer<'_>) {
        (**self).write_json(w);
    }
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
    use proptest::prelude::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::{TestCaseError, TestRng};

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
        let doc = to_string(raw);
        assert!(!doc.contains('\n') && !doc.contains('\u{7}'));
        assert!(doc.contains("\\u0007"));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn report_layout_breaks_the_outer_two_levels_only() {
        let mut out = String::new();
        Writer::report(&mut out).obj(|w| {
            w.field("a", 1u64).key("b").obj(|w| {
                w.field("x", 0.5).key("deep").obj(|w| {
                    w.field("p", f64::INFINITY).key("q").items([1u64, 2]);
                });
            });
            w.key("empty").arr(|_| {});
        });
        assert_eq!(
            out,
            "{\n  \"a\": 1,\n  \"b\": {\n    \"x\": 0.500000,\n    \"deep\": \
             {\"p\": null, \"q\": [1, 2]}\n  },\n  \"empty\": [\n  ]\n}"
        );
    }

    /// A value tree for the round-trip property.
    #[derive(Debug, Clone)]
    enum Tree {
        Null,
        Bool(bool),
        Int(u64),
        Float(f64),
        Str(String),
        Arr(Vec<Tree>),
        Obj(Vec<(String, Tree)>),
    }

    impl Tree {
        fn write(&self, w: &mut Writer<'_>) {
            match self {
                Tree::Null => {
                    w.null();
                }
                Tree::Bool(b) => {
                    w.value(b);
                }
                Tree::Int(v) => {
                    w.value(v);
                }
                Tree::Float(v) => {
                    w.value(v);
                }
                Tree::Str(s) => {
                    w.value(s);
                }
                Tree::Arr(items) => {
                    w.arr(|w| items.iter().for_each(|t| t.write(w)));
                }
                Tree::Obj(fields) => {
                    w.obj(|w| fields.iter().for_each(|(k, t)| t.write(w.key(k))));
                }
            }
        }

        /// What the reader must return for this tree written under the
        /// compact (shortest float) or report (six decimals) policy.
        fn read_back(&self, report: bool) -> Json {
            match self {
                Tree::Null => Json::Null,
                Tree::Bool(b) => Json::Bool(*b),
                #[allow(clippy::cast_precision_loss)] // ≤ 2^53: exact
                Tree::Int(v) => Json::Num(*v as f64),
                Tree::Float(v) if !v.is_finite() => Json::Null,
                Tree::Float(v) if report => Json::Num(format!("{v:.6}").parse().unwrap()),
                Tree::Float(v) => Json::Num(*v),
                Tree::Str(s) => Json::Str(s.clone()),
                Tree::Arr(items) => Json::Arr(items.iter().map(|t| t.read_back(report)).collect()),
                Tree::Obj(fields) => Json::Obj(
                    fields
                        .iter()
                        .map(|(k, t)| (k.clone(), t.read_back(report)))
                        .collect(),
                ),
            }
        }
    }

    /// Trees up to `depth` containers deep.
    struct Trees {
        depth: u32,
    }

    fn any_string(rng: &mut TestRng) -> String {
        const PALETTE: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}',
            '\u{7f}', 'é', '€', '\u{2028}', '😀',
        ];
        let len = rng.below(8);
        (0..len)
            .map(|_| {
                if rng.below(4) == 0 {
                    let code = u32::try_from(rng.below(0x11_0000)).unwrap_or(0);
                    char::from_u32(code).unwrap_or('\u{fffd}')
                } else {
                    let i = usize::try_from(rng.below(PALETTE.len() as u64)).unwrap_or(0);
                    PALETTE[i]
                }
            })
            .collect()
    }

    impl Strategy for Trees {
        type Value = Tree;
        fn sample(&self, rng: &mut TestRng) -> Tree {
            let kinds = if self.depth == 0 { 5 } else { 7 };
            match rng.below(kinds) {
                0 => Tree::Null,
                1 => Tree::Bool(rng.below(2) == 1),
                2 => Tree::Int(rng.below((1 << 53) + 1)),
                3 => Tree::Float(match rng.below(4) {
                    // Any bit pattern: subnormals, huge exponents, NaN, ±inf.
                    0 | 1 => f64::from_bits(rng.next_u64()),
                    2 => (rng.next_f64() - 0.5) * 1e3,
                    _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324]
                        [usize::try_from(rng.below(5)).unwrap_or(0)],
                }),
                4 => Tree::Str(any_string(rng)),
                kind => {
                    let inner = Trees {
                        depth: self.depth - 1,
                    };
                    let len = rng.below(5);
                    if kind == 5 {
                        Tree::Arr((0..len).map(|_| inner.sample(rng)).collect())
                    } else {
                        Tree::Obj(
                            (0..len)
                                .map(|_| (any_string(rng), inner.sample(rng)))
                                .collect(),
                        )
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn written_trees_read_back(tree in Trees { depth: 4 }) {
            for report in [false, true] {
                let mut out = String::new();
                let mut w = if report { Writer::report(&mut out) } else { Writer::new(&mut out) };
                tree.write(&mut w);
                let read = Json::parse(&out).map_err(|e| TestCaseError::fail(format!("{e}: {out}")))?;
                prop_assert_eq!(read, tree.read_back(report), "{}", out);
            }
        }
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
