//! A minimal JSON value, parser, and pretty-printer.
//!
//! The workspace's `serde` is an offline no-op shim (the build environment
//! has no crates.io access), so the scenario subsystem carries its own
//! small JSON layer: insertion-ordered objects, exact `u64`/`i64`
//! round-tripping (seeds must survive serialization bit-for-bit, which
//! `f64`-only number models cannot guarantee), and positioned parse
//! errors.
//!
//! Both directions are linear in the document. The parser copies each
//! string as runs between escapes (the input is already a `&str`, and a
//! run cut at an ASCII quote or backslash is valid UTF-8, so nothing is
//! re-validated); the writer has one escaper ([`write_escaped`]) and one
//! number formatter, shared by the [`Json`] tree printer and by
//! [`ObjWriter`], which emits a compact object field by field without
//! building a tree — the service's response lines are written that way.

use std::fmt;

/// A JSON number. Integers keep their exact value; anything with a
/// fraction or exponent is an `f64` (printed via the shortest
/// round-trippable representation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// Non-negative integer (covers every seed and count).
    U(u64),
    /// Negative integer.
    I(i64),
    /// Everything else.
    F(f64),
}

impl Num {
    /// The value as an `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Num::U(v) => v as f64,
            Num::I(v) => v as f64,
            Num::F(v) => v,
        }
    }

    /// The value as a `u64`, if it is exactly a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Num::U(v) => Some(v),
            Num::I(v) => u64::try_from(v).ok(),
            Num::F(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Some(v as u64),
            Num::F(_) => None,
        }
    }
}

/// A parsed JSON value. Object keys keep insertion order so specs
/// round-trip in a stable, diffable layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(Num),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<Num> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the JSONL form
    /// the scenario service streams (one document per line, so embedded
    /// newlines would corrupt the framing; the string escaper below
    /// always encodes them as `\n`).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => write_object(out, |w| {
                for (k, v) in fields {
                    v.write_compact(w.key(k));
                }
            }),
            // Scalars format identically in both modes.
            other => other.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string — the one place that knows the
/// escapes: `\"` and `\\`, `\n` / `\r` / `\t`, `\u00XX` for the other
/// control characters, everything else (non-ASCII included) verbatim.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// [`write_escaped`] without the quotes. Unescaped runs are copied
/// whole; every byte that needs an escape is ASCII, so the cuts fall on
/// character boundaries.
fn escape_into(out: &mut String, s: &str) {
    use fmt::Write as _;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

fn write_bool(out: &mut String, b: bool) {
    out.push_str(if b { "true" } else { "false" });
}

fn write_num(out: &mut String, n: Num) {
    use fmt::Write as _;
    let _ = match n {
        Num::U(v) => write!(out, "{v}"),
        Num::I(v) => write!(out, "{v}"),
        // `{:?}` is the shortest representation that parses back to the
        // identical bits.
        Num::F(v) if v.is_finite() => write!(out, "{v:?}"),
        Num::F(_) => out.write_str("null"),
    };
}

/// Appends `{...}` to `out`, holding the fields `fill` writes.
pub fn write_object(out: &mut String, fill: impl FnOnce(&mut ObjWriter<'_>)) {
    out.push('{');
    fill(&mut ObjWriter { out, first: true });
    out.push('}');
}

/// Writes the fields of one compact JSON object straight into a
/// `String`, in call order, with no intermediate [`Json`] tree: byte for
/// byte what `Json::obj(..).to_string_compact()` prints for the same
/// keys and values. Handed out by [`write_object`] (and, nested, by
/// [`ObjWriter::obj`]), which own the braces.
pub struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjWriter<'_> {
    /// Writes `,"key":` (no comma before the first) and hands back the
    /// buffer for the value.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string field.
    pub fn str(&mut self, key: &str, val: &str) -> &mut Self {
        write_escaped(self.key(key), val);
        self
    }

    /// A string field holding `val`'s `Display` text, escaped as it is
    /// produced (no temporary `String`).
    pub fn display(&mut self, key: &str, val: impl fmt::Display) -> &mut Self {
        struct Escaping<'a>(&'a mut String);
        impl fmt::Write for Escaping<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                escape_into(self.0, s);
                Ok(())
            }
        }
        use fmt::Write as _;
        let out = self.key(key);
        out.push('"');
        let _ = write!(Escaping(out), "{val}");
        out.push('"');
        self
    }

    /// A non-negative integer field.
    pub fn u64(&mut self, key: &str, val: u64) -> &mut Self {
        write_num(self.key(key), Num::U(val));
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Self {
        write_bool(self.key(key), val);
        self
    }

    /// A nested object field, holding the fields `fill` writes.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut ObjWriter<'_>)) -> &mut Self {
        write_object(self.key(key), fill);
        self
    }
}

/// A positioned parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub col: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (one value, optional surrounding
/// whitespace).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn err(&self, msg: impl Into<String>) -> JsonError {
        let (mut line, mut col) = (1, 1);
        for &b in &self.bytes()[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
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
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one
            // piece. Both are ASCII and the input is a `&str`, so the
            // run starts and ends on character boundaries.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = self
                .src
                .get(run..self.pos)
                .ok_or_else(|| self.err("invalid utf-8"))?;
            s.push_str(run);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        // Only ASCII digits, signs, dots, and exponents were consumed.
        #[allow(clippy::unwrap_used)]
        let text = std::str::from_utf8(&self.bytes()[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Num(Num::U(v)));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Num(Num::I(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Json::Num(Num::F(v)))
            .map_err(|_| self.err(format!("bad number '{text}'")))
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
                _ => return Err(self.err("expected ',' or ']'")),
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
            let val = self.value()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::Num(Num::U(42)));
        assert_eq!(parse("-7").unwrap(), Json::Num(Num::I(-7)));
        assert_eq!(parse("2.5e-3").unwrap(), Json::Num(Num::F(0.0025)));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn u64_seeds_round_trip_exactly() {
        for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
            let s = Json::Num(Num::U(v)).to_string_pretty();
            assert_eq!(parse(s.trim()).unwrap(), Json::Num(Num::U(v)), "{v}");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.9, 0.005, 1.0 / 3.0, 1e-12, 123456.789] {
            let s = Json::Num(Num::F(v)).to_string_pretty();
            let Json::Num(n) = parse(s.trim()).unwrap() else {
                panic!()
            };
            assert_eq!(n.as_f64(), v, "{v}");
        }
    }

    #[test]
    fn object_order_and_nesting_round_trip() {
        let doc = Json::Obj(vec![
            ("zeta".into(), Json::Num(Num::U(1))),
            (
                "alpha".into(),
                Json::Arr(vec![Json::Null, Json::Bool(false)]),
            ),
            (
                "nested".into(),
                Json::Obj(vec![("k".into(), Json::Str("v \"q\"".into()))]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string_pretty();
        assert_eq!(parse(&text).unwrap(), doc);
        // Insertion order is preserved verbatim.
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse("{\n  \"a\": 1,\n  \"a\": 2\n}").unwrap_err();
        assert!(e.msg.contains("duplicate"));
        assert_eq!(e.line, 3);
        let e = parse("[1, 2,]").unwrap_err();
        assert!(e.line == 1 && e.col >= 7, "{e}");
        assert!(parse("").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("123 456").unwrap_err().msg.contains("trailing"));
    }

    #[test]
    fn string_errors_point_past_the_run_that_was_copied() {
        // A long run is consumed in one piece; the position reported
        // afterwards is still the exact byte, not the run's start.
        let run = "é".repeat(40); // 80 bytes, 40 of them continuation bytes
        let e = parse(&format!("[\n\"{run}")).unwrap_err();
        assert_eq!(e.msg, "unterminated string");
        assert_eq!((e.line, e.col), (2, 82));
        let e = parse(&format!("\"{run}\\q\"")).unwrap_err();
        assert_eq!(e.msg, "bad escape");
        assert_eq!((e.line, e.col), (1, 83), "points at the escaped character");
        let e = parse(&format!("\"{run}\\u12")).unwrap_err();
        assert_eq!(e.msg, "truncated \\u escape");
        assert_eq!((e.line, e.col), (1, 83));
        let e = parse(&format!("\"{run}\\ud800\"")).unwrap_err();
        assert_eq!(e.msg, "bad \\u code point");
        // A string may end in a run, an escape, or nothing at all.
        assert_eq!(parse("\"\"").unwrap(), Json::Str(String::new()));
        assert_eq!(parse("\"a\\\\\"").unwrap(), Json::Str("a\\".into()));
        assert_eq!(parse("\"\\\\a\"").unwrap(), Json::Str("\\a".into()));
        assert_eq!(
            parse("\"\\/\\b\\f\"").unwrap(),
            Json::Str("/\u{8}\u{c}".into())
        );
        assert!(parse("\"\\").is_err());
    }

    #[test]
    fn object_writer_prints_what_the_tree_prints() {
        let tree = Json::obj(vec![
            ("type", Json::Str("a \"q\" \\ \n \u{1} é".into())),
            ("n", Json::Num(Num::U(u64::MAX))),
            ("ok", Json::Bool(false)),
            ("shown", Json::Str("0x00ff \"x\"".into())),
            ("in\tner", Json::obj(vec![("k", Json::Num(Num::U(0)))])),
            ("empty", Json::obj(vec![])),
        ]);
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.str("type", "a \"q\" \\ \n \u{1} é")
                .u64("n", u64::MAX)
                .bool("ok", false)
                .display("shown", format_args!("{:#06x} \"{}\"", 255, 'x'))
                .obj("in\tner", |w| {
                    w.u64("k", 0);
                })
                .obj("empty", |_| {});
        });
        assert_eq!(out, tree.to_string_compact());
        assert_eq!(parse(&out).unwrap(), tree);
    }

    #[test]
    fn accessors() {
        let doc = parse("{\"s\": \"x\", \"n\": 3, \"b\": true, \"a\": [1]}").unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            doc.get("n").and_then(Json::as_num).unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 1);
        assert!(doc.get("missing").is_none());
    }
}
