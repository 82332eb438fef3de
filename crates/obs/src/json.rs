//! The workspace's one JSON module: the output primitives every writer
//! shares, and the one value tree and parser every reader uses.
//!
//! The workspace is offline (no serde), so each document is hand-rolled.
//! [`push_str_escaped`] and [`push_f64`] are the one place that decides
//! how a string or a float appears in any of them: the metrics and
//! Chrome-trace exports here, the `pdpa-analyze/v1` document, the status
//! protocol, the daemon journal and the tournament report. Both append
//! straight to the caller's buffer, so writing a document allocates
//! nothing but the buffer's own growth.
//!
//! [`Json`] is the reader side: a recursive-descent parser into an
//! order-preserving value tree, used by the status protocol, the daemon's
//! snapshot restore and the export validators. The tree borrows from its
//! input: a key or string without escapes is a slice of the parsed text,
//! and only one that contains an escape is decoded into a `String` of its
//! own. Numbers are kept as `f64`, which is exact for every integer below
//! 2^53; larger counters degrade to the nearest representable integer,
//! matching JSON's own number model. Parsing is linear in the input,
//! nesting is capped at [`MAX_DEPTH`], and every parse error names the
//! byte offset it stopped at.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Appends a float to `out` as a JSON number. Rust's shortest round-trip
/// `Display` is valid JSON for every finite value; non-finite values
/// (which JSON cannot carry) degrade to 0.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Deepest `[`/`{` nesting [`Json::parse`] accepts. The parser recurses
/// once per bracket, so without a cap a request line of a few kilobytes
/// of `[` would overflow a connection thread's stack. Every document the
/// workspace writes nests at most four levels deep.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Object keys keep insertion order, so a document written from a tree is
/// stable and diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string, unescaped: borrowed from the input unless it held an
    /// escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, as ordered key/value pairs; keys are borrowed like
    /// strings.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parses one JSON document, requiring it to span the whole input
    /// (surrounding whitespace aside). Errors name the byte offset where
    /// parsing stopped.
    pub fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser { text, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing bytes"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
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

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number, which JSON cannot carry: a NaN
    /// reaching a report is a bug in whatever built the tree.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                assert!(n.is_finite(), "non-finite number in a JSON document");
                push_f64(out, *n);
            }
            Json::Str(s) => push_str_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, indent + 1);
                    push_str_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> String {
        format!("{message} at offset {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses the value at `pos`, which sits inside `depth` open brackets.
    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number '{text}' out of range at offset {start}")),
            Err(_) => Err(format!("invalid number '{text}' at offset {start}")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1; // '{'
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
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            fields.push((key, self.value(depth)?));
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

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
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

    /// Skips plain bytes up to the next `"` or `\\` (or the end) and
    /// returns the run skipped. Both delimiters are ASCII, so every run
    /// starts and ends on a character boundary of the (already valid
    /// UTF-8) input.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    /// Parses a string literal. A string without escapes is returned as a
    /// slice of the input; the first escape starts an owned copy, into
    /// which each later run of plain bytes is copied in one slice, so a
    /// string costs time linear in its length either way.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let open = self.pos;
        self.pos += 1;
        let first = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(first));
        }
        let mut out = String::from(first);
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at offset {open}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.pos += 1; // '\\'
                    self.escape(&mut out)?;
                }
            }
            out.push_str(self.plain_run());
        }
    }

    /// Decodes the escape after a `\`, including `\u` surrogate pairs.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(c) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let at = self.pos - 2;
                let mut code = self.hex4()?;
                // A high surrogate must pair with a following low one.
                if (0xD800..0xDC00).contains(&code) {
                    if !self.text[self.pos..].starts_with("\\u") {
                        return Err(format!("unpaired surrogate at offset {at}"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(format!("invalid low surrogate at offset {at}"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                let c = char::from_u32(code)
                    .ok_or_else(|| format!("invalid \\u code point at offset {at}"))?;
                out.push(c);
            }
            _ => {
                self.pos -= 1;
                return Err(self.err("invalid escape"));
            }
        }
        Ok(())
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape digit"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(lit: &str) -> String {
        Json::parse(lit)
            .expect("parses")
            .as_str()
            .expect("a string")
            .to_string()
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "q\"b\\s\nnl\tt\r", "uni: ∞ λ", "\u{0001}ctl"] {
            let mut out = String::new();
            push_str_escaped(&mut out, s);
            assert!(!out.bytes().any(|b| b < 0x20), "raw control in {out:?}");
            assert_eq!(parse_str(&out), s);
        }
    }

    fn f64_text(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[test]
    fn push_f64_round_trips_finite_values() {
        for v in [0.0, -0.0, 1.5, 1e300, 1.0 / 3.0, -2.25e-8] {
            let s = f64_text(v);
            assert_eq!(s, format!("{v}"), "the shortest round-trip text");
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(f64_text(f64::NAN), "0");
        assert_eq!(f64_text(f64::INFINITY), "0");
        // It appends: nothing already in the buffer is touched.
        let mut out = String::from("[1,");
        push_f64(&mut out, 2.5);
        assert_eq!(out, "[1,2.5");
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"id": 3, "ok": true, "name": "a\"b\nc", "xs": [1, 2.5, -3e2],
                       "none": null, "b": {"c": false}} "#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b\nc"));
        let xs = v.get("xs").and_then(Json::as_arr).expect("array");
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_bool),
            Some(false)
        );
        // 2^53 - 1 survives the f64 number model.
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some(9007199254740991)
        );
    }

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("expt-all".into())),
            ("ok".into(), Json::Bool(true)),
            ("wall_secs".into(), Json::Num(12.25)),
            ("count".into(), Json::Num(3.0)),
            (
                "items".into(),
                Json::Arr(vec![Json::Null, Json::Str("a\"b\\c\nd".into())]),
            ),
            ("empty_obj".into(), Json::Obj(Vec::new())),
            ("empty_arr".into(), Json::Arr(Vec::new())),
        ]);
        let text = doc.to_pretty();
        assert!(text.contains("\n  \"count\": 3,\n"), "{text}");
        let parsed = Json::parse(&text).expect("parse back");
        assert_eq!(parsed, doc);
        // Serialization is a fixpoint.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_pretty(), "42\n");
        assert_eq!(Json::Num(1.5).to_pretty(), "1.5\n");
        assert_eq!(Json::Num(1e15).to_pretty(), "1000000000000000\n");
        assert_eq!(Json::Num(-0.0).to_pretty(), format!("{}\n", f64_text(-0.0)));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn pretty_refuses_non_finite_numbers() {
        Json::Num(f64::NAN).to_pretty();
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse_str(r#""\u0041\t""#), "A\t");
        // Raw multi-byte UTF-8 passes through the plain-run path.
        assert_eq!(parse_str("\"é😀\""), "é😀");
        // A surrogate pair decodes to one scalar.
        assert_eq!(parse_str(r#""\ud83d\ude00!""#), "😀!");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "\"open",
            "{\"a\" 1}",
            "12 34",
            "{]",
            "nul",
            "{\"a\": 1} junk",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    /// Every error names the offset parsing stopped at, including the
    /// end-of-input, string and escape errors.
    #[test]
    fn every_error_names_its_offset() {
        for (bad, offset) in [
            ("[1, ", 4),
            ("[\"abc", 1),
            ("\"a\\", 3),
            ("\"\\u00g0\"", 5),
            ("\"x\\ud800\"", 2),
            ("\"\\ud800\\u0041\"", 1),
            ("\"\\udc00\"", 1),
            ("\"\\q\"", 2),
            ("[1] x", 4),
            ("{\"a\":tru}", 5),
            ("[1e999]", 1),
            ("[-1e400]", 1),
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains(&format!("offset {offset}")), "{bad}: {err}");
        }
        assert!(Json::parse("1e999").unwrap_err().contains("out of range"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let obj = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&obj).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(
            err.contains(&format!("offset {MAX_DEPTH}")),
            "error must name the offending offset: {err}"
        );
        let err = Json::parse(&format!("{{\"a\":{}}}", nest(MAX_DEPTH))).unwrap_err();
        assert!(
            err.contains(&format!("offset {}", 5 + MAX_DEPTH - 1)),
            "{err}"
        );
    }

    /// Without the cap, a request line of 60,000 `[` recurses once per
    /// byte, overflows a connection thread's default 2 MiB stack and
    /// aborts the whole process.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let line = "[".repeat(60_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&line).map(drop))
            .expect("spawns")
            .join()
            .expect("parser thread must not crash");
        let err = result.unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
