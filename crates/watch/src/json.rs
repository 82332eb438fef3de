//! A minimal JSON reader/writer for the status protocol.
//!
//! The workspace is offline (no serde); every other crate hand-rolls its
//! JSON *output* only. The status protocol is the first place the suite
//! must also *parse* JSON — requests on the server side, responses in the
//! `pdpa watch` client — so this module adds the smallest complete reader:
//! a recursive-descent parser into a [`Json`] value tree (the writers'
//! escaping lives in `pdpa_obs::json`). Numbers are kept as `f64`, which
//! is exact for every integer the protocol carries below 2^53; the few
//! counters that could theoretically exceed that (cumulative event
//! counts) degrade to the nearest representable integer rather than
//! erroring, matching JSON's own number model.
//!
//! Nesting is capped at [`MAX_DEPTH`]: the parser recurses once per `[`
//! or `{`, and a request line of a few kilobytes of brackets would
//! otherwise overflow a connection thread's stack and abort the process.

/// Deepest `[`/`{` nesting [`Json::parse`] accepts. Every wire frame and
/// daemon snapshot the workspace writes nests at most three levels deep
/// (the protocol proptest pins the frames).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    /// Nesting deeper than [`MAX_DEPTH`] is an error naming the offset of
    /// the first bracket past the cap.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` on missing key or non-object.
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a nonnegative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// Parses the value at `pos`, which sits inside `depth` open brackets.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number '{text}' at offset {start}"))
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs: \uD800-\uDBFF must pair with a
                        // following \uDC00-\uDFFF low surrogate.
                        if (0xD800..0xDC00).contains(&code) {
                            let tail =
                                bytes.get(*pos + 5..*pos + 11).ok_or("unpaired surrogate")?;
                            if &tail[..2] != b"\\u" {
                                return Err("unpaired surrogate".to_string());
                            }
                            let low_hex =
                                std::str::from_utf8(&tail[2..]).map_err(|_| "bad surrogate")?;
                            let low = u32::from_str_radix(low_hex, 16)
                                .map_err(|_| "bad surrogate digits")?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate".to_string());
                            }
                            let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).ok_or("invalid surrogate pair")?);
                            *pos += 6;
                        } else {
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences allowed
                // raw in JSON strings).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty by match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"id": 3, "ok": true, "name": "a\"b\nc", "xs": [1, 2.5, -3e2], "none": null}"#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("a\"b\nc"));
        let xs = v.get("xs").and_then(Json::as_arr).expect("array");
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("none"), Some(&Json::Null));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""é😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("é😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "12 34", "{]"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
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
            .spawn(move || Json::parse(&line))
            .expect("spawns")
            .join()
            .expect("parser thread must not crash");
        let err = result.unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
