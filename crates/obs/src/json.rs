//! The two JSON output primitives every writer in the workspace shares:
//! string escaping and number formatting.
//!
//! The workspace is offline (no serde), so each document is hand-rolled;
//! these functions are the one place that decides how a string or a
//! float appears in any of them — the metrics and Chrome-trace exports
//! here, the `pdpa-analyze/v1` document, the harness's JSON tree, the
//! status protocol and the daemon journal.

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

/// Formats a float as a JSON number. Rust's shortest round-trip `Display`
/// is valid JSON for every finite value; non-finite values (which JSON
/// cannot carry) degrade to 0.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes one quoted JSON string literal spanning all of `lit`: the
    /// reader side of the escapes [`push_str_escaped`] writes.
    fn unescape(lit: &str) -> String {
        let inner = lit
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .expect("quoted");
        let mut out = String::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            assert_ne!(c, '"', "unescaped quote in {lit:?}");
            assert!(c as u32 >= 0x20, "raw control character in {lit:?}");
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().expect("escape has a successor") {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                    out.push(char::from_u32(code).expect("valid scalar"));
                }
                other => panic!("unknown escape \\{other} in {lit:?}"),
            }
        }
        out
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "q\"b\\s\nnl\tt\r", "uni: ∞ λ", "\u{0001}ctl"] {
            let mut out = String::new();
            push_str_escaped(&mut out, s);
            assert_eq!(unescape(&out), s);
        }
    }

    #[test]
    fn fmt_f64_round_trips_finite_values() {
        for v in [0.0, -0.0, 1.5, 1e300, 1.0 / 3.0, -2.25e-8] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }
}
