//! Flat JSON: the one writer and the one parser of every record the
//! workspace persists or serves.
//!
//! A record is one object of scalars; lists travel as comma-joined strings.
//! [`JsonWriter`] has two layouts: inline (`{"k": v, "k2": v2}`, one record
//! per line: campaign rows, job specs, status bodies, `--obs jsonl:` events)
//! and pretty (one `  "k": v` field per line, so CI can grep them:
//! aggregates and `BENCH_*.json`). Strings escape `"`, `\`, `\n`, `\r`,
//! `\t` and the other C0 controls (as `\u00xx`); other text, non-ASCII
//! included, is raw UTF-8. Pinned digests hash these exact bytes.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// Formats a float with full round-trip precision (baselines lose no
/// information); integral values keep a `.0` suffix so they stay visibly
/// floats.
pub fn fmt_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// Appends `s` escaped for a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
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

/// Whether a text field value can go out bare as a number.
fn is_number(value: &str) -> bool {
    !value.is_empty()
        && value.parse::<f64>().is_ok()
        // `parse::<f64>` accepts forms JSON does not ("inf", "nan", "1.")
        // and forms we do not want bare ("1e5" is fine, "+1" is not).
        && value
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        && !value.ends_with('.')
        && value != "-"
        && !value.starts_with('+')
}

/// Writes one flat JSON object, fields in call order.
///
/// ```
/// use moheco_obs::json::JsonWriter;
///
/// let mut row = JsonWriter::inline();
/// row.str("scenario", "a\"b").bare("seed", 3).f64("best_yield", 1.0);
/// assert_eq!(
///     row.finish(),
///     r#"{"scenario": "a\"b", "seed": 3, "best_yield": 1.0}"#
/// );
/// let mut record = JsonWriter::pretty();
/// record.bare("cores", 2).opt_f64("true_yield", None);
/// assert_eq!(record.finish(), "{\n  \"cores\": 2,\n  \"true_yield\": null\n}\n");
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    pretty: bool,
}

impl JsonWriter {
    /// An object on one line, without a trailing newline.
    pub fn inline() -> Self {
        Self {
            out: String::from("{"),
            pretty: false,
        }
    }

    /// An object with one indented field per line, ending in a newline.
    pub fn pretty() -> Self {
        Self {
            out: String::from("{\n"),
            pretty: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = &mut self.out;
        // Longer than the opening `{` / `{\n`: a field came before.
        match (self.pretty, out.len() > 2) {
            (true, more) => out.push_str(if more { ",\n  \"" } else { "  \"" }),
            (false, more) => out.push_str(if more { ", \"" } else { "\"" }),
        }
        escape_into(out, key);
        out.push_str("\": ");
        out
    }

    /// A string field, quoted and escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        escape_into(out, value);
        out.push('"');
        self
    }

    /// A field written exactly as `value` displays: an integer, a boolean,
    /// or a number pre-formatted to a fixed precision
    /// (`format_args!("{x:.3}")`).
    pub fn bare(&mut self, key: &str, value: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A float in the [`fmt_f64`] format.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.bare(key, fmt_f64(value))
    }

    /// A float, or `null` when absent.
    pub fn opt_f64(&mut self, key: &str, value: Option<f64>) -> &mut Self {
        match value {
            Some(v) => self.f64(key, v),
            None => self.bare(key, "null"),
        }
    }

    /// A field that arrives as text (event fields): bare when it reads as a
    /// number, quoted otherwise.
    pub fn number_or_str(&mut self, key: &str, value: &str) -> &mut Self {
        if is_number(value) {
            self.bare(key, value)
        } else {
            self.str(key, value)
        }
    }

    /// Closes the object and returns its text, leaving the writer empty.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.out);
        out.push_str(if self.pretty { "\n}\n" } else { "}" });
        out
    }
}

/// A parsed JSON scalar (records are flat; nested values are rejected).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
}

/// A parsed flat JSON object, key order preserved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonRecord {
    /// Keys in file order.
    pub keys: Vec<String>,
    /// Key → value map.
    pub values: BTreeMap<String, JsonValue>,
}

impl JsonRecord {
    /// Numeric field accessor.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.values.get(key)? {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String field accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.values.get(key)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a flat JSON object (`{"k": scalar, ...}`) in either layout,
/// decoding every escape [`JsonWriter`] emits.
///
/// # Errors
///
/// Returns a message describing the first syntax problem, including nested
/// arrays/objects (the result schema is flat by design).
pub fn parse_flat_json(text: &str) -> Result<JsonRecord, String> {
    let mut chars = text.chars().peekable();
    let mut record = JsonRecord::default();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars>) {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    }
    fn expect(chars: &mut std::iter::Peekable<std::str::Chars>, want: char) -> Result<(), String> {
        skip_ws(chars);
        match chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }
    fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
        expect(chars, '"')?;
        let mut s = String::new();
        loop {
            match chars.next() {
                Some('"') => return Ok(s),
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).collect();
                        let c = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32);
                        s.push(c.ok_or_else(|| format!("bad escape \\u{hex}"))?);
                    }
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(c) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(record);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some('{') | Some('[') => {
                return Err(format!("key {key:?}: nested values are not allowed"))
            }
            Some(_) => {
                let mut token = String::new();
                while matches!(chars.peek(), Some(c) if !",}".contains(*c) && !c.is_whitespace()) {
                    token.push(chars.next().expect("peeked"));
                }
                match token.as_str() {
                    "null" => JsonValue::Null,
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    t => JsonValue::Num(
                        t.parse()
                            .map_err(|_| format!("key {key:?}: bad number {t:?}"))?,
                    ),
                }
            }
            None => return Err("unexpected end of input".into()),
        };
        if record.values.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        record.keys.push(key);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing content after the object".into());
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_parse_round_trips() {
        let pinned = JsonWriter::inline().str("k", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(pinned, r#"{"k": "a\"b\\c\nd\u0001"}"#);
        let mut strings: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        strings.extend(
            [
                "",
                "\"quoted\" \\back\\slash\\",
                "assertion `left == right` failed\n  left: 1\n right: 2",
                "µ-Ω ±5 % – 日本語 🦀 \u{7f}\u{2028}",
            ]
            .map(String::from),
        );
        for s in &strings {
            for (mut w, lines) in [(JsonWriter::inline(), 1), (JsonWriter::pretty(), 3)] {
                let text = w.str(s, s).finish();
                assert!(text.chars().all(|c| c >= ' ' || c == '\n'), "{text:?}");
                assert_eq!(text.lines().count(), lines, "{text:?}");
                let parsed = parse_flat_json(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
                assert_eq!(parsed.keys, std::slice::from_ref(s));
                assert_eq!(parsed.str(s), Some(s.as_str()));
            }
        }
        // Event fields arrive as text: numbers go out bare, the rest quoted.
        for (text, bare) in [
            ("12", true),
            ("-3.5", true),
            ("1e5", true),
            ("abc", false),
            ("1.", false),
            ("+1", false),
            ("", false),
            ("NaN", false),
        ] {
            let line = JsonWriter::inline().number_or_str("v", text).finish();
            let want = match bare {
                true => JsonValue::Num(text.parse().unwrap()),
                false => JsonValue::Str(text.to_string()),
            };
            assert_eq!(parse_flat_json(&line).unwrap().values["v"], want, "{line}");
            assert_eq!(line == format!("{{\"v\": {text}}}"), bare, "{line}");
        }
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{\"a\": }",
            "{\"a\": {\"b\": 1}}",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            r#"{"a": "\x"}"#,
            r#"{"a": "\u12"}"#,
            r#"{"a": "\ud800"}"#,
        ] {
            assert!(parse_flat_json(bad).is_err(), "{bad:?}");
        }
        assert!(parse_flat_json("{}").unwrap().keys.is_empty());
    }
}
