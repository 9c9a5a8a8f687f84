//! Minimal JSON emission and validation for the bench artifacts.
//!
//! The build environment has no `serde_json` (the vendored `serde` is a
//! no-op stand-in — see `DESIGN.md` §3, offline dependencies), so the bench
//! artifacts are emitted by hand. This module centralizes the two places
//! hand-written JSON goes wrong:
//!
//! * **strings** — workload names travel through [`string`], which escapes
//!   quotes, backslashes and control characters instead of splicing raw
//!   text between quote characters;
//! * **floats** — metrics travel through [`float`], which maps the
//!   non-finite values JSON cannot represent (`NaN`, `±inf` — e.g. a
//!   speedup computed from an empty run) to `null` instead of emitting an
//!   unparseable token.
//!
//! [`validate`] is a strict recursive-descent checker for the full JSON
//! grammar; every emitted artifact is validated in tests (and cheaply at
//! emit time by the binaries) so a malformed `BENCH_*.json` fails the build
//! that produced it, not the consumer that reads it.

/// Renders `s` as a JSON string literal, quotes included.
#[must_use]
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders `v` as a JSON number with six decimal places, or `null` when it
/// is not finite (JSON has no NaN/Infinity).
#[must_use]
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// Renders an optional integer as a JSON number, or `null` when absent.
#[must_use]
pub fn optional(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

/// Appends `row` to a rows array that already holds `rows_so_far` rows —
/// the one separator rule of every row-structured artifact, shared by the
/// composed documents ([`rows_document`]) and the farm's streamed files.
pub(crate) fn push_row(doc: &mut String, rows_so_far: usize, row: &str) {
    if rows_so_far > 0 {
        doc.push_str(",\n");
    }
    doc.push_str(row);
}

/// Composes a row-structured artifact: `header` (up to and including the
/// opening of the rows array), the rows, `footer` (from the array's closing
/// on). Byte-identical to streaming the same pieces row by row.
#[must_use]
pub fn rows_document(header: &str, rows: impl IntoIterator<Item = String>, footer: &str) -> String {
    let mut doc = header.to_string();
    for (i, row) in rows.into_iter().enumerate() {
        push_row(&mut doc, i, &row);
    }
    doc.push_str(footer);
    doc
}

/// Extracts the numeric value of the first top-level-ish occurrence of
/// `"key": <number>` in a JSON document emitted by this module. This is the
/// minimal reader the perf-smoke check needs to compare a fresh measurement
/// against a committed artifact without a serialization dependency; it is
/// not a general JSON parser (use [`validate`] for well-formedness).
#[must_use]
pub fn extract_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validates that `s` is exactly one well-formed JSON value (full grammar:
/// objects, arrays, strings with escapes, numbers, `true`/`false`/`null`).
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset.
pub fn validate(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => jstring(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        jstring(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn jstring(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            c if c < 0x20 => {
                return Err(format!("unescaped control character at byte {}", *pos));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| -> usize {
        let from = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        *pos - from
    };
    if digits(b, pos) == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("bad fraction at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("bad exponent at byte {}", *pos));
        }
    }
    Ok(())
}

/// A parsed JSON value — the reading half of this module, added for the
/// trace-file format. Object member order is preserved (emitted artifacts
/// are deterministic, so parse → re-emit stays deterministic too).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an [`Value::Int`].
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses exactly one well-formed JSON value. Same grammar as [`validate`],
/// but produces the value instead of merely checking it.
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset —
/// never panics, whatever the input.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = parse_value(b, pos)?;
        members.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    jstring(b, pos)?;
    // The span validated; decode escapes in a second pass.
    let raw = &b[start + 1..*pos - 1];
    let mut out = String::with_capacity(raw.len());
    let mut i = 0usize;
    while i < raw.len() {
        if raw[i] != b'\\' {
            // Multi-byte UTF-8 sequences pass through untouched; the input
            // is a &str so the bytes are valid UTF-8.
            let s = std::str::from_utf8(&raw[i..])
                .map_err(|_| format!("invalid utf-8 at byte {}", start + 1 + i))?;
            let c = s.chars().next().expect("non-empty");
            out.push(c);
            i += c.len_utf8();
            continue;
        }
        i += 1;
        match raw[i] {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = std::str::from_utf8(&raw[i + 1..i + 5]).expect("validated hex");
                let code = u32::from_str_radix(hex, 16).expect("validated hex");
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                i += 4;
            }
            _ => unreachable!("escape validated by jstring"),
        }
        i += 1;
    }
    Ok(out)
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    number(b, pos)?;
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("unrepresentable number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_documents_separate_rows_and_only_rows() {
        let rows = |n: usize| (0..n).map(|i| format!("    {i}"));
        let (header, footer) = ("{\n  \"rows\": [\n", "\n  ]\n}\n");
        assert_eq!(
            rows_document(header, rows(0), footer),
            "{\n  \"rows\": [\n\n  ]\n}\n"
        );
        assert_eq!(
            rows_document(header, rows(1), footer),
            "{\n  \"rows\": [\n    0\n  ]\n}\n"
        );
        let three = rows_document(header, rows(3), footer);
        assert_eq!(three, "{\n  \"rows\": [\n    0,\n    1,\n    2\n  ]\n}\n");
        validate(&three).unwrap();
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        // Every escaped form must itself validate.
        for s in ["plain", "a\"b", "back\\slash", "new\nline", "\u{7}"] {
            validate(&string(s)).unwrap();
        }
    }

    #[test]
    fn floats_map_non_finite_to_null() {
        assert_eq!(float(1.5), "1.500000");
        assert_eq!(float(-0.25), "-0.250000");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
        validate(&float(f64::NAN)).unwrap();
        validate(&float(2.0 / 3.0)).unwrap();
    }

    #[test]
    fn extract_number_reads_committed_metrics() {
        let doc = "{\n  \"small\": false,\n  \"ns_per_simulated_cycle\": 42.125,\n  \
                   \"total\": 7\n}";
        assert_eq!(extract_number(doc, "ns_per_simulated_cycle"), Some(42.125));
        assert_eq!(extract_number(doc, "total"), Some(7.0));
        assert_eq!(extract_number(doc, "missing"), None);
        assert_eq!(extract_number("{\"k\": null}", "k"), None);
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for ok in [
            "null",
            "true",
            "-12.5e+3",
            "\"hi \\u0041\"",
            "[]",
            "{}",
            "[1, 2, [3, {\"k\": null}]]",
            "{\"a\": 1, \"b\": [true, \"x\"]}",
            "  {\n\"a\"\t: 0.5}  ",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "NaN",
            "inf",
            "01x",
            "1.",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": }",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"raw \n newline\"",
            "{} trailing",
        ] {
            assert!(validate(bad).is_err(), "accepted malformed input: {bad}");
        }
    }

    #[test]
    fn parser_produces_values_the_validator_accepts() {
        let v = parse("{\"a\": 1, \"b\": [true, \"x\\n\", null], \"c\": -2.5}").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b[0], Value::Bool(true));
        assert_eq!(b[1].as_str(), Some("x\n"));
        assert_eq!(b[2], Value::Null);
        assert_eq!(v.get("c"), Some(&Value::Float(-2.5)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_round_trips_emitted_strings() {
        for s in [
            "plain",
            "a\"b",
            "back\\slash",
            "new\nline",
            "\u{7}",
            "ünïcode",
        ] {
            let parsed = parse(&string(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s));
        }
    }

    #[test]
    fn parser_rejects_malformed_input_without_panicking() {
        for bad in [
            "",
            "{\"a\": }",
            "[1,]",
            "\"unterminated",
            "\"bad \\q\"",
            "{} trailing",
            "1e",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
        // Unpaired surrogate escapes decode to the replacement character
        // instead of panicking.
        assert_eq!(parse("\"\\ud800\"").unwrap().as_str(), Some("\u{fffd}"));
    }

    #[test]
    fn parser_distinguishes_ints_from_floats() {
        assert_eq!(parse("7"), Ok(Value::Int(7)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::Int(i64::MIN)));
        assert_eq!(parse("7.0"), Ok(Value::Float(7.0)));
        assert_eq!(parse("1e3"), Ok(Value::Float(1000.0)));
        // Out-of-range integers degrade to floats rather than erroring.
        assert!(matches!(parse("92233720368547758080"), Ok(Value::Float(_))));
    }
}
