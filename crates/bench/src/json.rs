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
//! grammar, and [`parse`] the same walk building a [`Value`] (one function
//! per production, generic over whether it builds); every emitted artifact
//! is validated in tests (and cheaply at emit time by the binaries) so a
//! malformed `BENCH_*.json` fails the build that produced it, not the
//! consumer that reads it.

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

/// Validates that `s` is exactly one well-formed JSON value (full grammar:
/// objects, arrays, strings with escapes, numbers, `true`/`false`/`null`).
/// Builds nothing, whatever the document's size.
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset.
pub fn validate(s: &str) -> Result<(), String> {
    document::<false>(s).map(|_| ())
}

/// Parses exactly one well-formed JSON value: the grammar walk of
/// [`validate`], building the value it recognizes.
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset —
/// never panics, whatever the input.
pub fn parse(s: &str) -> Result<Value, String> {
    document::<true>(s)
}

/// The one grammar walk, a function per production. With `BUILD` it returns
/// the value it recognized; without, every production returns an empty
/// placeholder and nothing is decoded, pushed or allocated.
fn document<const BUILD: bool>(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = value::<BUILD>(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
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

fn value<const BUILD: bool>(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object::<BUILD>(b, pos),
        Some(b'[') => array::<BUILD>(b, pos),
        Some(b'"') => jstring::<BUILD>(b, pos).map(Value::Str),
        Some(b't') => literal(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => literal(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => literal(b, pos, b"null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number::<BUILD>(b, pos),
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

fn object<const BUILD: bool>(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    let mut members = Vec::new();
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = jstring::<BUILD>(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let v = value::<BUILD>(b, pos)?;
        if BUILD {
            members.push((key, v));
        }
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

fn array<const BUILD: bool>(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    let mut items = Vec::new();
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        let v = value::<BUILD>(b, pos)?;
        if BUILD {
            items.push(v);
        }
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

/// A string literal, escapes decoded. Unescaped text is copied in runs: a
/// run starts and ends at an ASCII byte of what was a `&str`, so it is
/// UTF-8 and multi-byte sequences pass through untouched.
fn jstring<const BUILD: bool>(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    let mut run = *pos;
    let mut flush = |out: &mut String, upto: usize, next: usize| {
        if BUILD {
            out.push_str(std::str::from_utf8(&b[run..upto]).expect("a run between ASCII bytes"));
        }
        run = next;
    };
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                flush(&mut out, *pos, *pos);
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                let (decoded, len) = match b.get(*pos + 1) {
                    Some(&c @ (b'"' | b'\\' | b'/')) => (c as char, 2),
                    Some(b'b') => ('\u{8}', 2),
                    Some(b'f') => ('\u{c}', 2),
                    Some(b'n') => ('\n', 2),
                    Some(b'r') => ('\r', 2),
                    Some(b't') => ('\t', 2),
                    Some(b'u') => {
                        let hex = &b[*pos + 2..b.len().min(*pos + 6)];
                        let digits = hex.iter().take_while(|h| h.is_ascii_hexdigit()).count();
                        if digits < 4 {
                            return Err(format!("bad \\u escape at byte {}", *pos + 2 + digits));
                        }
                        let code = hex.iter().fold(0, |n, &h| {
                            n * 16 + (h as char).to_digit(16).expect("checked hex")
                        });
                        // An unpaired surrogate has no `char`.
                        (char::from_u32(code).unwrap_or('\u{fffd}'), 6)
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos + 1)),
                };
                flush(&mut out, *pos, *pos + len);
                if BUILD {
                    out.push(decoded);
                }
                *pos += len;
            }
            c if c < 0x20 => {
                return Err(format!("unescaped control character at byte {}", *pos));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number<const BUILD: bool>(b: &[u8], pos: &mut usize) -> Result<Value, String> {
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
    let mut integral = true;
    if b.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("bad fraction at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("bad exponent at byte {}", *pos));
        }
    }
    if !BUILD {
        return Ok(Value::Null);
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii");
    // Out-of-range integers degrade to floats rather than erroring.
    let int = if integral { text.parse().ok() } else { None };
    int.map(Value::Int)
        .or_else(|| text.parse().ok().map(Value::Float))
        .ok_or_else(|| format!("unrepresentable number at byte {start}"))
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

    /// Fed to both entry points: one grammar, one verdict.
    const MALFORMED: [&str; 16] = [
        "",
        "nul",
        "NaN",
        "inf",
        "01x",
        "1.",
        "1e",
        "--1",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\": }",
        "\"unterminated",
        "\"bad \\q escape\"",
        "\"bad \\u12 escape\"",
        "\"raw \n newline\"",
        "{} trailing",
    ];

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in MALFORMED {
            assert!(validate(bad).is_err(), "accepted malformed input: {bad}");
        }
    }

    /// One grammar walk, two entry points: on every malformed input of the
    /// two tests around this one, and on well-formed ones, `validate` and
    /// `parse` reach the same verdict, with the same error at the same byte.
    #[test]
    fn validator_and_parser_agree_on_every_input() {
        let well_formed = ["null", "[1, {\"k\": \"\\u0041\"}]", " -0.5e+3 "];
        for doc in MALFORMED.iter().chain(&well_formed) {
            assert_eq!(validate(doc), parse(doc).map(|_| ()), "input: {doc}");
        }
        assert!(well_formed.iter().all(|doc| validate(doc).is_ok()));
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
        for bad in MALFORMED {
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
