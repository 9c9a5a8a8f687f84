//! The validated trace-file format: `WorkloadTrace` ⇄ JSON.
//!
//! A trace file is one JSON object (grammar in DESIGN.md §"Trace layer"):
//!
//! ```text
//! {
//!   "format": "spice-trace",
//!   "version": 1,
//!   "name": <string>,            // originating workload
//!   "loop": <string>,            // recorded loop
//!   "site": <int ≥ 0>,           // profiler site id
//!   "checksum": <int>,           // content checksum (u64 as decimal)
//!   "invocations": [             // one array per invocation
//!     [ {"key": [<int>...], "write": <int>|null}, ... ],
//!     ...
//!   ]
//! }
//! ```
//!
//! Emission goes through [`crate::json`] (ROADMAP §3.7 — no serde), and
//! every written document validates against the full JSON grammar before it
//! leaves the process. Parsing is strictly typed: syntax errors, schema
//! violations, checksum mismatches and semantic violations (via
//! [`WorkloadTrace::validate`]) each surface as a [`TraceFileError`]
//! variant — a corrupted file can never panic or silently replay wrong.

use spice_workloads::trace::{TraceError, TraceInvocation, TraceIteration, WorkloadTrace};

use crate::json::{self, Value};

/// Format tag (the `"format"` member).
pub const FORMAT: &str = "spice-trace";
/// Current format version (the `"version"` member).
pub const VERSION: i64 = 1;

/// Why a trace file failed to load. Every path is typed; none panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The document is not well-formed JSON.
    Syntax(String),
    /// The document is valid JSON but not a trace file (wrong shape,
    /// missing or mistyped member, unknown format tag or version).
    Schema(String),
    /// The stored checksum does not match the recomputed content checksum.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the parsed content.
        computed: u64,
    },
    /// The trace parsed but violates a structural invariant.
    Invalid(TraceError),
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Syntax(e) => write!(f, "trace file syntax error: {e}"),
            TraceFileError::Schema(e) => write!(f, "trace file schema error: {e}"),
            TraceFileError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace file checksum mismatch: stored {stored}, computed {computed}"
            ),
            TraceFileError::Invalid(e) => write!(f, "trace invariant violated: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Serializes a trace as a trace-file document (trailing newline included).
///
/// The output is deterministic — same trace, same bytes — and is validated
/// against the JSON grammar before being returned.
#[must_use]
pub fn trace_to_json(trace: &WorkloadTrace) -> String {
    let mut doc = String::new();
    doc.push_str("{\n");
    doc.push_str(&format!("  \"format\": {},\n", json::string(FORMAT)));
    doc.push_str(&format!("  \"version\": {VERSION},\n"));
    doc.push_str(&format!("  \"name\": {},\n", json::string(&trace.name)));
    doc.push_str(&format!(
        "  \"loop\": {},\n",
        json::string(&trace.loop_name)
    ));
    doc.push_str(&format!("  \"site\": {},\n", trace.site));
    // Bit-cast to i64: JSON integers in this codebase are i64, and the
    // parser round-trips the cast exactly.
    doc.push_str(&format!("  \"checksum\": {},\n", trace.checksum() as i64));
    doc.push_str("  \"invocations\": [");
    for (i, inv) in trace.invocations.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str("\n    [");
        for (j, it) in inv.iterations.iter().enumerate() {
            if j > 0 {
                doc.push(',');
            }
            let key: Vec<String> = it.key.iter().map(ToString::to_string).collect();
            let write = it.write.map_or("null".to_string(), |w| w.to_string());
            doc.push_str(&format!(
                "\n      {{\"key\": [{}], \"write\": {write}}}",
                key.join(", ")
            ));
        }
        if inv.iterations.is_empty() {
            doc.push(']');
        } else {
            doc.push_str("\n    ]");
        }
    }
    if trace.invocations.is_empty() {
        doc.push_str("]\n}\n");
    } else {
        doc.push_str("\n  ]\n}\n");
    }
    debug_assert!(json::validate(&doc).is_ok());
    doc
}

fn schema<T>(msg: impl Into<String>) -> Result<T, TraceFileError> {
    Err(TraceFileError::Schema(msg.into()))
}

fn member<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, TraceFileError> {
    match doc.get(key) {
        Some(v) => Ok(v),
        None => schema(format!("missing member `{key}`")),
    }
}

/// Parses and fully checks a trace-file document: JSON grammar, schema,
/// content checksum, then [`WorkloadTrace::validate`].
///
/// # Errors
///
/// Returns the first failure as a typed [`TraceFileError`].
pub fn trace_from_json(doc: &str) -> Result<WorkloadTrace, TraceFileError> {
    let root = json::parse(doc).map_err(TraceFileError::Syntax)?;
    if !matches!(root, Value::Object(_)) {
        return schema("root is not an object");
    }
    let format = member(&root, "format")?;
    if format.as_str() != Some(FORMAT) {
        return schema(format!("unknown format tag {format:?}"));
    }
    let version = member(&root, "version")?;
    if version.as_i64() != Some(VERSION) {
        return schema(format!("unsupported version {version:?}"));
    }
    let name = member(&root, "name")?
        .as_str()
        .map_or_else(|| schema("`name` is not a string"), |s| Ok(s.to_string()))?;
    let loop_name = member(&root, "loop")?
        .as_str()
        .map_or_else(|| schema("`loop` is not a string"), |s| Ok(s.to_string()))?;
    let site = match member(&root, "site")?.as_i64() {
        Some(s) if (0..=i64::from(u32::MAX)).contains(&s) => s as u32,
        _ => return schema("`site` is not a u32"),
    };
    let stored = match member(&root, "checksum")?.as_i64() {
        Some(c) => c as u64,
        None => return schema("`checksum` is not an integer"),
    };

    let invocations_val = member(&root, "invocations")?;
    let Some(inv_items) = invocations_val.as_array() else {
        return schema("`invocations` is not an array");
    };
    let mut invocations = Vec::with_capacity(inv_items.len());
    for (i, inv) in inv_items.iter().enumerate() {
        let Some(iterations_val) = inv.as_array() else {
            return schema(format!("invocation {i} is not an array"));
        };
        let mut iterations = Vec::with_capacity(iterations_val.len());
        for (j, it) in iterations_val.iter().enumerate() {
            if !matches!(it, Value::Object(_)) {
                return schema(format!("invocation {i} iteration {j} is not an object"));
            }
            let Some(key_items) = it
                .get("key")
                .ok_or_else(|| {
                    TraceFileError::Schema(format!("invocation {i} iteration {j} missing `key`"))
                })?
                .as_array()
            else {
                return schema(format!(
                    "invocation {i} iteration {j}: `key` is not an array"
                ));
            };
            let mut key = Vec::with_capacity(key_items.len());
            for k in key_items {
                match k.as_i64() {
                    Some(v) => key.push(v),
                    None => {
                        return schema(format!(
                            "invocation {i} iteration {j}: key element is not an integer"
                        ))
                    }
                }
            }
            let write = match it.get("write") {
                Some(Value::Null) | None => None,
                Some(v) => match v.as_i64() {
                    Some(w) if (0..=i64::from(u32::MAX)).contains(&w) => Some(w as u32),
                    _ => {
                        return schema(format!(
                            "invocation {i} iteration {j}: `write` is not a u32 or null"
                        ))
                    }
                },
            };
            iterations.push(TraceIteration { key, write });
        }
        invocations.push(TraceInvocation { iterations });
    }

    let trace = WorkloadTrace {
        name,
        loop_name,
        site,
        invocations,
    };
    let computed = trace.checksum();
    if stored != computed {
        return Err(TraceFileError::ChecksumMismatch { stored, computed });
    }
    trace.validate().map_err(TraceFileError::Invalid)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_workloads::trace::{fuzz_trace, synthetic_trace, FuzzConfig};

    #[test]
    fn serialization_round_trips_exactly() {
        for p in [0.0, 0.6, 1.0] {
            let t = synthetic_trace("rt", 5, 12, p, 0xABCD);
            let doc = trace_to_json(&t);
            json::validate(&doc).unwrap();
            let back = trace_from_json(&doc).unwrap();
            assert_eq!(back, t);
            // Re-serialization is byte-identical: the format is canonical.
            assert_eq!(trace_to_json(&back), doc);
        }
    }

    #[test]
    fn fuzzed_traces_with_writes_round_trip() {
        let base = synthetic_trace("w", 4, 20, 0.5, 77);
        let mutant = fuzz_trace(
            &base,
            &FuzzConfig {
                seed: 3,
                splice_rate: 0.5,
                relink_depth: 3,
                churn_rate: 0.5,
            },
        );
        assert!(mutant.has_writes());
        let back = trace_from_json(&trace_to_json(&mutant)).unwrap();
        assert_eq!(back, mutant);
    }

    #[test]
    fn corrupted_documents_yield_typed_errors_not_panics() {
        let doc = trace_to_json(&synthetic_trace("c", 3, 6, 1.0, 5));

        // Syntax damage.
        let truncated = &doc[..doc.len() / 2];
        assert!(matches!(
            trace_from_json(truncated),
            Err(TraceFileError::Syntax(_))
        ));
        assert!(matches!(
            trace_from_json(""),
            Err(TraceFileError::Syntax(_))
        ));

        // Schema damage.
        for (from, to) in [
            ("\"format\": \"spice-trace\"", "\"format\": \"not-a-trace\""),
            ("\"version\": 1", "\"version\": 99"),
            ("\"site\": 0", "\"site\": -4"),
            ("\"key\": [", "\"key\": [\"x\", "),
            ("\"checksum\": ", "\"checksum\": null, \"x\": "),
        ] {
            let bad = doc.replacen(from, to, 1);
            assert_ne!(bad, doc, "replacement `{from}` did not apply");
            assert!(
                matches!(trace_from_json(&bad), Err(TraceFileError::Schema(_))),
                "`{from}` → `{to}` did not raise a schema error"
            );
        }
        assert!(matches!(
            trace_from_json("[1, 2]"),
            Err(TraceFileError::Schema(_))
        ));

        // Content damage flips the checksum.
        let tampered = doc.replacen("\"write\": null", "\"write\": 1", 1);
        assert_ne!(tampered, doc);
        assert!(matches!(
            trace_from_json(&tampered),
            Err(TraceFileError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn semantic_violations_surface_as_invalid() {
        // A trace whose checksum is right but whose content breaks the
        // replay invariants (write past the end of its invocation).
        let mut t = synthetic_trace("bad", 2, 4, 1.0, 9);
        t.invocations[0].iterations[3].write = Some(2);
        let doc = trace_to_json(&t);
        assert!(matches!(
            trace_from_json(&doc),
            Err(TraceFileError::Invalid(TraceError::WriteOutOfRange { .. }))
        ));
    }
}
