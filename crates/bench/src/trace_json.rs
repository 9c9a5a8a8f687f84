//! JSON serialization of [`TraceEvent`] streams through the validated
//! [`crate::json`] emitter.
//!
//! Two consumers share these functions:
//!
//! * the farm's `--trace-out` artifact — one job per row, streamed in job
//!   id order, so the document is byte-identical at `--jobs 1` and
//!   `--jobs N` (the trace-determinism CI gate diffs exactly that);
//! * failure-capture artifacts and the `inspect` CLI, which render a
//!   recorder's ring buffer for forensics.
//!
//! Events are flat objects tagged by `"kind"` (the [`TraceEvent::kind`]
//! name), with `null` for absent optional fields and the squash cause
//! flattened into `cause` / `cause_addr` — greppable without a JSON
//! library on the consumer side.

use spice_ir::{MisspeculationCause, SquashForensics, TraceEvent};

use crate::json::optional;

/// The artifact label of a squash cause (stable, snake_case).
#[must_use]
pub fn cause_label(cause: &MisspeculationCause) -> &'static str {
    match cause {
        MisspeculationCause::StalePrediction => "stale_prediction",
        MisspeculationCause::Fault(_) => "fault",
        MisspeculationCause::SquashCascade => "squash_cascade",
        MisspeculationCause::DependenceViolation { .. } => "dependence_violation",
    }
}

fn forensics_json(f: &SquashForensics) -> String {
    format!(
        "{{\"addr\": {}, \"word_addr\": {}, \"false_conflicts\": {}, \
         \"granularity_log2\": {}, \"writer_core\": {}, \"writer_chunk\": {}, \
         \"writer_func\": {}, \"writer_block\": {}, \"writer_at\": {}, \
         \"reader_func\": {}, \"reader_block\": {}}}",
        f.addr,
        optional(f.word_addr),
        f.false_conflicts,
        f.granularity_log2,
        optional(f.writer_core),
        optional(f.writer_chunk),
        optional(f.writer_site.map(|(func, _)| func.0)),
        optional(f.writer_site.map(|(_, block)| block.0)),
        optional(f.writer_at),
        optional(f.reader_site.map(|(func, _)| func.0)),
        optional(f.reader_site.map(|(_, block)| block.0)),
    )
}

/// Renders one event as a flat JSON object (no separator, no newline).
#[must_use]
pub fn trace_event_json(e: &TraceEvent) -> String {
    let kind = crate::json::string(e.kind());
    match e {
        TraceEvent::InvocationBegin { index } => {
            format!("{{\"kind\": {kind}, \"index\": {index}}}")
        }
        TraceEvent::Retire {
            at,
            core,
            func,
            block,
            retired,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"func\": {}, \
             \"block\": {}, \"retired\": {retired}}}",
            func.0, block.0
        ),
        TraceEvent::ChannelSend {
            at,
            core,
            chan,
            value,
        }
        | TraceEvent::ChannelRecv {
            at,
            core,
            chan,
            value,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"chan\": {chan}, \
             \"value\": {value}}}"
        ),
        TraceEvent::ChunkBegin { at, core, chunk } => {
            format!("{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"chunk\": {chunk}}}")
        }
        TraceEvent::ChunkValidate {
            at,
            core,
            chunk,
            conflict,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"chunk\": {}, \
             \"conflict\": {}}}",
            optional(*chunk),
            optional(*conflict)
        ),
        TraceEvent::ChunkCommit {
            at,
            core,
            chunk,
            writes,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"chunk\": {}, \
             \"writes\": {writes}}}",
            optional(*chunk)
        ),
        TraceEvent::ChunkSquash {
            at,
            core,
            chunk,
            cause,
            forensics,
        } => {
            let cause_addr = match cause {
                MisspeculationCause::DependenceViolation { addr } => Some(*addr),
                _ => None,
            };
            format!(
                "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"chunk\": {}, \
                 \"cause\": {}, \"cause_addr\": {}, \"forensics\": {}}}",
                optional(*chunk),
                crate::json::string(cause_label(cause)),
                optional(cause_addr),
                forensics
                    .as_ref()
                    .map_or_else(|| "null".to_string(), forensics_json)
            )
        }
        TraceEvent::PredictorPlan { at, chunks } => {
            format!("{{\"kind\": {kind}, \"at\": {at}, \"chunks\": {chunks}}}")
        }
        TraceEvent::Throttled { at, streak, skip } => {
            format!("{{\"kind\": {kind}, \"at\": {at}, \"streak\": {streak}, \"skip\": {skip}}}")
        }
        TraceEvent::PredictorFeedback {
            at,
            committed,
            squashed,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"committed\": {committed}, \
             \"squashed\": {squashed}}}"
        ),
        TraceEvent::CacheMiss {
            at,
            core,
            addr,
            is_store,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"addr\": {addr}, \
             \"is_store\": {is_store}}}"
        ),
        TraceEvent::Watch {
            at,
            core,
            func,
            block,
            addr,
            value,
            is_store,
        } => format!(
            "{{\"kind\": {kind}, \"at\": {at}, \"core\": {core}, \"func\": {}, \
             \"block\": {}, \"addr\": {addr}, \"value\": {value}, \"is_store\": {is_store}}}",
            func.0, block.0
        ),
    }
}

/// Renders a sequence of events as a JSON array (single line per event,
/// two-space continuation indent under `indent`).
#[must_use]
pub fn trace_events_json<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    indent: usize,
) -> String {
    let pad = " ".repeat(indent);
    let inner = " ".repeat(indent + 2);
    let rows: Vec<String> = events
        .map(|e| format!("{inner}{}", trace_event_json(e)))
        .collect();
    if rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n{pad}]", rows.join(",\n"))
    }
}

/// Opening of the farm's `--trace-out` document, up to `"jobs": [`.
#[must_use]
pub fn trace_json_header(small: bool) -> String {
    format!("{{\n  \"figure\": \"trace\",\n  \"small\": {small},\n  \"jobs\": [\n")
}

/// One job's trace row (no separator, no trailing newline): the label plus
/// every event its recorder held when the job retired.
#[must_use]
pub fn trace_job_json(label: &str, events: &[TraceEvent]) -> String {
    format!(
        "    {{\"label\": {}, \"events\": {}}}",
        crate::json::string(label),
        trace_events_json(events.iter(), 4)
    )
}

/// Closing of the `--trace-out` document.
#[must_use]
pub fn trace_json_footer() -> String {
    "\n  ]\n}\n".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::{BlockId, FuncId};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::InvocationBegin { index: 0 },
            TraceEvent::Retire {
                at: 3,
                core: 0,
                func: FuncId(1),
                block: BlockId(2),
                retired: 4,
            },
            TraceEvent::ChannelSend {
                at: 4,
                core: 0,
                chan: 7,
                value: -3,
            },
            TraceEvent::ChunkBegin {
                at: 5,
                core: 1,
                chunk: 9,
            },
            TraceEvent::ChunkValidate {
                at: 6,
                core: 1,
                chunk: Some(9),
                conflict: Some(132),
            },
            TraceEvent::ChunkSquash {
                at: 7,
                core: 1,
                chunk: Some(9),
                cause: MisspeculationCause::DependenceViolation { addr: 132 },
                forensics: Some(SquashForensics {
                    addr: 132,
                    word_addr: Some(133),
                    writer_core: Some(0),
                    writer_chunk: None,
                    writer_site: Some((FuncId(1), BlockId(3))),
                    writer_at: Some(6),
                    reader_site: None,
                    false_conflicts: 1,
                    granularity_log2: 3,
                }),
            },
            TraceEvent::PredictorFeedback {
                at: 8,
                committed: 2,
                squashed: 1,
            },
            TraceEvent::CacheMiss {
                at: 9,
                core: 2,
                addr: 40,
                is_store: false,
            },
            TraceEvent::Watch {
                at: 10,
                core: 0,
                func: FuncId(0),
                block: BlockId(1),
                addr: 132,
                value: 7,
                is_store: true,
            },
        ]
    }

    #[test]
    fn every_event_kind_serializes_to_valid_json() {
        for e in sample_events() {
            let doc = trace_event_json(&e);
            crate::json::validate(&doc).unwrap_or_else(|err| panic!("invalid: {err}\n{doc}"));
            assert!(doc.contains(&format!("\"{}\"", e.kind())), "{doc}");
        }
    }

    #[test]
    fn squash_rows_carry_the_violating_address_and_forensics() {
        let events = sample_events();
        let squash = events
            .iter()
            .find(|e| matches!(e, TraceEvent::ChunkSquash { .. }))
            .unwrap();
        let doc = trace_event_json(squash);
        assert!(doc.contains("\"cause\": \"dependence_violation\""), "{doc}");
        assert!(doc.contains("\"cause_addr\": 132"), "{doc}");
        assert!(doc.contains("\"word_addr\": 133"), "{doc}");
        assert!(doc.contains("\"false_conflicts\": 1"), "{doc}");
        assert!(doc.contains("\"writer_chunk\": null"), "{doc}");
    }

    #[test]
    fn the_trace_document_composes_and_validates() {
        let events = sample_events();
        let mut doc = trace_json_header(true);
        doc.push_str(&trace_job_json("sweep/ks/spice4", &events));
        doc.push_str(",\n");
        doc.push_str(&trace_job_json("sweep/ks/sequential", &[]));
        doc.push_str(&trace_json_footer());
        crate::json::validate(&doc).unwrap_or_else(|err| panic!("invalid: {err}\n{doc}"));
    }
}
