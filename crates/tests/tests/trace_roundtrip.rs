//! Trace-file round-trip property: for every real driver of the suite,
//! record → serialize → parse → replay reproduces the recording exactly,
//! and corrupted documents fail with typed errors instead of panicking.

use spice_bench::experiments::replay_on_backend;
use spice_bench::tracefile::{trace_from_json, trace_to_json, TraceFileError};
use spice_ir::exec::InterpBackend;
use spice_profiler::record_workload_trace;
use spice_workloads::all_workload_factories;
use spice_workloads::trace::{fuzz_trace, FuzzConfig, TraceError};

#[test]
fn recorded_traces_round_trip_and_replay_across_the_suite() {
    for (name, factory) in all_workload_factories(true) {
        let mut wl = factory();
        let trace = record_workload_trace(wl.as_mut(), None)
            .unwrap_or_else(|e| panic!("{name}: recording failed: {e:?}"));
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{name}: recorded an invalid trace: {e}"));
        assert!(trace.total_iterations() > 0, "{name}: empty recording");

        // Serialize → parse reproduces the trace exactly, and the format is
        // canonical: re-serializing the parse is byte-identical.
        let doc = trace_to_json(&trace);
        let parsed = trace_from_json(&doc)
            .unwrap_or_else(|e| panic!("{name}: own serialization failed to parse: {e}"));
        assert_eq!(parsed, trace, "{name}: round trip changed the trace");
        assert_eq!(
            trace_to_json(&parsed),
            doc,
            "{name}: re-serialization is not canonical"
        );

        // The parsed trace replays: the sequential replay checks the host
        // mirror on every invocation internally.
        let replay = replay_on_backend(&parsed, &mut InterpBackend::new())
            .unwrap_or_else(|e| panic!("{name}: parsed trace failed to replay: {e}"));
        assert_eq!(
            replay.returns.len(),
            trace.invocations.len(),
            "{name}: replay invocation count"
        );

        // Fuzzed descendants keep the property: still valid, still
        // round-trip, still replay.
        for seed in [1u64, 2] {
            let mutant = fuzz_trace(
                &trace,
                &FuzzConfig {
                    seed,
                    ..FuzzConfig::default()
                },
            );
            mutant
                .validate()
                .unwrap_or_else(|e| panic!("{name}/seed{seed}: invalid mutant: {e}"));
            let mutant_doc = trace_to_json(&mutant);
            let mutant_back = trace_from_json(&mutant_doc)
                .unwrap_or_else(|e| panic!("{name}/seed{seed}: mutant failed to parse: {e}"));
            assert_eq!(mutant_back, mutant);
            replay_on_backend(&mutant_back, &mut InterpBackend::new())
                .unwrap_or_else(|e| panic!("{name}/seed{seed}: mutant failed to replay: {e}"));
        }
    }
}

#[test]
fn corrupted_trace_files_from_real_recordings_fail_typed() {
    // One real recording as the corruption substrate.
    let (name, factory) = all_workload_factories(true).remove(0);
    let mut wl = factory();
    let trace = record_workload_trace(wl.as_mut(), None)
        .unwrap_or_else(|e| panic!("{name}: recording failed: {e:?}"));
    let doc = trace_to_json(&trace);

    // Truncation at every eighth byte: always a typed error, never a panic,
    // never a silently-parsed trace.
    for cut in (0..doc.len() - 1).step_by(8) {
        let truncated = &doc[..cut];
        assert!(
            trace_from_json(truncated).is_err(),
            "{name}: truncation at {cut} parsed"
        );
    }

    // Wrong format tag is a schema error; flipped content is a checksum
    // mismatch.
    let retagged = doc.replacen("spice-trace", "spicy-trace", 1);
    assert!(matches!(
        trace_from_json(&retagged),
        Err(TraceFileError::Schema(_))
    ));
    let tampered = doc.replacen("\"write\": null", "\"write\": 1", 1);
    assert_ne!(tampered, doc, "{name}: recording has no iterations?");
    assert!(matches!(
        trace_from_json(&tampered),
        Err(TraceFileError::ChecksumMismatch { .. })
    ));

    // A checksum-consistent but invariant-breaking document surfaces the
    // underlying TraceError.
    let mut bad = trace.clone();
    let last = bad.invocations[0].iterations.len() - 1;
    bad.invocations[0].iterations[last].write = Some(1);
    assert!(matches!(
        trace_from_json(&trace_to_json(&bad)),
        Err(TraceFileError::Invalid(TraceError::WriteOutOfRange { .. }))
    ));
}
