//! # spice-inspect — time-travel debugger for the Spice simulator
//!
//! A command layer over the simulator's observability surface (event
//! tracing, periodic snapshots, `run_until`): each command re-runs a
//! benchmark deterministically with the observers it needs and renders a
//! report. Because the simulator is single-threaded and tracing is purely
//! observational, every command sees the exact run the benchmarks measure —
//! same cycles, same squashes, same addresses.
//!
//! Commands (the `inspect` binary's verbs):
//!
//! * `trace <from> <to>` — print every event in an `at` range;
//! * `break <cycle>` — resume from the nearest snapshot at or before
//!   `cycle`, run to exactly `cycle`, and dump per-core machine state;
//! * `watch <addr>` — record every load/store of an address;
//! * `why-squash [chunk]` — reconstruct the RAW chain behind a
//!   dependence-violation squash: violating address, writer chunk/core and
//!   store site, reader site, conflict granularity.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use spice_bench::experiments::{
    drive_prepared_sweep, prepare_sweep, recorded_events, SweepMode, SweepPrep,
};
use spice_bench::trace_json::{cause_label, trace_event_json};
use spice_ir::exec::ExecutionBackend;
use spice_ir::trace::DEFAULT_TRACE_CAPACITY;
use spice_ir::{MisspeculationCause, TraceEvent};
use spice_sim::{Machine, MachineSnapshot};
use spice_workloads::{all_workload_factories, BackendRunSummary, WorkloadFactory};

/// What a session observes before running a command.
#[derive(Debug, Clone, Copy)]
pub struct Observers {
    /// Addresses to watch (loads/stores become [`TraceEvent::Watch`]).
    pub watch: Option<i64>,
    /// Periodic snapshot interval in cycles (for `break`).
    pub snapshot_interval: Option<u64>,
}

/// One deterministic traced run of a benchmark on the Spice simulator.
pub struct InspectRun {
    /// Backend summary (invocations, squashes, violations).
    pub summary: BackendRunSummary,
    /// Every event the recorder held at the end of the run.
    pub events: Vec<TraceEvent>,
    /// Snapshots the periodic recorder took (empty unless requested).
    pub snapshots: Vec<MachineSnapshot>,
    /// Final machine state dump.
    pub final_state: String,
}

/// Builds the preparation for `bench` on the small suite.
///
/// # Errors
///
/// Returns a message naming the benchmark if unknown, or any
/// analysis/transformation failure.
pub fn prepare(bench: &str, threads: usize) -> Result<(WorkloadFactory, SweepPrep), String> {
    let factory = all_workload_factories(true)
        .into_iter()
        .find(|(name, _)| *name == bench)
        .map(|(_, f)| f)
        .ok_or_else(|| {
            let names: Vec<&str> = all_workload_factories(true)
                .iter()
                .map(|(name, _)| *name)
                .collect();
            format!(
                "unknown benchmark {bench:?} (expected one of {})",
                names.join(", ")
            )
        })?;
    let prep = prepare_sweep(&factory, SweepMode::Spice { threads }, true, 0)?;
    Ok((factory, prep))
}

/// Runs `bench` once on the simulator with tracing (and any extra
/// observers) enabled and collects everything the commands render from.
///
/// # Errors
///
/// Returns the preparation or simulation failure.
pub fn run_traced(bench: &str, threads: usize, observers: Observers) -> Result<InspectRun, String> {
    let (factory, prep) = prepare(bench, threads)?;
    let (backend, run) = drive_prepared_sweep(&factory, &prep, |backend| {
        backend.enable_trace(DEFAULT_TRACE_CAPACITY);
        if let Some(machine) = backend.machine_mut() {
            if let Some(addr) = observers.watch {
                machine.watch_address(addr);
            }
            if let Some(interval) = observers.snapshot_interval {
                machine.enable_snapshots(interval);
            }
        }
    });
    let summary = run?.summary.ok_or("sweep run carried no summary")?;
    let events = recorded_events(&backend);
    let (snapshots, final_state) = backend
        .machine()
        .map(|m| (m.snapshots_taken().to_vec(), m.state_dump()))
        .unwrap_or_default();
    Ok(InspectRun {
        summary,
        events,
        snapshots,
        final_state,
    })
}

/// `trace <from> <to>`: renders every event whose `at` falls in the
/// inclusive range, one JSON object per line.
#[must_use]
pub fn cmd_trace(run: &InspectRun, from: u64, to: u64) -> String {
    let mut out = String::new();
    let mut shown = 0usize;
    for e in &run.events {
        let at = e.at();
        if at >= from && at <= to {
            out.push_str(&trace_event_json(e));
            out.push('\n');
            shown += 1;
        }
    }
    out.push_str(&format!(
        "{shown} events in [{from}, {to}] ({} recorded in total)\n",
        run.events.len()
    ));
    out
}

/// `watch <addr>`: renders every recorded access of the watched address.
#[must_use]
pub fn cmd_watch(run: &InspectRun, addr: i64) -> String {
    let mut out = String::new();
    let mut hits = 0usize;
    for e in &run.events {
        if let TraceEvent::Watch {
            at,
            core,
            func,
            block,
            addr: a,
            value,
            is_store,
        } = e
        {
            if *a == addr {
                out.push_str(&format!(
                    "at {at}: core {core} {} address {a} = {value} ({func}:{block})\n",
                    if *is_store { "store to" } else { "load of" },
                ));
                hits += 1;
            }
        }
    }
    out.push_str(&format!("{hits} accesses of address {addr}\n"));
    out
}

/// `break <cycle>`: resumes the machine from the latest snapshot at or
/// before `cycle`, runs forward to exactly `cycle`, and dumps per-core
/// scheduler state — the time-travel path end to end.
///
/// # Errors
///
/// Returns the preparation/simulation failure, or a message when no
/// snapshot precedes `cycle`.
pub fn cmd_break(bench: &str, threads: usize, cycle: u64) -> Result<String, String> {
    // Interval chosen so several snapshots precede the breakpoint; the
    // recorder starts one interval in, so cycle/4 guarantees coverage for
    // any cycle >= 4.
    let interval = (cycle / 4).max(1);
    let run = run_traced(
        bench,
        threads,
        Observers {
            watch: None,
            snapshot_interval: Some(interval),
        },
    )?;
    let snap = run
        .snapshots
        .iter()
        .rev()
        .find(|s| s.cycle() <= cycle)
        .ok_or_else(|| {
            format!(
                "no snapshot at or before cycle {cycle} (run ended at: {})",
                run.final_state.lines().next().unwrap_or("?")
            )
        })?;
    let mut machine = Machine::resume_from(snap);
    let paused = machine
        .run_until(cycle)
        .map_err(|e| format!("resumed run failed: {e:?}"))?;
    let mut out = format!(
        "resumed from snapshot at cycle {} ({} snapshots taken)\n",
        snap.cycle(),
        run.snapshots.len()
    );
    if paused.is_some() {
        out.push_str(&format!(
            "program finished before cycle {cycle}; state at completion:\n"
        ));
    } else {
        out.push_str(&format!("paused at breakpoint, cycle {cycle}:\n"));
    }
    out.push_str(&machine.state_dump());
    Ok(out)
}

/// `why-squash [chunk]`: reconstructs the read-after-write chain behind
/// each dependence-violation squash (optionally only for one chunk id):
/// the violating address, the writer chunk/core and its store site, the
/// squashed reader's site, and the conflict granularity. Ends with the
/// backend's own violation counter so the reconstruction can be checked
/// against the run's accounting.
#[must_use]
pub fn cmd_why_squash(run: &InspectRun, chunk: Option<u64>) -> String {
    let mut out = String::new();
    let mut squashes = 0usize;
    let mut violations = 0usize;
    for e in &run.events {
        let TraceEvent::ChunkSquash {
            at,
            core,
            chunk: victim,
            cause,
            forensics,
        } = e
        else {
            continue;
        };
        if chunk.is_some() && *victim != chunk {
            continue;
        }
        squashes += 1;
        let victim_label = victim.map_or_else(|| "?".to_string(), |c| c.to_string());
        match cause {
            MisspeculationCause::DependenceViolation { addr } => {
                violations += 1;
                out.push_str(&format!(
                    "chunk {victim_label} squashed at {at} on core {core}: dependence violation\n"
                ));
                out.push_str(&format!("  violating address {addr}"));
                if let Some(f) = forensics {
                    if let Some(w) = f.word_addr {
                        out.push_str(&format!(" (word {w})"));
                    }
                    out.push_str(&format!(
                        ", conflict granularity 2^{}\n",
                        f.granularity_log2
                    ));
                    let writer_chunk = f
                        .writer_chunk
                        .map_or_else(|| "main".to_string(), |c| format!("{c}"));
                    out.push_str(&format!("  writer: chunk {writer_chunk}"));
                    if let Some(c) = f.writer_core {
                        out.push_str(&format!(" on core {c}"));
                    }
                    if let Some((func, block)) = f.writer_site {
                        out.push_str(&format!(", store at {func}:{block}"));
                    }
                    if let Some(at) = f.writer_at {
                        out.push_str(&format!(", at {at}"));
                    }
                    out.push('\n');
                    out.push_str(&format!("  reader: chunk {victim_label}"));
                    if let Some((func, block)) = f.reader_site {
                        out.push_str(&format!(", load at {func}:{block}"));
                    }
                    out.push('\n');
                    out.push_str(&format!(
                        "  false conflicts at this granularity: {}\n",
                        f.false_conflicts
                    ));
                } else {
                    out.push('\n');
                }
            }
            other => {
                out.push_str(&format!(
                    "chunk {victim_label} squashed at {at} on core {core}: {}\n",
                    cause_label(other)
                ));
            }
        }
    }
    if squashes == 0 {
        if let Some(c) = chunk {
            return format!("no squash recorded for chunk {c}\n");
        }
        out.push_str("no squashes recorded\n");
    }
    out.push_str(&format!(
        "{violations} dependence-violation squashes explained; backend reports {} \
         violations over {} squashed chunks\n",
        run.summary.dependence_violations, run.summary.squashed_chunks
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn why_squash_on_list_splice_names_the_violating_address_and_writer() {
        let run = run_traced(
            "list_splice",
            4,
            Observers {
                watch: None,
                snapshot_interval: None,
            },
        )
        .expect("traced run");
        assert!(run.summary.dependence_violations > 0, "needs violations");
        let report = cmd_why_squash(&run, None);
        assert!(report.contains("violating address "), "{report}");
        assert!(report.contains("writer: chunk "), "{report}");
        assert!(report.contains("reader: chunk "), "{report}");
        // The reconstruction must agree with the backend's accounting.
        let explained: usize = report
            .lines()
            .filter(|l| l.ends_with("dependence violation"))
            .count();
        assert_eq!(explained, run.summary.dependence_violations, "{report}");
        // The trace names the report's causes: each invocation's violation
        // squashes its later chunks in cascade, and no start goes stale.
        let labelled = |label: &str| {
            let suffix = format!(": {label}");
            report.lines().filter(|l| l.ends_with(&suffix)).count()
        };
        assert_eq!(labelled("stale_prediction"), 0, "{report}");
        assert_eq!(
            labelled("squash_cascade"),
            run.summary.squashed_chunks - run.summary.dependence_violations,
            "{report}"
        );

        // The reported pair identifies a real chunk: every dependence
        // squash names a victim chunk that a ChunkBegin introduced.
        let begun: Vec<u64> = run
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkBegin { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect();
        let squashed: Vec<u64> = run
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkSquash {
                    chunk: Some(c),
                    cause: MisspeculationCause::DependenceViolation { .. },
                    ..
                } => Some(*c),
                _ => None,
            })
            .collect();
        assert!(!squashed.is_empty());
        assert!(squashed.iter().all(|c| begun.contains(c)));
    }

    #[test]
    fn break_resumes_and_pauses_at_the_requested_cycle() {
        let report = cmd_break("list_splice", 4, 2_000).expect("break");
        assert!(
            report.contains("paused at breakpoint, cycle 2000:")
                || report.contains("program finished before cycle 2000"),
            "{report}"
        );
        assert!(
            report.contains("resumed from snapshot at cycle "),
            "{report}"
        );
    }

    #[test]
    fn unknown_benchmark_is_a_clear_error() {
        let Err(err) = prepare("nonesuch", 4) else {
            panic!("expected an error for an unknown benchmark");
        };
        assert!(err.contains("unknown benchmark"), "{err}");
        assert!(err.contains("list_splice"), "{err}");
    }
}
