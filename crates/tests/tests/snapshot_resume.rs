//! Snapshot / time-travel property over the whole small suite, violation
//! workloads included: a machine resumed from any periodic checkpoint
//! continues bit-identically — same cycles, same memory, same trace tail —
//! and enabling the observers (trace ring, snapshot recorder) never changes
//! what the run computes. Covers both ends of the one event loop: the
//! sequential one-core machine (one core runs ahead unbounded) and the
//! 4-thread Spice configuration (fine-grained interleaving), where a pause
//! at an arbitrary cycle must also leave exactly settled counters behind.

use spice_bench::experiments::{prepare_sweep, SweepMode};
use spice_core::SimBackend;
use spice_ir::exec::ExecutionBackend;
use spice_ir::TraceEvent;
use spice_sim::Machine;
use spice_workloads::{all_workload_factories, drive_loaded_workload};

/// Large enough that no suite member evicts events (the prefix comparison
/// below needs the complete stream).
const TRACE_CAP: usize = 1 << 17;

#[test]
fn sequential_snapshots_resume_bit_identically() {
    for (bench, factory) in all_workload_factories(true) {
        let prep = prepare_sweep(&factory, SweepMode::Sequential, true, 0).expect(bench);

        // Reference: invocation 0, traced, no snapshots.
        let mut wl = factory();
        let _ = wl.build();
        let mut full = prep.prepared.machine();
        full.enable_trace(TRACE_CAP);
        let args = wl.init(full.mem_mut());
        let full_cycles = full
            .run_sequential(prep.kernel, &args)
            .unwrap_or_else(|e| panic!("{bench}: {e:?}"))
            .cycles;
        let full_ret = full.return_value(0);

        // Same invocation with the periodic recorder on: the observers must
        // not change the outcome, and every checkpoint must resume to the
        // identical end state.
        let mut wl2 = factory();
        let _ = wl2.build();
        let mut observed = prep.prepared.machine();
        observed.enable_trace(TRACE_CAP);
        observed.enable_snapshots((full_cycles / 5).max(1));
        let args2 = wl2.init(observed.mem_mut());
        assert_eq!(args, args2, "{bench}: workload init must be deterministic");
        let cycles = observed
            .run_sequential(prep.kernel, &args2)
            .unwrap_or_else(|e| panic!("{bench}: {e:?}"))
            .cycles;
        assert_eq!(
            (cycles, observed.return_value(0)),
            (full_cycles, full_ret),
            "{bench}"
        );
        assert_eq!(observed.trace(), full.trace(), "{bench}: trace diverged");

        let snaps = observed.snapshots_taken();
        assert!(!snaps.is_empty(), "{bench}: no snapshots taken");
        for snap in snaps {
            let mut resumed = Machine::resume_from(snap);
            let summary = resumed
                .run()
                .unwrap_or_else(|e| panic!("{bench}: resume from {}: {e:?}", snap.cycle()));
            assert_eq!(
                summary.cycles,
                full_cycles,
                "{bench}: cycles diverged resuming from {}",
                snap.cycle()
            );
            assert_eq!(resumed.return_value(0), full_ret, "{bench}");
            assert_eq!(
                resumed.mem().words(),
                full.mem().words(),
                "{bench}: memory diverged resuming from {}",
                snap.cycle()
            );
            assert_eq!(
                resumed.trace(),
                full.trace(),
                "{bench}: trace tail diverged resuming from {}",
                snap.cycle()
            );
        }
    }
}

#[test]
fn spice_snapshots_resume_bit_identically_mid_invocation() {
    for (bench, factory) in all_workload_factories(true) {
        let prep = prepare_sweep(&factory, SweepMode::Spice { threads: 4 }, true, 0).expect(bench);

        // Full traced drive with periodic checkpoints across every
        // invocation (the per-invocation clock re-arms the recorder).
        let mut wl = factory();
        let _ = wl.build();
        let mut backend = SimBackend::from_prepared(&prep.prepared);
        backend.enable_trace(TRACE_CAP);
        backend
            .machine_mut()
            .expect("loaded")
            .enable_snapshots(4_000);
        let summary = drive_loaded_workload(wl.as_mut(), &mut backend)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));

        // Observer invariant at the workload level: a bare drive of the
        // same preparation computes the identical summary (results,
        // cycles, squashes, per-thread work).
        let mut wl2 = factory();
        let _ = wl2.build();
        let mut bare = SimBackend::from_prepared(&prep.prepared);
        let bare_summary = drive_loaded_workload(wl2.as_mut(), &mut bare)
            .unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(summary, bare_summary, "{bench}: observers changed the run");

        let machine = backend.machine().expect("loaded");
        let trace = machine.trace().expect("tracing enabled");
        assert_eq!(trace.dropped(), 0, "{bench}: TRACE_CAP too small");
        let full_events: Vec<TraceEvent> = trace.events().cloned().collect();
        let snaps = machine.snapshots_taken();
        assert!(!snaps.is_empty(), "{bench}: no snapshots taken");

        // Resume from a spread of checkpoints — first, middle, last. The
        // continuation runs its invocation to completion, and its trace
        // must be an exact prefix of the full run's event stream: the
        // machine replays the identical future event-for-event.
        for i in [0, snaps.len() / 2, snaps.len() - 1] {
            let snap = &snaps[i];
            let mut resumed = Machine::resume_from(snap);
            resumed
                .run()
                .unwrap_or_else(|e| panic!("{bench}: resume from {}: {e:?}", snap.cycle()));
            let resumed_events: Vec<TraceEvent> = resumed
                .trace()
                .expect("trace restored from snapshot")
                .events()
                .cloned()
                .collect();
            assert!(
                resumed_events.len() <= full_events.len(),
                "{bench}: resumed run traced past the full run"
            );
            assert_eq!(
                resumed_events[..],
                full_events[..resumed_events.len()],
                "{bench}: continuation diverged resuming from cycle {} (snapshot {i})",
                snap.cycle()
            );
        }

        // Violation workloads must exercise this property across actual
        // squash-and-recover traffic, not just clean runs.
        if bench == "list_splice" {
            assert!(summary.dependence_violations > 0, "{bench}");
        }
    }
}

/// A pause is not a checkpoint the scheduler chose: `run_until` stops the
/// 4-thread machine wherever the target cycle falls, cores mid-stall and
/// mid-receive included, and the lazily settled stall / idle counters must
/// be exact there. Pausing inside a multi-core region, snapshotting the
/// paused machine, and finishing on the resumed copy has to reproduce the
/// uninterrupted continuation's full `RunSummary` (every per-core counter),
/// memory and trace.
#[test]
fn spice_runs_pause_and_resume_bit_identically_inside_multi_core_regions() {
    for (bench, factory) in all_workload_factories(true) {
        let prep = prepare_sweep(&factory, SweepMode::Spice { threads: 4 }, true, 0).expect(bench);
        let mut wl = factory();
        let _ = wl.build();
        let mut backend = SimBackend::from_prepared(&prep.prepared);
        backend.enable_trace(TRACE_CAP);
        backend
            .machine_mut()
            .expect("loaded")
            .enable_snapshots(4_000);
        drive_loaded_workload(wl.as_mut(), &mut backend).unwrap_or_else(|e| panic!("{bench}: {e}"));
        let snaps = backend.machine().expect("loaded").snapshots_taken();
        assert!(!snaps.is_empty(), "{bench}: no snapshots taken");

        let mut multi_core_pauses = 0;
        for snap in [&snaps[0], &snaps[snaps.len() / 2], &snaps[snaps.len() - 1]] {
            let mut straight = Machine::resume_from(snap);
            let full = straight
                .run()
                .unwrap_or_else(|e| panic!("{bench}: resume from {}: {e:?}", snap.cycle()));
            let span = full.cycles - snap.cycle();
            for quarter in 1..4 {
                let pause_at = snap.cycle() + span * quarter / 4;
                let mut paused = Machine::resume_from(snap);
                if paused.run_until(pause_at).expect(bench).is_some() {
                    continue; // nothing left to pause in
                }
                assert_eq!(paused.cycle(), pause_at, "{bench}");
                let at_pause = paused.summary();
                let mut resumed = Machine::resume_from(&paused.snapshot());
                let summary = resumed
                    .run()
                    .unwrap_or_else(|e| panic!("{bench}: resume from pause {pause_at}: {e:?}"));
                assert_eq!(summary, full, "{bench}: paused at {pause_at}");
                assert_eq!(resumed.mem(), straight.mem(), "{bench}: {pause_at}");
                assert_eq!(resumed.trace(), straight.trace(), "{bench}: {pause_at}");
                let still_running = summary
                    .cores
                    .iter()
                    .zip(&at_pause.cores)
                    .filter(|(end, pause)| end.retired > pause.retired)
                    .count();
                multi_core_pauses += usize::from(still_running >= 2);
            }
        }
        assert!(
            multi_core_pauses > 0,
            "{bench}: no pause landed inside a multi-core region"
        );
    }
}

/// Calls are the one place a thread changes frames, and a frame carries its
/// function's constant pool next to its registers. `mcf_app` — the one
/// workload with calls — is paused before its first call and at points
/// inside both callees (the caller's frame suspended on the call stack);
/// each snapshot, resumed, must return into the caller and finish exactly
/// like the uninterrupted run, which it can only do if every frame, live or
/// suspended, still holds its constants.
#[test]
fn snapshots_across_calls_keep_every_frames_constants() {
    let (bench, factory) = all_workload_factories(true)
        .into_iter()
        .find(|(name, _)| *name == "mcf_app")
        .expect("mcf_app is in the suite");
    let prep = prepare_sweep(&factory, SweepMode::Sequential, true, 0).expect(bench);
    let start = |wl: &mut dyn spice_workloads::SpiceWorkload| {
        let _ = wl.build();
        let mut machine = prep.prepared.machine();
        let args = wl.init(machine.mem_mut());
        machine.spawn(0, prep.kernel, &args).expect("core 0 exists");
        machine
    };
    let mut straight = start(factory().as_mut());
    let full = straight.run().expect(bench);

    let in_kernel = format!("runnable at {:?}:", prep.kernel);
    let mut pauses_in_callee = 0;
    for pause_at in (0..12).map(|i| (1u64 << i) - 1) {
        let mut paused = start(factory().as_mut());
        if paused.run_until(pause_at).expect(bench).is_some() {
            break;
        }
        let dump = paused.state_dump();
        assert!(dump.contains("runnable at"), "{bench}: {dump}");
        if pause_at == 0 {
            assert!(dump.contains(&in_kernel), "before the first call: {dump}");
        }
        pauses_in_callee += usize::from(!dump.contains(&in_kernel));

        let mut resumed = Machine::resume_from(&paused.snapshot());
        let summary = resumed
            .run()
            .unwrap_or_else(|e| panic!("{bench}: resume from pause {pause_at}: {e:?}"));
        assert_eq!(summary, full, "{bench}: paused at {pause_at}");
        assert_eq!(resumed.return_value(0), straight.return_value(0));
        assert_eq!(resumed.mem(), straight.mem(), "{bench}: {pause_at}");
    }
    assert!(
        pauses_in_callee >= 2,
        "{bench}: no pause landed in a callee"
    );
}
