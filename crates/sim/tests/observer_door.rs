//! The observer's halves on a whole workload: the small `list_splice` at four
//! threads — chunks begin, validate, commit and squash across ten invocations
//! — driven bare, trace only, attribution only and with both on. The run, the
//! trace and the attribution must not depend on which halves are on. And the
//! cell Table 2's hotness column profiles, a whole program on the sequential
//! simulator, attributed alone and with tracing beside it. (`machine.rs`'s `tracing_never_changes_simulated_time` is the two-core
//! hand-built case.)

use spice_core::SimBackend;
use spice_ir::exec::ExecutionBackend;
use spice_ir::FuncId;
use spice_sim::{Machine, MachineConfig, SequentialSimBackend};
use spice_workloads::{
    all_workload_factories, drive_loaded_workload, workload_load_options, BackendRunSummary,
};

#[test]
fn list_splice_at_four_threads_is_observed_identically() {
    let run = |trace: bool, attribution: bool| {
        let (_, factory) = all_workload_factories(true)
            .into_iter()
            .find(|(name, _)| *name == "list_splice")
            .expect("list_splice is in the suite");
        let mut wl = factory();
        let built = wl.build();
        let options = workload_load_options(wl.as_ref(), &built);
        let mut backend = SimBackend::tiny(4);
        backend.load(built.program, built.kernel, options).unwrap();
        if trace {
            backend.enable_trace(1 << 17);
        }
        if attribution {
            let machine = backend.machine_mut().expect("loaded");
            machine.enable_cycle_attribution();
        }
        let drive = drive_loaded_workload(wl.as_mut(), &mut backend).unwrap();
        (drive, backend)
    };
    let [bare, traced, attributed, both] =
        [(false, false), (true, false), (false, true), (true, true)].map(|(t, a)| run(t, a));
    assert!(bare.0.dependence_violations > 0, "no squash traffic");
    fn machine(run: &(BackendRunSummary, SimBackend)) -> &Machine {
        run.1.machine().expect("loaded")
    }
    for watched in [&traced, &attributed, &both] {
        assert_eq!(watched.0, bare.0, "drive summary");
        assert_eq!(machine(watched).summary(), machine(&bare).summary());
        assert_eq!(machine(watched).mem().words(), machine(&bare).mem().words());
    }
    let events = machine(&traced).trace().expect("tracing was on");
    assert_eq!(events.dropped(), 0, "trace ring too small to compare");
    assert!(events.squashes() > 0);
    assert_eq!(Some(events), machine(&both).trace(), "event streams");
    let cycles = machine(&attributed).cycle_attribution();
    assert!(cycles.expect("attribution was on").total_cycles() > 0);
    assert_eq!(cycles, machine(&both).cycle_attribution());
}

/// `measure_cycle_hotness`'s cell: small `mcf_app`, three functions, on the
/// sequential simulator with attribution on. A step reaches the observer
/// only while tracing; attribution hears of a group at its end either way,
/// so switching tracing on beside it must not move a cycle of it.
#[test]
fn sequential_attribution_is_the_same_with_tracing_on() {
    let run = |trace: bool| {
        let (_, factory) = all_workload_factories(true)
            .into_iter()
            .find(|(name, _)| *name == "mcf_app")
            .expect("mcf_app is in the suite");
        let mut wl = factory();
        let built = wl.build();
        let options = workload_load_options(wl.as_ref(), &built);
        let mut backend = SequentialSimBackend::new(MachineConfig::test_tiny(1));
        backend.load(built.program, built.kernel, options).unwrap();
        let machine = backend.machine_mut().expect("loaded");
        machine.enable_cycle_attribution();
        if trace {
            machine.enable_trace(1 << 12);
        }
        drive_loaded_workload(wl.as_mut(), &mut backend).unwrap();
        backend
    };
    let [alone, traced] = [false, true].map(run);
    let (alone, traced) = (alone.machine().unwrap(), traced.machine().unwrap());
    assert!(
        traced.trace().is_some_and(|t| !t.is_empty()),
        "tracing was on"
    );
    let cycles = alone.cycle_attribution().expect("attribution was on");
    let funcs = (0..alone.program().funcs.len() as u32)
        .filter(|&f| cycles.func_cycles(FuncId(f)) > 0)
        .count();
    assert!(funcs > 1, "the profile spans one function");
    assert_eq!(Some(cycles), traced.cycle_attribution());
}
