//! The observer's halves on a whole workload: the small `list_splice` at four
//! threads — chunks begin, validate, commit and squash across ten invocations
//! — driven bare, trace only, attribution only and with both on. The run, the
//! trace and the attribution must not depend on which halves are on.
//! (`machine.rs`'s `tracing_never_changes_simulated_time` is the two-core
//! hand-built case.)

use spice_core::SimBackend;
use spice_ir::exec::ExecutionBackend;
use spice_sim::Machine;
use spice_workloads::suite::conflict_benchmarks_small;
use spice_workloads::{drive_loaded_workload, workload_load_options, BackendRunSummary};

#[test]
fn list_splice_at_four_threads_is_observed_identically() {
    let run = |trace: bool, attribution: bool| {
        let mut wl = conflict_benchmarks_small()
            .into_iter()
            .find(|w| w.name() == "list_splice")
            .expect("list_splice is a small conflict benchmark");
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
