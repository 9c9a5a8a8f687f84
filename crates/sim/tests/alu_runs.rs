//! Co-issued ALU runs against single steps. An untraced core retires a run
//! of co-issuable ALU operations in one `ThreadState::retire_alu_run` call;
//! a traced core steps every instruction, since the trace hears each one.
//! On every small-suite workload at one, two and four threads, on the
//! 6-issue Table 1 machine and on a 3-issue test machine, both must produce
//! the same invocation reports, the same per-core reports (retired
//! instructions, stalls, idle cycles, finish cycle, speculative commits and
//! aborts, memory statistics), the same return values and the same memory —
//! and, with cycle attribution on beside both, the same attribution, since a
//! group that a run fills reaches the observer at its end like any other.

use spice_core::{PredictorOptions, PreparedProgram, SimBackend};
use spice_ir::exec::ExecutionBackend;
use spice_sim::{CycleAttribution, MachineConfig, RunSummary};
use spice_workloads::{all_workload_factories, workload_load_options};

/// What one invocation leaves behind: its report (printed, as the report
/// type has no equality) and the machine's summary of the run.
type Invocation = (String, RunSummary);

/// The two machines: a run only happens where a group has room for more
/// than one ALU operation.
fn machines() -> [MachineConfig; 2] {
    let mut narrow = MachineConfig::test_tiny(4);
    narrow.core.issue_width = 3;
    [MachineConfig::itanium2_cmp(), narrow]
}

/// Drives the suite workload `name` invocation by invocation on `threads`
/// cores of `config` (one: the sequential kernel), recording each
/// invocation, the final memory and the cycle attribution.
fn run(
    name: &str,
    config: &MachineConfig,
    threads: usize,
    trace: bool,
) -> (Vec<Invocation>, Vec<i64>, Option<CycleAttribution>) {
    let (_, factory) = all_workload_factories(true)
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("a suite workload");
    let mut workload = factory();
    let built = workload.build();
    let options = workload_load_options(workload.as_ref(), &built);
    let config = config.clone().with_cores(threads);
    let prepared = if threads == 1 {
        PreparedProgram::sequential(config, built.program, built.kernel)
    } else {
        let predictor = PredictorOptions::default();
        PreparedProgram::spice(
            config,
            threads,
            predictor,
            built.program,
            built.kernel,
            options,
        )
        .expect("the suite prepares")
    };
    let mut backend = SimBackend::from_prepared(&prepared);
    let machine = backend.machine_mut().expect("loaded");
    machine.enable_cycle_attribution();
    if trace {
        // A small ring: only whether the machine traces matters here.
        machine.enable_trace(1 << 10);
    }
    let mut args = workload.init(backend.mem_mut());
    let mut seen = Vec::new();
    for inv in 0.. {
        let expected = workload.expected_result(backend.mem());
        let report = backend.run_invocation(&args).expect("invocation runs");
        if expected.is_some() {
            assert_eq!(report.return_value, expected, "invocation {inv}");
        }
        let machine = backend.machine().expect("loaded");
        seen.push((format!("{report:?}"), machine.summary()));
        match workload.next_invocation(backend.mem_mut(), inv) {
            Some(next) => args = next,
            None => break,
        }
    }
    let machine = backend.machine().expect("loaded");
    let attribution = machine.cycle_attribution().cloned();
    (seen, machine.mem().words().to_vec(), attribution)
}

#[test]
fn alu_runs_retire_what_single_steps_retire() {
    for config in &machines() {
        let width = config.core.issue_width;
        for (name, _) in all_workload_factories(true) {
            for threads in [1, 2, 4] {
                let label = format!("{name} at {threads} threads, {width}-issue");
                let (stepped, stepped_mem, stepped_cycles) = run(name, config, threads, true);
                let (batched, batched_mem, batched_cycles) = run(name, config, threads, false);
                assert_eq!(stepped.len(), batched.len(), "{label}");
                for (inv, (s, b)) in stepped.iter().zip(&batched).enumerate() {
                    assert_eq!(s.0, b.0, "{label}: report of invocation {inv}");
                    assert_eq!(s.1, b.1, "{label}: cores of invocation {inv}");
                }
                assert!(stepped_mem == batched_mem, "{label}: memory");
                assert!(stepped_cycles.is_some(), "{label}: attribution was on");
                assert_eq!(stepped_cycles, batched_cycles, "{label}: attribution");
            }
        }
    }
}
