//! Cross-crate integration tests: every paper workload, analyzed,
//! transformed and simulated, must produce exactly the results of its
//! sequential execution, across thread counts and in the presence of
//! mis-speculation.

use spice_core::analysis::derive_loop_spec;
use spice_core::pipeline::SpiceRunner;
use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_core::SimBackend;
use spice_sim::{Machine, MachineConfig, SequentialSimBackend};
use spice_workloads::{paper_benchmarks_small, run_workload_on, SpiceWorkload};

/// Drives a workload under Spice with `threads` threads, checking every
/// invocation's return value against the host-computed expectation and
/// against a sequential run of an identical workload instance.
fn check_workload(mut make: impl FnMut() -> Box<dyn SpiceWorkload>, threads: usize) {
    // Sequential reference: the same loop on the one-core backend.
    let mut one_core = SequentialSimBackend::new(MachineConfig::test_tiny(1));
    let seq_results = run_workload_on(make().as_mut(), &mut one_core)
        .expect("seq run")
        .return_values;

    // Spice run.
    let mut wl = make();
    let built = wl.build();
    let mut program = built.program;
    let analysis = derive_loop_spec(&program, built.kernel, None).expect("loop analyzable");
    let estimate = wl.expected_iterations();
    let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(threads, estimate))
        .apply(&mut program, &analysis)
        .expect("transformation applies");
    let mut machine = Machine::new(MachineConfig::test_tiny(threads), program);
    let mut args = wl.init(machine.mem_mut());
    let mut runner = SpiceRunner::new(spice);
    let mut inv = 0usize;
    loop {
        let expected_host = wl.expected_result(machine.mem());
        let report = runner
            .run_invocation(&mut machine, &args)
            .unwrap_or_else(|e| panic!("{} with {threads} threads: {e}", wl.name()));
        assert_eq!(
            report.return_value,
            seq_results[inv],
            "{} invocation {inv} with {threads} threads diverged from sequential",
            wl.name()
        );
        if let Some(e) = expected_host {
            assert_eq!(report.return_value, Some(e));
        }
        match wl.next_invocation(machine.mem_mut(), inv) {
            Some(a) => {
                args = a;
                inv += 1;
            }
            None => break,
        }
    }
    assert_eq!(inv + 1, seq_results.len());
}

#[test]
fn otter_matches_sequential_with_2_and_4_threads() {
    for threads in [2, 4] {
        check_workload(
            || {
                let mut v = paper_benchmarks_small();
                v.remove(1)
            },
            threads,
        );
    }
}

#[test]
fn ks_matches_sequential_with_2_and_4_threads() {
    for threads in [2, 4] {
        check_workload(
            || {
                let mut v = paper_benchmarks_small();
                v.remove(0)
            },
            threads,
        );
    }
}

#[test]
fn mcf_matches_sequential_with_2_and_4_threads() {
    for threads in [2, 4] {
        check_workload(
            || {
                let mut v = paper_benchmarks_small();
                v.remove(2)
            },
            threads,
        );
    }
}

#[test]
fn sjeng_matches_sequential_with_2_and_4_threads() {
    for threads in [2, 4] {
        check_workload(
            || {
                let mut v = paper_benchmarks_small();
                v.remove(3)
            },
            threads,
        );
    }
}

#[test]
fn eight_threads_also_work_on_otter() {
    check_workload(
        || {
            let mut v = paper_benchmarks_small();
            v.remove(1)
        },
        8,
    );
}

#[test]
fn sjeng_actually_misspeculates_sometimes() {
    // The paper reports ~25% of sjeng invocations mis-speculating; with the
    // reproduction's board-mutation probability the rate must be clearly
    // non-zero while correctness is preserved (covered by the test above).
    let mut wl = {
        let mut v = paper_benchmarks_small();
        v.remove(3)
    };
    let rate = run_workload_on(wl.as_mut(), &mut SimBackend::tiny(4))
        .unwrap()
        .misspeculation_rate();
    assert!(
        rate > 0.05,
        "sjeng misspeculation rate suspiciously low: {rate}"
    );
    assert!(
        rate < 0.9,
        "sjeng misspeculation rate suspiciously high: {rate}"
    );
}
