//! Suite-wide positive lint coverage and the dependence cross-check.
//!
//! Two guarantees over *every* workload factory the farm dispatches:
//!
//! 1. Pre- and post-transform, each workload passes structural verification
//!    and the full speculation-safety lint stack, at every thread count and
//!    conflict granularity in the farm manifest's sweep matrix.
//! 2. The static dependence pre-screen never contradicts dynamic truth: a
//!    workload whose Spice run *measures* cross-chunk dependence violations
//!    is never classified provably-disjoint, and every workload declares
//!    exactly the policy the pre-screen recommends.

use spice_bench::experiments::LINE_GRANULARITY_LOG2;
use spice_core::backend::SimBackend;
use spice_core::lint::lint_spice;
use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_ir::exec::{derive_loop_spec, ConflictPolicy};
use spice_ir::verify::verify_program;
use spice_ir::DependenceClass;
use spice_workloads::{all_workload_factories, run_workload_on_with, workload_load_options};

/// Thread counts the farm manifest sweeps (`SweepMode::ALL`).
const FARM_THREADS: [usize; 2] = [2, 4];

#[test]
fn every_workload_passes_verify_and_lints_across_the_farm_matrix() {
    for (name, factory) in all_workload_factories(true) {
        for threads in FARM_THREADS {
            // The transform is granularity-invariant today; sweeping the
            // manifest's granularities here guards against that coupling
            // silently appearing.
            for granularity in [0u8, LINE_GRANULARITY_LOG2] {
                let mut wl = factory();
                let built = wl.build();
                assert!(
                    verify_program(&built.program).is_ok(),
                    "{name}: pre-transform verify failed"
                );
                let options = workload_load_options(wl.as_ref(), &built)
                    .with_conflict_granularity_log2(granularity);
                let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
                    .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
                let mut program = built.program;
                let spice = SpiceTransform::new(SpiceOptions {
                    conflict_policy: options.conflict_policy,
                    ..SpiceOptions::with_threads_and_estimate(threads, wl.expected_iterations())
                })
                .apply(&mut program, &analysis)
                .unwrap_or_else(|e| panic!("{name}: transform failed at {threads} threads: {e}"));
                if let Err(errs) = verify_program(&program) {
                    panic!("{name}: post-transform verify failed: {errs:?}");
                }
                if let Err(errs) = lint_spice(&program, &spice) {
                    let rendered: Vec<String> = errs.iter().map(|e| e.render(&program)).collect();
                    panic!(
                        "{name}: speculation-safety lints failed at {threads} threads, \
                         granularity {granularity}:\n{}",
                        rendered.join("\n")
                    );
                }
            }
        }
    }
}

#[test]
fn measured_violations_never_contradict_the_prescreen() {
    let mut saw_violations = false;
    let mut saw_disjoint = false;
    for (name, factory) in all_workload_factories(true) {
        // Static side: classify the target loop.
        let mut wl = factory();
        let built = wl.build();
        let options = workload_load_options(wl.as_ref(), &built);
        let analysis = derive_loop_spec(&built.program, built.kernel, options.loop_header)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        let class = analysis.dependence(&built.program).class;
        saw_disjoint |= class == DependenceClass::ProvablyDisjoint;

        // Dynamic side: run a fresh instance with detection forced on (word
        // granularity — the honest violation count) and compare.
        let mut run_wl = factory();
        let mut backend = SimBackend::new(4);
        let summary = run_workload_on_with(run_wl.as_mut(), &mut backend, |o| {
            o.with_conflict_policy(ConflictPolicy::Detect)
        })
        .unwrap_or_else(|e| panic!("{name}: detect run failed: {e}"));
        if summary.dependence_violations > 0 {
            saw_violations = true;
            assert_ne!(
                class,
                DependenceClass::ProvablyDisjoint,
                "{name}: measured {} dependence violations but the pre-screen \
                 claims the loop is provably disjoint — the classification is unsound",
                summary.dependence_violations
            );
        }
    }
    // Keep the implication non-vacuous: the suite must contain both a
    // conflict-carrying workload and a provably-disjoint one.
    assert!(saw_violations, "no workload measured any violations");
    assert!(saw_disjoint, "no workload classified provably-disjoint");
}

#[test]
fn declared_independence_is_always_provable() {
    // `AssumeIndependent` disables the conflict-detection safety net, so a
    // declaration the pre-screen cannot prove is a red flag: either the
    // declaration is wrong or the pre-screen lost precision. The converse
    // holds too — a provably disjoint loop that declares `Detect` pays for
    // tracking it cannot need — so the two must be equal, which also makes
    // the declaration derivable.
    for (name, factory) in all_workload_factories(true) {
        let mut wl = factory();
        let built = wl.build();
        let analysis = derive_loop_spec(&built.program, built.kernel, built.loop_header_hint)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert_eq!(
            wl.conflict_policy(),
            analysis.recommended_policy(&built.program),
            "{name}: the declared policy is not the one the pre-screen recommends ({:?})",
            analysis.dependence(&built.program)
        );
    }
}
