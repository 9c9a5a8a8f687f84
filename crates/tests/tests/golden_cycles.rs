//! Golden-cycle regression test: the simulated cycle counts of the Figure 7
//! suite are pinned exactly.
//!
//! The event-driven scheduler and the pre-decoded dispatch are *host-side*
//! optimizations — the simulated machine model did not change, so every
//! workload's sequential and Spice cycle counts must be bit-identical to the
//! goldens below (captured from the committed machine model on the
//! reduced-size suite; the full-size equivalent is enforced in CI by
//! regenerating `BENCH_fig7.json` and diffing it byte-for-byte against the
//! committed artifact).
//!
//! If a PR *intends* to change simulated time (a new latency, an extra
//! instruction in the transform), regenerate: run
//! `cargo run --release -p spice-bench --bin fig7 -- --small` and copy the
//! `sequential_cycles`/`spice_cycles` columns here, and commit the
//! regenerated full-size `BENCH_fig7.json` alongside.

use spice_bench::experiments::{all_workload_factories, fig7};
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::run_workload_on;

/// `(benchmark, threads, sequential_cycles, spice_cycles)` of the small
/// suite.
///
/// Re-captured for the mcf_app PR, which changes simulated time in three
/// deliberate ways: the dependence-free paper loops (ks, otter, sjeng) now
/// declare `ConflictPolicy::AssumeIndependent` per the per-workload registry
/// (no `spec.check` instructions in their merge chains), the conflict
/// tracker no longer records architectural writes made while no chunk is
/// speculating (exact, affects one list_splice verdict), and the suite gains
/// the `mcf_app` miniature application rows.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("ks", 2, 22363, 25710),
    ("ks", 4, 22363, 25225),
    ("otter", 2, 12067, 15053),
    ("otter", 4, 12067, 14471),
    ("181.mcf", 2, 36342, 40308),
    ("181.mcf", 4, 36342, 35238),
    ("458.sjeng", 2, 19648, 18264),
    ("458.sjeng", 4, 19648, 21256),
    ("mcf_true", 2, 31820, 52887),
    ("mcf_true", 4, 31820, 54802),
    ("list_splice", 2, 18811, 30693),
    ("list_splice", 4, 18811, 31793),
    ("mcf_app", 2, 105869, 125966),
    ("mcf_app", 4, 105869, 127654),
];

#[test]
fn fig7_small_cycle_counts_match_goldens_exactly() {
    let rows = fig7(true).expect("fig7 small");
    assert_eq!(rows.len(), GOLDEN.len(), "suite composition changed");
    for (row, &(name, threads, seq, spice)) in rows.iter().zip(GOLDEN) {
        assert_eq!(row.benchmark, name, "row order changed");
        assert_eq!(row.threads, threads, "thread sweep changed");
        assert_eq!(
            row.sequential_cycles, seq,
            "{name}/{threads}t: sequential cycles drifted (simulated time must be bit-identical; \
             see the module docs if the change is intentional)"
        );
        assert_eq!(
            row.spice_cycles, spice,
            "{name}/{threads}t: Spice cycles drifted (simulated time must be bit-identical; \
             see the module docs if the change is intentional)"
        );
    }
}

/// The sequential baseline is a backend like any other: driven cold through
/// `run_workload_on` (build, load, the one invocation loop) it reproduces the
/// golden sequential totals the prepared-sweep path above is pinned to.
#[test]
fn sequential_backend_reproduces_golden_sequential_cycles() {
    for (name, factory) in all_workload_factories(true) {
        let mut backend = SequentialSimBackend::new(MachineConfig::itanium2_cmp());
        let summary = run_workload_on(factory().as_mut(), &mut backend)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let golden = GOLDEN
            .iter()
            .find(|g| g.0 == name)
            .unwrap_or_else(|| panic!("{name}: no golden row"));
        assert_eq!(
            summary.total_cost,
            u128::from(golden.2),
            "{name}: sequential backend drifted from the golden sequential cycles"
        );
        assert_eq!(summary.invocations, factory().invocations(), "{name}");
    }
}
