//! Golden-cycle regression test: the simulated cycle counts of the Figure 7
//! suite are pinned exactly, on both machine models.
//!
//! The event-driven scheduler and the pre-decoded dispatch are *host-side*
//! optimizations — the simulated machine model did not change, so every
//! workload's sequential and Spice cycle counts must be bit-identical to the
//! goldens below. Both tables use the reduced-size inputs: [`GOLDEN`]
//! simulates them on the Table 1 machine — the cells the farm builds at full
//! size, built here directly — and [`GOLDEN_SMALL_FARM`] is what
//! `farm --small` really produces: the same inputs on the reduced test
//! machine. (The full-size equivalent is enforced in CI by regenerating
//! `BENCH_fig7.json` and diffing it byte-for-byte against the committed
//! artifact.)
//!
//! If a PR *intends* to change simulated time (a new latency, an extra
//! instruction in the transform), regenerate. [`GOLDEN_SMALL_FARM`]: run
//! `cargo run --release -p spice-bench --bin farm -- --small --figures fig7
//! --jobs 1 --out-dir /tmp/golden` and copy the
//! `sequential_cycles`/`spice_cycles` columns. [`GOLDEN`]: run this test and
//! copy the columns out of its failure messages (no CLI selects small inputs
//! on the Table 1 machine). Commit the regenerated full-size
//! `BENCH_fig7.json` alongside.

use spice_bench::experiments::{
    all_workload_factories, fig7_row_from_sweep, prepare_sweep, run_prepared_sweep, Fig7Row,
    SweepMode,
};
use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::run_workload_on;

/// `(benchmark, threads, sequential_cycles, spice_cycles)` of the small
/// suite on the Table 1 machine.
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

/// The same suite as `farm --small --figures fig7` runs it: reduced-size
/// inputs on the reduced test machine (`MachineConfig::test_tiny`).
const GOLDEN_SMALL_FARM: &[(&str, usize, u64, u64)] = &[
    ("ks", 2, 29864, 33523),
    ("ks", 4, 29864, 28885),
    ("otter", 2, 20878, 21410),
    ("otter", 4, 20878, 15718),
    ("181.mcf", 2, 55300, 43019),
    ("181.mcf", 4, 55300, 30118),
    ("458.sjeng", 2, 23626, 24016),
    ("458.sjeng", 4, 23626, 23862),
    ("mcf_true", 2, 42542, 55569),
    ("mcf_true", 4, 42542, 57286),
    ("list_splice", 2, 23547, 40182),
    ("list_splice", 4, 23547, 39908),
    ("mcf_app", 2, 129067, 141893),
    ("mcf_app", 4, 129067, 144501),
];

/// The small suite's Figure 7 cells on the Table 1 machine: the calls the
/// farm makes for a full-size run (`tiny = false`), on the small inputs.
fn table1_machine_rows() -> Vec<Fig7Row> {
    let mut rows = Vec::new();
    for (name, factory) in all_workload_factories(true) {
        let cell = |mode| {
            let prep = prepare_sweep(&factory, mode, false, 0).expect("prepare");
            run_prepared_sweep(&factory, &prep).expect("run")
        };
        let sequential_cycles = cell(SweepMode::Sequential).cycles;
        for threads in [2usize, 4] {
            let run = cell(SweepMode::Spice { threads });
            rows.push(fig7_row_from_sweep(name, threads, sequential_cycles, &run));
        }
    }
    rows
}

fn assert_rows_match(rows: &[Fig7Row], golden: &[(&str, usize, u64, u64)]) {
    assert_eq!(rows.len(), golden.len(), "suite composition changed");
    for (row, &(name, threads, seq, spice)) in rows.iter().zip(golden) {
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

#[test]
fn fig7_small_cycle_counts_match_goldens_exactly() {
    assert_rows_match(&table1_machine_rows(), GOLDEN);
}

/// What `--small` really simulates is pinned too: the farm's small Figure 7
/// rows, read off its report.
#[test]
fn farm_small_fig7_rows_match_tiny_machine_goldens_exactly() {
    let manifest = Manifest {
        figures: vec![Figure::Fig7],
        small: true,
        jobs: 1,
        ..Manifest::default()
    };
    let report = run_manifest(&manifest, &OutPaths::default()).expect("small farm run");
    assert_rows_match(&report.fig7_rows, GOLDEN_SMALL_FARM);
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
