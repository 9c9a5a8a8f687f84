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
    fig7_row_from_sweep, prepare_sweep, run_prepared_sweep, Fig7Row, SweepMode,
};
use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::{all_workload_factories, run_workload_on};

/// `(benchmark, threads, sequential_cycles, spice_cycles)` of the small
/// suite on the Table 1 machine.
///
/// Re-captured for the mcf_app PR, which changes simulated time in two
/// deliberate ways: the dependence-free paper loops (ks, otter, sjeng) now
/// declare `ConflictPolicy::AssumeIndependent` per the per-workload registry
/// (no `spec.check` instructions in their merge chains), and the suite gains
/// the `mcf_app` miniature application rows. Since then one cell moved:
/// the conflict epoch opens where the main thread releases the workers, so
/// every main-chunk store from the loop header on is in the committed-write
/// set, even one that lands before a worker reads the word. On this
/// machine's 16-cycle inter-core latency that turns list_splice's
/// 4-thread invocation 8 from a commit into a `DependenceViolation`, as on
/// the native backend (31793 → 31705 cycles). Later every Spice cell of
/// both tables moved once, and no sequential cell: the main thread loads each
/// worker's start and successor rows of `sva` and sends them in the
/// `new_invocation` release message, so a worker loads no predictor row
/// after it is released. Then every Spice cell of both tables fell, and no
/// sequential cell moved: the main thread stopped waiting for a per-worker
/// `ack` message and stopped storing a status word no core loads. Then the
/// predictor arrays moved into two 64-word-aligned slabs (conflict detection
/// no longer exempts them). That changes only where they fall in the
/// caches: no sequential cell moved, and Spice cells moved by at most
/// 2.25 % here (otter at 2 threads, 14998 → 15335) and 1.15 % on the test
/// machine (458.sjeng at 4 threads, 24170 → 24448). Then the
/// dependence-violation throttle: the conflict loops (mcf_true,
/// list_splice, mcf_app) run invocations after repeated violations without
/// workers and fell by 6–17 % here and 2–14 % on the test machine; 181.mcf,
/// the one paper loop generated with conflict detection, moved by at most
/// 0.08 % (its merge chain stores the throttle's streak word and its
/// centralized step loads the skip word); ks, otter and 458.sjeng did not
/// move. Then the resume after a dependence violation moved onto the
/// throttle's lean loop copy, and the main loop lost its resume test (one
/// branch block per iteration): every Spice cell of both tables fell, no
/// sequential cell moved — the paper loops by 0.4–1.8 % here and 0.5–2.8 %
/// on the test machine, the conflict loops by 1.1–11.3 % and 1.2–10.2 %.
/// Then every loop copy's back edges took one latch test in the latch's own
/// issue group, with the memoization threshold in a register (no
/// `spice.bump` block and no per-iteration load), and the generated code
/// stopped multiplying by one: every Spice cell of both tables fell, no
/// sequential cell moved — the paper loops by 3.6–25.5 % here and
/// 3.4–22.7 % on the test machine, the conflict loops by 1.1–9.6 % and
/// 1.6–11.6 %.
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("ks", 2, 22363, 20372),
    ("ks", 4, 22363, 20551),
    ("otter", 2, 12067, 11228),
    ("otter", 4, 12067, 11800),
    ("181.mcf", 2, 36342, 35241),
    ("181.mcf", 4, 36342, 32044),
    ("458.sjeng", 2, 19648, 16772),
    ("458.sjeng", 4, 19648, 20069),
    ("mcf_true", 2, 31820, 41143),
    ("mcf_true", 4, 31820, 42457),
    ("list_splice", 2, 18811, 21641),
    ("list_splice", 4, 18811, 23045),
    ("mcf_app", 2, 105869, 115214),
    ("mcf_app", 4, 105869, 116419),
];

/// The same suite as `farm --small --figures fig7` runs it: reduced-size
/// inputs on the reduced test machine (`MachineConfig::test_tiny`).
const GOLDEN_SMALL_FARM: &[(&str, usize, u64, u64)] = &[
    ("ks", 2, 29864, 26458),
    ("ks", 4, 29864, 23598),
    ("otter", 2, 20878, 16073),
    ("otter", 4, 20878, 12638),
    ("181.mcf", 2, 55300, 36786),
    ("181.mcf", 4, 55300, 26710),
    ("458.sjeng", 2, 23626, 22464),
    ("458.sjeng", 4, 23626, 23380),
    ("mcf_true", 2, 42542, 47075),
    ("mcf_true", 4, 42542, 48874),
    ("list_splice", 2, 23547, 28840),
    ("list_splice", 4, 23547, 30458),
    ("mcf_app", 2, 129067, 133880),
    ("mcf_app", 4, 129067, 136776),
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
