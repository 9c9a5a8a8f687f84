//! Implementations of every table and figure of the paper's evaluation.
//!
//! This module holds what a figure *is*: the workload set, the per-cell job
//! bodies, the row types and — through [`FigureRows`] — how each row type
//! becomes its JSON artifact and its text table. What it does not hold is a
//! second way to run a figure: the jobs are enumerated in exactly one place,
//! [`crate::farm_driver::run_manifest`], and `farm --figures <name>` is the
//! one CLI over it. Reduced-size variants (`small = true`) run the same code
//! on smaller inputs — and on the reduced test machine — so the whole suite
//! stays test-friendly.

use spice_core::backend::{make_backend_with, BackendChoice, SimBackend};
use spice_core::baseline::{render_schedule, LoopTimingModel, ScheduleKind};
use spice_core::predictor::PredictorOptions;
use spice_core::prepared::PreparedProgram;
use spice_core::valuepred::{evaluate_predictor, SpiceMemoPredictor, StridePredictor};
use spice_ir::exec::{ExecutionBackend, InterpBackend};
use spice_ir::interp::{FlatMemory, LocalSys};
use spice_ir::trace::DEFAULT_TRACE_CAPACITY;
use spice_ir::{FuncId, TraceEvent};
use spice_profiler::{
    analyze_trace, measure_cycle_hotness, measure_hotness, record_workload_trace, run_instrumented,
    AnalyzerConfig, PredictabilityBin,
};
use spice_sim::{Machine, MachineConfig, SequentialSimBackend};
use spice_workloads::trace::{FuzzConfig, TraceReplayWorkload, WorkloadTrace};
use spice_workloads::{
    drive_loaded_workload, run_workload_on, workload_load_options, BackendRunSummary, KsConfig,
    KsWorkload, McfConfig, McfWorkload, OtterConfig, OtterWorkload, SjengConfig, SjengWorkload,
    SpiceWorkload, Suite, SuiteBenchmark, DEFAULT_WORKLOAD_HEAP_WORDS,
};

use crate::farm_driver::Figure;

/// Factory for a fresh instance of one of the paper's four benchmark loops.
/// `Send + Sync` so a sweep engine can construct workloads from any host
/// thread.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn SpiceWorkload> + Send + Sync>;

/// Returns `(name, factory)` pairs for the Table 2 / Figure 7 benchmarks.
///
/// The full-size configurations are chosen so the traversed data structures
/// do not fit in the private caches of the Table 1 machine — the regime the
/// paper's loops run in, where the pointer-chasing load dominates each
/// iteration — while the `small` configurations keep unit tests fast.
fn paper_workload_factories(small: bool) -> Vec<(&'static str, WorkloadFactory)> {
    // Working-set sizes (full): ks 6000×3 words ≈ 144 KB, otter 8000×2 ≈
    // 128 KB, mcf 6000×6 ≈ 288 KB — all at or past the 256 KB L2.
    let (ks_modules, otter_len, mcf_nodes, sjeng_pieces) = if small {
        (150usize, 130usize, 160usize, 24usize)
    } else {
        (6_000, 8_000, 6_000, 64)
    };
    let invocations = if small { 10 } else { 14 };
    let sjeng_invocations = if small { 20 } else { 60 };
    vec![
        (
            "ks",
            Box::new(move || {
                Box::new(KsWorkload::new(KsConfig {
                    modules: ks_modules,
                    invocations,
                    d_updates_per_invocation: 8,
                    seed: 0x6b73,
                })) as Box<dyn SpiceWorkload>
            }) as WorkloadFactory,
        ),
        (
            "otter",
            Box::new(move || {
                Box::new(OtterWorkload::new(OtterConfig {
                    initial_len: otter_len,
                    inserts_per_invocation: 3,
                    invocations,
                    seed: 0x07734,
                })) as Box<dyn SpiceWorkload>
            }) as WorkloadFactory,
        ),
        (
            "181.mcf",
            Box::new(move || {
                Box::new(McfWorkload::new(McfConfig {
                    nodes: mcf_nodes,
                    invocations,
                    cost_updates_per_invocation: 12,
                    reparents_per_invocation: 2,
                    seed: 0x6d6366,
                })) as Box<dyn SpiceWorkload>
            }) as WorkloadFactory,
        ),
        (
            "458.sjeng",
            Box::new(move || {
                Box::new(SjengWorkload::new(SjengConfig {
                    pieces: sjeng_pieces,
                    invocations: sjeng_invocations,
                    mutate_probability: if small { 0.30 } else { 0.12 },
                    seed: 0x736a,
                })) as Box<dyn SpiceWorkload>
            }) as WorkloadFactory,
        ),
    ]
}

/// `(name, factory)` pairs for one suite registry of `spice-workloads`: the
/// instances come straight from the registry so the bench harness and every
/// other consumer measure one canonical configuration.
fn registry_factories(
    registry: fn() -> Vec<Box<dyn SpiceWorkload>>,
) -> Vec<(&'static str, WorkloadFactory)> {
    registry()
        .into_iter()
        .enumerate()
        .map(|(i, wl)| {
            let factory: WorkloadFactory = Box::new(move || registry().swap_remove(i));
            (wl.name(), factory)
        })
        .collect()
}

/// The set every table, figure and cross-check covers: the paper's four
/// loops; the conflict-carrying pair the memory-dependence speculation
/// subsystem unlocks (the faithful `mcf_refresh_potential_true` kernel and
/// the adversarial `list_splice` loop); and the miniature applications,
/// whole programs whose serial pivot phases execute as measured IR around
/// the Spice target loop, so Table 2's hotness for them is
/// profiler-measured. The conflict pair and the applications run through
/// the same tables and cross-checks as the paper loops; their value is
/// correctness under squash-and-recover, not speedup — their fig7 rows
/// document recovery cost (the faithful refresh chain violates nearly every
/// chunk boundary, and the applications' serial phases add write traffic).
#[must_use]
pub fn all_workload_factories(small: bool) -> Vec<(&'static str, WorkloadFactory)> {
    let mut v = paper_workload_factories(small);
    let (conflict, app): (fn() -> _, fn() -> _) = if small {
        (
            spice_workloads::conflict_benchmarks_small,
            spice_workloads::app_benchmarks_small,
        )
    } else {
        (
            spice_workloads::conflict_benchmarks,
            spice_workloads::app_benchmarks,
        )
    };
    v.extend(registry_factories(conflict));
    v.extend(registry_factories(app));
    v
}

/// Total sequential cycles over all invocations of a workload on one core
/// of the Table 1 machine.
///
/// # Errors
///
/// Returns a description of any simulation failure or result mismatch.
pub fn run_workload_sequential(workload: &mut dyn SpiceWorkload) -> Result<u64, String> {
    let mut backend = SequentialSimBackend::new(MachineConfig::itanium2_cmp());
    run_workload_on(workload, &mut backend).map(|summary| total_cycles(&summary))
}

/// A run's total cost as simulated cycles (saturating: only wall-nanosecond
/// costs of other backends could ever exceed `u64`).
fn total_cycles(summary: &BackendRunSummary) -> u64 {
    u64::try_from(summary.total_cost).unwrap_or(u64::MAX)
}

/// Runs a workload on any execution backend, selected by value — the
/// harness-side entry into the shared execution layer.
///
/// # Errors
///
/// Returns a description of the first failure or result mismatch.
pub fn run_workload_backend(
    workload: &mut dyn SpiceWorkload,
    choice: BackendChoice,
    threads: usize,
    predictor: PredictorOptions,
) -> Result<BackendRunSummary, String> {
    let mut backend = make_backend_with(choice, threads, predictor);
    run_workload_on(workload, backend.as_mut())
}

/// One execution mode of the Figure 7 / harness-perf matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// Untransformed program on one core.
    Sequential,
    /// Spice-transformed program with this many worker threads.
    Spice {
        /// Thread count the transform is generated for.
        threads: usize,
    },
}

impl SweepMode {
    /// The three modes every benchmark runs in, in artifact row order.
    pub const ALL: [SweepMode; 3] = [
        SweepMode::Sequential,
        SweepMode::Spice { threads: 2 },
        SweepMode::Spice { threads: 4 },
    ];

    /// The mode label used in artifacts: `"sequential"`, `"spice2"`, ….
    #[must_use]
    pub fn label(self) -> String {
        match self {
            SweepMode::Sequential => "sequential".to_string(),
            SweepMode::Spice { threads } => format!("spice{threads}"),
        }
    }
}

/// A shareable preparation of one benchmark in one sweep mode: the
/// [`PreparedProgram`] (decoded IR, initial image, transform), the kernel
/// id, and the wall time the whole preparation took — workload
/// construction, IR build, loop analysis, Spice transform, decode and
/// image. The farm shares one `SweepPrep` across jobs through
/// `spice_farm::PreparedCache`; a direct caller builds it inline. Either
/// way [`run_prepared_sweep`] produces the same simulated numbers.
#[derive(Debug, Clone)]
pub struct SweepPrep {
    /// The shared immutable program state.
    pub prepared: PreparedProgram,
    /// Kernel function of the workload's built program.
    pub kernel: FuncId,
    /// Wall nanoseconds the preparation took, end to end.
    pub build_nanos: u128,
}

/// Builds the preparation for one `(benchmark, mode)` cell. `tiny` selects
/// the reduced test machine instead of the Table 1 machine; the farm passes
/// its manifest's `small` here for every cell — sweep and Table 2 probes
/// alike — so a `--small` run shrinks the inputs *and* simulates the tiny
/// machine, and only a full-size run simulates Table 1.
/// `granularity_log2` coarsens the conflict sets (0 = exact words) and is
/// only meaningful for Spice modes.
///
/// # Errors
///
/// Returns a description of any analysis or transformation failure.
pub fn prepare_sweep(
    factory: &WorkloadFactory,
    mode: SweepMode,
    tiny: bool,
    granularity_log2: u8,
) -> Result<SweepPrep, String> {
    let started = std::time::Instant::now();
    let mut wl = factory();
    let built = wl.build();
    let prepared = match mode {
        SweepMode::Sequential => {
            let config = if tiny {
                MachineConfig::test_tiny(1)
            } else {
                MachineConfig::itanium2_cmp().with_cores(1)
            };
            PreparedProgram::sequential(config, built.program, built.kernel)
        }
        SweepMode::Spice { threads } => {
            let config = if tiny {
                MachineConfig::test_tiny(threads)
            } else {
                MachineConfig::itanium2_cmp()
            };
            let options = workload_load_options(wl.as_ref(), &built)
                .with_conflict_granularity_log2(granularity_log2);
            PreparedProgram::spice(
                config,
                threads,
                PredictorOptions::default(),
                built.program,
                built.kernel,
                options,
            )
            .map_err(|e| e.to_string())?
        }
    };
    Ok(SweepPrep {
        prepared,
        kernel: built.kernel,
        build_nanos: started.elapsed().as_nanos(),
    })
}

/// The cache key under which a preparation is shared: two jobs whose keys
/// are equal build identical [`SweepPrep`]s, so the first builds and the
/// rest reuse. Notably the Table 2 word-granularity conflict probe of a
/// full-size run keys the same as the Figure 7 four-thread run — same
/// machine, same transform — so the probe rides on the sweep's decode.
#[must_use]
pub fn sweep_prep_key(
    benchmark: &str,
    mode: SweepMode,
    tiny: bool,
    granularity_log2: u8,
) -> String {
    format!(
        "{benchmark}|{}|{}|g{granularity_log2}",
        mode.label(),
        if tiny { "tiny" } else { "it2" }
    )
}

/// Result of one sweep job: the simulated outcome plus the simulate-only
/// host time. Preparation time lives in [`SweepPrep::build_nanos`] — the
/// split the harness-perf report uses so ns-per-simulated-cycle measures
/// dispatch, not one-time decode/transform work.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Total simulated cycles over all invocations.
    pub cycles: u64,
    /// Host wall nanoseconds spent simulating (init + invocations).
    pub sim_nanos: u128,
    /// The full backend summary — misspeculation, imbalance, violations,
    /// per-invocation return values. Always present (the sequential
    /// baseline reports one too).
    pub summary: Option<BackendRunSummary>,
}

/// The one sweep-job body, for either kind of preparation: a fresh workload
/// instance from `factory`, a fresh backend over `prep`'s decoded program
/// with `arm` applied to it (tracing, snapshots, watches), every invocation
/// driven with result checks. Returns the backend alongside the outcome so
/// callers read their observers off it — after a failed run too.
pub fn drive_prepared_sweep(
    factory: &WorkloadFactory,
    prep: &SweepPrep,
    arm: impl FnOnce(&mut SimBackend),
) -> (SimBackend, Result<SweepRun, String>) {
    let mut wl = factory();
    // Workloads stash driver-side state (arenas, layouts) during `build`;
    // the program it returns is discarded — `prep` already holds the shared
    // decoded copy, which an identical factory built deterministically.
    let _ = wl.build();
    let started = std::time::Instant::now();
    let mut backend = SimBackend::from_prepared(&prep.prepared);
    arm(&mut backend);
    let run = drive_loaded_workload(wl.as_mut(), &mut backend).map(|summary| SweepRun {
        cycles: total_cycles(&summary),
        sim_nanos: started.elapsed().as_nanos(),
        summary: Some(summary),
    });
    (backend, run)
}

/// Everything `backend`'s trace recorder holds (empty when tracing is off).
#[must_use]
pub fn recorded_events(backend: &dyn ExecutionBackend) -> Vec<TraceEvent> {
    backend
        .trace()
        .map(|t| t.events().cloned().collect())
        .unwrap_or_default()
}

/// Runs one sweep job over a shared preparation
/// ([`drive_prepared_sweep`] with no observers).
///
/// # Errors
///
/// Returns the first simulation failure or result mismatch.
pub fn run_prepared_sweep(factory: &WorkloadFactory, prep: &SweepPrep) -> Result<SweepRun, String> {
    drive_prepared_sweep(factory, prep, |_| {}).1
}

/// Forensics captured from a failed or diverged farm job: what the
/// deterministic traced re-run observed, rendered to a retryable artifact
/// by [`failure_capture_json`]. The `error` plus the preparation inputs
/// (label encodes benchmark, mode, size) are enough to re-run the exact
/// cell; the trace and machine state say where it went wrong.
#[derive(Debug, Clone)]
pub struct FailureCapture {
    /// The failing job's label.
    pub label: String,
    /// The error (or divergence description) that triggered the capture.
    pub error: String,
    /// Trace ring-buffer of the re-run's primary (simulator) backend.
    pub events: Vec<TraceEvent>,
    /// Native-backend trace, for cross-check divergences (empty otherwise).
    pub native_events: Vec<TraceEvent>,
    /// Final machine state dump of the simulator re-run, when one survived.
    pub state_dump: Option<String>,
    /// Cycles at which periodic snapshots were taken during the re-run (the
    /// last one is the resume point a retry would start from).
    pub snapshot_cycles: Vec<u64>,
}

/// Interval for the failure-capture re-run's periodic snapshots: coarse
/// enough to stay cheap, fine enough that the last snapshot is near the
/// failure point.
const CAPTURE_SNAPSHOT_INTERVAL: u64 = 10_000;

/// Deterministically re-runs a failed sweep cell with tracing and periodic
/// snapshots enabled and returns the forensics. The re-run's own outcome is
/// ignored — for a deterministic simulator failure it fails at the same
/// point, which is exactly what the trace should show.
#[must_use]
pub fn capture_sweep_failure(
    factory: &WorkloadFactory,
    prep: &SweepPrep,
    label: &str,
    error: &str,
) -> FailureCapture {
    // The re-run's own outcome is dropped: only its observers matter.
    let (backend, _) = drive_prepared_sweep(factory, prep, |b| {
        b.enable_trace(DEFAULT_TRACE_CAPACITY);
        if let Some(machine) = b.machine_mut() {
            machine.enable_snapshots(CAPTURE_SNAPSHOT_INTERVAL);
        }
    });
    let machine = backend.machine();
    FailureCapture {
        label: label.to_string(),
        error: error.to_string(),
        events: recorded_events(&backend),
        native_events: Vec::new(),
        state_dump: machine.map(Machine::state_dump),
        snapshot_cycles: machine.map_or_else(Vec::new, |m| {
            m.snapshots_taken()
                .iter()
                .map(spice_sim::MachineSnapshot::cycle)
                .collect()
        }),
    }
}

/// Re-runs a diverged cross-check workload on both backends with tracing
/// enabled and captures both traces, so the artifact shows the two chunk
/// lifecycles side by side.
#[must_use]
pub fn capture_crosscheck_divergence(
    factory: &WorkloadFactory,
    threads: usize,
    label: &str,
    error: &str,
) -> FailureCapture {
    // The re-runs' own outcomes are dropped: only their traces matter.
    let traced_run = |backend: &mut dyn ExecutionBackend| {
        backend.enable_trace(DEFAULT_TRACE_CAPACITY);
        let _ = run_workload_on(factory().as_mut(), backend);
        recorded_events(backend)
    };
    let mut sim = SimBackend::tiny(threads);
    let events = traced_run(&mut sim);
    let mut native = make_backend_with(BackendChoice::Native, threads, PredictorOptions::default());
    FailureCapture {
        label: label.to_string(),
        error: error.to_string(),
        events,
        native_events: traced_run(native.as_mut()),
        state_dump: sim.machine().map(Machine::state_dump),
        snapshot_cycles: Vec::new(),
    }
}

/// Renders a [`FailureCapture`] as a validated JSON artifact.
#[must_use]
pub fn failure_capture_json(c: &FailureCapture) -> String {
    let snapshot_cycles: Vec<String> = c.snapshot_cycles.iter().map(u64::to_string).collect();
    format!(
        "{{\n  \"artifact\": \"failure\",\n  \"label\": {},\n  \"error\": {},\n  \
         \"snapshot_cycles\": [{}],\n  \"state\": {},\n  \"events\": {},\n  \
         \"native_events\": {}\n}}\n",
        crate::json::string(&c.label),
        crate::json::string(&c.error),
        snapshot_cycles.join(", "),
        c.state_dump
            .as_deref()
            .map_or_else(|| "null".to_string(), crate::json::string),
        crate::trace_json::trace_events_json(c.events.iter(), 2),
        crate::trace_json::trace_events_json(c.native_events.iter(), 2),
    )
}

/// Assembles a [`Fig7Row`] from a benchmark's sequential cycles and one of
/// its Spice sweep runs.
#[must_use]
pub fn fig7_row_from_sweep(
    benchmark: &str,
    threads: usize,
    sequential_cycles: u64,
    run: &SweepRun,
) -> Fig7Row {
    let summary = run.summary.as_ref();
    Fig7Row {
        benchmark: benchmark.to_string(),
        threads,
        sequential_cycles,
        spice_cycles: run.cycles,
        speedup: sequential_cycles as f64 / run.cycles as f64,
        misspeculation_rate: summary.map_or(0.0, BackendRunSummary::misspeculation_rate),
        load_imbalance: summary.map_or(0.0, BackendRunSummary::load_imbalance),
        dependence_violations: summary.map_or(0, |s| s.dependence_violations),
    }
}

/// Assembles a [`HarnessPerfRow`] from one sweep cell.
#[must_use]
pub fn harness_row_from_sweep(
    benchmark: &str,
    mode: SweepMode,
    build_nanos: u128,
    run: &SweepRun,
) -> HarnessPerfRow {
    HarnessPerfRow {
        benchmark: benchmark.to_string(),
        mode: mode.label(),
        simulated_cycles: run.cycles,
        build_nanos,
        host_nanos: run.sim_nanos,
    }
}

/// How one figure's rows become its artifact and its text table — the one
/// description of a figure's output. The farm's streaming sink, the
/// composed documents ([`rows_json`]) and the `farm` binary's printout are
/// generic over it, so the header, row, footer and table that belong to a
/// figure are named here and nowhere else (the artifact's file name lives
/// on [`Figure`]). Names are escaped and floats finite-checked through
/// [`crate::json`], so a degenerate run yields `null` metrics instead of an
/// unparseable artifact.
pub trait FigureRows: Sized {
    /// The figure these rows belong to.
    const FIGURE: Figure;

    /// Opening of the artifact, up to and including the `"rows": [` line —
    /// what a streaming writer emits before any job has retired.
    fn header(small: bool) -> String;

    /// One row of the artifact (no separator, no trailing newline): the
    /// unit a streaming writer appends as the corresponding job retires.
    fn row(&self) -> String;

    /// Closing of the artifact: ends the rows array and appends the
    /// aggregates that are only known once every row is in.
    fn footer(rows: &[Self]) -> String;

    /// The text table the `farm` binary prints.
    fn table(rows: &[Self]) -> String;
}

/// Composes rows into their figure's full artifact document —
/// byte-identical to what the farm streams row by row.
#[must_use]
pub fn rows_json<R: FigureRows>(rows: &[R], small: bool) -> String {
    crate::json::rows_document(&R::header(small), rows.iter().map(R::row), &R::footer(rows))
}

/// `BENCH_fig7.json` for `rows`: [`rows_json`] under the artifact's name.
/// These five named composers are the entry points consumers outside the
/// workspace (`benchmark/`) and the composer-vs-stream determinism test
/// call; the farm itself goes through the generic.
#[must_use]
pub fn fig7_json(rows: &[Fig7Row], small: bool) -> String {
    rows_json(rows, small)
}

/// `BENCH_harness.json` for `rows`.
#[must_use]
pub fn harnessperf_json(rows: &[HarnessPerfRow], small: bool) -> String {
    rows_json(rows, small)
}

/// `BENCH_table2.json` for `rows`.
#[must_use]
pub fn table2_json(rows: &[Table2Row], small: bool) -> String {
    rows_json(rows, small)
}

/// `BENCH_fig8.json` for `bars`.
#[must_use]
pub fn fig8_json(bars: &[Fig8Bar], small: bool) -> String {
    rows_json(bars, small)
}

/// `BENCH_crosscheck.json` for `rows` (no `small` field: the cross-check
/// always runs the small configurations).
#[must_use]
pub fn crosscheck_json(rows: &[CrosscheckRow]) -> String {
    rows_json(rows, true)
}

/// Thread count of the cross-check jobs, on both backends.
pub const CROSSCHECK_THREADS: usize = 4;

/// One row of the backend cross-check: the same workload driven over the
/// timing simulator and the native-thread runtime through the same call
/// site, with the per-invocation results compared.
#[derive(Debug, Clone)]
pub struct CrosscheckRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Thread count used on both backends.
    pub threads: usize,
    /// Simulator-side run.
    pub sim: BackendRunSummary,
    /// Native-thread run.
    pub native: BackendRunSummary,
    /// Whether every invocation returned the same value on both backends.
    pub agree: bool,
}

/// Cross-checks one workload between the tiny-machine simulator and the
/// native-thread backend — the per-benchmark unit the farm schedules as a
/// first-class job ([`crate::farm_driver::Figure::Crosscheck`]).
///
/// # Errors
///
/// Returns the first execution failure on either backend. A *divergence*
/// (both backends ran, results differ) is not an error here; it is reported
/// through [`CrosscheckRow::agree`] so the caller can capture forensics
/// before failing.
pub fn crosscheck_workload(
    name: &str,
    factory: &WorkloadFactory,
    threads: usize,
) -> Result<CrosscheckRow, String> {
    let run = |choice| {
        run_workload_backend(
            factory().as_mut(),
            choice,
            threads,
            PredictorOptions::default(),
        )
    };
    let sim = run(BackendChoice::SimTiny)?;
    let native = run(BackendChoice::Native)?;
    let agree = sim.return_values == native.return_values;
    Ok(CrosscheckRow {
        benchmark: name.to_string(),
        threads,
        sim,
        native,
        agree,
    })
}

impl FigureRows for CrosscheckRow {
    const FIGURE: Figure = Figure::Crosscheck;

    /// Cross-check always runs the small configurations, so `small` does
    /// not appear in its artifact.
    fn header(_small: bool) -> String {
        format!(
            "{{\n  \"figure\": \"crosscheck\",\n  \"threads\": {CROSSCHECK_THREADS},\n  \"rows\": [\n"
        )
    }

    fn row(&self) -> String {
        format!(
            "    {{\"benchmark\": {}, \"threads\": {}, \"agree\": {}, \
             \"invocations_sim\": {}, \"invocations_native\": {}, \
             \"sim_committed\": {}, \"native_committed\": {}, \
             \"sim_squashed\": {}, \"native_squashed\": {}, \
             \"sim_violations\": {}, \"native_violations\": {}}}",
            crate::json::string(&self.benchmark),
            self.threads,
            self.agree,
            self.sim.invocations,
            self.native.invocations,
            self.sim.committed_chunks,
            self.native.committed_chunks,
            self.sim.squashed_chunks,
            self.native.squashed_chunks,
            self.sim.dependence_violations,
            self.native.dependence_violations
        )
    }

    fn footer(rows: &[Self]) -> String {
        format!(
            "\n  ],\n  \"all_agree\": {}\n}}\n",
            rows.iter().all(|r| r.agree)
        )
    }

    fn table(rows: &[Self]) -> String {
        let mut s =
            format!("sim ↔ native cross-check ({CROSSCHECK_THREADS} threads, small configs)\n");
        s.push_str("benchmark    invocations  sim raw-squash  native raw-squash  agree\n");
        for r in rows {
            s.push_str(&format!(
                "{:<12} {:>11}  {:>14}  {:>17}  {}\n",
                r.benchmark,
                r.sim.invocations,
                r.sim.dependence_violations,
                r.native.dependence_violations,
                if r.agree { "yes" } else { "NO" }
            ));
        }
        s
    }
}

/// One row of the Figure 7 reproduction.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Thread count.
    pub threads: usize,
    /// Total sequential cycles.
    pub sequential_cycles: u64,
    /// Total Spice cycles.
    pub spice_cycles: u64,
    /// Loop speedup (sequential / Spice).
    pub speedup: f64,
    /// Mis-speculation rate over invocations.
    pub misspeculation_rate: f64,
    /// Load-imbalance metric (coefficient of variation of per-core work).
    pub load_imbalance: f64,
    /// Dependence-violation squashes taken and recovered (nonzero only for
    /// the conflict-carrying workloads).
    pub dependence_violations: usize,
}

/// The four benchmarks of the paper's Figure 7 (the conflict-carrying extras
/// are excluded from the figure's headline geomean, which reproduces the
/// paper's number).
pub const FIG7_PAPER_BENCHMARKS: [&str; 4] = ["ks", "otter", "181.mcf", "458.sjeng"];

/// Geometric mean of the speedups of the *paper* Figure 7 rows with the
/// given thread count.
#[must_use]
pub fn fig7_geomean(rows: &[Fig7Row], threads: usize) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| r.threads == threads && FIG7_PAPER_BENCHMARKS.contains(&r.benchmark.as_str()))
        .map(|r| r.speedup)
        .collect();
    spice_sim::geomean(&v)
}

impl FigureRows for Fig7Row {
    const FIGURE: Figure = Figure::Fig7;

    fn header(small: bool) -> String {
        format!("{{\n  \"figure\": \"fig7\",\n  \"small\": {small},\n  \"rows\": [\n")
    }

    fn row(&self) -> String {
        format!(
            "    {{\"benchmark\": {}, \"threads\": {}, \"sequential_cycles\": {}, \
             \"spice_cycles\": {}, \"speedup\": {}, \"misspeculation_rate\": {}, \
             \"load_imbalance\": {}, \"dependence_violations\": {}}}",
            crate::json::string(&self.benchmark),
            self.threads,
            self.sequential_cycles,
            self.spice_cycles,
            crate::json::float(self.speedup),
            crate::json::float(self.misspeculation_rate),
            crate::json::float(self.load_imbalance),
            self.dependence_violations
        )
    }

    fn footer(rows: &[Self]) -> String {
        format!(
            "\n  ],\n  \"geomean_speedup_2t\": {},\n  \"geomean_speedup_4t\": {}\n}}\n",
            crate::json::float(fig7_geomean(rows, 2)),
            crate::json::float(fig7_geomean(rows, 4))
        )
    }

    fn table(rows: &[Self]) -> String {
        let mut s = String::new();
        s.push_str("Figure 7 — loop speedup over single-threaded execution\n");
        s.push_str(
            "benchmark    threads  seq cycles     spice cycles   speedup  misspec  imbalance  raw-squash\n",
        );
        for r in rows {
            s.push_str(&format!(
                "{:<12} {:>7}  {:>12}  {:>13}  {:>6.2}x  {:>6.1}%  {:>8.3}  {:>9}\n",
                r.benchmark,
                r.threads,
                r.sequential_cycles,
                r.spice_cycles,
                r.speedup,
                r.misspeculation_rate * 100.0,
                r.load_imbalance,
                r.dependence_violations
            ));
        }
        s.push_str(&format!(
            "GeoMean over the paper loops (2 threads): {:.2}x   (4 threads): {:.2}x\n",
            fig7_geomean(rows, 2),
            fig7_geomean(rows, 4)
        ));
        s
    }
}

/// Reproduces Table 1: the machine model.
#[must_use]
pub fn table1() -> Vec<(String, String)> {
    MachineConfig::itanium2_cmp().table1_rows()
}

/// One timed harness run: a workload in one execution mode, with the host
/// time it took — split into one-time preparation and per-cycle simulation
/// — and the simulated cycles it covered. The harness figure is the
/// Figure 7 sweep read for host seconds instead of simulated cycles (the
/// farm derives both from one job set), so harness-speed regressions become
/// visible trajectory data in `BENCH_harness.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessPerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `"sequential"`, or `"spiceN"` for an N-thread Spice run.
    pub mode: String,
    /// Total simulated cycles of the run.
    pub simulated_cycles: u64,
    /// Host wall nanoseconds of the one-time preparation: workload
    /// construction, IR build, analysis, transform, decode, initial image.
    /// A sweep pays this once per `(benchmark, mode)` and shares the result
    /// across jobs, so it is reported separately and excluded from
    /// [`ns_per_cycle`](HarnessPerfRow::ns_per_cycle).
    pub build_nanos: u128,
    /// Host wall nanoseconds spent simulating (init plus all invocations).
    pub host_nanos: u128,
}

impl HarnessPerfRow {
    /// Host nanoseconds per simulated cycle — the harness-speed metric the
    /// perf-smoke trajectory tracks. Measures simulation dispatch only;
    /// one-time preparation cost is in
    /// [`build_nanos`](HarnessPerfRow::build_nanos).
    #[must_use]
    pub fn ns_per_cycle(&self) -> f64 {
        if self.simulated_cycles == 0 {
            f64::NAN
        } else {
            self.host_nanos as f64 / self.simulated_cycles as f64
        }
    }
}

/// Total simulate-time host seconds of a harness-perf run.
#[must_use]
pub fn harness_total_seconds(rows: &[HarnessPerfRow]) -> f64 {
    rows.iter().map(|r| r.host_nanos as f64 / 1e9).sum()
}

/// Total one-time preparation seconds (IR build + analysis + transform +
/// decode) of a harness-perf run — the cost a sweep amortizes across jobs.
#[must_use]
pub fn harness_build_seconds(rows: &[HarnessPerfRow]) -> f64 {
    rows.iter().map(|r| r.build_nanos as f64 / 1e9).sum()
}

/// Overall host-ns-per-simulated-cycle of a harness-perf run.
#[must_use]
pub fn harness_ns_per_cycle(rows: &[HarnessPerfRow]) -> f64 {
    let cycles: u64 = rows.iter().map(|r| r.simulated_cycles).sum();
    let nanos: u128 = rows.iter().map(|r| r.host_nanos).sum();
    if cycles == 0 {
        f64::NAN
    } else {
        nanos as f64 / cycles as f64
    }
}

/// Reads the rows back out of a `BENCH_harness.json` document (the reading
/// half of [`HarnessPerfRow`]'s [`FigureRows::row`]).
///
/// # Errors
///
/// Returns a description of the first syntax error or missing field.
pub fn parse_harness_rows(doc: &str) -> Result<Vec<HarnessPerfRow>, String> {
    let doc = crate::json::parse(doc)?;
    let rows = doc.get("rows").and_then(|r| r.as_array());
    rows.ok_or("no \"rows\" array")?
        .iter()
        .map(|row| {
            let text = |key: &str| row.get(key).and_then(|v| v.as_str()).map(str::to_string);
            let count = |key: &str| {
                let n = row.get(key).and_then(crate::json::Value::as_i64);
                n.and_then(|n| u64::try_from(n).ok())
            };
            Some(HarnessPerfRow {
                benchmark: text("benchmark")?,
                mode: text("mode")?,
                simulated_cycles: count("simulated_cycles")?,
                build_nanos: count("build_nanos")?.into(),
                host_nanos: count("host_nanos")?.into(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed harness row".to_string())
}

/// Per benchmark, what a simulated cycle costs the host at 4 threads
/// relative to the same run's sequential row: `(benchmark, spice4 ÷
/// sequential ns-per-cycle)`. Both rows come from one run on one host, so
/// host speed cancels to first order — the figure `farm --check` gates on.
#[must_use]
pub fn spice4_cost_ratios(rows: &[HarnessPerfRow]) -> Vec<(String, f64)> {
    let cost = |benchmark: &str, mode: &str| {
        let row = rows
            .iter()
            .find(|r| r.benchmark == benchmark && r.mode == mode)?;
        Some(row.ns_per_cycle())
    };
    rows.iter()
        .filter(|r| r.mode == "sequential")
        .filter_map(|r| {
            let ratio = cost(&r.benchmark, "spice4")? / r.ns_per_cycle();
            Some((r.benchmark.clone(), ratio))
        })
        .collect()
}

/// The pre-PR harness speed, measured with the harness figure compiled
/// against the tree as of commit `b8fd225` (the last commit before
/// the event-driven core and pre-decoded dispatch landed), on the same host,
/// full-size suite. Kept here so the committed `BENCH_harness.json` shows
/// the before/after pair that motivated the rework; update it only when the
/// baseline is deliberately re-measured.
pub const PRE_PR_TOTAL_HOST_SECONDS: f64 = 1.727;
/// See [`PRE_PR_TOTAL_HOST_SECONDS`].
pub const PRE_PR_NS_PER_CYCLE: f64 = 85.3;

impl FigureRows for HarnessPerfRow {
    const FIGURE: Figure = Figure::Harness;

    /// Carries the run-independent constants (the pre-PR baseline).
    fn header(small: bool) -> String {
        format!(
            "{{\n  \"figure\": \"harness\",\n  \"small\": {small},\n  \
             \"pre_pr_total_host_seconds\": {},\n  \
             \"pre_pr_ns_per_simulated_cycle\": {},\n  \"rows\": [\n",
            crate::json::float(PRE_PR_TOTAL_HOST_SECONDS),
            crate::json::float(PRE_PR_NS_PER_CYCLE)
        )
    }

    fn row(&self) -> String {
        format!(
            "    {{\"benchmark\": {}, \"mode\": {}, \"simulated_cycles\": {}, \
             \"build_nanos\": {}, \"host_nanos\": {}, \"ns_per_cycle\": {}}}",
            crate::json::string(&self.benchmark),
            crate::json::string(&self.mode),
            self.simulated_cycles,
            self.build_nanos,
            self.host_nanos,
            crate::json::float(self.ns_per_cycle())
        )
    }

    /// `ns_per_simulated_cycle` measures simulation dispatch only; the
    /// one-time preparation cost is the separate `total_build_seconds`.
    fn footer(rows: &[Self]) -> String {
        format!(
            "\n  ],\n  \"speedup_vs_pre_pr\": {},\n  \"total_host_seconds\": {},\n  \
             \"total_build_seconds\": {},\n  \"total_simulated_cycles\": {},\n  \
             \"ns_per_simulated_cycle\": {}\n}}\n",
            crate::json::float(PRE_PR_NS_PER_CYCLE / harness_ns_per_cycle(rows)),
            crate::json::float(harness_total_seconds(rows)),
            crate::json::float(harness_build_seconds(rows)),
            rows.iter().map(|r| r.simulated_cycles).sum::<u64>(),
            crate::json::float(harness_ns_per_cycle(rows))
        )
    }

    fn table(rows: &[Self]) -> String {
        let mut s = String::new();
        s.push_str("Harness performance — host cost per simulated cycle\n");
        s.push_str("benchmark    mode        sim cycles   build ms    sim ms   ns/cycle\n");
        for r in rows {
            s.push_str(&format!(
                "{:<12} {:<10} {:>12}  {:>9.2} {:>9.2}  {:>9.1}\n",
                r.benchmark,
                r.mode,
                r.simulated_cycles,
                r.build_nanos as f64 / 1e6,
                r.host_nanos as f64 / 1e6,
                r.ns_per_cycle()
            ));
        }
        s.push_str(&format!(
            "TOTAL: {:.3} host seconds simulating (+{:.3} s one-time preparation), \
             {:.1} ns per simulated cycle\n",
            harness_total_seconds(rows),
            harness_build_seconds(rows),
            harness_ns_per_cycle(rows)
        ));
        s.push_str(&format!(
            "vs pre-PR baseline ({PRE_PR_NS_PER_CYCLE:.1} ns/cycle, \
             {PRE_PR_TOTAL_HOST_SECONDS:.3} s full-size): {:.2}x\n",
            PRE_PR_NS_PER_CYCLE / harness_ns_per_cycle(rows)
        ));
        s
    }
}

/// One row of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Benchmark description.
    pub description: String,
    /// Parallelized loop.
    pub loop_name: String,
    /// Hotness reported by the paper — a *comparison* column: the measured
    /// value next to it is what the reproduction actually exhibits.
    pub paper_hotness: f64,
    /// Whole-program hotness measured by profiler cycle attribution: the
    /// target loop's share of all simulated cycles of the full run (serial
    /// phases and helper functions included). For kernels under synthetic
    /// drivers this is close to 1 — itself a faithful statement that those
    /// drivers are not yet applications; for `mcf_app` the program around
    /// the loop is real and the number is the application's.
    pub measured_hotness: f64,
    /// Dynamic instructions per invocation of the loop, measured here.
    pub measured_loop_instructions: u64,
    /// Loop hotness within the kernel function (loop instructions over all
    /// instructions of the kernel run).
    pub measured_kernel_fraction: f64,
    /// Dependence-violation squashes of a 4-thread Spice run at exact word
    /// granularity — the conflict-precision baseline. `None` when the
    /// workload asserts [`ConflictPolicy::AssumeIndependent`] (no tracking
    /// to coarsen).
    ///
    /// [`ConflictPolicy::AssumeIndependent`]: spice_ir::exec::ConflictPolicy
    pub word_violations: Option<usize>,
    /// The same run with conflict sets coarsened to 64-byte lines
    /// ([`LINE_GRANULARITY_LOG2`]) — extra squashes over the word-granular
    /// count are false conflicts from distinct words sharing a line.
    pub line_violations: Option<usize>,
}

impl Table2Row {
    /// Fraction of line-granular dependence violations that are false
    /// conflicts: `(line - word) / line`. `None` without tracking, 0 when
    /// the line-granular run saw no violations at all.
    #[must_use]
    pub fn false_conflict_rate(&self) -> Option<f64> {
        let (word, line) = (self.word_violations?, self.line_violations?);
        Some(line.saturating_sub(word) as f64 / line.max(1) as f64)
    }
}

/// Conflict-set coarsening modelling 64-byte-line hardware detection:
/// 8 words (2^3) per grain.
pub const LINE_GRANULARITY_LOG2: u8 = 3;

/// The profiling portion of one Table 2 row: loop-instruction counts plus
/// whole-program cycle attribution, with the conflict-probe columns left
/// `None`. The farm runs this as one job per benchmark and fills the probe
/// columns from separate probe jobs (4-thread Spice runs at word and at
/// [`LINE_GRANULARITY_LOG2`] conflict granularity; at full size the
/// word-granular probe's preparation is the Figure 7 four-thread run's, so
/// the two share one decode). `paper_hotness` quotes the paper for
/// comparison; `measured_hotness` comes from
/// [`spice_profiler::measure_cycle_hotness`] on a one-core machine — the
/// reduced test machine for `small`, the Table 1 machine otherwise.
///
/// # Errors
///
/// Returns the first profiling failure.
pub fn table2_hotness_row(factory: &WorkloadFactory, small: bool) -> Result<Table2Row, String> {
    let mut wl = factory();
    let built = wl.build();
    let mut mem = FlatMemory::for_program(&built.program, DEFAULT_WORKLOAD_HEAP_WORDS);
    let args = wl.init(&mut mem);
    let mut sys = LocalSys::new();
    let report = measure_hotness(
        &built.program,
        built.kernel,
        built.loop_header_hint,
        &args,
        &mut mem,
        &mut sys,
    )
    .map_err(|e| e.to_string())?;
    let config = if small {
        MachineConfig::test_tiny(1)
    } else {
        MachineConfig::itanium2_cmp()
    };
    let mut cycle_wl = factory();
    let cycles = measure_cycle_hotness(cycle_wl.as_mut(), config)?;
    Ok(Table2Row {
        benchmark: wl.name().to_string(),
        description: wl.description().to_string(),
        loop_name: wl.loop_name().to_string(),
        paper_hotness: wl.paper_hotness(),
        measured_hotness: cycles.fraction(),
        measured_loop_instructions: report.loop_instructions,
        measured_kernel_fraction: report.fraction(),
        word_violations: None,
        line_violations: None,
    })
}

impl FigureRows for Table2Row {
    const FIGURE: Figure = Figure::Table2;

    /// Every value in this artifact is a deterministic count or fraction
    /// (no host timings), so a farm run at any `--jobs` produces the
    /// identical bytes.
    fn header(small: bool) -> String {
        format!(
            "{{\n  \"figure\": \"table2\",\n  \"small\": {small},\n  \
             \"line_granularity_log2\": {LINE_GRANULARITY_LOG2},\n  \"rows\": [\n"
        )
    }

    fn row(&self) -> String {
        format!(
            "    {{\"benchmark\": {}, \"loop\": {}, \"paper_hotness\": {}, \
             \"measured_hotness\": {}, \"loop_instructions\": {}, \
             \"kernel_fraction\": {}, \"word_violations\": {}, \
             \"line_violations\": {}, \"false_conflict_rate\": {}}}",
            crate::json::string(&self.benchmark),
            crate::json::string(&self.loop_name),
            crate::json::float(self.paper_hotness),
            crate::json::float(self.measured_hotness),
            self.measured_loop_instructions,
            crate::json::float(self.measured_kernel_fraction),
            crate::json::optional(self.word_violations),
            crate::json::optional(self.line_violations),
            self.false_conflict_rate()
                .map_or_else(|| "null".to_string(), crate::json::float)
        )
    }

    fn footer(_rows: &[Self]) -> String {
        "\n  ]\n}\n".to_string()
    }

    fn table(rows: &[Self]) -> String {
        let mut s = String::from("Table 2 — benchmark details\n");
        s.push_str(&format!(
            "{:<12} {:<38} {:<30} {:>8} {:>9} {:>14} {:>10} {:>11} {:>11} {:>10}\n",
            "benchmark",
            "description",
            "loop",
            "paper",
            "measured",
            "loop insts/inv",
            "kernel frac",
            "word viol.",
            "line viol.",
            "false conf"
        ));
        for r in rows {
            let opt = |v: Option<usize>| v.map_or("-".to_string(), |n| n.to_string());
            let rate = r
                .false_conflict_rate()
                .map_or("-".to_string(), |f| format!("{:.1}%", f * 100.0));
            s.push_str(&format!(
                "{:<12} {:<38} {:<30} {:>7.0}% {:>8.1}% {:>14} {:>9.1}% {:>11} {:>11} {:>10}\n",
                r.benchmark,
                r.description,
                r.loop_name,
                r.paper_hotness * 100.0,
                r.measured_hotness * 100.0,
                r.measured_loop_instructions,
                r.measured_kernel_fraction * 100.0,
                opt(r.word_violations),
                opt(r.line_violations),
                rate
            ));
        }
        s.push_str(
            "\n(paper column: whole-application fraction reported by the paper, for comparison;\n \
             measured column: profiler cycle attribution over the whole program — for the\n \
             kernel drivers that program is just the kernel, for mcf_app it is a miniature\n \
             network-simplex application. See DESIGN.md §3.5. The violation columns probe\n \
             conflict-detection precision: dependence squashes of a 4-thread Spice run with\n \
             word-granular vs 64-byte-line-granular conflict sets; the false-conflict rate\n \
             is the share of line-granular squashes the coarsening invented.)\n",
        );
        s
    }
}

/// One benchmark's bar of the Figure 8 reproduction. Since the trace layer
/// landed, the bins are **measured**: each loop's behaviour is recorded as a
/// [`spice_workloads::trace::WorkloadTrace`] and the bin comes from
/// re-analyzing the recording offline ([`analyze_trace`]) — the dialed-in
/// corpus targets are reported alongside for comparison, not used.
#[derive(Debug, Clone)]
pub struct Fig8Bar {
    /// Benchmark name.
    pub benchmark: String,
    /// Which panel it belongs to.
    pub suite: Suite,
    /// Percentage of profiled loops in each bin
    /// `(low, average, good, high)`; loops with no predictable invocation are
    /// omitted, as in the paper ("missing bars").
    pub percent: (f64, f64, f64, f64),
    /// Number of loops profiled.
    pub loops: usize,
    /// Per-loop predictability targets the corpus was constructed with.
    pub targets: Vec<f64>,
    /// Per-loop predictability *measured* from the recorded traces, same
    /// order as [`Fig8Bar::targets`].
    pub measured: Vec<f64>,
}

impl Fig8Bar {
    /// Mean absolute measured-vs-target error over this benchmark's loops.
    #[must_use]
    pub fn mean_abs_error(&self) -> f64 {
        if self.targets.is_empty() {
            return 0.0;
        }
        self.targets
            .iter()
            .zip(&self.measured)
            .map(|(t, m)| (t - m).abs())
            .sum::<f64>()
            / self.targets.len() as f64
    }
}

/// Workload sizing of the Figure 8 corpus runs.
#[must_use]
pub fn fig8_workload_shape(small: bool) -> (usize, usize) {
    let invocations = if small { 8 } else { 16 };
    let list_len = if small { 24 } else { 64 };
    (invocations, list_len)
}

/// Computes one benchmark's Figure 8 bar by **recording** each loop's trace
/// and re-analyzing the recording — the per-benchmark unit the farm
/// schedules as a job ([`crate::farm_driver::Figure::Fig8`]).
///
/// # Errors
///
/// Returns the first recording failure encountered.
pub fn fig8_bar(bench: &SuiteBenchmark, small: bool) -> Result<Fig8Bar, String> {
    let (invocations, list_len) = fig8_workload_shape(small);
    let mut counts = [0usize; 4]; // low, average, good, high
    let mut loops = 0usize;
    let mut measured = Vec::new();
    for mut wl in bench.workloads(invocations, list_len) {
        let trace = record_workload_trace(&mut wl, None)
            .map_err(|e| format!("{}: recording failed: {e}", bench.name))?;
        trace
            .validate()
            .map_err(|e| format!("{}: recorded an invalid trace: {e}", bench.name))?;
        let Some(verdict) = analyze_trace(&trace, AnalyzerConfig::default()) else {
            return Err(format!("{}: recorded trace has no events", bench.name));
        };
        loops += 1;
        measured.push(verdict.predictable_fraction);
        match verdict.bin {
            PredictabilityBin::Low => counts[0] += 1,
            PredictabilityBin::Average => counts[1] += 1,
            PredictabilityBin::Good => counts[2] += 1,
            PredictabilityBin::High => counts[3] += 1,
            PredictabilityBin::None => {}
        }
    }
    let denom = loops.max(1) as f64;
    Ok(Fig8Bar {
        benchmark: bench.name.to_string(),
        suite: bench.suite,
        percent: (
            100.0 * counts[0] as f64 / denom,
            100.0 * counts[1] as f64 / denom,
            100.0 * counts[2] as f64 / denom,
            100.0 * counts[3] as f64 / denom,
        ),
        loops,
        targets: bench.loop_predictability.clone(),
        measured,
    })
}

/// Mean absolute measured-vs-target error over every loop of every bar —
/// the number the agreement-band test pins.
#[must_use]
pub fn fig8_mean_abs_error(bars: &[Fig8Bar]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for b in bars {
        for (t, m) in b.targets.iter().zip(&b.measured) {
            total += (t - m).abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// The artifact label of a Figure 8 panel.
#[must_use]
pub fn suite_label(suite: Suite) -> &'static str {
    match suite {
        Suite::SpecInt => "spec_int",
        Suite::MediabenchAndOthers => "mediabench_others",
    }
}

impl FigureRows for Fig8Bar {
    const FIGURE: Figure = Figure::Fig8;

    fn header(small: bool) -> String {
        format!(
            "{{\n  \"figure\": \"fig8\",\n  \"small\": {small},\n  \"measured\": true,\n  \
             \"rows\": [\n"
        )
    }

    /// The bin percentages plus the per-loop measured fractions next to
    /// the targets the corpus dialed in.
    fn row(&self) -> String {
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| crate::json::float(*x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "    {{\"benchmark\": {}, \"suite\": {}, \"loops\": {}, \
             \"low\": {}, \"average\": {}, \"good\": {}, \"high\": {}, \
             \"target\": [{}], \"measured\": [{}]}}",
            crate::json::string(&self.benchmark),
            crate::json::string(suite_label(self.suite)),
            self.loops,
            crate::json::float(self.percent.0),
            crate::json::float(self.percent.1),
            crate::json::float(self.percent.2),
            crate::json::float(self.percent.3),
            join(&self.targets),
            join(&self.measured)
        )
    }

    fn footer(bars: &[Self]) -> String {
        format!(
            "\n  ],\n  \"total_loops\": {},\n  \"mean_abs_error\": {}\n}}\n",
            bars.iter().map(|b| b.loops).sum::<usize>(),
            crate::json::float(fig8_mean_abs_error(bars))
        )
    }

    /// Two text panels, one per suite.
    fn table(bars: &[Self]) -> String {
        let mut s = String::new();
        for (suite, title) in [
            (Suite::SpecInt, "Figure 8(a) — SPEC integer benchmarks"),
            (
                Suite::MediabenchAndOthers,
                "Figure 8(b) — Mediabench and others",
            ),
        ] {
            s.push_str(title);
            s.push('\n');
            s.push_str("benchmark        loops   low%  avg%  good%  high%   |m-t|\n");
            for b in bars.iter().filter(|b| b.suite == suite) {
                s.push_str(&format!(
                    "{:<16} {:>5}  {:>5.0} {:>5.0} {:>6.0} {:>6.0}  {:>6.3}\n",
                    b.benchmark,
                    b.loops,
                    b.percent.0,
                    b.percent.1,
                    b.percent.2,
                    b.percent.3,
                    b.mean_abs_error()
                ));
            }
            s.push('\n');
        }
        s.push_str(&format!(
            "(bins measured from recorded traces; mean |measured - target| = {:.3} \
             over {} loops)\n",
            fig8_mean_abs_error(bars),
            bars.iter().map(|b| b.loops).sum::<usize>()
        ));
        s
    }
}

/// The schedules comparison (Figures 2, 3 and 5) plus the §2 analytic
/// speedups instantiated with parameters measured on the simulated machine.
#[derive(Debug, Clone)]
pub struct ScheduleComparison {
    /// Measured t1/t2/t3 model for the otter loop.
    pub model: LoopTimingModel,
    /// Analytic TLS speedup (2 threads).
    pub tls_speedup: f64,
    /// Analytic TLS+VP speedup at the measured stride-predictor accuracy.
    pub tls_vp_speedup: f64,
    /// Stride-predictor accuracy on the loop's live-in trace.
    pub stride_accuracy: f64,
    /// Spice boundary-survival probability measured on the same trace.
    pub spice_survival: f64,
    /// Analytic Spice speedup at that survival probability.
    pub spice_expected_speedup: f64,
    /// Measured Spice speedup (2 threads) from the simulator.
    pub spice_measured_speedup: f64,
    /// ASCII schedules, one per scheme.
    pub schedules: Vec<(ScheduleKind, Vec<String>)>,
}

/// The otter instance the §2 comparison measures, over `invocations`
/// invocations (the full run when `None`).
fn schedules_otter(small: bool, invocations: Option<usize>) -> OtterWorkload {
    OtterWorkload::new(OtterConfig {
        initial_len: if small { 60 } else { 8_000 },
        inserts_per_invocation: 3,
        invocations: invocations.unwrap_or(if small { 8 } else { 12 }),
        seed: 0x07734,
    })
}

/// Builds the per-iteration live-in traces of the otter loop across its
/// invocations (node addresses visited), used to feed the §2 value
/// predictors: the shared recording pass, every site, all-zero tuples (the
/// loop-exit observation) dropped.
fn otter_livein_traces(small: bool) -> Result<Vec<Vec<Vec<i64>>>, String> {
    Ok(run_instrumented(&mut schedules_otter(small, None))?
        .profile_events()
        .map(|events| {
            events
                .into_iter()
                .filter(|(_, values)| values.iter().any(|&v| v != 0))
                .map(|(_, values)| values.to_vec())
                .collect()
        })
        .collect())
}

/// Reproduces the §2 comparison (Figures 2, 3 and 5).
///
/// # Errors
///
/// Returns the first failure encountered.
pub fn schedules(small: bool) -> Result<ScheduleComparison, String> {
    // Measure per-iteration timing of the otter loop on one core.
    let mut wl = schedules_otter(small, Some(2));
    let built = wl.build();
    let config = MachineConfig::itanium2_cmp().with_cores(1);
    let inter_core = config.inter_core_latency as f64;
    let mut machine = Machine::new(config, built.program);
    let args = wl.init(machine.mem_mut());
    let summary = machine
        .run_sequential(built.kernel, &args)
        .map_err(|e| e.to_string())?;
    let iterations = wl.expected_iterations().max(1) as f64;
    let per_iter = summary.cycles as f64 / iterations;
    let mem_share = summary.cores[0].mem_stall_cycles as f64 / iterations;
    let t1 = mem_share.min(per_iter * 0.9);
    let t2 = (per_iter - t1).max(1.0);
    let model = LoopTimingModel::new(t1, t2, inter_core);

    // Predictor accuracies on the live-in traces.
    let traces = otter_livein_traces(small)?;
    let mut stride = StridePredictor::new();
    let stride_stats = evaluate_predictor(&mut stride, &traces);
    let spice_stats = SpiceMemoPredictor::new(1).evaluate(&traces);

    // Measured Spice speedup with 2 threads.
    let rows = {
        let seq_cycles = run_workload_sequential(&mut schedules_otter(small, None))?;
        let mut par = schedules_otter(small, None);
        let spice =
            run_workload_backend(&mut par, BackendChoice::Sim, 2, PredictorOptions::default())?;
        seq_cycles as f64 / total_cycles(&spice) as f64
    };

    Ok(ScheduleComparison {
        model,
        tls_speedup: model.tls_speedup(2),
        tls_vp_speedup: model.tls_value_prediction_speedup(2, stride_stats.accuracy()),
        stride_accuracy: stride_stats.accuracy(),
        spice_survival: spice_stats.accuracy(),
        spice_expected_speedup: model.spice_speedup(2, spice_stats.accuracy()),
        spice_measured_speedup: rows,
        schedules: vec![
            (ScheduleKind::Tls, render_schedule(ScheduleKind::Tls, 8)),
            (
                ScheduleKind::TlsValuePrediction,
                render_schedule(ScheduleKind::TlsValuePrediction, 8),
            ),
            (ScheduleKind::Spice, render_schedule(ScheduleKind::Spice, 8)),
        ],
    })
}

/// One ablation row: a predictor-configuration variant of the otter loop.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Total cycles with 4 threads.
    pub cycles: u64,
    /// Mis-speculation rate.
    pub misspeculation_rate: f64,
    /// Load imbalance.
    pub load_imbalance: f64,
}

/// The predictor-configuration variants the ablation compares, in row
/// order: the design choices the paper discusses in §4 — re-memoization
/// every invocation vs. memoize-once, and dynamic load balancing on/off.
#[must_use]
pub fn ablation_variants() -> Vec<(&'static str, PredictorOptions)> {
    vec![
        (
            "re-memoize + load balance (paper)",
            PredictorOptions::default(),
        ),
        (
            "memoize once",
            PredictorOptions {
                rememoize: false,
                ..PredictorOptions::default()
            },
        ),
        (
            "no load balancing",
            PredictorOptions {
                load_balance: false,
                ..PredictorOptions::default()
            },
        ),
    ]
}

/// One ablation variant (an entry of [`ablation_variants`]) as a standalone
/// unit of work — the granularity the farm dispatches.
///
/// # Errors
///
/// Returns the first simulation failure.
pub fn ablation_variant_row(
    small: bool,
    name: &str,
    mut opts: PredictorOptions,
) -> Result<AblationRow, String> {
    let mut wl = OtterWorkload::new(OtterConfig {
        initial_len: if small { 80 } else { 500 },
        inserts_per_invocation: 5,
        invocations: if small { 10 } else { 200 },
        seed: 0xab1a,
    });
    opts.initial_work_estimate = Some(wl.expected_iterations());
    let summary = run_workload_backend(&mut wl, BackendChoice::Sim, 4, opts)?;
    Ok(AblationRow {
        variant: name.to_string(),
        cycles: total_cycles(&summary),
        misspeculation_rate: summary.misspeculation_rate(),
        load_imbalance: summary.load_imbalance(),
    })
}

/// Renders the ablation as the text table the `farm` binary prints (the
/// ablation has no JSON artifact, so it is not a [`FigureRows`] figure).
#[must_use]
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::from("Predictor ablation — otter, 4 threads\n");
    s.push_str(&format!(
        "{:<36} {:>14} {:>9} {:>10}\n",
        "variant", "cycles", "misspec", "imbalance"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<36} {:>14} {:>8.1}% {:>10.3}\n",
            r.variant,
            r.cycles,
            r.misspeculation_rate * 100.0,
            r.load_imbalance
        ));
    }
    s
}

// --- Trace-driven scenario engine: differential replay -------------------

/// Threads used by the replay differential on both parallel backends.
pub const REPLAY_THREADS: usize = 4;

/// One backend's replay of a trace: the per-invocation returns, the final
/// live-out memory, and their combined checksum.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// Per-invocation return values.
    pub returns: Vec<Option<i64>>,
    /// Every replay node's final value word, in slot order.
    pub live_out: Vec<i64>,
    /// FNV checksum over `returns` and `live_out` — the bit-identity probe.
    pub checksum: u64,
    /// Backend summary of the replay.
    pub summary: BackendRunSummary,
}

fn replay_checksum(returns: &[Option<i64>], live_out: &[i64]) -> u64 {
    let mut h = spice_workloads::trace::Fnv::new();
    h.word(returns.len() as i64);
    for r in returns {
        match r {
            Some(v) => {
                h.word(1);
                h.word(*v);
            }
            None => h.word(0),
        }
    }
    h.word(live_out.len() as i64);
    for &w in live_out {
        h.word(w);
    }
    h.finish()
}

/// Replays a trace on `backend` through the one invocation loop (every
/// return checked against the replay workload's host mirror) and captures
/// returns, live-out memory and checksum.
///
/// # Errors
///
/// Returns the first backend failure or host-mirror mismatch.
pub fn replay_on_backend(
    trace: &WorkloadTrace,
    backend: &mut dyn ExecutionBackend,
) -> Result<ReplayRun, String> {
    let mut wl = TraceReplayWorkload::new(trace.clone())
        .map_err(|e| format!("{}: invalid trace: {e}", trace.name))?;
    let summary = run_workload_on(&mut wl, backend)?;
    let live_out = wl.live_out(backend.mem());
    let checksum = replay_checksum(&summary.return_values, &live_out);
    Ok(ReplayRun {
        returns: summary.return_values.clone(),
        live_out,
        checksum,
        summary,
    })
}

/// One row of the fuzz-differential sweep: a mutant trace replayed on
/// sim, native and sequential execution, with the three checksums compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzRow {
    /// Job label (`fuzz/<base>/<seed>`).
    pub label: String,
    /// Mutation seed.
    pub seed: u64,
    /// Name of the base (recorded) trace.
    pub base: String,
    /// Mutant content checksum (identifies the scenario).
    pub trace_checksum: u64,
    /// Total iterations the mutant replays.
    pub iterations: u64,
    /// Whether the mutant carries dependence-inducing splice writes.
    pub has_writes: bool,
    /// The sequential (ground-truth) replay checksum.
    pub checksum: u64,
    /// The simulator replay's checksum (equals `checksum` when `agree`).
    pub sim_checksum: u64,
    /// The native replay's checksum (equals `checksum` when `agree`).
    pub native_checksum: u64,
    /// Dependence-violation squashes the simulator took and recovered.
    pub sim_violations: usize,
    /// Dependence-violation squashes the native backend took and recovered.
    pub native_violations: usize,
    /// Whether sim, native and sequential replays were bit-identical
    /// (returns **and** live-out memory).
    pub agree: bool,
}

/// Replays one (typically fuzzed) trace across the timing simulator, the
/// native-thread runtime and the sequential interpreter, and compares the
/// three bit-for-bit — the headline deliverable of the trace layer: *every*
/// mutant must agree, dependence-violating ones included.
///
/// # Errors
///
/// Returns the first execution failure on any substrate. A *divergence*
/// (all three ran, results differ) is reported through [`FuzzRow::agree`]
/// so the caller can persist the offending trace before failing.
pub fn fuzz_differential(
    label: &str,
    seed: u64,
    base_name: &str,
    trace: &WorkloadTrace,
    threads: usize,
) -> Result<FuzzRow, String> {
    // The plain interpreter is the ground truth the speculative backends
    // must match bit-for-bit.
    let sequential = replay_on_backend(trace, &mut InterpBackend::new())?;
    let parallel = |choice| {
        let mut backend = make_backend_with(choice, threads, PredictorOptions::default());
        replay_on_backend(trace, backend.as_mut())
    };
    let sim = parallel(BackendChoice::SimTiny)?;
    let native = parallel(BackendChoice::Native)?;
    let agree = sim.checksum == sequential.checksum
        && native.checksum == sequential.checksum
        && sim.returns == sequential.returns
        && native.returns == sequential.returns
        && sim.live_out == sequential.live_out
        && native.live_out == sequential.live_out;
    Ok(FuzzRow {
        label: label.to_string(),
        seed,
        base: base_name.to_string(),
        trace_checksum: trace.checksum(),
        iterations: trace.total_iterations(),
        has_writes: trace.has_writes(),
        checksum: sequential.checksum,
        sim_checksum: sim.checksum,
        native_checksum: native.checksum,
        sim_violations: sim.summary.dependence_violations,
        native_violations: native.summary.dependence_violations,
        agree,
    })
}

/// The base traces the fuzz sweep mutates: recordings of the real drivers
/// (the paper's four kernels plus the `mcf_app` miniature application) on
/// their small configurations — small because a fuzz sweep replays hundreds
/// of mutants and the scenarios, not the scale, are the point.
///
/// # Errors
///
/// Returns the first recording failure.
pub fn fuzz_base_traces() -> Result<Vec<WorkloadTrace>, String> {
    all_workload_factories(true)
        .into_iter()
        .map(|(name, factory)| record_driver_trace(&factory).map_err(|e| format!("{name}: {e}")))
        .collect()
}

/// Records and validates one driver's hot-loop trace — the farm's fuzz jobs
/// build their shared base traces through this.
///
/// # Errors
///
/// Returns the recording trap or validation failure as a message.
pub fn record_driver_trace(factory: &WorkloadFactory) -> Result<WorkloadTrace, String> {
    let mut wl = factory();
    let trace =
        record_workload_trace(wl.as_mut(), None).map_err(|e| format!("recording failed: {e:?}"))?;
    trace
        .validate()
        .map_err(|e| format!("recorded an invalid trace: {e}"))?;
    Ok(trace)
}

/// The mutation knobs of one fuzz-sweep job: seeded defaults, every axis
/// exercised.
#[must_use]
pub fn fuzz_config_for_seed(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed,
        splice_rate: 0.15,
        relink_depth: 4,
        churn_rate: 0.25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm_driver::{run_manifest, FarmReport, Manifest, OutPaths};

    /// One small farm run shared by every test below that reads figure
    /// rows — the farm is the only enumerator, so the rows come off its
    /// report.
    fn small_report() -> &'static FarmReport {
        static REPORT: std::sync::OnceLock<FarmReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| {
            let manifest = Manifest {
                figures: vec![
                    Figure::Fig7,
                    Figure::Harness,
                    Figure::Table2,
                    Figure::Ablation,
                    Figure::Crosscheck,
                ],
                small: true,
                jobs: 1,
                ..Manifest::default()
            };
            run_manifest(&manifest, &OutPaths::default()).expect("small farm run")
        })
    }

    #[test]
    fn table1_lists_the_machine() {
        let rows = table1();
        assert!(rows.iter().any(|(k, _)| k.contains("L1D")));
        assert!(rows.iter().any(|(_, v)| v.contains("141")));
    }

    #[test]
    fn fig7_small_produces_rows_for_all_benchmarks() {
        let rows = &small_report().fig7_rows;
        // Four paper loops + two conflict loops + the mcf_app miniature
        // application, at 2 and 4 threads each.
        assert_eq!(rows.len(), 14);
        // Since the centralized predictor step runs on core 0 (with its
        // cache/coherence traffic and the new_invocation token exchange
        // measured), the ~100-iteration small loops sit below the
        // amortization crossover — speedups above 1.0 are only expected at
        // full size. The small run must still be in a sane band, and the
        // text rendering mentions the geomean.
        let g4 = fig7_geomean(rows, 4);
        assert!(
            g4 > 0.6 && g4 < 2.0,
            "4-thread small geomean out of band: {g4}"
        );
        for r in rows {
            assert!(r.spice_cycles > 0 && r.speedup.is_finite());
        }
        let txt = Fig7Row::table(rows);
        assert!(txt.contains("GeoMean"));
        assert!(txt.contains("otter"));
        assert!(txt.contains("mcf_true"));
        assert!(txt.contains("mcf_app"));
        // The conflict-carrying rows actually exercised the subsystem: their
        // dependence-violation squashes were taken and recovered (results
        // are checked inside run_workload_on), while the dependence-free
        // paper loops must never trip it.
        for r in rows {
            if FIG7_PAPER_BENCHMARKS.contains(&r.benchmark.as_str()) {
                assert_eq!(
                    r.dependence_violations, 0,
                    "{}: false conflict at {} threads",
                    r.benchmark, r.threads
                );
            }
        }
        assert!(
            rows.iter()
                .filter(|r| !FIG7_PAPER_BENCHMARKS.contains(&r.benchmark.as_str()))
                .any(|r| r.dependence_violations > 0),
            "conflict workloads never triggered a dependence violation"
        );
    }

    /// The emitted Figure 7 artifact parses back: adversarial workload
    /// names are escaped and non-finite metrics (NaN speedup from an empty
    /// run, infinite imbalance) become `null`, never bare tokens.
    #[test]
    fn fig7_json_round_trips_through_the_validator() {
        let rows = vec![
            Fig7Row {
                benchmark: "ks".to_string(),
                threads: 2,
                sequential_cycles: 100,
                spice_cycles: 80,
                speedup: 1.25,
                misspeculation_rate: 0.1,
                load_imbalance: 0.3,
                dependence_violations: 0,
            },
            Fig7Row {
                // A hostile name: quotes, backslash, newline.
                benchmark: "weird\"bench\\name\n".to_string(),
                threads: 4,
                sequential_cycles: 0,
                spice_cycles: 0,
                speedup: f64::NAN,
                misspeculation_rate: f64::INFINITY,
                load_imbalance: f64::NEG_INFINITY,
                dependence_violations: 3,
            },
        ];
        let doc = fig7_json(&rows, true);
        crate::json::validate(&doc).unwrap_or_else(|e| panic!("emitted invalid JSON: {e}\n{doc}"));
        assert!(doc.contains("\\\"bench\\\\name\\n"), "name not escaped");
        assert!(doc.contains("\"speedup\": null"), "NaN not mapped to null");
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        // The real (small) artifact validates too.
        let real = fig7_json(&[], false);
        crate::json::validate(&real).unwrap();
    }

    #[test]
    fn harnessperf_small_runs_and_emits_valid_json() {
        let rows = &small_report().harness_rows;
        // Seven workloads, three modes each.
        assert_eq!(rows.len(), 21);
        for r in rows {
            assert!(r.simulated_cycles > 0, "{}/{}", r.benchmark, r.mode);
            assert!(r.host_nanos > 0, "{}/{}", r.benchmark, r.mode);
            assert!(r.ns_per_cycle().is_finite());
        }
        let doc = harnessperf_json(rows, true);
        crate::json::validate(&doc).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{doc}"));
        let total = crate::json::extract_number(&doc, "ns_per_simulated_cycle");
        assert_eq!(
            total,
            Some((harness_ns_per_cycle(rows) * 1e6).round() / 1e6)
        );
        let txt = HarnessPerfRow::table(rows);
        assert!(txt.contains("TOTAL") && txt.contains("pre-PR"));

        // What `farm --check` reads back out of the artifact: the same rows,
        // and one spice4 / sequential cost ratio per benchmark.
        assert_eq!(parse_harness_rows(&doc).as_deref(), Ok(&rows[..]));
        assert_eq!(parse_harness_rows("{}"), Err("no \"rows\" array".into()));
        let ratios = spice4_cost_ratios(rows);
        assert_eq!(ratios.len(), 7);
        let (bench, ratio) = &ratios[0];
        let ns = |mode: &str| {
            let row = rows
                .iter()
                .find(|r| r.benchmark == *bench && r.mode == mode);
            row.expect("every mode ran").ns_per_cycle()
        };
        assert_eq!(*ratio, ns("spice4") / ns("sequential"));
    }

    /// Measured-hotness regression (small suite, one-core test machine):
    /// the pure-kernel drivers attribute nearly every cycle to their loop —
    /// a faithful statement that they are kernels, not applications — while
    /// `mcf_app`'s refresh loop owns a *fraction* of a real program, and
    /// that fraction is pinned to a band so a serial-phase or attribution
    /// regression fails loudly. (The full-size Table 1-machine value is
    /// recorded in DESIGN.md §3.5 next to the paper's 30%.)
    #[test]
    fn mcf_app_measured_hotness_is_in_band() {
        let rows = &small_report().table2_rows;
        assert_eq!(rows.len(), 7);
        for r in rows {
            assert!(
                r.measured_hotness > 0.0 && r.measured_hotness <= 1.0,
                "{}: hotness out of range: {}",
                r.benchmark,
                r.measured_hotness
            );
            if r.benchmark != "mcf_app" {
                assert!(
                    r.measured_hotness > 0.85,
                    "{}: kernel driver should be nearly all loop, got {}",
                    r.benchmark,
                    r.measured_hotness
                );
            }
        }
        // Stated band: the small instance measures ≈0.27 on the reduced
        // test machine (the full-size Table 1-machine value, 0.235, is
        // recorded in DESIGN.md §3.5 next to the paper's 0.30). The band is
        // wide enough for deliberate machine-model retunes but far from the
        // degenerate poles (≈1 would mean the serial phases vanished, ≈0
        // that the loop did).
        let app = rows.iter().find(|r| r.benchmark == "mcf_app").expect("row");
        assert!(
            (0.18..=0.40).contains(&app.measured_hotness),
            "mcf_app measured hotness left its band: {}",
            app.measured_hotness
        );
        // And it is genuinely *measured*: not the quoted constant.
        assert!((app.measured_hotness - app.paper_hotness).abs() > 1e-6);
    }

    #[test]
    fn schedules_small_matches_section2_ordering() {
        let cmp = schedules(true).expect("schedules");
        // TLS without value prediction is limited by the traversal chain;
        // Spice's expected speedup exceeds it, and the Spice boundary
        // survival probability beats the stride predictor's accuracy.
        assert!(cmp.tls_speedup < cmp.spice_expected_speedup);
        assert!(cmp.spice_survival > cmp.stride_accuracy);
        assert_eq!(cmp.schedules.len(), 3);
    }

    #[test]
    fn ablation_small_runs_all_variants() {
        let rows = &small_report().ablation_rows;
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.cycles > 0));
    }

    #[test]
    fn crosscheck_backends_agree_on_all_benchmarks() {
        let rows = &small_report().crosscheck_rows;
        assert_eq!(rows.len(), 7);
        for r in rows {
            assert!(
                r.agree,
                "{}: sim returned {:?}, native returned {:?}",
                r.benchmark, r.sim.return_values, r.native.return_values
            );
            assert_eq!(r.sim.invocations, r.native.invocations);
        }
        // The conflict-carrying workloads (and the mcf_app application,
        // whose refresh chain has the same faithful dependence) pass the
        // cross-check *because* both backends squash and recover dependence
        // violations; each must report having actually done so.
        for name in ["mcf_true", "list_splice", "mcf_app"] {
            let row = rows.iter().find(|r| r.benchmark == name).expect(name);
            assert!(
                row.sim.dependence_violations > 0,
                "{name}: sim backend reported no dependence violations"
            );
            assert!(
                row.native.dependence_violations > 0,
                "{name}: native backend reported no dependence violations"
            );
        }
    }

    /// A cross-check capture arms tracing on both backends *before* they
    /// load, so the forensics artifact carries both chunk lifecycles.
    #[test]
    fn crosscheck_capture_carries_both_backends_events() {
        let (name, factory) = all_workload_factories(true).swap_remove(1);
        let capture = capture_crosscheck_divergence(
            &factory,
            CROSSCHECK_THREADS,
            &format!("crosscheck/{name}"),
            "synthetic divergence",
        );
        assert!(!capture.events.is_empty(), "simulator trace is empty");
        assert!(!capture.native_events.is_empty(), "native trace is empty");
        assert!(capture.state_dump.is_some());
        crate::json::validate(&failure_capture_json(&capture)).expect("valid capture artifact");
    }
}
