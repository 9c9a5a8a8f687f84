//! The simulation farm: bench experiments as jobs on the `spice-farm`
//! work-stealing engine.
//!
//! [`run_manifest`] turns an [`Manifest`] (which figures, which size, how
//! many workers) into a deterministic job list:
//!
//! * one **sweep job** per `(benchmark, mode)` cell of the Figure 7 /
//!   harness matrix — sequential, 2-thread and 4-thread Spice. Figure 7 and
//!   the harness report both derive from this one job set, so requesting
//!   both costs no extra simulation;
//! * one **hotness job** plus (for conflict-detecting workloads) two
//!   **conflict-probe jobs** per benchmark for Table 2;
//! * one job per **ablation variant**.
//!
//! Each preparation (IR build → analysis → transform → decode → image) is
//! built once in a [`PreparedCache`] keyed by
//! [`sweep_prep_key`](crate::experiments::sweep_prep_key) and shared by
//! `Arc` across every job that needs it; at full size the Table 2
//! word-granularity probe keys identically to the Figure 7 four-thread run
//! and reuses its decode.
//!
//! Artifacts stream: each JSON row is appended to the output file the
//! moment its job retires, and because the engine delivers results in job
//! id order — never completion order — the bytes are identical at
//! `--jobs 1` and `--jobs N`, and identical to what the serial emitters in
//! [`crate::experiments`] produce (the row/header/footer functions are
//! shared). Aggregates that need every row (geomeans, totals) live in the
//! footers.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spice_farm::{CacheStats, FarmStats, Job, PreparedCache};
use spice_ir::exec::ExecutionBackend;
use spice_ir::trace::DEFAULT_TRACE_CAPACITY;
use spice_ir::TraceEvent;
use spice_workloads::trace::{fuzz_trace, WorkloadTrace};
use spice_workloads::{fig8_corpus, BackendRunSummary};

use crate::experiments::{
    ablation_variants, all_workload_factories, capture_crosscheck_divergence,
    capture_sweep_failure, crosscheck_json_footer, crosscheck_json_header, crosscheck_json_row,
    crosscheck_workload, drive_prepared_sweep, failure_capture_json, fig7_json_footer,
    fig7_json_header, fig7_json_row, fig7_row_from_sweep, fig8_bar, fig8_json_footer,
    fig8_json_header, fig8_json_row, fuzz_config_for_seed, fuzz_differential,
    harness_row_from_sweep, harnessperf_json_footer, harnessperf_json_header, harnessperf_json_row,
    prepare_sweep, record_driver_trace, recorded_events, run_prepared_sweep, sweep_prep_key,
    table2_hotness_row, table2_json_footer, table2_json_header, table2_json_row, AblationRow,
    CrosscheckRow, FailureCapture, Fig7Row, Fig8Bar, FuzzRow, HarnessPerfRow, SweepMode, SweepPrep,
    SweepRun, Table2Row, WorkloadFactory, LINE_GRANULARITY_LOG2, REPLAY_THREADS,
};
use crate::trace_json::{trace_job_json, trace_json_footer, trace_json_header};
use crate::tracefile::trace_to_json;

/// Thread count of the cross-check jobs (matches the `crosscheck` binary).
const CROSSCHECK_THREADS: usize = 4;

/// One figure of the evaluation, as selectable in an experiment manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 7 loop speedups (`BENCH_fig7.json`).
    Fig7,
    /// Table 2 benchmark details with conflict-precision probes
    /// (`BENCH_table2.json`).
    Table2,
    /// Predictor-design ablation (text only).
    Ablation,
    /// Harness performance (`BENCH_harness.json`).
    Harness,
    /// Sim ↔ native backend cross-check (`BENCH_crosscheck.json`) — one job
    /// per workload, always on the small/tiny configurations; a divergence
    /// fails the job and routes forensics through the failed-job capture.
    Crosscheck,
    /// Figure 8 live-in predictability (`BENCH_fig8.json`) — one job per
    /// corpus benchmark; bins are measured by recording each loop's trace
    /// and re-analyzing it offline.
    Fig8,
    /// Trace-fuzz differential sweep (rows in the report only) — one job
    /// per seed in the manifest's `fuzz_seeds` range; a replay divergence
    /// fails the job and persists the offending trace file.
    Fuzz,
}

impl Figure {
    /// Every figure, in canonical order.
    pub const ALL: [Figure; 7] = [
        Figure::Fig7,
        Figure::Table2,
        Figure::Ablation,
        Figure::Harness,
        Figure::Crosscheck,
        Figure::Fig8,
        Figure::Fuzz,
    ];

    /// The manifest name of this figure.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig7 => "fig7",
            Figure::Table2 => "table2",
            Figure::Ablation => "ablation",
            Figure::Harness => "harness",
            Figure::Crosscheck => "crosscheck",
            Figure::Fig8 => "fig8",
            Figure::Fuzz => "fuzz",
        }
    }

    /// Parses a comma-separated figure list (e.g. `"fig7,table2"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown figure.
    pub fn parse_list(s: &str) -> Result<Vec<Figure>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| {
                Figure::ALL
                    .into_iter()
                    .find(|f| f.name() == p)
                    .ok_or_else(|| {
                        format!(
                            "unknown figure {p:?} \
                             (expected fig7, table2, ablation, harness, crosscheck, \
                             fig8, fuzz)"
                        )
                    })
            })
            .collect()
    }
}

/// An experiment manifest: what to run and how wide.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Figures to produce. Order does not matter; job enumeration is fixed.
    pub figures: Vec<Figure>,
    /// Reduced-size inputs (the `--small` suite).
    pub small: bool,
    /// Worker threads; 0 sizes to the host's parallelism.
    pub jobs: usize,
    /// Mutation-seed sweep axis for the `fuzz` figure: one differential
    /// replay job per seed. Ignored unless `fuzz` is requested.
    pub fuzz_seeds: std::ops::Range<u64>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            figures: Vec::new(),
            small: false,
            jobs: 0,
            fuzz_seeds: 0..DEFAULT_FUZZ_SEEDS,
        }
    }
}

/// Seeds the `fuzz` figure sweeps when no `--fuzz-seeds` width is given.
pub const DEFAULT_FUZZ_SEEDS: u64 = 8;

impl Manifest {
    fn wants(&self, f: Figure) -> bool {
        self.figures.contains(&f)
    }
}

/// Where to write each streamed artifact; `None` skips that artifact (the
/// figure's rows are still computed and returned).
#[derive(Debug, Clone, Default)]
pub struct OutPaths {
    /// `BENCH_fig7.json` destination.
    pub fig7: Option<PathBuf>,
    /// `BENCH_table2.json` destination.
    pub table2: Option<PathBuf>,
    /// `BENCH_harness.json` destination.
    pub harness: Option<PathBuf>,
    /// `BENCH_crosscheck.json` destination.
    pub crosscheck: Option<PathBuf>,
    /// `BENCH_fig8.json` destination.
    pub fig8: Option<PathBuf>,
    /// `--trace-out` destination. Setting this turns tracing on for every
    /// sweep job (simulator-side only — native traces are not reproducible
    /// for racy workloads, so they never enter this artifact) and streams
    /// one trace row per job, byte-identical at any `--jobs` width.
    pub trace: Option<PathBuf>,
    /// Directory for failed-job forensics (`FAILED_<label>.json`): the
    /// re-run's trace ring-buffer, snapshot cycles and final state dump.
    pub failures_dir: Option<PathBuf>,
}

/// Everything a farm run produced: the per-figure rows (exactly what the
/// serial experiment functions would have returned) plus the engine's
/// accounting.
#[derive(Debug)]
pub struct FarmReport {
    /// Figure 7 rows, in benchmark-major order (empty unless requested).
    pub fig7_rows: Vec<Fig7Row>,
    /// Harness-perf rows (empty unless requested).
    pub harness_rows: Vec<HarnessPerfRow>,
    /// Table 2 rows with probe columns filled (empty unless requested).
    pub table2_rows: Vec<Table2Row>,
    /// Ablation rows (empty unless requested).
    pub ablation_rows: Vec<AblationRow>,
    /// Cross-check rows (empty unless requested). Present rows always
    /// agree — a divergence fails its job instead of producing a row.
    pub crosscheck_rows: Vec<CrosscheckRow>,
    /// Figure 8 bars in corpus order (empty unless requested).
    pub fig8_bars: Vec<Fig8Bar>,
    /// Fuzz-differential rows in seed order (empty unless requested).
    /// Present rows always agree — a divergence fails its job after
    /// persisting the offending trace.
    pub fuzz_rows: Vec<FuzzRow>,
    /// Per-sweep-job backend summaries `(job label, summary)`, sequential
    /// cells included — the determinism test compares these across worker
    /// counts.
    pub sweep_summaries: Vec<(String, BackendRunSummary)>,
    /// Engine accounting: job count, workers, wall time, per-job compute.
    pub stats: FarmStats,
    /// Preparation-cache accounting: hits, misses, build time.
    pub cache: CacheStats,
    /// Host hardware parallelism at run time.
    pub host_cores: usize,
    /// The `jobs` the manifest requested (0 = host).
    pub requested_jobs: usize,
    /// Whether this was a reduced-size run.
    pub small: bool,
    /// Simulated cycles summed over sweep jobs.
    pub simulated_cycles: u64,
    /// Simulate-only host nanoseconds summed over sweep jobs.
    pub sim_nanos: u128,
}

impl FarmReport {
    /// Host seconds an equivalent serial run would have computed for: the
    /// sum of every job's own compute time (no overlap).
    #[must_use]
    pub fn serial_equivalent_seconds(&self) -> f64 {
        self.stats.total_job_nanos as f64 / 1e9
    }

    /// Wall seconds the farm actually took.
    #[must_use]
    pub fn farm_wall_seconds(&self) -> f64 {
        self.stats.wall_nanos as f64 / 1e9
    }

    /// Serial-equivalent over wall — the farm's parallel speedup.
    #[must_use]
    pub fn parallel_speedup(&self) -> f64 {
        self.serial_equivalent_seconds() / self.farm_wall_seconds()
    }

    /// Host nanoseconds per simulated cycle over the sweep jobs (dispatch
    /// only — preparation time is cached and excluded). The size-independent
    /// rate `farm --check` gates on.
    #[must_use]
    pub fn ns_per_simulated_cycle(&self) -> f64 {
        if self.simulated_cycles == 0 {
            f64::NAN
        } else {
            self.sim_nanos as f64 / self.simulated_cycles as f64
        }
    }
}

/// Renders the farm's own artifact (`BENCH_farm.json`): serial vs farm
/// seconds, job and worker counts, host cores, cache accounting, and the
/// dispatch rate the perf smoke gates on.
#[must_use]
pub fn farm_json(report: &FarmReport) -> String {
    let metric_rows: Vec<String> = report
        .stats
        .details
        .iter()
        .map(|m| {
            format!(
                "    {{\"label\": {}, \"host_nanos\": {}, \"ok\": {}, \
                 \"events\": {}, \"squashes\": {}}}",
                crate::json::string(&m.label),
                m.host_nanos,
                m.ok,
                m.events,
                m.squashes
            )
        })
        .collect();
    let job_metrics = if metric_rows.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n  ]", metric_rows.join(",\n"))
    };
    format!(
        "{{\n  \"figure\": \"farm\",\n  \"small\": {},\n  \"host_cores\": {},\n  \
         \"requested_jobs\": {},\n  \"workers\": {},\n  \"jobs\": {},\n  \
         \"failures\": {},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"prepare_seconds\": {},\n  \"serial_equivalent_seconds\": {},\n  \
         \"farm_wall_seconds\": {},\n  \"parallel_speedup\": {},\n  \
         \"simulated_cycles\": {},\n  \"ns_per_simulated_cycle\": {},\n  \
         \"job_metrics\": {job_metrics}\n}}\n",
        report.small,
        report.host_cores,
        report.requested_jobs,
        report.stats.workers,
        report.stats.jobs,
        report.stats.failures,
        report.cache.hits,
        report.cache.misses,
        crate::json::float(report.cache.build_nanos as f64 / 1e9),
        crate::json::float(report.serial_equivalent_seconds()),
        crate::json::float(report.farm_wall_seconds()),
        crate::json::float(report.parallel_speedup()),
        report.simulated_cycles,
        crate::json::float(report.ns_per_simulated_cycle())
    )
}

/// What one farm job computed.
enum Payload {
    Sweep {
        bench: String,
        mode: SweepMode,
        build_nanos: u128,
        run: Box<SweepRun>,
        /// Recorded trace events (empty unless `--trace-out` was requested).
        trace: Vec<TraceEvent>,
    },
    Hotness(Box<Table2Row>),
    Probe {
        bench: String,
        granularity_log2: u8,
        violations: usize,
    },
    Ablation(Box<AblationRow>),
    Crosscheck(Box<CrosscheckRow>),
    Fig8(Box<Fig8Bar>),
    Fuzz(Box<FuzzRow>),
}

/// A file-system-safe rendering of a job label (`sweep/ks/spice4` →
/// `sweep_ks_spice4`).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes a failure-capture artifact as `<dir>/FAILED_<label>.json` and
/// returns its path. Artifacts are per-job files, so concurrent failing
/// jobs never interleave writes.
fn write_failure_artifact(dir: &Path, capture: &FailureCapture) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("FAILED_{}.json", sanitize_label(&capture.label)));
    let doc = failure_capture_json(capture);
    crate::json::validate(&doc).map_err(|e| format!("failure artifact invalid: {e}"))?;
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Persists a diverging fuzz mutant as `<dir>/FAILED_<label>.json`: the
/// divergence description plus the full trace-file document, so the exact
/// scenario replays offline with no recording step.
fn write_fuzz_failure_artifact(
    dir: &Path,
    label: &str,
    error: &str,
    trace: &WorkloadTrace,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("FAILED_{}.json", sanitize_label(label)));
    let trace_doc = trace_to_json(trace);
    let doc = format!(
        "{{\n  \"label\": {},\n  \"error\": {},\n  \"trace\": {}}}\n",
        crate::json::string(label),
        crate::json::string(error),
        // The embedded document ends in "}\n"; trim to nest it cleanly.
        trace_doc.trim_end()
    );
    crate::json::validate(&doc).map_err(|e| format!("fuzz artifact invalid: {e}"))?;
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Annotates a sweep-job error with a forensic re-run: a traced,
/// snapshotted deterministic replay persisted as a retryable artifact.
fn sweep_failed(
    failures_dir: Option<&Path>,
    factory: &WorkloadFactory,
    prep: &SweepPrep,
    label: &str,
    error: String,
) -> String {
    let Some(dir) = failures_dir else {
        return error;
    };
    let capture = capture_sweep_failure(factory, prep, label, &error);
    match write_failure_artifact(dir, &capture) {
        Ok(path) => format!("{error} (forensics: {})", path.display()),
        Err(e) => format!("{error} (forensics capture failed: {e})"),
    }
}

/// A JSON artifact written row-by-row as jobs retire. The file on disk and
/// the in-memory mirror are appended in lockstep; `finish` validates the
/// mirror so a malformed document fails loudly instead of shipping.
struct RowStream {
    path: PathBuf,
    file: std::fs::File,
    mirror: String,
    rows: usize,
}

impl RowStream {
    fn create(path: &Path, header: &str) -> Result<RowStream, String> {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        file.write_all(header.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(RowStream {
            path: path.to_path_buf(),
            file,
            mirror: header.to_string(),
            rows: 0,
        })
    }

    fn push_row(&mut self, row: &str) -> Result<(), String> {
        let mut chunk = String::new();
        crate::json::push_row(&mut chunk, self.rows, row);
        self.rows += 1;
        self.mirror.push_str(&chunk);
        self.file
            .write_all(chunk.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.path.display()))
    }

    fn finish(mut self, footer: &str) -> Result<(), String> {
        self.mirror.push_str(footer);
        self.file
            .write_all(footer.as_bytes())
            .map_err(|e| format!("write {}: {e}", self.path.display()))?;
        self.file
            .flush()
            .map_err(|e| format!("flush {}: {e}", self.path.display()))?;
        crate::json::validate(&self.mirror)
            .map_err(|e| format!("{}: emitted invalid JSON: {e}", self.path.display()))?;
        eprintln!("wrote {}", self.path.display());
        Ok(())
    }
}

/// Runs the manifest's figures as one parallel sweep, streaming the
/// requested artifacts row-by-row, and returns the assembled rows plus the
/// engine accounting.
///
/// # Errors
///
/// Returns the first job failure (in job id order) or artifact I/O error.
///
/// # Panics
///
/// Panics only on engine invariant violations (duplicate job ids).
pub fn run_manifest(manifest: &Manifest, outs: &OutPaths) -> Result<FarmReport, String> {
    let small = manifest.small;
    let factories: Vec<(&'static str, Arc<WorkloadFactory>)> = all_workload_factories(small)
        .into_iter()
        .map(|(name, factory)| (name, Arc::new(factory)))
        .collect();
    let cache: Arc<PreparedCache<SweepPrep>> = Arc::new(PreparedCache::new());

    // --- Deterministic job enumeration -----------------------------------
    // Ids fix the artifact row order: sweep jobs benchmark-major with modes
    // in `SweepMode::ALL` order, then Table 2 parts benchmark-major with the
    // hotness job before its probes, then ablation variants. The sink
    // relies on this: a benchmark's sequential result always precedes its
    // Spice results, a hotness row always precedes its probes.
    let sweep_wanted = manifest.wants(Figure::Fig7) || manifest.wants(Figure::Harness);
    let tracing = outs.trace.is_some();
    let mut jobs: Vec<Job<Payload>> = Vec::new();

    if sweep_wanted {
        for (bench, factory) in &factories {
            for mode in SweepMode::ALL {
                let key = sweep_prep_key(bench, mode, small, 0);
                let factory = Arc::clone(factory);
                let cache = Arc::clone(&cache);
                let bench = (*bench).to_string();
                let label = format!("sweep/{bench}/{}", mode.label());
                let failures_dir = outs.failures_dir.clone();
                jobs.push(Job::new(jobs.len() as u64, label.clone(), move || {
                    let prep =
                        cache.try_get_or_build(&key, || prepare_sweep(&factory, mode, small, 0))?;
                    // Tracing is observational (the run's numbers are those
                    // of an untraced run) and the simulator single-threaded,
                    // so the recorded events are deterministic.
                    let (backend, run) = drive_prepared_sweep(&factory, &prep, |b| {
                        if tracing {
                            b.enable_trace(DEFAULT_TRACE_CAPACITY);
                        }
                    });
                    let run = run.map_err(|e| {
                        sweep_failed(failures_dir.as_deref(), &factory, &prep, &label, e)
                    })?;
                    Ok(Payload::Sweep {
                        bench,
                        mode,
                        build_nanos: prep.build_nanos,
                        run: Box::new(run),
                        trace: recorded_events(&backend),
                    })
                }));
            }
        }
    }

    // Probe counts per benchmark, so the sink knows when a Table 2 row is
    // complete without consulting the workload again.
    let mut probes_expected: HashMap<String, usize> = HashMap::new();
    if manifest.wants(Figure::Table2) {
        for (bench, factory) in &factories {
            {
                let factory = Arc::clone(factory);
                jobs.push(Job::new(
                    jobs.len() as u64,
                    format!("table2/{bench}/hotness"),
                    move || {
                        Ok(Payload::Hotness(Box::new(table2_hotness_row(
                            &factory, small,
                        )?)))
                    },
                ));
            }
            let detects = factory().conflict_policy().detects();
            probes_expected.insert((*bench).to_string(), if detects { 2 } else { 0 });
            if detects {
                for granularity_log2 in [0u8, LINE_GRANULARITY_LOG2] {
                    let factory = Arc::clone(factory);
                    let cache = Arc::clone(&cache);
                    let key = sweep_prep_key(
                        bench,
                        SweepMode::Spice { threads: 4 },
                        small,
                        granularity_log2,
                    );
                    let bench = (*bench).to_string();
                    let label = format!("table2/{bench}/probe-g{granularity_log2}");
                    let failures_dir = outs.failures_dir.clone();
                    jobs.push(Job::new(jobs.len() as u64, label.clone(), move || {
                        // Same computation as `table2_probe`, but the
                        // preparation comes from the shared cache — at
                        // full size the g=0 probe reuses the Figure 7
                        // four-thread decode.
                        let prep = cache.try_get_or_build(&key, || {
                            prepare_sweep(
                                &factory,
                                SweepMode::Spice { threads: 4 },
                                small,
                                granularity_log2,
                            )
                        })?;
                        let run = run_prepared_sweep(&factory, &prep).map_err(|e| {
                            sweep_failed(failures_dir.as_deref(), &factory, &prep, &label, e)
                        })?;
                        Ok(Payload::Probe {
                            bench,
                            granularity_log2,
                            violations: run.dependence_violations,
                        })
                    }));
                }
            }
        }
    }

    if manifest.wants(Figure::Ablation) {
        for variant in 0..ablation_variants().len() {
            jobs.push(Job::new(
                jobs.len() as u64,
                format!("ablation/{variant}"),
                move || {
                    Ok(Payload::Ablation(Box::new(
                        crate::experiments::ablation_variant_row(small, variant)?,
                    )))
                },
            ));
        }
    }

    if manifest.wants(Figure::Crosscheck) {
        // Cross-check always runs the small/tiny configurations regardless
        // of `manifest.small` — the comparison is about backend agreement,
        // not workload scale, and this keeps the 7-row pin of the
        // standalone `crosscheck` binary.
        for (bench, factory) in all_workload_factories(true) {
            let factory = Arc::new(factory);
            let bench = bench.to_string();
            let label = format!("crosscheck/{bench}");
            let failures_dir = outs.failures_dir.clone();
            jobs.push(Job::new(jobs.len() as u64, label.clone(), move || {
                let row = crosscheck_workload(&bench, &factory, CROSSCHECK_THREADS)?;
                if row.agree && row.sim.invocations == row.native.invocations {
                    return Ok(Payload::Crosscheck(Box::new(row)));
                }
                let error = format!(
                    "backend divergence: sim returned {:?} over {} invocations, \
                     native returned {:?} over {} invocations",
                    row.sim.return_values,
                    row.sim.invocations,
                    row.native.return_values,
                    row.native.invocations
                );
                let Some(dir) = failures_dir else {
                    return Err(error);
                };
                let capture =
                    capture_crosscheck_divergence(&factory, CROSSCHECK_THREADS, &label, &error);
                Err(match write_failure_artifact(&dir, &capture) {
                    Ok(path) => format!("{error} (forensics: {})", path.display()),
                    Err(e) => format!("{error} (forensics capture failed: {e})"),
                })
            }));
        }
    }

    if manifest.wants(Figure::Fig8) {
        // One job per corpus benchmark. Recording + offline analysis is a
        // pure function of the (seeded) workload, so the rows are
        // deterministic and the streamed artifact byte-identical at any
        // worker count.
        for bench in fig8_corpus() {
            let label = format!("fig8/{}", bench.name);
            jobs.push(Job::new(jobs.len() as u64, label, move || {
                Ok(Payload::Fig8(Box::new(fig8_bar(&bench, small)?)))
            }));
        }
    }

    if manifest.wants(Figure::Fuzz) {
        // One job per mutation seed; seeds round-robin over the real
        // drivers. Each driver's base trace is recorded once (small
        // configurations, like the cross-check) and shared through the
        // prepared cache; the mutant is derived in-job, replayed on sim,
        // native and sequential substrates, and any divergence persists the
        // offending trace file before failing the job.
        let fuzz_factories: Vec<(&'static str, Arc<WorkloadFactory>)> =
            all_workload_factories(true)
                .into_iter()
                .map(|(name, factory)| (name, Arc::new(factory)))
                .collect();
        let trace_cache: Arc<PreparedCache<WorkloadTrace>> = Arc::new(PreparedCache::new());
        for seed in manifest.fuzz_seeds.clone() {
            let (base_name, factory) = &fuzz_factories[seed as usize % fuzz_factories.len()];
            let base_name = *base_name;
            let factory = Arc::clone(factory);
            let trace_cache = Arc::clone(&trace_cache);
            let label = format!("fuzz/{base_name}/{seed}");
            let failures_dir = outs.failures_dir.clone();
            jobs.push(Job::new(jobs.len() as u64, label.clone(), move || {
                let base = trace_cache.try_get_or_build(&format!("trace/{base_name}"), || {
                    record_driver_trace(&factory).map_err(|e| format!("{base_name}: {e}"))
                })?;
                let mutant = fuzz_trace(&base, &fuzz_config_for_seed(seed));
                let row = fuzz_differential(&label, seed, base_name, &mutant, REPLAY_THREADS)?;
                if row.agree {
                    return Ok(Payload::Fuzz(Box::new(row)));
                }
                let error = format!(
                    "replay divergence on mutant {:#x} (seq {:#x}, sim {:#x}, native {:#x})",
                    row.trace_checksum, row.checksum, row.sim_checksum, row.native_checksum
                );
                let Some(dir) = failures_dir else {
                    return Err(error);
                };
                Err(
                    match write_fuzz_failure_artifact(&dir, &label, &error, &mutant) {
                        Ok(path) => format!("{error} (trace: {})", path.display()),
                        Err(e) => format!("{error} (trace capture failed: {e})"),
                    },
                )
            }));
        }
    }

    // --- Streaming sinks --------------------------------------------------
    let mut fig7_stream = match (&outs.fig7, manifest.wants(Figure::Fig7)) {
        (Some(path), true) => Some(RowStream::create(path, &fig7_json_header(small))?),
        _ => None,
    };
    let mut harness_stream = match (&outs.harness, manifest.wants(Figure::Harness)) {
        (Some(path), true) => Some(RowStream::create(path, &harnessperf_json_header(small))?),
        _ => None,
    };
    let mut table2_stream = match (&outs.table2, manifest.wants(Figure::Table2)) {
        (Some(path), true) => Some(RowStream::create(path, &table2_json_header(small))?),
        _ => None,
    };
    let mut crosscheck_stream = match (&outs.crosscheck, manifest.wants(Figure::Crosscheck)) {
        (Some(path), true) => Some(RowStream::create(
            path,
            &crosscheck_json_header(CROSSCHECK_THREADS),
        )?),
        _ => None,
    };
    let mut fig8_stream = match (&outs.fig8, manifest.wants(Figure::Fig8)) {
        (Some(path), true) => Some(RowStream::create(path, &fig8_json_header(small))?),
        _ => None,
    };
    // Only sweep jobs contribute trace rows: the simulator is
    // single-threaded and deterministic, so the artifact byte-diffs across
    // `--jobs` widths. Native (cross-check) traces are deterministic in
    // validate/commit order but not in content for racy workloads, so they
    // stay out of this artifact and are only persisted by failure capture.
    let mut trace_stream = match (&outs.trace, sweep_wanted) {
        (Some(path), true) => Some(RowStream::create(path, &trace_json_header(small))?),
        _ => None,
    };

    let mut fig7_rows: Vec<Fig7Row> = Vec::new();
    let mut harness_rows: Vec<HarnessPerfRow> = Vec::new();
    let mut table2_rows: Vec<Table2Row> = Vec::new();
    let mut ablation_rows: Vec<AblationRow> = Vec::new();
    let mut crosscheck_rows: Vec<CrosscheckRow> = Vec::new();
    let mut fig8_bars: Vec<Fig8Bar> = Vec::new();
    let mut fuzz_rows: Vec<FuzzRow> = Vec::new();
    let mut sweep_summaries: Vec<(String, BackendRunSummary)> = Vec::new();
    let mut job_observability: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut seq_cycles: HashMap<String, u64> = HashMap::new();
    let mut pending_table2: HashMap<String, (Table2Row, usize)> = HashMap::new();
    let mut simulated_cycles = 0u64;
    let mut sim_nanos = 0u128;
    let mut first_error: Option<String> = None;

    let fig7_wanted = manifest.wants(Figure::Fig7);
    let harness_wanted = manifest.wants(Figure::Harness);

    let mut stats = spice_farm::run_jobs(jobs, manifest.jobs, |result| {
        if first_error.is_some() {
            return;
        }
        let payload = match result.outcome {
            Ok(p) => p,
            Err(e) => {
                first_error = Some(format!("{}: {e}", result.label));
                return;
            }
        };
        let sunk: Result<(), String> = (|| {
            match payload {
                Payload::Sweep {
                    bench,
                    mode,
                    build_nanos,
                    run,
                    trace,
                } => {
                    simulated_cycles = simulated_cycles.saturating_add(run.cycles);
                    sim_nanos += run.sim_nanos;
                    let squashes = run.summary.as_ref().map_or(0, |s| s.squashed_chunks as u64);
                    job_observability.insert(result.id, (trace.len() as u64, squashes));
                    if let Some(s) = &mut trace_stream {
                        s.push_row(&trace_job_json(&result.label, &trace))?;
                    }
                    if let Some(summary) = &run.summary {
                        sweep_summaries.push((result.label.clone(), summary.clone()));
                    }
                    if harness_wanted {
                        let row = harness_row_from_sweep(&bench, mode, build_nanos, &run);
                        if let Some(s) = &mut harness_stream {
                            s.push_row(&harnessperf_json_row(&row))?;
                        }
                        harness_rows.push(row);
                    }
                    match mode {
                        SweepMode::Sequential => {
                            seq_cycles.insert(bench, run.cycles);
                        }
                        SweepMode::Spice { threads } => {
                            if fig7_wanted {
                                let seq = *seq_cycles
                                    .get(&bench)
                                    .expect("sequential job precedes spice jobs in id order");
                                let row = fig7_row_from_sweep(&bench, threads, seq, &run);
                                if let Some(s) = &mut fig7_stream {
                                    s.push_row(&fig7_json_row(&row))?;
                                }
                                fig7_rows.push(row);
                            }
                        }
                    }
                }
                Payload::Hotness(row) => {
                    let bench = row.benchmark.clone();
                    let expected = probes_expected.get(&bench).copied().unwrap_or(0);
                    pending_table2.insert(bench.clone(), (*row, expected));
                    if expected == 0 {
                        let (row, _) = pending_table2.remove(&bench).expect("just inserted");
                        if let Some(s) = &mut table2_stream {
                            s.push_row(&table2_json_row(&row))?;
                        }
                        table2_rows.push(row);
                    }
                }
                Payload::Probe {
                    bench,
                    granularity_log2,
                    violations,
                } => {
                    let (row, remaining) = pending_table2
                        .get_mut(&bench)
                        .expect("hotness job precedes probes in id order");
                    if granularity_log2 == 0 {
                        row.word_violations = Some(violations);
                    } else {
                        row.line_violations = Some(violations);
                    }
                    *remaining -= 1;
                    if *remaining == 0 {
                        let (row, _) = pending_table2.remove(&bench).expect("present");
                        if let Some(s) = &mut table2_stream {
                            s.push_row(&table2_json_row(&row))?;
                        }
                        table2_rows.push(row);
                    }
                }
                Payload::Ablation(row) => ablation_rows.push(*row),
                Payload::Crosscheck(row) => {
                    let squashes = (row.sim.squashed_chunks + row.native.squashed_chunks) as u64;
                    job_observability.insert(result.id, (0, squashes));
                    if let Some(s) = &mut crosscheck_stream {
                        s.push_row(&crosscheck_json_row(&row))?;
                    }
                    crosscheck_rows.push(*row);
                }
                Payload::Fig8(bar) => {
                    if let Some(s) = &mut fig8_stream {
                        s.push_row(&fig8_json_row(&bar))?;
                    }
                    fig8_bars.push(*bar);
                }
                Payload::Fuzz(row) => {
                    job_observability
                        .insert(result.id, (row.iterations, row.sim_violations as u64));
                    fuzz_rows.push(*row);
                }
            }
            Ok(())
        })();
        if let Err(e) = sunk {
            first_error = Some(e);
        }
    });

    for (id, (events, squashes)) in &job_observability {
        stats.annotate(*id, *events, *squashes);
    }

    if let Some(e) = first_error {
        return Err(e);
    }
    if let Some(s) = fig7_stream {
        s.finish(&fig7_json_footer(&fig7_rows))?;
    }
    if let Some(s) = harness_stream {
        s.finish(&harnessperf_json_footer(&harness_rows))?;
    }
    if let Some(s) = table2_stream {
        s.finish(&table2_json_footer())?;
    }
    if let Some(s) = crosscheck_stream {
        s.finish(&crosscheck_json_footer(&crosscheck_rows))?;
    }
    if let Some(s) = fig8_stream {
        s.finish(&fig8_json_footer(&fig8_bars))?;
    }
    if let Some(s) = trace_stream {
        s.finish(&trace_json_footer())?;
    }

    Ok(FarmReport {
        fig7_rows,
        harness_rows,
        table2_rows,
        ablation_rows,
        crosscheck_rows,
        fig8_bars,
        fuzz_rows,
        sweep_summaries,
        stats,
        cache: cache.stats(),
        host_cores: spice_farm::resolve_workers(0),
        requested_jobs: manifest.jobs,
        small,
        simulated_cycles,
        sim_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_list_parses_and_rejects() {
        assert_eq!(
            Figure::parse_list("fig7, table2").unwrap(),
            vec![Figure::Fig7, Figure::Table2]
        );
        assert_eq!(
            Figure::parse_list("crosscheck").unwrap(),
            vec![Figure::Crosscheck]
        );
        assert_eq!(
            Figure::parse_list("fig8, fuzz").unwrap(),
            vec![Figure::Fig8, Figure::Fuzz]
        );
        assert_eq!(Figure::parse_list("").unwrap(), Vec::<Figure>::new());
        assert!(Figure::parse_list("fig9").is_err());
    }

    #[test]
    fn farm_json_is_valid_and_carries_the_accounting() {
        let report = FarmReport {
            fig7_rows: Vec::new(),
            harness_rows: Vec::new(),
            table2_rows: Vec::new(),
            ablation_rows: Vec::new(),
            crosscheck_rows: Vec::new(),
            fig8_bars: Vec::new(),
            fuzz_rows: Vec::new(),
            sweep_summaries: Vec::new(),
            stats: FarmStats {
                jobs: 21,
                workers: 4,
                failures: 0,
                total_job_nanos: 8_000_000_000,
                wall_nanos: 2_000_000_000,
                details: vec![spice_farm::JobMetric {
                    id: 0,
                    label: "sweep/ks/spice4".to_string(),
                    host_nanos: 1_000_000,
                    ok: true,
                    events: 42,
                    squashes: 3,
                }],
            },
            cache: CacheStats {
                hits: 3,
                misses: 21,
                build_nanos: 500_000_000,
            },
            host_cores: 8,
            requested_jobs: 0,
            small: false,
            simulated_cycles: 1_000_000,
            sim_nanos: 50_000_000,
        };
        let doc = farm_json(&report);
        crate::json::validate(&doc).unwrap_or_else(|e| panic!("invalid: {e}\n{doc}"));
        assert_eq!(
            crate::json::extract_number(&doc, "parallel_speedup"),
            Some(4.0)
        );
        assert_eq!(crate::json::extract_number(&doc, "cache_hits"), Some(3.0));
        assert_eq!(
            crate::json::extract_number(&doc, "ns_per_simulated_cycle"),
            Some(50.0)
        );
        assert!(doc.contains("\"job_metrics\": [\n"), "{doc}");
        assert!(
            doc.contains("{\"label\": \"sweep/ks/spice4\", \"host_nanos\": 1000000, \"ok\": true, \"events\": 42, \"squashes\": 3}"),
            "{doc}"
        );
    }

    #[test]
    fn labels_sanitize_to_filesystem_safe_names() {
        assert_eq!(sanitize_label("sweep/ks/spice4"), "sweep_ks_spice4");
        assert_eq!(sanitize_label("table2/bh/probe-g3"), "table2_bh_probe-g3");
    }
}
