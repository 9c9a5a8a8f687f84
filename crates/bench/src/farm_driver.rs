//! The simulation farm: bench experiments as jobs on the `spice-farm`
//! engine (one queue, claimed and delivered in job-id order).
//!
//! [`run_manifest`] is the one place a figure's jobs are enumerated (and the
//! `farm` binary the one CLI over it). It turns a [`Manifest`] (which
//! figures, which size, how many workers) into a deterministic job list:
//!
//! * one **cell job** per distinct simulation cell `(benchmark, mode,
//!   conflict granularity)` that any requested figure reads, run once and
//!   routed to every figure reading it. Figure 7 and the harness read the
//!   sequential, 2-thread and 4-thread Spice cells at word granularity;
//!   Table 2 reads a conflict-detecting benchmark's 4-thread cell at word
//!   granularity (Figure 7's own 4-thread run) and at line granularity.
//!   Requesting several of these figures costs no extra simulation;
//! * one **hotness job** per benchmark for Table 2, after that benchmark's
//!   cells — its attributed sequential run carries observer cost, so it
//!   stays apart from the sequential cell whose host time the harness
//!   reports;
//! * one job per **ablation variant**, per **cross-check** workload, per
//!   **Figure 8** corpus benchmark and per **fuzz** seed.
//!
//! Each cell's preparation (IR build → analysis → transform → decode →
//! image) is built in a [`PreparedCache`] keyed by
//! [`sweep_prep_key`](crate::experiments::sweep_prep_key); since no two
//! jobs simulate the same cell, the cache misses once per cell and never
//! hits, and its accounting is the farm's preparation cost.
//!
//! Artifacts stream: each JSON row is appended to the output file the
//! moment its job retires, and because the engine delivers results in job
//! id order — never completion order — the bytes are identical at
//! `--jobs 1` and `--jobs N`, and identical to what
//! [`rows_json`](crate::experiments::rows_json) composes from the returned
//! rows (one [`FigureRows`] impl per row type feeds both). Aggregates that
//! need every row (geomeans, totals) live in the footers.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spice_farm::{CacheStats, FarmStats, Job, PreparedCache};
use spice_ir::exec::ExecutionBackend;
use spice_ir::trace::DEFAULT_TRACE_CAPACITY;
use spice_ir::TraceEvent;
use spice_workloads::trace::{fuzz_trace, WorkloadTrace};
use spice_workloads::{all_workload_factories, fig8_corpus, BackendRunSummary, WorkloadFactory};

use crate::experiments::{
    ablation_variant_row, ablation_variants, capture_crosscheck_divergence, capture_sweep_failure,
    crosscheck_workload, drive_prepared_sweep, failure_capture_json, fig7_row_from_sweep, fig8_bar,
    format_ablation, fuzz_config_for_seed, fuzz_differential, harness_row_from_sweep,
    prepare_sweep, record_driver_trace, recorded_events, sweep_prep_key, table2_hotness_row,
    AblationRow, CrosscheckRow, Fig7Row, Fig8Bar, FigureRows, FuzzRow, HarnessPerfRow, SweepMode,
    SweepPrep, SweepRun, Table2Row, CROSSCHECK_THREADS, LINE_GRANULARITY_LOG2, REPLAY_THREADS,
};
use crate::trace_json::{trace_job_json, trace_json_footer, trace_json_header};
use crate::tracefile::trace_to_json;

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

    /// `(manifest name, artifact file name)` — the one table that names a
    /// figure on the command line and on disk. Ablation is text-only and
    /// the fuzz sweep lives in the report, so neither has an artifact.
    const fn spec(self) -> (&'static str, Option<&'static str>) {
        match self {
            Figure::Fig7 => ("fig7", Some("BENCH_fig7.json")),
            Figure::Table2 => ("table2", Some("BENCH_table2.json")),
            Figure::Ablation => ("ablation", None),
            Figure::Harness => ("harness", Some("BENCH_harness.json")),
            Figure::Crosscheck => ("crosscheck", Some("BENCH_crosscheck.json")),
            Figure::Fig8 => ("fig8", Some("BENCH_fig8.json")),
            Figure::Fuzz => ("fuzz", None),
        }
    }

    /// The manifest name of this figure (`farm --figures <name>`).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// File name of the JSON artifact this figure streams, if it has one.
    #[must_use]
    pub fn artifact(self) -> Option<&'static str> {
        self.spec().1
    }

    /// Parses a comma-separated figure list (e.g. `"fig7,table2"`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown figure and listing every known
    /// one.
    pub fn parse_list(s: &str) -> Result<Vec<Figure>, String> {
        s.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| {
                Figure::ALL
                    .into_iter()
                    .find(|f| f.name() == p)
                    .ok_or_else(|| {
                        let known: Vec<&str> = Figure::ALL.iter().map(|f| f.name()).collect();
                        format!("unknown figure {p:?} (expected {})", known.join(", "))
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

impl OutPaths {
    /// Points `figure`'s artifact at `<dir>/<its artifact file name>`; a
    /// no-op for figures without an artifact.
    pub fn set_artifact_dir(&mut self, figure: Figure, dir: &Path) {
        let slot = match figure {
            Figure::Fig7 => &mut self.fig7,
            Figure::Table2 => &mut self.table2,
            Figure::Harness => &mut self.harness,
            Figure::Crosscheck => &mut self.crosscheck,
            Figure::Fig8 => &mut self.fig8,
            Figure::Ablation | Figure::Fuzz => return,
        };
        *slot = figure.artifact().map(|name| dir.join(name));
    }
}

/// Everything a farm run produced: the per-figure rows plus the engine's
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
    /// Per-cell backend summaries `(job label, summary)`, sequential cells
    /// included — the determinism test compares these across worker
    /// counts.
    pub cell_summaries: Vec<(String, BackendRunSummary)>,
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
    /// Simulated cycles summed over the Figure 7 / harness cells.
    pub simulated_cycles: u64,
    /// Simulate-only host nanoseconds summed over the Figure 7 / harness
    /// cells.
    pub sim_nanos: u128,
}

impl FarmReport {
    /// The text rendering of `figure`'s rows, as the `farm` binary prints
    /// it.
    #[must_use]
    pub fn table(&self, figure: Figure) -> String {
        match figure {
            Figure::Fig7 => Fig7Row::table(&self.fig7_rows),
            Figure::Table2 => Table2Row::table(&self.table2_rows),
            Figure::Ablation => format_ablation(&self.ablation_rows),
            Figure::Harness => HarnessPerfRow::table(&self.harness_rows),
            Figure::Crosscheck => CrosscheckRow::table(&self.crosscheck_rows),
            Figure::Fig8 => Fig8Bar::table(&self.fig8_bars),
            Figure::Fuzz => format!(
                "fuzz: {} mutants replayed bit-identically on sim, native and sequential \
                 execution ({} carrying dependence-inducing writes)\n",
                self.fuzz_rows.len(),
                self.fuzz_rows.iter().filter(|r| r.has_writes).count()
            ),
        }
    }

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

    /// Host nanoseconds per simulated cycle over the Figure 7 / harness
    /// cells (dispatch only — preparation time is cached and excluded):
    /// the size-independent rate `BENCH_farm.json` records.
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
/// overall dispatch rate.
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
    Cell {
        bench: String,
        mode: SweepMode,
        granularity_log2: u8,
        /// Table 2 reads this cell's dependence violations.
        probed: bool,
        build_nanos: u128,
        run: Box<SweepRun>,
        /// Recorded trace events (empty unless `--trace-out` was requested).
        trace: Vec<TraceEvent>,
    },
    Hotness(Box<Table2Row>),
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

/// Persists a failed job's forensics as `<dir>/FAILED_<label>.json` and
/// returns `error` annotated with where they landed (`what` names the
/// document: `"forensics"`, `"trace"`). `doc` renders the document from
/// the error and runs only when there is a directory to write to — the
/// capture behind it is a traced re-run. Artifacts are per-job files, so
/// concurrent failing jobs never interleave writes.
fn persist_failure(
    dir: Option<&Path>,
    label: &str,
    what: &str,
    error: String,
    doc: impl FnOnce(&str) -> String,
) -> String {
    let Some(dir) = dir else {
        return error;
    };
    let written = (|| {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("FAILED_{}.json", sanitize_label(label)));
        let doc = doc(&error);
        crate::json::validate(&doc).map_err(|e| format!("failure artifact invalid: {e}"))?;
        std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok::<PathBuf, String>(path)
    })();
    match written {
        Ok(path) => format!("{error} ({what}: {})", path.display()),
        Err(e) => format!("{error} ({what} capture failed: {e})"),
    }
}

/// One simulation cell as a job body: the preparation comes from the
/// cache, a failed run leaves a traced, snapshotted deterministic re-run
/// behind as a retryable artifact. Every simulated figure row — Figure 7,
/// harness, Table 2's violation columns — is read off one of these.
struct Cell {
    factory: Arc<WorkloadFactory>,
    cache: Arc<PreparedCache<SweepPrep>>,
    bench: String,
    mode: SweepMode,
    small: bool,
    granularity_log2: u8,
    label: String,
    failures_dir: Option<PathBuf>,
}

impl Cell {
    /// Runs the cell. Tracing is observational (the run's numbers are those
    /// of an untraced run) and the simulator single-threaded, so the
    /// recorded events are deterministic.
    fn run(&self, tracing: bool) -> Result<(Arc<SweepPrep>, SweepRun, Vec<TraceEvent>), String> {
        let (mode, small, granularity_log2) = (self.mode, self.small, self.granularity_log2);
        let key = sweep_prep_key(&self.bench, mode, small, granularity_log2);
        let prep = self.cache.try_get_or_build(&key, || {
            prepare_sweep(&self.factory, mode, small, granularity_log2)
        })?;
        let (backend, run) = drive_prepared_sweep(&self.factory, &prep, |b| {
            if tracing {
                b.enable_trace(DEFAULT_TRACE_CAPACITY);
            }
        });
        let run = run.map_err(|e| {
            persist_failure(
                self.failures_dir.as_deref(),
                &self.label,
                "forensics",
                e,
                |e| {
                    failure_capture_json(&capture_sweep_failure(
                        &self.factory,
                        &prep,
                        &self.label,
                        e,
                    ))
                },
            )
        })?;
        Ok((prep, run, recorded_events(&backend)))
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

/// Where one figure's rows go as their jobs retire: appended to the
/// streamed artifact (when the manifest wants the figure and a destination
/// is set) and kept for the report.
struct RowSink<R: FigureRows> {
    stream: Option<RowStream>,
    rows: Vec<R>,
}

impl<R: FigureRows> RowSink<R> {
    fn open(manifest: &Manifest, path: Option<&Path>) -> Result<Self, String> {
        let stream = match path {
            Some(path) if manifest.wants(R::FIGURE) => {
                Some(RowStream::create(path, &R::header(manifest.small))?)
            }
            _ => None,
        };
        Ok(RowSink {
            stream,
            rows: Vec::new(),
        })
    }

    fn push(&mut self, row: R) -> Result<(), String> {
        if let Some(s) = &mut self.stream {
            s.push_row(&row.row())?;
        }
        self.rows.push(row);
        Ok(())
    }

    fn finish(self) -> Result<Vec<R>, String> {
        if let Some(s) = self.stream {
            s.finish(&R::footer(&self.rows))?;
        }
        Ok(self.rows)
    }
}

/// The mode of the run Table 2's conflict-precision columns count
/// dependence violations in.
const PROBE_MODE: SweepMode = SweepMode::Spice { threads: 4 };

/// The simulation cells `(mode, conflict granularity)` of one benchmark
/// that the requested figures read, each once, in job order: the `sweep`
/// (Figure 7 and harness) reads every mode at word granularity, and Table
/// 2 reads a `probed` (conflict-detecting) benchmark's [`PROBE_MODE`] run
/// at word and at line granularity — the word-granular one is the sweep's.
fn cells_read(sweep: bool, probed: bool) -> Vec<(SweepMode, u8)> {
    let mut cells: Vec<(SweepMode, u8)> = SweepMode::ALL
        .into_iter()
        .filter(|&mode| sweep || (probed && mode == PROBE_MODE))
        .map(|mode| (mode, 0))
        .collect();
    if probed {
        cells.push((PROBE_MODE, LINE_GRANULARITY_LOG2));
    }
    cells
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
    let shared = |small: bool| -> Vec<(&'static str, Arc<WorkloadFactory>)> {
        all_workload_factories(small)
            .into_iter()
            .map(|(name, factory)| (name, Arc::new(factory)))
            .collect()
    };
    let factories = shared(small);
    let cache: Arc<PreparedCache<SweepPrep>> = Arc::new(PreparedCache::new());

    // --- Deterministic job enumeration -----------------------------------
    // Ids fix the artifact row order: benchmark-major, each benchmark's
    // cells in `cells_read` order and then its Table 2 hotness job; then
    // ablation variants. The sink relies on this: a benchmark's sequential
    // cell precedes its Spice cells, and its cells precede its hotness row.
    let sweep_wanted = manifest.wants(Figure::Fig7) || manifest.wants(Figure::Harness);
    let table2_wanted = manifest.wants(Figure::Table2);
    // Only the Figure 7 / harness cells are traced: they are the rows of
    // the trace artifact.
    let tracing = outs.trace.is_some() && sweep_wanted;
    let mut jobs: Vec<Job<Payload>> = Vec::new();

    for (bench, factory) in &factories {
        let probed = table2_wanted && factory().conflict_policy().detects();
        for (mode, granularity_log2) in cells_read(sweep_wanted, probed) {
            // A word-granular cell is a cell of the Figure 7 / harness
            // sweep matrix, whichever figures read it; only Table 2 reads
            // the line-granular one.
            let label = if granularity_log2 == 0 {
                format!("sweep/{bench}/{}", mode.label())
            } else {
                format!("table2/{bench}/probe-g{granularity_log2}")
            };
            let cell = Cell {
                factory: Arc::clone(factory),
                cache: Arc::clone(&cache),
                bench: bench.to_string(),
                mode,
                small,
                granularity_log2,
                label: label.clone(),
                failures_dir: outs.failures_dir.clone(),
            };
            jobs.push(Job::new(jobs.len() as u64, label, move || {
                let (prep, run, trace) = cell.run(tracing && granularity_log2 == 0)?;
                Ok(Payload::Cell {
                    bench: cell.bench,
                    mode,
                    granularity_log2,
                    probed: probed && mode == PROBE_MODE,
                    build_nanos: prep.build_nanos,
                    run: Box::new(run),
                    trace,
                })
            }));
        }
        if table2_wanted {
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
    }

    if manifest.wants(Figure::Ablation) {
        for (variant, (name, opts)) in ablation_variants().into_iter().enumerate() {
            let label = format!("ablation/{variant}");
            jobs.push(Job::new(jobs.len() as u64, label, move || {
                ablation_variant_row(small, name, opts).map(|row| Payload::Ablation(Box::new(row)))
            }));
        }
    }

    if manifest.wants(Figure::Crosscheck) {
        // Cross-check always runs the small/tiny configurations regardless
        // of `manifest.small` — the comparison is about backend agreement,
        // not workload scale. A divergence (results or invocation counts
        // differ) fails the job, with both backends' traces as forensics.
        for (bench, factory) in shared(true) {
            let label = format!("crosscheck/{bench}");
            let failures_dir = outs.failures_dir.clone();
            jobs.push(Job::new(jobs.len() as u64, label.clone(), move || {
                let row = crosscheck_workload(bench, &factory, CROSSCHECK_THREADS)?;
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
                Err(persist_failure(
                    failures_dir.as_deref(),
                    &label,
                    "forensics",
                    error,
                    |error| {
                        failure_capture_json(&capture_crosscheck_divergence(
                            &factory,
                            CROSSCHECK_THREADS,
                            &label,
                            error,
                        ))
                    },
                ))
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
        let fuzz_factories = shared(true);
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
                // The divergence description plus the full trace-file
                // document, so the exact scenario replays offline with no
                // recording step.
                Err(persist_failure(
                    failures_dir.as_deref(),
                    &label,
                    "trace",
                    error,
                    |error| {
                        format!(
                            "{{\n  \"label\": {},\n  \"error\": {},\n  \"trace\": {}}}\n",
                            crate::json::string(&label),
                            crate::json::string(error),
                            // The embedded document ends in "}\n"; trim to
                            // nest it cleanly.
                            trace_to_json(&mutant).trim_end()
                        )
                    },
                ))
            }));
        }
    }

    // --- Streaming sinks --------------------------------------------------
    let mut fig7 = RowSink::<Fig7Row>::open(manifest, outs.fig7.as_deref())?;
    let mut harness = RowSink::<HarnessPerfRow>::open(manifest, outs.harness.as_deref())?;
    let mut table2 = RowSink::<Table2Row>::open(manifest, outs.table2.as_deref())?;
    let mut crosscheck = RowSink::<CrosscheckRow>::open(manifest, outs.crosscheck.as_deref())?;
    let mut fig8 = RowSink::<Fig8Bar>::open(manifest, outs.fig8.as_deref())?;
    // Only the Figure 7 / harness cells contribute trace rows: the
    // simulator is single-threaded and deterministic, so the artifact
    // byte-diffs across `--jobs` widths. Native (cross-check) traces are deterministic in
    // validate/commit order but not in content for racy workloads, so they
    // stay out of this artifact and are only persisted by failure capture.
    // Trace rows are streamed and dropped, never kept: they are the bulk of
    // a run's output.
    let mut trace_stream = match &outs.trace {
        Some(path) if tracing => Some(RowStream::create(path, &trace_json_header(small))?),
        _ => None,
    };

    let mut ablation_rows: Vec<AblationRow> = Vec::new();
    let mut fuzz_rows: Vec<FuzzRow> = Vec::new();
    let mut cell_summaries: Vec<(String, BackendRunSummary)> = Vec::new();
    let mut job_observability: HashMap<u64, (u64, u64)> = HashMap::new();
    // Results arrive strictly in id order, so the latest sequential cycles
    // and `(word, line)` violation counts are those of the benchmark whose
    // Spice cells / hotness row are arriving.
    let mut sequential_cycles = 0u64;
    let mut probe_violations: (Option<usize>, Option<usize>) = (None, None);
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
                Payload::Cell {
                    bench,
                    mode,
                    granularity_log2,
                    probed,
                    build_nanos,
                    run,
                    trace,
                } => {
                    let summary = run.summary.as_ref();
                    let squashes = summary.map_or(0, |s| s.squashed_chunks as u64);
                    job_observability.insert(result.id, (trace.len() as u64, squashes));
                    if let Some(summary) = summary {
                        cell_summaries.push((result.label.clone(), summary.clone()));
                    }
                    if probed {
                        let violations = Some(summary.map_or(0, |s| s.dependence_violations));
                        if granularity_log2 == 0 {
                            probe_violations.0 = violations;
                        } else {
                            probe_violations.1 = violations;
                        }
                    }
                    // The rest is for the Figure 7 / harness cells only.
                    if !sweep_wanted || granularity_log2 != 0 {
                        return Ok(());
                    }
                    simulated_cycles = simulated_cycles.saturating_add(run.cycles);
                    sim_nanos += run.sim_nanos;
                    if let Some(s) = &mut trace_stream {
                        s.push_row(&trace_job_json(&result.label, &trace))?;
                    }
                    if harness_wanted {
                        harness.push(harness_row_from_sweep(&bench, mode, build_nanos, &run))?;
                    }
                    match mode {
                        SweepMode::Sequential => sequential_cycles = run.cycles,
                        SweepMode::Spice { threads } => {
                            if fig7_wanted {
                                fig7.push(fig7_row_from_sweep(
                                    &bench,
                                    threads,
                                    sequential_cycles,
                                    &run,
                                ))?;
                            }
                        }
                    }
                }
                // A benchmark's cells precede its hotness row, so the row
                // is complete the moment it arrives.
                Payload::Hotness(row) => {
                    let (word_violations, line_violations) = std::mem::take(&mut probe_violations);
                    table2.push(Table2Row {
                        word_violations,
                        line_violations,
                        ..*row
                    })?;
                }
                Payload::Ablation(row) => ablation_rows.push(*row),
                Payload::Crosscheck(row) => {
                    let squashes = (row.sim.squashed_chunks + row.native.squashed_chunks) as u64;
                    job_observability.insert(result.id, (0, squashes));
                    crosscheck.push(*row)?;
                }
                Payload::Fig8(bar) => fig8.push(*bar)?,
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
    let fig7_rows = fig7.finish()?;
    let harness_rows = harness.finish()?;
    let table2_rows = table2.finish()?;
    let crosscheck_rows = crosscheck.finish()?;
    let fig8_bars = fig8.finish()?;
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
        cell_summaries,
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

    /// A figure is named once: every figure has its own manifest name and
    /// (where it has one) its own artifact file, and the parse error lists
    /// exactly the names `Figure::ALL` defines.
    #[test]
    fn figures_have_distinct_names_and_artifacts() {
        let names: Vec<&str> = Figure::ALL.iter().map(|f| f.name()).collect();
        let artifacts: Vec<&str> = Figure::ALL.iter().filter_map(|f| f.artifact()).collect();
        for list in [&names, &artifacts] {
            let unique: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len(), "duplicate in {list:?}");
        }
        assert_eq!(
            artifacts.len(),
            5,
            "fig7, table2, harness, crosscheck, fig8"
        );
        let error = Figure::parse_list("fig7,fig9").unwrap_err();
        assert!(error.contains("\"fig9\""), "{error}");
        for name in names {
            assert!(error.contains(name), "{error} does not name {name}");
        }
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
            cell_summaries: Vec::new(),
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
