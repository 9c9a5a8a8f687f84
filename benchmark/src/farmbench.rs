//! The `farm-sweep` workload: `run_manifest` with all seven figures at
//! `jobs: 1`, artifacts written to disk — manifest in, files out.
//!
//! The farm builds its own workload instances (the committed figure cells),
//! so the run's seed selects the mutation-seed range of the `fuzz` figure
//! and nothing else.

use std::path::PathBuf;
use std::time::Instant;

use spice_bench::experiments::{
    all_workload_factories, crosscheck_json, fig7_json, fig8_json, fig8_workload_shape,
    harnessperf_json, prepare_sweep, table2_json, SweepMode, LINE_GRANULARITY_LOG2,
};
use spice_bench::farm_driver::{run_manifest, FarmReport, Figure, Manifest, OutPaths};
use spice_bench::tracefile::{trace_from_json, trace_to_json};
use spice_farm::Job;
use spice_profiler::{analyze_trace, measure_cycle_hotness, record_workload_trace, AnalyzerConfig};
use spice_sim::MachineConfig;
use spice_workloads::fig8_corpus;

use crate::loops::Inputs;
use crate::measure::Spans;
use crate::Outcome;

/// Mutation seeds per pass (the farm binary's default width).
const FUZZ_WIDTH: u64 = 8;
/// Distinct seed ranges: 15 × 8 covers the 120 mutants the trace-fuzzer's
/// own differential test replays, so no fuzz job is expected to diverge.
const FUZZ_RANGES: u64 = 15;

const ARTIFACTS: [&str; 5] = [
    "BENCH_fig7.json",
    "BENCH_table2.json",
    "BENCH_harness.json",
    "BENCH_crosscheck.json",
    "BENCH_fig8.json",
];

pub struct FarmBench {
    quick: bool,
    fuzz_seeds: std::ops::Range<u64>,
    out_dir: PathBuf,
    /// Preparations one `setup` repetition built; every pass's cache must
    /// miss exactly this often, or `setup` no longer mirrors the farm.
    prepared: usize,
}

/// Job-label prefix → span name.
const JOB_SPANS: [(&str, &str); 6] = [
    ("sweep/", "farm.sweep_job"),
    ("table2/", "farm.table2_job"),
    ("ablation/", "farm.ablation_job"),
    ("crosscheck/", "farm.crosscheck_job"),
    ("fig8/", "farm.fig8_job"),
    ("fuzz/", "farm.fuzz_job"),
];

/// What the two extra passes at `jobs: nproc` show (reported, not gated).
pub struct Parallel {
    pub speedup: f64,
    pub worker_idle_share: f64,
    pub job_inflation: f64,
}

impl FarmBench {
    pub fn new(inputs: Inputs, out_dir: PathBuf) -> Self {
        let base = (inputs.seed % FUZZ_RANGES) * FUZZ_WIDTH;
        FarmBench {
            quick: inputs.quick,
            fuzz_seeds: base..base + FUZZ_WIDTH,
            out_dir,
            prepared: 0,
        }
    }

    fn manifest(&self, jobs: usize) -> Manifest {
        Manifest {
            figures: Figure::ALL.to_vec(),
            small: self.quick,
            jobs,
            fuzz_seeds: self.fuzz_seeds.clone(),
        }
    }

    fn outs(&self) -> OutPaths {
        let at = |name: &str| Some(self.out_dir.join(name));
        OutPaths {
            fig7: at(ARTIFACTS[0]),
            table2: at(ARTIFACTS[1]),
            harness: at(ARTIFACTS[2]),
            crosscheck: at(ARTIFACTS[3]),
            fig8: at(ARTIFACTS[4]),
            trace: None,
            failures_dir: at("failures"),
        }
    }

    /// Every pass writes its artifacts into an empty directory.
    fn fresh_out_dir(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.out_dir);
        std::fs::create_dir_all(&self.out_dir)
            .map_err(|e| format!("{}: {e}", self.out_dir.display()))
    }

    /// One repetition of the farm's one-time preparation: every
    /// `prepare_sweep` call its `PreparedCache` makes (the sweep matrix plus
    /// the line-granularity Table 2 probes), made directly.
    pub fn setup(&mut self) -> Result<(f64, f64), String> {
        let started = Instant::now();
        let mut prepared = 0;
        for (_, factory) in all_workload_factories(self.quick) {
            for mode in SweepMode::ALL {
                prepare_sweep(&factory, mode, self.quick, 0)?;
                prepared += 1;
            }
            if factory().conflict_policy().detects() {
                // The word-granularity probe shares the sweep's preparation.
                let four = SweepMode::Spice { threads: 4 };
                prepare_sweep(&factory, four, self.quick, LINE_GRANULARITY_LOG2)?;
                prepared += 1;
            }
        }
        self.prepared = prepared;
        let seconds = started.elapsed().as_secs_f64();
        Ok((seconds, seconds))
    }

    /// The untimed warm-up: the reduced-size manifest touches the same code
    /// at a tenth of the cost of a full pass.
    pub fn warm_up(&self) -> Result<(), String> {
        let manifest = Manifest {
            small: true,
            ..self.manifest(1)
        };
        self.fresh_out_dir()?;
        run_manifest(&manifest, &self.outs()).map(|_| ())
    }

    /// One production pass. The artifact checks run after the clock stops.
    pub fn pass(&self) -> (Outcome, Option<FarmReport>) {
        self.pass_with(1, None)
    }

    pub fn traced_pass(&self, spans: &mut Spans) -> (Outcome, Option<FarmReport>) {
        self.pass_with(1, Some(spans))
    }

    fn pass_with(&self, jobs: usize, spans: Option<&mut Spans>) -> (Outcome, Option<FarmReport>) {
        let mut out = Outcome::default();
        let manifest = self.manifest(jobs);
        let outs = self.outs();
        if let Err(e) = self.fresh_out_dir() {
            out.errors.push(e);
        }
        let result = match spans {
            None => {
                let started = Instant::now();
                let result = run_manifest(&manifest, &outs);
                out.seconds = started.elapsed().as_secs_f64();
                result
            }
            Some(spans) => {
                spans.enter("pass");
                spans.enter("farm.run_manifest");
                let result = run_manifest(&manifest, &outs);
                // With one worker the jobs ran back to back, so each job's
                // own host time is laid out from the start of the call;
                // what remains is the pool, the sinks and artifact I/O.
                if let Ok(report) = &result {
                    let mut at = spans.open_start_ns();
                    for job in &report.stats.details {
                        let nanos = u64::try_from(job.host_nanos).unwrap_or(u64::MAX);
                        if let Some((_, name)) =
                            JOB_SPANS.iter().find(|(p, _)| job.label.starts_with(p))
                        {
                            spans.record(name, at, nanos);
                        }
                        at += nanos;
                    }
                }
                let _ = spans.exit();
                out.seconds = spans.exit();
                result
            }
        };
        match result {
            Ok(report) => {
                out.attempted = report.stats.jobs as u64;
                out.failed = report.stats.failures as u64;
                out.cycles = report
                    .harness_rows
                    .iter()
                    .map(|r| r.simulated_cycles)
                    .collect();
                self.check(&report, &mut out);
                (out, Some(report))
            }
            // `run_manifest` reports only the first failed job; the pass
            // is aborted, so all of its operations count as failed.
            Err(e) => {
                out.attempted = 1;
                out.failed = 1;
                out.errors.push(e);
                (out, None)
            }
        }
    }

    fn check(&self, report: &FarmReport, out: &mut Outcome) {
        for name in ARTIFACTS {
            let path = self.out_dir.join(name);
            let verdict = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|doc| spice_bench::json::validate(&doc));
            if let Err(e) = verdict {
                out.errors.push(format!("{}: {e}", path.display()));
            }
        }
        if report.cache.misses != self.prepared {
            out.errors.push(format!(
                "the farm prepared {} programs but setup_s times {}",
                report.cache.misses, self.prepared
            ));
        }
    }

    /// `(benchmark, mode label, simulated cycles)` of the pass's harness
    /// rows, for the check against the committed artifact.
    pub fn harness_cells(report: &FarmReport) -> Vec<(String, String, u64)> {
        report
            .harness_rows
            .iter()
            .map(|r| (r.benchmark.clone(), r.mode.clone(), r.simulated_cycles))
            .collect()
    }

    /// Two passes at `jobs: nproc`, against `serial` (a `jobs: 1` report).
    pub fn parallel(&self, serial: &FarmReport) -> Result<Parallel, String> {
        let jobs = spice_farm::resolve_workers(0);
        let mut best: Option<FarmReport> = None;
        for _ in 0..2 {
            let (out, report) = self.pass_with(jobs, None);
            let report = report.ok_or_else(|| out.errors.join("; "))?;
            if best
                .as_ref()
                .is_none_or(|b| report.stats.wall_nanos < b.stats.wall_nanos)
            {
                best = Some(report);
            }
        }
        let par = best.expect("two passes ran");
        let busy = par.stats.total_job_nanos as f64;
        Ok(Parallel {
            speedup: serial.stats.wall_nanos as f64 / par.stats.wall_nanos as f64,
            worker_idle_share: 1.0
                - busy / (par.stats.workers as f64 * par.stats.wall_nanos as f64),
            job_inflation: busy / serial.stats.total_job_nanos as f64,
        })
    }

    /// Calls into the layers `run_manifest` hides, on the inputs its jobs
    /// use, each under its own span of one extra pass. Returns the bytes
    /// the emitters produced.
    pub fn probes(&self, report: &FarmReport, spans: &mut Spans) -> Result<u64, String> {
        spans.enter("pass");
        let (invocations, list_len) = fig8_workload_shape(self.quick);
        for bench in fig8_corpus() {
            for mut wl in bench.workloads(invocations, list_len) {
                let trace = spans
                    .time("profiler.record_trace", || {
                        record_workload_trace(&mut wl, None)
                    })
                    .map_err(|e| format!("{}: recording failed: {e}", bench.name))?;
                let verdict = spans.time("profiler.analyze_trace", || {
                    analyze_trace(&trace, AnalyzerConfig::default())
                });
                if verdict.is_none() {
                    return Err(format!("{}: recorded trace has no events", bench.name));
                }
                let back = spans.time("bench.tracefile_roundtrip", || {
                    trace_from_json(&trace_to_json(&trace))
                });
                if back.as_ref() != Ok(&trace) {
                    return Err(format!("{}: trace file does not round-trip", bench.name));
                }
            }
        }
        let machine = if self.quick {
            MachineConfig::test_tiny(1)
        } else {
            MachineConfig::itanium2_cmp()
        };
        for (_, factory) in all_workload_factories(self.quick) {
            let mut wl = factory();
            spans.time("profiler.cycle_hotness", || {
                measure_cycle_hotness(wl.as_mut(), machine.clone())
            })?;
        }
        let small = self.quick;
        let bytes = spans.time("bench.emit", || {
            let docs = [
                fig7_json(&report.fig7_rows, small),
                harnessperf_json(&report.harness_rows, small),
                table2_json(&report.table2_rows, small),
                fig8_json(&report.fig8_bars, small),
                crosscheck_json(&report.crosscheck_rows),
            ];
            docs.iter()
                .map(|d| spice_bench::json::parse(d).map(|_| d.len() as u64))
                .sum::<Result<u64, String>>()
        })?;
        let _ = spans.exit();
        Ok(bytes)
    }
}

/// Host nanoseconds the pool spends per job when the jobs do nothing.
pub fn pool_ns_per_job() -> f64 {
    const JOBS: u64 = 10_000;
    let jobs: Vec<Job<()>> = (0..JOBS)
        .map(|id| Job::new(id, String::new(), || Ok(())))
        .collect();
    let stats = spice_farm::run_jobs(jobs, 1, |_| {});
    stats.wall_nanos as f64 / JOBS as f64
}
