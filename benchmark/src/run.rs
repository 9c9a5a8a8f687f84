//! One measured run of one workload: set-up repetitions, an untimed warm-up
//! pass, identical passes for the requested time, the output checks, and
//! the result object on the last line of stdout.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spice_bench::farm_driver::FarmReport;

use crate::defs::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::farmbench::{pool_ns_per_job, FarmBench};
use crate::loopbench::{Counts, LoopBench, Mode};
use crate::loops::Inputs;
use crate::measure::{
    peak_rss_mb, start_memory_pass, steady, summarize, Calibration, Spans, Timed,
    CALIBRATION_NOMINAL_S,
};
use crate::{arg_value, parsed, Outcome, Returns};

/// Repetitions of the one-time preparation; `setup_s` is their calibrated
/// low decile.
const SETUP_REPS: usize = 20;
/// Where span files and the farm's artifacts go (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

enum Bench {
    Loops(LoopBench),
    Farm(FarmBench),
}

impl Bench {
    fn setup(&mut self) -> Result<(f64, f64), String> {
        match self {
            Bench::Loops(b) => b.setup(),
            Bench::Farm(b) => b.setup(),
        }
    }

    fn warm_up(&self) -> Outcome {
        match self {
            Bench::Loops(b) => b.pass(),
            Bench::Farm(b) => Outcome {
                errors: b.warm_up().err().into_iter().collect(),
                ..Outcome::default()
            },
        }
    }

    fn pass(&self) -> (Outcome, Option<FarmReport>) {
        match self {
            Bench::Loops(b) => (b.pass(), None),
            Bench::Farm(b) => b.pass(),
        }
    }

    fn traced_pass(&self, spans: &mut Spans, counts: &mut Counts) -> (Outcome, Option<FarmReport>) {
        match self {
            Bench::Loops(b) => (b.traced_pass(spans, counts), None),
            Bench::Farm(b) => b.traced_pass(spans),
        }
    }
}

/// Everything a run accumulates besides timings.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first pass's simulated result; every later pass, traced or not,
    /// must reproduce it.
    reference: Option<(Vec<u64>, Returns)>,
}

impl Ledger {
    fn error(&mut self, e: String) {
        // One line per distinct problem is enough to act on.
        if self.errors.len() < 8 && !self.errors.contains(&e) {
            self.errors.push(e);
        }
    }

    fn record(&mut self, what: &str, out: Outcome) -> f64 {
        self.attempted += out.attempted;
        self.failed += out.failed;
        for e in out.errors {
            self.error(format!("{what}: {e}"));
        }
        if out.failed == 0 {
            match &self.reference {
                None => self.reference = Some((out.cycles, out.returns)),
                Some((cycles, returns)) => {
                    let same_returns = returns
                        .iter()
                        .zip(&out.returns)
                        .all(|(a, b)| a.is_none() || b.is_none() || a == b);
                    if *cycles != out.cycles || !same_returns {
                        self.error(format!(
                            "{what}: simulated cycles or return values differ from the first pass"
                        ));
                    }
                }
            }
        }
        out.seconds
    }
}

/// Calibration runs per burst, and one burst's worth more per this many
/// seconds of pass, so a long pass has as much calibration beside it as many
/// short ones.
const BURST: usize = 3;
const BURST_EVERY_S: f64 = 0.5;

/// Runs passes until `seconds` have gone by, at least `min` of them, with a
/// calibration burst before each and after the last.
fn timed_passes(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut() -> (Outcome, Option<FarmReport>),
    calibration: &Calibration,
    ledger: &mut Ledger,
    what: &str,
) -> (Timed, Vec<FarmReport>) {
    let started = Instant::now();
    let mut timed = Timed::default();
    let mut reports = Vec::new();
    let mut burst = BURST;
    timed.bursts.push(calibration.burst(burst));
    while timed.seconds.len() < min || started.elapsed().as_secs_f64() < seconds {
        let (out, report) = pass();
        let pass_seconds = ledger.record(what, out);
        burst = BURST * ((pass_seconds / BURST_EVERY_S) as usize).max(1);
        timed.seconds.push(pass_seconds);
        timed.bursts.push(calibration.burst(burst));
        reports.extend(report);
    }
    (timed, reports)
}

fn print_timing(name: &str, unit: &str, scale: f64, timed: &Timed) {
    let s = summarize(&timed.seconds);
    let p75 = if s.n >= 40 {
        format!(" p75 {:.4}", s.p75 * scale)
    } else {
        String::new()
    };
    println!(
        "{name} {:.4} {unit} calibrated (wall p10 {:.4} over {} passes; p50 {:.4}{p75}; \
         calibration p10 {:.3} ms, nominal {:.0} ms)",
        timed.steady() * scale,
        s.p10 * scale,
        s.n,
        s.p50 * scale,
        steady(&timed.bursts) * 1e3,
        CALIBRATION_NOMINAL_S * 1e3
    );
}

pub fn run_one(args: &[String]) -> Result<bool, String> {
    let workload = arg_value(args, "--workload").expect("checked by main");
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            names.join(", ")
        ));
    }
    let inputs = Inputs {
        seed: parsed(args, "--seed", 0u64)?,
        quick: args.iter().any(|a| a == "--quick"),
        inject_fault: args.iter().any(|a| a == "--inject-fault"),
    };
    let seconds: f64 = parsed(args, "--seconds", crate::defs::RUN_SECONDS as f64)?;
    let trace = parsed(args, "--trace", 0u8)? != 0;
    // `--quick` is the two-pass smoke the package's own test runs.
    let (seconds, min_passes, setup_reps) = if inputs.quick {
        (0.0, 2, 3)
    } else {
        (seconds, 3, SETUP_REPS)
    };

    let profile = crate::host::check_release_profile()?;
    println!("host {}", crate::host::fingerprint_json(&profile));
    println!(
        "workload {workload} seed {} seconds {seconds} trace {}",
        inputs.seed,
        u8::from(trace)
    );

    let farm_dir = PathBuf::from(OUT_DIR).join(format!("farm-{}", std::process::id()));
    let mut bench = match LoopBench::new(workload, inputs) {
        Some(b) => Bench::Loops(b),
        None => Bench::Farm(FarmBench::new(inputs, farm_dir.clone())),
    };
    let mut ledger = Ledger::default();
    let calibration = Calibration::new();

    let mut setup = Timed::default();
    let mut setup_layer = Timed::default();
    setup.bursts.push(calibration.burst(BURST));
    for _ in 0..setup_reps {
        let (total, layer) = bench.setup()?;
        setup.seconds.push(total);
        setup_layer.seconds.push(layer);
        setup.bursts.push(calibration.burst(BURST));
    }
    setup_layer.bursts.clone_from(&setup.bursts);
    let warm_up = bench.warm_up();
    for e in warm_up.errors {
        ledger.error(format!("warm-up: {e}"));
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !trace {
        let (passes, reports) = timed_passes(
            seconds,
            min_passes,
            || bench.pass(),
            &calibration,
            &mut ledger,
            "pass",
        );
        check_committed(&bench, inputs, &reports, &mut ledger);
        print_timing("setup_s", "s", 1.0, &setup);
        print_timing("pass_ms", "ms", 1e3, &passes);
        metrics.insert("setup_s", setup.steady());
        metrics.insert("pass_ms", passes.steady() * 1e3);
        // Memory is measured on one more pass of its own, untimed.
        start_memory_pass();
        let (out, _) = bench.pass();
        ledger.record("memory pass", out);
        metrics.insert("peak_rss_mb", peak_rss_mb());
    } else {
        for m in &PER_LAYER {
            metrics.insert(m.name, 0.0);
        }
        let (untraced, _) = timed_passes(
            seconds / 3.0,
            2,
            || bench.pass(),
            &calibration,
            &mut ledger,
            "untraced pass",
        );
        let mut spans = Spans::new();
        let mut counts = Counts::default();
        let (traced, reports) = timed_passes(
            seconds * 2.0 / 3.0,
            2,
            || {
                let r = bench.traced_pass(&mut spans, &mut counts);
                spans.pass += 1;
                r
            },
            &calibration,
            &mut ledger,
            "traced pass",
        );
        check_committed(&bench, inputs, &reports, &mut ledger);
        metrics.insert("bench.pass_wall_ms", steady(&untraced.seconds) * 1e3);
        metrics.insert("bench.calibration_ms", steady(&untraced.bursts) * 1e3);
        let layer_ms = setup_layer.steady() * 1e3;
        // The farm's probes add spans, and the loops' rates divide span self
        // times, so the span metrics sit between the two.
        if let Bench::Farm(b) = &bench {
            farm_metrics(b, &reports, &traced, &mut spans, &mut metrics, &mut ledger);
            metrics.insert("core.prepare_ms", layer_ms);
        }
        span_metrics(&spans, &untraced, &traced, &mut metrics);
        let mut cells = Vec::new();
        if let Bench::Loops(b) = &bench {
            layer_metrics(b, &counts, &untraced, &traced, &mut metrics, &mut ledger);
            let native = b.cells.iter().any(|c| c.mode == Mode::Native);
            let layer = if native {
                "runtime.load_ms"
            } else {
                "core.prepare_ms"
            };
            metrics.insert(layer, layer_ms);
            cells = b.cell_labels();
        }
        let path =
            PathBuf::from(OUT_DIR).join(format!("spans-{workload}-seed{}.json", inputs.seed));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json(workload, inputs.seed, &cells)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} ({} spans)", path.display(), spans.spans.len());
    }
    let _ = std::fs::remove_dir_all(&farm_dir);

    let defs: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut rendered = Vec::new();
    for (name, unit) in defs {
        let value = metrics.get(name).copied().filter(|v| v.is_finite());
        let value = value.unwrap_or(0.0);
        if trace {
            println!("{name} {value} {unit}");
        }
        rendered.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &ledger.errors {
        println!("error: {e}");
    }
    let correct = ledger.errors.is_empty() && ledger.failed == 0;
    println!(
        "failed_share {} ({} of {} operations)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted.max(1),
        ledger.failed,
        rendered.join(", ")
    );
    Ok(true)
}

/// The default-seed, full-size inputs are the committed figure cells.
fn check_committed(bench: &Bench, inputs: Inputs, reports: &[FarmReport], ledger: &mut Ledger) {
    if inputs.quick || inputs.inject_fault {
        return;
    }
    let cells: Vec<(String, String, u64)> = match bench {
        // The farm builds the committed cells whatever the seed.
        Bench::Farm(_) => reports
            .last()
            .map(FarmBench::harness_cells)
            .unwrap_or_default(),
        Bench::Loops(b) if inputs.seed == 0 => {
            let cycles = ledger.reference.as_ref().map(|(c, _)| c.clone());
            b.cells
                .iter()
                .zip(cycles.unwrap_or_default())
                .filter_map(|(cell, cycles)| match cell.mode {
                    Mode::Sim(mode) => Some((cell.bench.to_string(), mode.label(), cycles)),
                    Mode::Native => None,
                })
                .collect()
        }
        Bench::Loops(_) => Vec::new(),
    };
    for e in crate::host::against_committed(&cells) {
        ledger.error(e);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics that come from the spans: every `<span>_ms` /
/// `<span>_s` self time (calibrated like the passes they were part of), the
/// shares, and the two numbers that qualify the trace itself. A pass index
/// past the traced passes holds one-off probes and counts only towards the
/// probes' own metrics.
fn span_metrics(
    spans: &Spans,
    untraced: &Timed,
    traced: &Timed,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let passes = traced.seconds.len();
    let by_pass = spans.self_time_by_pass();
    // A traced pass is calibrated like any pass; the probes' extra pass ran
    // right after the last one.
    let mut factors = traced.factors();
    factors.resize(by_pass.len(), traced.factor_after());
    let self_nanos = |name: &str, range: std::ops::Range<usize>| -> Vec<f64> {
        range
            .map(|i| {
                let own = by_pass[i].iter().find(|(n, _)| *n == name);
                own.map_or(0.0, |(_, ns)| *ns as f64 * factors[i])
            })
            .collect()
    };
    for m in &PER_LAYER {
        let (span, scale) = if let Some(s) = m.name.strip_suffix("_ms") {
            (s, 1e-6)
        } else if let Some(s) = m.name.strip_suffix("_s") {
            (s, 1e-9)
        } else {
            continue;
        };
        if !spans.spans.iter().any(|s| s.name == span) {
            continue;
        }
        let in_traced = |r: &Vec<(&'static str, u64)>| r.iter().any(|(n, _)| *n == span);
        let range = if by_pass[..passes].iter().any(in_traced) {
            0..passes
        } else {
            passes..by_pass.len()
        };
        metrics.insert(m.name, steady(&self_nanos(span, range)) * scale);
    }
    let pass_ms = traced.steady() * 1e3;
    metrics.insert(
        "core.instantiate_share",
        ratio(metrics["core.instantiate_ms"], pass_ms),
    );
    metrics.insert("sim.run_share", ratio(metrics["sim.run_ms"], pass_ms));
    // Glue is what the benchmark's own loop costs between layer calls.
    let glue: Vec<f64> = self_nanos("pass", 0..passes)
        .iter()
        .zip(self_nanos("cell", 0..passes))
        .map(|(p, c)| p + c)
        .collect();
    let covered: Vec<f64> = glue
        .iter()
        .zip(traced.calibrated())
        .map(|(g, t)| 1.0 - ratio(*g, t * 1e9))
        .collect();
    metrics.insert("bench.span_coverage_share", steady(&covered));
    metrics.insert(
        "bench.trace_overhead_share",
        ratio(traced.steady(), untraced.steady()) - 1.0,
    );
}

fn layer_metrics(
    bench: &LoopBench,
    counts: &Counts,
    untraced: &Timed,
    traced: &Timed,
    metrics: &mut BTreeMap<&'static str, f64>,
    ledger: &mut Ledger,
) {
    // Simulated statistics repeat exactly, so the sum over the traced
    // passes divided by their number is each pass's own value; the native
    // runtime's chunk counts do vary, and this is their mean.
    let n = traced.seconds.len() as f64;
    let per_pass = |v: u64| v as f64 / n;
    let c = counts;
    let accesses = c.loads + c.stores;
    let chunks = c.committed_chunks + c.squashed_chunks;
    let native = bench.cells.iter().any(|cell| cell.mode == Mode::Native);
    let layer = if native { "runtime." } else { "sim." };
    for (name, v) in [
        ("committed_chunks", per_pass(c.committed_chunks)),
        ("squashed_chunks", per_pass(c.squashed_chunks)),
        (
            "squashed_chunk_share",
            ratio(c.squashed_chunks as f64, chunks as f64),
        ),
        ("dependence_violations", per_pass(c.dependence_violations)),
    ] {
        let def = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix(layer) == Some(name))
            .expect("both layers define the chunk counts");
        metrics.insert(def.name, v);
    }
    metrics.insert("workloads.invocations", per_pass(c.invocations));
    let pass_seconds = untraced.steady();
    if native {
        metrics.insert(
            "runtime.run_invocation_ms",
            c.native_invocation_nanos as f64 / n / 1e6 * traced.factor_after(),
        );
    } else {
        let cycles = per_pass(c.cycles);
        // A mean of means is not exact over a varying number of passes.
        let one_pass_of_work = &c.work_per_thread[..c.work_per_thread.len() / traced.seconds.len()];
        let run_ns = metrics["sim.run_ms"] * 1e6;
        for (name, v) in [
            ("sim.cycles", cycles),
            ("sim.retired", per_pass(c.retired)),
            ("sim.ipc", ratio(c.retired as f64, c.cycles as f64)),
            ("sim.mem_stall_cycles", per_pass(c.mem_stall_cycles)),
            ("sim.recv_stall_cycles", per_pass(c.recv_stall_cycles)),
            ("sim.idle_cycles", per_pass(c.idle_cycles)),
            ("sim.loads", per_pass(c.loads)),
            ("sim.stores", per_pass(c.stores)),
            ("sim.l1_hit_share", ratio(c.l1_hits as f64, accesses as f64)),
            ("sim.l2_hits", per_pass(c.l2_hits)),
            ("sim.l3_hits", per_pass(c.l3_hits)),
            ("sim.memory_accesses", per_pass(c.memory_accesses)),
            ("sim.spec_commits", per_pass(c.spec_commits)),
            ("sim.spec_aborts", per_pass(c.spec_aborts)),
            ("sim.spec_conflicts", per_pass(c.spec_conflicts)),
            (
                "sim.misspeculated_invocation_share",
                ratio(
                    c.misspeculated_invocations as f64,
                    c.spec_invocations as f64,
                ),
            ),
            (
                "sim.load_imbalance",
                spice_ir::exec::work_imbalance(one_pass_of_work),
            ),
            ("sim.host_ns_per_cycle", ratio(pass_seconds * 1e9, cycles)),
            ("sim.run_ns_per_cycle", ratio(run_ns, cycles)),
            ("sim.run_ns_per_inst", ratio(run_ns, per_pass(c.retired))),
        ] {
            metrics.insert(name, v);
        }
        let reference = ledger.reference.as_ref().map(|(c, _)| c.clone());
        match bench.speedup(&reference.unwrap_or_default()) {
            Ok(s) => {
                metrics.insert("sim.speedup", s.unwrap_or(0.0));
            }
            Err(e) => ledger.error(format!("sequential reference: {e}")),
        }
    }

    // These run right after the traced passes.
    let after = traced.factor_after();
    let decode: Vec<f64> = (0..3).map(|_| bench.decode_seconds()).collect();
    metrics.insert("ir.decode_ms", steady(&decode) * after * 1e3);
    // One untimed interpreter pass, then three timed ones.
    let interp: Result<Vec<(f64, u64)>, String> = (0..4).map(|_| bench.interp_pass()).collect();
    match interp {
        Ok(passes) => {
            let seconds: Vec<f64> = passes[1..].iter().map(|p| p.0).collect();
            let retired = passes[0].1 as f64;
            let interp_seconds = steady(&seconds) * after;
            let ns_per_inst = ratio(interp_seconds * 1e9, retired);
            metrics.insert("ir.interp_ms", interp_seconds * 1e3);
            metrics.insert("ir.interp_retired", retired);
            metrics.insert("ir.interp_ns_per_inst", ns_per_inst);
            metrics.insert(
                "sim.model_overhead_x",
                ratio(metrics["sim.run_ns_per_inst"], ns_per_inst),
            );
            if native {
                metrics.insert("runtime.overhead_x", ratio(pass_seconds, interp_seconds));
            }
        }
        Err(e) => ledger.error(e),
    }
}

/// The farm's own accounting from its reports, the layer probes, and the
/// two extra passes at `jobs: nproc`.
fn farm_metrics(
    bench: &FarmBench,
    reports: &[FarmReport],
    traced: &Timed,
    spans: &mut Spans,
    metrics: &mut BTreeMap<&'static str, f64>,
    ledger: &mut Ledger,
) {
    let Some(last) = reports.last() else {
        return;
    };
    // One report per traced pass, calibrated like the pass it came from.
    let seconds = |f: fn(&FarmReport) -> u128| -> f64 {
        let v: Vec<f64> = reports
            .iter()
            .zip(traced.factors())
            .map(|(r, factor)| f(r) as f64 / 1e9 * factor)
            .collect();
        steady(&v)
    };
    metrics.insert("farm.wall_s", seconds(|r| r.stats.wall_nanos));
    metrics.insert(
        "farm.serial_equivalent_s",
        seconds(|r| r.stats.total_job_nanos),
    );
    metrics.insert("farm.prepare_s", seconds(|r| r.cache.build_nanos));
    metrics.insert("farm.jobs", last.stats.jobs as f64);
    metrics.insert("farm.cache_hits", last.cache.hits as f64);
    metrics.insert("farm.cache_misses", last.cache.misses as f64);
    metrics.insert("sim.cycles", last.simulated_cycles as f64);
    let pool: Vec<f64> = (0..3).map(|_| pool_ns_per_job()).collect();
    metrics.insert(
        "farm.pool_ns_per_job",
        steady(&pool) * traced.factor_after(),
    );
    match bench.probes(last, spans) {
        Ok(bytes) => {
            metrics.insert("bench.emit_bytes", bytes as f64);
        }
        Err(e) => ledger.error(format!("layer probes: {e}")),
    }
    match bench.parallel(last) {
        Ok(p) => {
            metrics.insert("farm.parallel_speedup", p.speedup);
            metrics.insert("farm.worker_idle_share", p.worker_idle_share);
            metrics.insert("farm.job_inflation", p.job_inflation);
        }
        Err(e) => ledger.error(format!("parallel passes: {e}")),
    }
}
