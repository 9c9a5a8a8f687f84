//! The simulation farm: runs the whole evaluation (or a chosen subset of
//! figures) as one parallel sweep on a pool of workers claiming jobs in id
//! order from one queue, each simulation cell decoded once in its own job,
//! and artifacts streamed row-by-row in that same deterministic order —
//! byte-identical at any `--jobs`.
//!
//! This is the one CLI over the figures: `farm --figures fig7` is what a
//! per-figure binary would be, and a cross-check or fuzz divergence fails
//! the run (exit 1) with forensics on disk.
//!
//! ```text
//! cargo run --release -p spice-bench --bin farm -- [flags]
//!   --small           reduced-size inputs, simulated on the reduced test
//!                     machine (full size simulates the Table 1 machine)
//!   --jobs N          worker threads (default 0 = host parallelism)
//!   --figures LIST    comma-separated subset of
//!                     fig7,table2,ablation,harness,crosscheck,fig8,fuzz
//!                     (default: all)
//!   --out-dir DIR     where each figure's BENCH_<figure>.json lands
//!                     (default "."; ablation and fuzz are stdout-only)
//!   --trace-out PATH  also record simulator traces for every sweep job and
//!                     stream them to PATH (byte-identical at any --jobs)
//!   --fuzz-seeds N    width of the fuzz figure's mutation-seed sweep
//!                     (default 8; one differential-replay job per seed)
//!   --check           CI perf gate: run the harness figure only (one
//!                     worker, best of three), write nothing, and compare
//!                     each benchmark's spice4 / sequential ns-per-cycle
//!                     ratio against the committed BENCH_harness.json
//! ```
//!
//! A malformed command line (unknown flag or figure, missing or non-numeric
//! value) prints a one-line usage error and exits 2.
//!
//! Failed or diverged jobs persist forensics (trace ring-buffer, snapshot
//! cycles, final machine state) under `<out-dir>/failures/FAILED_<label>.json`.
//!
//! Besides the per-figure artifacts, a normal run writes `BENCH_farm.json`:
//! serial-equivalent vs wall seconds, worker/job counts, host cores, and
//! preparation-cache accounting — the farm's own performance record.

use std::path::PathBuf;

use spice_bench::experiments::{
    parse_harness_rows, spice4_cost_ratios, FigureRows, HarnessPerfRow,
};
use spice_bench::farm_driver::{farm_json, run_manifest, Figure, Manifest, OutPaths};

/// `--check` keeps, per benchmark, the best (lowest) spice4 ÷ sequential
/// ratio of this many in-process harness sweeps. Each ratio is taken within
/// one sweep, where the two jobs run a few milliseconds apart, so a slow
/// phase of the host slows both and cancels.
const CHECK_REPETITIONS: usize = 3;

/// `--check` fails when a benchmark's measured spice4 ÷ sequential
/// ns-per-cycle ratio exceeds the committed one by more than this factor.
/// Chosen from 22 gate evaluations recorded on the 2-vCPU reference VM
/// while its neighbours made a single row's ns-per-cycle vary 6× between
/// sweeps (ks sequential 7.5–44.9): measured ÷ committed never exceeded 1.15
/// (ratios taken across sweeps instead reached 1.39, which is why they are
/// not). 1.2 clears that band and still fails the parent of the commit that
/// introduced this gate on ks and 181.mcf (1.22×, 1.24×).
const CHECK_TOLERANCE: f64 = 1.2;

const USAGE: &str = "usage: farm [--small] [--jobs N] [--figures LIST] [--out-dir DIR] \
                     [--trace-out PATH] [--fuzz-seeds N] [--check]";

struct Cli {
    manifest: Manifest,
    check: bool,
    out_dir: PathBuf,
    trace_out: Option<PathBuf>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        manifest: Manifest {
            figures: Figure::ALL.to_vec(),
            ..Manifest::default()
        },
        check: false,
        out_dir: PathBuf::from("."),
        trace_out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--small" => cli.manifest.small = true,
            "--check" => cli.check = true,
            "--jobs" => cli.manifest.jobs = number(&flag, &value()?)?,
            "--figures" => cli.manifest.figures = Figure::parse_list(&value()?)?,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value()?)),
            "--fuzz-seeds" => cli.manifest.fuzz_seeds = 0..number(&flag, &value()?)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if cli.check {
        // What the committed artifact was captured with.
        cli.manifest.figures = vec![Figure::Harness];
        cli.manifest.jobs = 1;
    }
    Ok(cli)
}

/// The perf gate: same-run relative cost of the multi-core event loop, per
/// benchmark, against the committed artifact.
fn check(cli: &Cli) -> Result<(), String> {
    let path = cli.out_dir.join("BENCH_harness.json");
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| format!("--check needs the committed {}: {e}", path.display()))?;
    let committed =
        parse_harness_rows(&committed).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut best: Vec<(String, f64)> = Vec::new();
    for _ in 0..CHECK_REPETITIONS {
        let rows = run_manifest(&cli.manifest, &OutPaths::default())?.harness_rows;
        println!("{}", HarnessPerfRow::table(&rows));
        // Like for like: a host-only change leaves every simulated cycle
        // where the committed capture has it (this also rejects a --small
        // run against the full-size artifact).
        fn cell(r: &HarnessPerfRow) -> (&str, &str, u64) {
            (&r.benchmark, &r.mode, r.simulated_cycles)
        }
        if !rows.iter().map(cell).eq(committed.iter().map(cell)) {
            return Err(format!(
                "simulated cycles differ from {}: re-capture it (same size, --jobs 1)",
                path.display()
            ));
        }
        let ratios = spice4_cost_ratios(&rows);
        if best.is_empty() {
            best = ratios;
        } else {
            for (b, r) in best.iter_mut().zip(ratios) {
                b.1 = b.1.min(r.1);
            }
        }
    }

    let mut regressed = Vec::new();
    for ((bench, measured), (_, baseline)) in best.into_iter().zip(spice4_cost_ratios(&committed)) {
        let limit = baseline * CHECK_TOLERANCE;
        println!(
            "perf-gate: {bench:<12} spice4/sequential ns-per-cycle {measured:.2}x \
             (committed {baseline:.2}x, limit {limit:.2}x)"
        );
        if !measured.is_finite() || measured > limit {
            regressed.push(bench);
        }
    }
    if regressed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "multi-core host-cost regression on {}: spice4/sequential ns-per-cycle exceeds \
             {CHECK_TOLERANCE}x the committed ratio",
            regressed.join(", ")
        ))
    }
}

fn run(cli: &Cli) -> Result<(), String> {
    if cli.check {
        return check(cli);
    }
    let figures = &cli.manifest.figures;
    let mut outs = OutPaths::default();
    std::fs::create_dir_all(&cli.out_dir)
        .map_err(|e| format!("create {}: {e}", cli.out_dir.display()))?;
    for &figure in figures {
        outs.set_artifact_dir(figure, &cli.out_dir);
    }
    outs.trace = cli.trace_out.clone();
    outs.failures_dir = Some(cli.out_dir.join("failures"));

    let report = run_manifest(&cli.manifest, &outs)?;

    for figure in Figure::ALL {
        if figures.contains(&figure) {
            println!("{}", report.table(figure));
        }
    }
    println!(
        "farm: {} jobs on {} workers ({} cores): {:.3} s serial-equivalent in {:.3} s wall \
         ({:.2}x), prepare {:.3} s ({} builds)",
        report.stats.jobs,
        report.stats.workers,
        report.host_cores,
        report.serial_equivalent_seconds(),
        report.farm_wall_seconds(),
        report.parallel_speedup(),
        report.cache.build_nanos as f64 / 1e9,
        report.cache.misses,
    );

    let farm_path = cli.out_dir.join("BENCH_farm.json");
    let doc = farm_json(&report);
    spice_bench::json::validate(&doc).map_err(|e| format!("BENCH_farm.json invalid: {e}"))?;
    std::fs::write(&farm_path, &doc).map_err(|e| format!("write {}: {e}", farm_path.display()))?;
    eprintln!("wrote {}", farm_path.display());
    Ok(())
}

fn main() {
    let cli = parse_cli(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("farm: {e} ({USAGE})");
        std::process::exit(2);
    });
    if let Err(e) = run(&cli) {
        eprintln!("farm: {e}");
        std::process::exit(1);
    }
}
