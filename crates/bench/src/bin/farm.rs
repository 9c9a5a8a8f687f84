//! The simulation farm: runs the whole evaluation (or a chosen subset of
//! figures) as one parallel sweep on a work-stealing pool, with every
//! program decoded once and shared, and artifacts streamed row-by-row in
//! deterministic job order — byte-identical at any `--jobs`.
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
//!   --check           CI perf smoke: run the harness figure only, write
//!                     nothing, compare ns/simulated-cycle against the
//!                     committed BENCH_farm.json
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

use spice_bench::farm_driver::{farm_json, run_manifest, Figure, Manifest, OutPaths};

/// A fresh run must stay within this factor of the committed
/// ns-per-simulated-cycle. Generous on purpose: CI machines differ from the
/// machine that committed the baseline.
const CHECK_FACTOR: f64 = 4.0;

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
        cli.manifest.figures = vec![Figure::Harness];
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<(), String> {
    let figures = &cli.manifest.figures;
    let mut outs = OutPaths::default();
    if !cli.check {
        std::fs::create_dir_all(&cli.out_dir)
            .map_err(|e| format!("create {}: {e}", cli.out_dir.display()))?;
        for &figure in figures {
            outs.set_artifact_dir(figure, &cli.out_dir);
        }
        outs.trace = cli.trace_out.clone();
        outs.failures_dir = Some(cli.out_dir.join("failures"));
    }

    let report = run_manifest(&cli.manifest, &outs)?;

    for figure in Figure::ALL {
        if figures.contains(&figure) {
            println!("{}", report.table(figure));
        }
    }
    println!(
        "farm: {} jobs on {} workers ({} cores): {:.3} s serial-equivalent in {:.3} s wall \
         ({:.2}x), prepare {:.3} s ({} builds, {} shared)",
        report.stats.jobs,
        report.stats.workers,
        report.host_cores,
        report.serial_equivalent_seconds(),
        report.farm_wall_seconds(),
        report.parallel_speedup(),
        report.cache.build_nanos as f64 / 1e9,
        report.cache.misses,
        report.cache.hits,
    );

    let farm_path = cli.out_dir.join("BENCH_farm.json");
    if cli.check {
        let committed = std::fs::read_to_string(&farm_path)
            .map_err(|e| format!("--check needs the committed {}: {e}", farm_path.display()))?;
        let baseline = spice_bench::json::extract_number(&committed, "ns_per_simulated_cycle")
            .ok_or_else(|| format!("{}: no ns_per_simulated_cycle", farm_path.display()))?;
        let measured = report.ns_per_simulated_cycle();
        println!(
            "perf-smoke: measured {measured:.1} ns/cycle vs committed {baseline:.1} \
             (limit {CHECK_FACTOR}x)"
        );
        if !measured.is_finite() || measured > baseline * CHECK_FACTOR {
            return Err(format!(
                "farm-speed regression: {measured:.1} ns/cycle exceeds \
                 {CHECK_FACTOR}x the committed {baseline:.1}"
            ));
        }
        return Ok(());
    }

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
