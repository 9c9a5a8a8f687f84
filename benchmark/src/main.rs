//! The repo benchmark. See `README.md` for the method and `defs.rs` for the
//! names; this file is the command line.
//!
//! ```text
//! spice-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//!     one measured run of one workload; the last stdout line is the result
//! spice-benchmark [--seed N] [--runs R] [--seconds S] [--quick] [--out FILE]
//!     every workload, R untraced runs and one traced run each, every metric
//!     by name; results and span files under benchmark/out/
//! spice-benchmark compare A.json B.json
//!     verdict per (end-to-end metric, workload); exit 1 on a regression
//! spice-benchmark manifest
//!     prints BENCHMARK.json from the built-in tables
//! ```
//!
//! Runs from the repo root (`benchmark/run.sh` takes care of that).

mod defs;
mod farmbench;
mod host;
mod loopbench;
mod loops;
mod measure;
mod run;
mod suite;

/// Return values per cell, where the entry point exposes them.
pub type Returns = Vec<Option<Vec<Option<i64>>>>;

/// What one pass did: its operations, its simulated result, its host time.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations: invocations whose return value was checked against the
    /// workload's host-computed expectation (farm jobs on `farm-sweep`).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Simulated cycles per cell (0 for native cells).
    pub cycles: Vec<u64>,
    pub returns: Returns,
    /// Host wall seconds of the pass.
    pub seconds: f64,
}

/// `--flag value` lookup over the raw arguments.
pub fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

pub fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match arg_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} {v}: not a valid value")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => suite::compare(&args[1..]),
        Some("manifest") => {
            print!("{}", defs::manifest_json());
            Ok(true)
        }
        _ if arg_value(&args, "--workload").is_some() => run::run_one(&args),
        _ => suite::run_all(&args),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("spice-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
