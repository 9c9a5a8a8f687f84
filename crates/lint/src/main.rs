//! The `spice-lint` binary: compiler-style diagnostics for workload IR.
//!
//! For every selected workload the tool builds the kernel, verifies the
//! untransformed program, reports the static dependence pre-screen for the
//! target loop, applies the Spice transformation at each requested thread
//! count, and runs structural verification plus the full speculation-safety
//! lint stack on the transformed program — rendering any diagnostic against
//! the offending function/block/instruction.
//!
//! ```text
//! cargo run -p spice-lint -- [--small] [--threads N,N] [bench ...]
//! ```
//!
//! Exit status: 0 when everything is clean, 1 when any verification or lint
//! fails, 2 on a usage error.

use spice_bench::experiments::all_workload_factories;
use spice_core::predictor::PredictorOptions;
use spice_core::transform::{SpiceOptions, SpiceTransform, TransformError};
use spice_ir::exec::{derive_loop_spec, ConflictPolicy};
use spice_ir::lint::lint_spice;
use spice_ir::verify::verify_program;
use spice_workloads::workload_load_options;

const USAGE: &str = "usage: spice-lint [--small] [--threads N,N] [bench ...]
  lints every workload (or just the named ones) pre- and post-transform
flags:
  --small        use the reduced-size workload configurations
  --threads N,N  thread counts to transform at (default 2,4)";

fn fail(msg: &str) -> ! {
    eprintln!("spice-lint: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn policy_name(p: ConflictPolicy) -> &'static str {
    match p {
        ConflictPolicy::Detect => "detect",
        ConflictPolicy::AssumeIndependent => "assume-independent",
    }
}

/// Lints one workload at one thread count; returns the number of
/// diagnostics printed.
fn lint_workload(
    name: &str,
    factory: &dyn Fn() -> Box<dyn spice_workloads::SpiceWorkload>,
    threads: usize,
) -> usize {
    let mut workload = factory();
    let built = workload.build();
    let options = workload_load_options(&*workload, &built);
    let mut diagnostics = 0usize;

    if let Err(errs) = verify_program(&built.program) {
        for e in &errs {
            eprint!("{}", e.render(&built.program));
        }
        println!(
            "{name}: pre-transform verify FAILED ({} errors)",
            errs.len()
        );
        return errs.len();
    }

    let analysis = match derive_loop_spec(&built.program, built.kernel, options.loop_header) {
        Ok(a) => a,
        Err(e) => {
            println!("{name}: loop analysis failed: {e}");
            return 1;
        }
    };
    let dep = analysis.dependence(&built.program);
    println!(
        "{name}: threads={threads} policy={} dependence={} \
         (stores={} loads={} pairs: {} disjoint / {} unknown / {} dependent{}) \
         recommends={}",
        policy_name(options.conflict_policy),
        dep.class,
        dep.stores,
        dep.loads,
        dep.disjoint_pairs,
        dep.unknown_pairs,
        dep.dependent_pairs,
        if dep.has_calls { ", has calls" } else { "" },
        policy_name(analysis.recommended_policy(&built.program)),
    );

    let mut program = built.program.clone();
    let spice = SpiceTransform::new(SpiceOptions {
        threads,
        predictor: PredictorOptions {
            initial_work_estimate: options.work_estimate,
            ..PredictorOptions::default()
        },
        conflict_policy: options.conflict_policy,
    })
    .apply(&mut program, &analysis);
    let spice = match spice {
        Ok(s) => s,
        Err(TransformError::Lint(errs)) => {
            // The transform's own gate fired: the rewrite left `program` in
            // the state the lints rejected, so diagnostics render against it.
            for e in &errs {
                eprint!("{}", e.render(&program));
            }
            println!(
                "{name}: post-transform lint FAILED inside the transform ({} errors)",
                errs.len()
            );
            return errs.len();
        }
        Err(e) => {
            println!("{name}: transform failed: {e}");
            return 1;
        }
    };

    if let Err(errs) = verify_program(&program) {
        for e in &errs {
            eprint!("{}", e.render(&program));
        }
        diagnostics += errs.len();
    }
    if let Err(errs) = lint_spice(&program, &spice.protocol()) {
        for e in &errs {
            eprint!("{}", e.render(&program));
        }
        diagnostics += errs.len();
    }
    println!(
        "{name}: post-transform verify + {} speculation-safety lint checks: {}",
        if spice.conflict_detection {
            "conflict-detecting"
        } else {
            "detection-free"
        },
        if diagnostics == 0 { "ok" } else { "FAILED" },
    );
    diagnostics
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let small = match args.iter().position(|a| a == "--small") {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    };
    let threads: Vec<usize> = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let Some(raw) = args.get(i + 1).cloned() else {
                fail("missing --threads value");
            };
            args.drain(i..=i + 1);
            raw.split(',')
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| fail(&format!("bad thread count {t:?}")))
                })
                .collect()
        }
        None => vec![2, 4],
    };
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        fail(&format!("unknown flag {flag:?}"));
    }

    let factories = all_workload_factories(small);
    let selected: Vec<_> = if args.is_empty() {
        factories
    } else {
        for want in &args {
            if !factories.iter().any(|(n, _)| n == want) {
                let names: Vec<&str> = factories.iter().map(|(n, _)| *n).collect();
                fail(&format!(
                    "unknown benchmark {want:?} (have: {})",
                    names.join(", ")
                ));
            }
        }
        factories
            .into_iter()
            .filter(|(n, _)| args.iter().any(|w| w == n))
            .collect()
    };

    let mut diagnostics = 0usize;
    let mut runs = 0usize;
    for (name, factory) in &selected {
        for &t in &threads {
            diagnostics += lint_workload(name, factory.as_ref(), t);
            runs += 1;
        }
    }
    println!("spice-lint: {runs} workload/thread combinations, {diagnostics} diagnostics");
    if diagnostics > 0 {
        std::process::exit(1);
    }
}
