//! The trace layer's headline property: every fuzzed trace replays
//! bit-identically — same per-invocation returns, same live-out memory,
//! same checksum — across the timing simulator, the native-thread runtime
//! and the sequential interpreter. Dependence-violating mutants (forward
//! splice writes that cross chunk boundaries and squash) are part of the
//! population, not excluded from it.
//!
//! The seeds run as the farm's `fuzz` figure, so the farm is the one
//! enumerator: a diverging mutant fails its job and is persisted as
//! `FAILED_<label>.json` (the full trace-file document) under the failures
//! directory, so the exact scenario replays offline without a recording
//! step.

use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};

/// Seeds swept by the differential — comfortably past the 100-mutant bar.
const SEEDS: u64 = 120;

#[test]
fn a_hundred_plus_fuzzed_mutants_replay_bit_identically_everywhere() {
    let failures = std::env::temp_dir().join(format!("spice-fuzz-failures-{}", std::process::id()));
    let manifest = Manifest {
        figures: vec![Figure::Fuzz],
        small: true,
        jobs: 0,
        fuzz_seeds: 0..SEEDS,
    };
    let outs = OutPaths {
        failures_dir: Some(failures.clone()),
        ..OutPaths::default()
    };
    let report = run_manifest(&manifest, &outs).unwrap_or_else(|e| panic!("{e}"));
    std::fs::remove_dir_all(&failures).ok();

    let rows = &report.fuzz_rows;
    assert_eq!(rows.len(), SEEDS as usize);
    assert!(rows.iter().all(|r| r.agree), "a divergence fails its job");

    // The sweep must actually exercise the dangerous population: mutants
    // carrying forward splice writes, and among them mutants whose writes
    // crossed chunk boundaries and forced squash-and-recover.
    let with_writes = rows.iter().filter(|r| r.has_writes).count();
    assert!(
        with_writes >= SEEDS as usize / 4,
        "only {with_writes}/{SEEDS} mutants carried dependence-inducing writes"
    );
    assert!(
        rows.iter()
            .any(|r| r.sim_violations > 0 || r.native_violations > 0),
        "no mutant triggered a dependence violation — the sweep never \
         exercised squash-and-recover"
    );
}
