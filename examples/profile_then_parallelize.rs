//! Bring-your-own loop: profile it with the §6 value profiler to decide
//! whether its live-ins are predictable enough, then Spice-parallelize it —
//! the automation path the paper sketches at the end of §6.
//!
//! Run with: `cargo run --example profile_then_parallelize`

use spice_bench::experiments::{run_workload_backend, run_workload_sequential};
use spice_core::backend::BackendChoice;
use spice_core::predictor::PredictorOptions;
use spice_profiler::{profile_workload, AnalyzerConfig, PredictabilityBin};
use spice_workloads::ChurnListWorkload;

fn consider(name: &'static str, predictability: f64) {
    let mut probe = ChurnListWorkload::new(name, predictability, 250, 16, 99);
    let verdicts =
        profile_workload(&mut probe, AnalyzerConfig::default(), None).expect("profiling");
    let verdict = &verdicts[0];
    println!(
        "loop `{name}`: {:.0}% of invocations predictable -> bin {:?}",
        verdict.predictable_fraction * 100.0,
        verdict.bin
    );

    let worth_it = matches!(
        verdict.bin,
        PredictabilityBin::Good | PredictabilityBin::High
    );
    if !worth_it {
        println!("  profiler says: skip Spice for this loop (would mis-speculate too often)\n");
        return;
    }

    let mut seq = ChurnListWorkload::new(name, predictability, 250, 16, 99);
    let seq_cycles = run_workload_sequential(&mut seq).expect("sequential");
    let mut par = ChurnListWorkload::new(name, predictability, 250, 16, 99);
    let result = run_workload_backend(&mut par, BackendChoice::Sim, 4, PredictorOptions::default())
        .expect("spice");
    println!(
        "  Spice (4 threads): {:.2}x speedup, mis-speculation {:.1}%\n",
        seq_cycles as f64 / result.total_cost as f64,
        result.misspeculation_rate() * 100.0
    );
}

fn main() {
    println!("Profiling two candidate loops before deciding to Spice them:\n");
    consider("stable_index_scan", 0.95);
    consider("rebuilt_every_time", 0.05);
}
