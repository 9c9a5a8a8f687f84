//! The 181.mcf scenario: `refresh_potential` walking a spanning tree and
//! storing a new potential into every node. On the simulator the speculative
//! workers buffer stores in the modeled hardware; on the native backend every
//! chunk, the main thread's included, buffers in a `SpecView` over the one
//! frozen memory image, and the main thread applies the validated buffers
//! after the last join — the same protocol, selected by value through the
//! shared `ExecutionBackend` layer.
//!
//! Run with: `cargo run --example tree_update`

use spice_bench::experiments::{run_workload_backend, run_workload_sequential};
use spice_core::backend::BackendChoice;
use spice_core::predictor::PredictorOptions;
use spice_workloads::{McfConfig, McfWorkload};

fn main() {
    let config = McfConfig {
        nodes: 400,
        invocations: 20,
        cost_updates_per_invocation: 8,
        reparents_per_invocation: 1,
        seed: 7,
    };

    let mut sequential = McfWorkload::new(config.clone());
    let seq_cycles = run_workload_sequential(&mut sequential).expect("sequential run");
    println!(
        "sequential refresh_potential: {seq_cycles} cycles over {} invocations",
        config.invocations
    );

    let mut reference_results = None;
    for choice in [BackendChoice::Sim, BackendChoice::Native] {
        for threads in [2usize, 4] {
            let mut wl = McfWorkload::new(config.clone());
            let summary =
                run_workload_backend(&mut wl, choice, threads, PredictorOptions::default())
                    .expect("backend run");
            match choice {
                BackendChoice::Sim | BackendChoice::SimTiny => println!(
                    "spice [{choice}, {threads} threads]: {} cycles -> {:.2}x, mis-speculation \
                     {:.1}%, imbalance {:.3}",
                    summary.total_cost,
                    seq_cycles as f64 / summary.total_cost as f64,
                    summary.misspeculation_rate() * 100.0,
                    summary.load_imbalance(),
                ),
                BackendChoice::Native => println!(
                    "spice [{choice}, {threads} threads]: {:.2} ms wall time, mis-speculation \
                     {:.1}%, imbalance {:.3}",
                    summary.total_cost as f64 / 1e6,
                    summary.misspeculation_rate() * 100.0,
                    summary.load_imbalance(),
                ),
            }
            match &reference_results {
                None => reference_results = Some(summary.return_values.clone()),
                Some(reference) => assert_eq!(
                    reference, &summary.return_values,
                    "backend {choice} diverged from the first backend's results"
                ),
            }
        }
    }
    println!();
    println!("Every visited node is written speculatively by the workers; the stores stay in the");
    println!(
        "per-thread speculative buffers until the main thread validates the chunk and commits"
    );
    println!("them in thread order (paper §3, \"Speculative State\") — on both substrates.");
}
