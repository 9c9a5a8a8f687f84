//! # spice — facade for the CGO 2008 Spice reproduction
//!
//! Re-exports every subsystem crate under one roof and hosts the runnable
//! examples (`cargo run --example quickstart`, `--example linked_list_min`,
//! `--example tree_update`, `--example profile_then_parallelize`).
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | SSA-lite IR, analyses, interpreter, the [`ir::exec::ExecutionBackend`] abstraction and the sequential [`ir::exec::InterpBackend`] |
//! | [`core`] | the Spice transformation, value predictor, simulator backend |
//! | [`sim`] | cycle-stepped multi-core timing simulator (Table 1 machine) and its one-core [`sim::SequentialSimBackend`] |
//! | [`runtime`] | native-thread chunk runtime and the native backend |
//! | [`profiler`] | loop live-in value profiler (§6 / Figure 8) |
//! | [`workloads`] | paper benchmark loops and the one backend-generic invocation loop |
//! | [`bench`] | experiment harness for every table and figure |
//! | [`farm`] | parallel job engine (id-ordered queue, ordered delivery) under the bench sweep |
//!
//! To reproduce the whole evaluation in one parallel run (decoded programs
//! shared across jobs, artifacts streamed in deterministic order — see
//! DESIGN.md §5):
//!
//! ```text
//! cargo run --release -p spice-bench --bin farm        # all figures
//! cargo run --release -p spice-bench --bin farm -- --figures fig7,table2 --jobs 4
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use spice_bench as bench;
pub use spice_core as core;
pub use spice_farm as farm;
pub use spice_ir as ir;
pub use spice_profiler as profiler;
pub use spice_runtime as runtime;
pub use spice_sim as sim;
pub use spice_workloads as workloads;
