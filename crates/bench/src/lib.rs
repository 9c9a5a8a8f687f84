//! # spice-bench — experiment harness for the Spice reproduction
//!
//! Every figure of the paper's evaluation is a set of jobs enumerated in one
//! place, [`farm_driver::run_manifest`], behind one CLI, the `farm` binary:
//! `cargo run --release -p spice-bench --bin farm -- --figures fig7 --small`
//! runs one figure on the reduced-size inputs (and the reduced test
//! machine); without `--figures` the whole evaluation runs as one sweep on a
//! worker pool sized by `--jobs` (default: host parallelism) that claims
//! jobs in id order from one queue, with artifacts streamed in that same
//! deterministic order so bytes never depend on scheduling. [`farm_driver::Figure`] lists the figures with their
//! artifacts; [`experiments::FigureRows`] is how a figure's rows become its
//! JSON and its text table. Two paper artifacts are not sweeps and keep
//! their own binaries: Table 1 (`--bin table1`, [`experiments::table1`]) and
//! the §2 schedules of Figures 2/3/5 (`--bin schedules`,
//! [`experiments::schedules`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod farm_driver;
pub mod json;
pub mod trace_json;
pub mod tracefile;
