//! # spice-sim — multi-core timing simulator for the Spice reproduction
//!
//! The CGO 2008 Spice paper evaluates its transformation on a cycle-accurate
//! 4-core Itanium 2 CMP model (Table 1) built in the Liberty Simulation
//! Environment. This crate provides the equivalent substrate for the
//! reproduction: a cycle-exact, event-driven multi-core machine that
//! executes pre-decoded [`spice_ir`] programs with
//!
//! * the Table 1 cache hierarchy and latencies ([`config::MachineConfig`],
//!   [`cache::MemoryHierarchy`]),
//! * inter-core scalar channels with a configurable communication latency
//!   ([`machine::ChannelNet`]),
//! * per-core speculative store buffers with commit/abort
//!   ([`specbuf::SpecBuffer`]) and the read-set/committed-write conflict
//!   check behind `spec.check` — the paper's §3 architectural support for
//!   speculative state,
//! * the remote `resteer` mechanism used to squash mis-speculated threads,
//! * per-core statistics (stall breakdowns, cache hit levels, retired
//!   instruction mixes), and one optional observer — event tracing with
//!   squash forensics, and per-block cycle attribution — that never changes
//!   simulated time.
//!
//! The machine is five files: [`machine`] (cores, memory and system ports,
//! the issue group, the event loop and its cycle-stepped oracle),
//! `channel` ([`machine::ChannelNet`]), `conflict` (the `spec.check`
//! detection sets), `observe` (the observer) and `snapshot`
//! ([`MachineSnapshot`]: checkpoint, resume, pause). Their public items are
//! reachable through [`machine`] and the crate root.
//!
//! Absolute cycle counts are not expected to match the authors' Itanium
//! testbed; the structural effects the paper's argument rests on (pointer
//! chasing misses on the critical path, communication latency between cores,
//! squash overhead) are modelled directly.
//!
//! ## Example: timing a two-thread producer/consumer
//!
//! ```
//! use spice_ir::builder::FunctionBuilder;
//! use spice_ir::{Operand, Program};
//! use spice_sim::{Machine, MachineConfig};
//!
//! let mut program = Program::new();
//! let mut producer = FunctionBuilder::new("producer");
//! producer.send(0i64, 41i64);
//! producer.ret(None);
//! let pf = program.add_func(producer.finish());
//!
//! let mut consumer = FunctionBuilder::new("consumer");
//! let v = consumer.recv(0i64);
//! let r = consumer.binop(spice_ir::BinOp::Add, v, 1i64);
//! consumer.ret(Some(Operand::Reg(r)));
//! let cf = program.add_func(consumer.finish());
//!
//! let mut machine = Machine::new(MachineConfig::itanium2_cmp().with_cores(2), program);
//! machine.spawn(0, pf, &[]).unwrap();
//! machine.spawn(1, cf, &[]).unwrap();
//! let summary = machine.run().unwrap();
//! assert_eq!(machine.return_value(1), Some(42));
//! assert!(summary.cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
mod channel;
pub mod config;
mod conflict;
pub mod machine;
mod observe;
mod snapshot;
pub mod specbuf;
pub mod stats;

pub use backend::SequentialSimBackend;
pub use config::{CacheConfig, CoreConfig, MachineConfig, WritePolicy};
pub use machine::{CoreReport, CycleAttribution, Machine, MachineSnapshot, RunSummary, SimError};
pub use specbuf::SpecBuffer;
pub use stats::{geomean, speedup};
