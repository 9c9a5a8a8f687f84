//! # spice-ir — low-level IR substrate for the Spice reproduction
//!
//! This crate provides the compiler-side substrate that the CGO 2008 paper
//! *"Spice: Speculative Parallel Iteration Chunk Execution"* (Raman,
//! Vachharajani, Rangan, August) assumes from its research compiler: a
//! low-level register IR with loads/stores and the threading/speculation
//! intrinsics of the target machine, plus the analyses the Spice
//! transformation consumes.
//!
//! ## What lives here
//!
//! * [`Program`] / [`Function`] / [`Block`] / [`Inst`] — the IR itself, with
//!   an ergonomic [`builder::FunctionBuilder`].
//! * [`cfg::Cfg`], [`dom::DomTree`], [`loops::LoopForest`] — control-flow
//!   analyses, ending in natural-loop detection and the loop-nest tree the
//!   profiler walks (paper §6).
//! * [`liveness::Liveness`] and [`liveness::loop_live_ins`] — the
//!   classification of a loop's registers into loop-carried live-ins,
//!   invariant live-ins and live-outs (paper §4, Algorithm 1).
//! * [`reduction::detect_reductions`] — sum/MIN/MAX reduction candidates,
//!   which Spice removes from the set of values to speculate.
//! * [`analysis`] — the loop front end both Spice backends start from:
//!   [`analysis::derive_loop_spec`] bundles the analyses above into the one
//!   [`analysis::SpiceLoopSpec`] (applicability, the speculated set `S`, the
//!   live-out fold contract; the dependence pre-screen is a query on it).
//! * [`interp`] — functional execution: a steppable [`interp::ThreadState`]
//!   used by the multi-core timing simulator, and single-threaded
//!   convenience runners used by tests and the value profiler.
//! * [`decoded`] — the pre-decoded execution form every executor steps
//!   over: dense, index-addressed instruction arrays with terminators
//!   inlined and branch targets resolved.
//! * [`exec`] — the [`exec::ExecutionBackend`] abstraction: one API over
//!   every way of running a Spice loop (timing simulator, native threads),
//!   with the backend-neutral [`exec::ExecutionReport`] and the one commit
//!   rule, [`exec::CommitChain`], every backend's squash causes come from.
//! * [`verify`] — structural verification, run after every transformation
//!   (the Spice protocol lints on top of it live in `spice_core::lint`).
//! * [`fixtures`] — the small list-walking programs several crates' tests
//!   share.
//! * [`dataflow`] — a reusable forward/backward dataflow framework over
//!   [`cfg::Cfg`] with dense register-indexed facts ([`dataflow::RegSet`]);
//!   liveness, the verifier's definite assignment and available
//!   memory-base expressions run on it, and so does the static dependence
//!   pre-screen.
//!
//! ## Quick example
//!
//! ```
//! use spice_ir::builder::FunctionBuilder;
//! use spice_ir::interp::{run_function, FlatMemory};
//! use spice_ir::{BinOp, Operand, Program};
//!
//! // sum(n) = 0 + 1 + ... + (n-1)
//! let mut b = FunctionBuilder::new("sum_to_n");
//! let n = b.param();
//! let sum = b.copy(0i64);
//! let i = b.copy(0i64);
//! let header = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.br(header);
//! b.switch_to(header);
//! let done = b.binop(BinOp::Ge, i, n);
//! b.cond_br(done, exit, body);
//! b.switch_to(body);
//! let s = b.binop(BinOp::Add, sum, i);
//! b.copy_into(sum, s);
//! let i2 = b.binop(BinOp::Add, i, 1i64);
//! b.copy_into(i, i2);
//! b.br(header);
//! b.switch_to(exit);
//! b.ret(Some(Operand::Reg(sum)));
//!
//! let mut program = Program::new();
//! let f = program.add_func(b.finish());
//! let mut mem = FlatMemory::new(4096);
//! let out = run_function(&program, f, &[10], &mut mem).unwrap();
//! assert_eq!(out.return_value, Some(45));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod decoded;
pub mod dom;
pub mod exec;
pub mod fixtures;
mod function;
mod inst;
pub mod interp;
pub mod liveness;
pub mod loops;
pub mod pretty;
pub mod reduction;
pub mod trace;
mod types;
pub mod verify;

pub use dataflow::{classify_loop_dependences, DependenceClass, LoopDependence};
pub use decoded::{DecodeError, DecodeErrorKind, DecodedFunction, DecodedProgram};
pub use exec::{
    derive_loop_spec, BackendError, ChunkEnd, CommitChain, ExecutionBackend, ExecutionCost,
    ExecutionReport, LoadOptions, MisspeculationCause, SpecError, SpiceLoopSpec, WorkerReport,
};
pub use function::{Block, Function, Global, Program, GLOBAL_BASE};
pub use inst::{Inst, InstClass, Successors, Terminator};
pub use trace::{SquashForensics, TraceEvent, TraceRecorder};
pub use types::{BinOp, BlockId, FuncId, Operand, Reg, TrapKind};

#[cfg(test)]
mod tests {
    /// The public API surface re-exported at the crate root stays usable
    /// together (a compile-time smoke test of the re-exports).
    #[test]
    fn reexports_compose() {
        use crate::{BinOp, BlockId, FuncId, Operand, Program, Reg};
        let _ = (
            BinOp::Add,
            BlockId(0),
            FuncId(0),
            Operand::Imm(0),
            Reg(0),
            Program::new(),
        );
    }
}
