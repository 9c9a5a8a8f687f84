//! # spice-core — the Spice transformation and its value predictor
//!
//! This crate implements the primary contribution of the CGO 2008 paper
//! *"Spice: Speculative Parallel Iteration Chunk Execution"* (Raman,
//! Vachharajani, Rangan, August): a software-only speculative
//! parallelization that splits a loop's iteration space into chunks, starts
//! each chunk from loop live-in values *memoized during the previous
//! invocation of the loop*, and falls back to the non-speculative main
//! thread whenever a memoized value no longer appears.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`analysis`] | §4, Algorithm 1 steps 2–4 | `spice_ir::analysis`, re-exported: the one loop front end ([`analysis::derive_loop_spec`]) the transformation generates code from and the native runtime interprets |
//! | [`transform`] | §4, Algorithm 1 | the code-generating transformation: worker creation, live-in/out communication, detection, recovery, memoization |
//! | [`lint`] | §3, §4 | speculation-safety lints checking a transformed program against the [`SpiceParallelLoop`] record the transformation returned |
//! | [`predictor`] | §4, Algorithm 2 | the speculated-values array layout, the reference planner, and read-only host mirrors of what the on-core centralized step wrote |
//! | [`valuepred`] | §2.2, §7 | the stride predictor and the Spice memoization criterion, for accuracy comparisons |
//! | [`baseline`] | §2 | the `t1`/`t2`/`t3` analytic model of TLS with and without value prediction, and schedule rendering for Figures 2/3/5 |
//! | [`pipeline`] | §3, §5 | invocation-by-invocation execution of a transformed loop on the `spice-sim` machine; reports name their squash causes by the one commit rule, [`spice_ir::exec::CommitChain`], which the generated merge chain implements |
//! | [`backend`] | — | the simulator [`spice_ir::exec::ExecutionBackend`] and by-value backend selection (sim vs. native threads) |
//!
//! ## Quick example
//!
//! ```
//! use spice_core::analysis::derive_loop_spec;
//! use spice_core::pipeline::SpiceRunner;
//! use spice_core::transform::{SpiceOptions, SpiceTransform};
//! use spice_ir::builder::FunctionBuilder;
//! use spice_ir::{BinOp, Operand, Program};
//! use spice_sim::{Machine, MachineConfig};
//!
//! // Build a linked-list minimum loop (the paper's Figure 1a), Spice it with
//! // two threads and run one invocation on the simulated machine.
//! let mut program = Program::new();
//! let nodes = program.add_global("nodes", 64);
//! let mut b = FunctionBuilder::new("find_lightest");
//! let head = b.param();
//! let pre = b.new_block();
//! let header = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! let c = b.copy(head);
//! let wm = b.copy(i64::MAX);
//! b.br(pre);
//! b.switch_to(pre);
//! b.br(header);
//! b.switch_to(header);
//! let done = b.binop(BinOp::Eq, c, 0i64);
//! b.cond_br(done, exit, body);
//! b.switch_to(body);
//! let w = b.load(c, 0);
//! let better = b.binop(BinOp::Lt, w, wm);
//! let nwm = b.select(better, w, wm);
//! b.copy_into(wm, nwm);
//! let next = b.load(c, 1);
//! b.copy_into(c, next);
//! b.br(header);
//! b.switch_to(exit);
//! b.ret(Some(Operand::Reg(wm)));
//! let func = program.add_func(b.finish());
//!
//! let analysis = derive_loop_spec(&program, func, None).unwrap();
//! let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(2, 3))
//!     .apply(&mut program, &analysis)
//!     .unwrap();
//!
//! let mut machine = Machine::new(MachineConfig::test_tiny(2), program);
//! // Three-node list: weights 9, 4, 7.
//! for (i, w) in [9i64, 4, 7].iter().enumerate() {
//!     let a = nodes + 2 * i as i64;
//!     machine.mem_mut().write(a, *w).unwrap();
//!     let next = if i < 2 { a + 2 } else { 0 };
//!     machine.mem_mut().write(a + 1, next).unwrap();
//! }
//! let mut runner = SpiceRunner::new(spice);
//! let report = runner.run_invocation(&mut machine, &[nodes]).unwrap();
//! assert_eq!(report.return_value, Some(4));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod baseline;
pub mod lint;
pub mod pipeline;
pub mod predictor;
pub mod prepared;
pub mod transform;
pub mod valuepred;

pub use backend::{make_backend, make_backend_with, BackendChoice, SimBackend};
pub use pipeline::{InvocationReport, SpiceRunner};
pub use predictor::{Assignment, PredictorLayout, PredictorOptions};
pub use prepared::PreparedProgram;
pub use spice_ir::analysis;
pub use transform::{SpiceOptions, SpiceParallelLoop, SpiceTransform, TransformError};
