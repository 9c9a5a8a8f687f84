//! # spice-runtime — native-thread speculative execution substrate
//!
//! The timing simulator (`spice-sim`) reproduces the paper's *measurements*;
//! this crate reproduces its *execution model* on real OS threads, for use as
//! a library runtime: speculative write buffering over the loop's one memory
//! image ([`heap::SpecView`]) — the software equivalent of the paper's §3
//! architectural support — and [`ir_backend::NativeLoopBackend`], which runs
//! *unmodified* `spice-ir` loops in Spice chunks on a pre-spawned pool of OS
//! threads behind the shared [`spice_ir::exec::ExecutionBackend`] API,
//! carrying memoized chunk boundaries and the load-balancing work model
//! (Algorithm 2, [`chunk_memo_plan`]) across invocations.
//!
//! A squashed chunk must never have published anything, so while chunks run
//! nobody writes memory at all: every chunk reads the frozen image and
//! buffers its stores, and after the last join the main thread applies the
//! buffers the one commit rule ([`spice_ir::exec::CommitChain`]) committed,
//! in order. Reads and writes of the image never overlap
//! in time, which the `Arc` that shares it enforces (see the [`heap`]
//! module); the crate, like the whole workspace, contains no `unsafe`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod heap;
pub mod ir_backend;

pub use heap::SpecView;
pub use ir_backend::{chunk_memo_plan, NativeLoopBackend};
