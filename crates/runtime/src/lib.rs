//! # spice-runtime — native-thread speculative execution substrate
//!
//! The timing simulator (`spice-sim`) reproduces the paper's *measurements*;
//! this crate reproduces its *execution model* on real OS threads, for use as
//! a library runtime: a shared word heap with speculative write buffering
//! ([`heap::SharedHeap`], [`heap::SpecView`]) — the software equivalent of
//! the paper's §3 architectural support — and
//! [`ir_backend::NativeLoopBackend`], which runs *unmodified* `spice-ir`
//! loops in Spice chunks on a pre-spawned pool of OS threads behind the
//! shared [`spice_ir::exec::ExecutionBackend`] API, carrying memoized chunk
//! boundaries and the load-balancing work model (Algorithm 2,
//! [`chunk_memo_plan`]) across invocations.
//!
//! A squashed thread must never have published anything, so speculative
//! threads never write shared memory: they buffer, and only the main thread
//! commits validated buffers, in order. The heap itself is atomic words, so
//! the one race the protocol allows — a worker reading a word the main
//! thread is storing — is defined behaviour that validation then squashes
//! (see the [`heap`] module); the crate, like the whole workspace, contains
//! no `unsafe`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod heap;
pub mod ir_backend;

pub use heap::{SharedHeap, SpecView};
pub use ir_backend::{chunk_memo_plan, NativeLoopBackend};
