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
//! Speculation and rollback fight Rust's ownership model (a squashed thread
//! must never have published anything); the design confines that tension to
//! the heap module: speculative threads never write shared memory, they
//! buffer, and only the main thread commits validated buffers, in order.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod heap;
pub mod ir_backend;

pub use heap::{SharedHeap, SpecView};
pub use ir_backend::{chunk_memo_plan, NativeLoopBackend};
