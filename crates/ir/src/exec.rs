//! The execution-backend abstraction: one API over every way of running a
//! Spice-parallelizable loop.
//!
//! The reproduction runs a loop four ways — Spice-transformed on the
//! cycle-accurate timing simulator (`spice-core`'s `SimBackend`), in Spice
//! chunks on native OS threads (`spice-runtime`'s `NativeLoopBackend`), and
//! sequentially, either on one simulated core (`spice-sim`'s
//! `SequentialSimBackend`) or on the plain interpreter ([`InterpBackend`],
//! here). The paper's speedups are a ratio of the first and the third over
//! the *same* invocations, so all four sit behind one seam:
//!
//! * [`ExecutionBackend`] — load an IR program once, then run the target
//!   loop invocation by invocation, with the backend carrying the memoized
//!   chunk-boundary predictions and load-balancing state across invocations
//!   (paper Algorithm 2);
//! * [`ExecutionReport`] — the common per-invocation result: a cost that is
//!   either simulated cycles or wall time, the return value, committed and
//!   squashed chunk counts, per-worker mis-speculation causes and per-thread
//!   work counters;
//! * [`SpiceLoopSpec`] / [`derive_loop_spec`] — the backend-neutral summary
//!   of the target loop (header, speculated cursor registers, recognised
//!   reductions, live-out fold contract) every backend chunks it by,
//!   re-exported from [`crate::analysis`].
//!
//! Consumers hold a `&mut dyn ExecutionBackend` and never mention a machine
//! or a thread pool: `spice_workloads::drive_loaded_workload` is the one
//! invocation loop, driving any workload over any backend.
//!
//! The [`conflict`] submodule adds the memory-dependence speculation layer:
//! word-granular [`AccessSet`] read/write-set summaries and the
//! [`ConflictPolicy`] chosen per [`LoadOptions`]. Under the default
//! [`ConflictPolicy::Detect`], every backend tracks each speculative chunk's
//! read set alongside its store buffer and squashes — with
//! [`MisspeculationCause::DependenceViolation`] — any chunk whose reads
//! intersect an earlier uncommitted chunk's writes, so loops with genuine
//! cross-chunk memory flow dependences (e.g. mcf's real
//! `refresh_potential`) execute correctly on both substrates.

pub mod conflict;
pub mod dense;

pub use crate::analysis::{derive_loop_spec, CombineKind, LiveOutGroup, SpecError, SpiceLoopSpec};
pub use conflict::{AccessSet, ConflictPolicy};
pub use dense::DenseMap;

use crate::interp::{run_decoded_with, FlatMemory, LocalSys, DEFAULT_FUEL};
use crate::types::{BlockId, FuncId, TrapKind};
use crate::{DecodedProgram, Program};

/// What one invocation cost, in the backend's native unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionCost {
    /// Simulated cycles (timing-model backends).
    Cycles(u64),
    /// Wall-clock nanoseconds (host-speed backends: native threads, the
    /// plain interpreter).
    WallNanos(u128),
}

impl ExecutionCost {
    /// The raw magnitude, unit discarded — only comparable against costs of
    /// the same backend.
    #[must_use]
    pub fn magnitude(&self) -> u128 {
        match self {
            ExecutionCost::Cycles(c) => u128::from(*c),
            ExecutionCost::WallNanos(n) => *n,
        }
    }
}

/// Why a speculative chunk was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisspeculationCause {
    /// The chunk's starting prediction no longer appeared in the traversal
    /// (boundary mismatch — the paper's primary squash reason).
    StalePrediction,
    /// The chunk trapped while executing (e.g. chased a dangling pointer).
    Fault(TrapKind),
    /// An earlier chunk failed, so this chunk's starting point was never
    /// validated and it was squashed in the cascade.
    SquashCascade,
    /// The chunk never ran (no prediction was available yet — e.g. the
    /// first invocation, before anything was memoized).
    NoPrediction,
    /// The chunk read a word that a logically earlier, not-yet-committed
    /// chunk wrote — a cross-chunk memory flow (RAW) dependence violated by
    /// the speculation ([`ConflictPolicy::Detect`]). `addr` is the smallest
    /// conflicting word address, as a diagnosis witness.
    DependenceViolation {
        /// Smallest word address present in both the chunk's read set and an
        /// earlier chunk's write set.
        addr: i64,
    },
}

/// Per-worker slice of an [`ExecutionReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Whether the chunk was validated and committed.
    pub committed: bool,
    /// Squash cause for uncommitted chunks.
    pub cause: Option<MisspeculationCause>,
    /// Iterations (or retired instructions, for timing backends) executed.
    pub work: u64,
}

/// The common result of one parallel loop invocation, produced by every
/// [`ExecutionBackend`].
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Which backend produced this report.
    pub backend: &'static str,
    /// Cost of the invocation in the backend's native unit.
    pub cost: ExecutionCost,
    /// Return value of the kernel function.
    pub return_value: Option<i64>,
    /// Whether any speculative chunk was squashed.
    pub misspeculated: bool,
    /// Number of speculative chunks validated and committed.
    pub committed_chunks: usize,
    /// Number of speculative chunks squashed.
    pub squashed_chunks: usize,
    /// Per-worker outcomes (speculative threads only; the main thread is
    /// never squashed).
    pub workers: Vec<WorkerReport>,
    /// Work executed by each thread, main thread first.
    pub work_per_thread: Vec<u64>,
}

impl ExecutionReport {
    /// Convenience: the per-worker squash causes of this invocation.
    #[must_use]
    pub fn misspeculation_causes(&self) -> Vec<MisspeculationCause> {
        self.workers.iter().filter_map(|w| w.cause).collect()
    }
}

/// Mean, over invocations, of the coefficient of variation of per-thread
/// work — 0 means perfectly balanced chunks. Every thread the invocation
/// configured counts, *including* threads that did no work: a starved
/// worker is the worst imbalance there is, not a thread to exclude from the
/// statistic. Invocations configured with fewer than two threads, or where
/// no thread did any work, are skipped. One definition shared by every
/// backend's aggregate statistics, so "imbalance" means the same thing in
/// every table.
#[must_use]
pub fn work_imbalance(work_per_invocation: &[Vec<u64>]) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for inv in work_per_invocation {
        if inv.len() < 2 || inv.iter().all(|&w| w == 0) {
            continue;
        }
        let threads: Vec<f64> = inv.iter().map(|&w| w as f64).collect();
        let mean = threads.iter().sum::<f64>() / threads.len() as f64;
        let var =
            threads.iter().map(|w| (w - mean) * (w - mean)).sum::<f64>() / threads.len() as f64;
        total += var.sqrt() / mean;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Errors surfaced by an execution backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// `run_invocation` was called before `load`.
    NotLoaded,
    /// The target loop cannot be executed by this backend.
    Spec(SpecError),
    /// The transformation of an applicable loop failed (message from the
    /// backend's front-end).
    Analysis(String),
    /// The underlying engine failed (simulator error, deadlocked thread…).
    Engine(String),
    /// A non-speculative memory access trapped.
    Memory(TrapKind),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::NotLoaded => f.write_str("backend has no loaded program"),
            BackendError::Spec(e) => write!(f, "loop not chunkable: {e}"),
            BackendError::Analysis(m) => write!(f, "transformation failed: {m}"),
            BackendError::Engine(m) => write!(f, "execution failed: {m}"),
            BackendError::Memory(t) => write!(f, "non-speculative memory access failed: {t}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<SpecError> for BackendError {
    fn from(e: SpecError) -> Self {
        BackendError::Spec(e)
    }
}

impl From<TrapKind> for BackendError {
    fn from(t: TrapKind) -> Self {
        BackendError::Memory(t)
    }
}

/// Options for [`ExecutionBackend::load`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Heap words to reserve past the program's globals.
    pub heap_words: usize,
    /// Header of the target loop; `None` selects the function's largest
    /// top-level loop.
    pub loop_header: Option<BlockId>,
    /// Expected iterations of the first invocation — seeds the load
    /// balancer so memoization starts immediately (paper Algorithm 2).
    pub work_estimate: Option<u64>,
    /// How the backend treats cross-chunk memory dependences. The default,
    /// [`ConflictPolicy::Detect`], tracks read/write sets and squashes
    /// violating chunks; [`ConflictPolicy::AssumeIndependent`] skips all
    /// tracking for loops known to carry no cross-chunk memory flow.
    pub conflict_policy: ConflictPolicy,
    /// Conflict-detection granularity as a power-of-two word count: every
    /// tracked address is coarsened to a `2^conflict_granularity_log2`-word
    /// grain before the read/write-set comparison. `0` (the default) is
    /// exact word granularity; `3` models 64-byte-line hardware detection,
    /// which trades set size for false conflicts between distinct words
    /// sharing a line.
    pub conflict_granularity_log2: u8,
}

impl LoadOptions {
    /// Options with a heap reservation and a first-invocation estimate.
    #[must_use]
    pub fn new(heap_words: usize, work_estimate: Option<u64>) -> Self {
        LoadOptions {
            heap_words,
            loop_header: None,
            work_estimate,
            conflict_policy: ConflictPolicy::default(),
            conflict_granularity_log2: 0,
        }
    }

    /// The same options with an explicit conflict policy.
    #[must_use]
    pub fn with_conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.conflict_policy = policy;
        self
    }

    /// The same options with a conflict-detection granularity (power-of-two
    /// words per grain; `0` = exact words, `3` = 64-byte lines).
    #[must_use]
    pub fn with_conflict_granularity_log2(mut self, granularity_log2: u8) -> Self {
        self.conflict_granularity_log2 = granularity_log2;
        self
    }
}

/// One way of executing a loop: Spice-parallelized on the timing simulator
/// or on native threads, or sequentially on one simulated core or the plain
/// interpreter.
///
/// Lifecycle: [`load`](ExecutionBackend::load) once per program, mutate the
/// canonical memory through [`mem_mut`](ExecutionBackend::mem_mut) (workload
/// drivers build their data structures there), then call
/// [`run_invocation`](ExecutionBackend::run_invocation) per loop invocation.
/// The backend carries predictions and load-balancing state between
/// invocations, exactly like the paper's runtime.
pub trait ExecutionBackend {
    /// Short stable name ("sim", "native", …) used in reports.
    fn name(&self) -> &'static str;

    /// Total threads (main + speculative workers) this backend runs with.
    fn threads(&self) -> usize;

    /// Loads a program and prepares the target loop of `kernel` for chunked
    /// execution. Resets any predictor state from a previous program.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the loop cannot be analysed, chunked,
    /// or transformed by this backend.
    fn load(
        &mut self,
        program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<(), BackendError>;

    /// The canonical flat memory image. Workload drivers read expected
    /// results from here between invocations.
    ///
    /// # Panics
    ///
    /// May panic if called before [`load`](ExecutionBackend::load).
    fn mem(&self) -> &FlatMemory;

    /// Mutable canonical memory — workload drivers initialize and mutate
    /// their data structures here between invocations.
    ///
    /// # Panics
    ///
    /// May panic if called before [`load`](ExecutionBackend::load).
    fn mem_mut(&mut self) -> &mut FlatMemory;

    /// Runs one invocation of the loaded kernel with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the non-speculative execution itself
    /// fails. Mis-speculation is *not* an error — it is reported in the
    /// [`ExecutionReport`].
    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError>;

    /// Turns on structured event tracing with a ring buffer of `capacity`
    /// events. Backends that do not support tracing ignore the call; tracing
    /// is observational only and must never change execution outcomes (for
    /// the simulator: never change simulated cycles).
    fn enable_trace(&mut self, _capacity: usize) {}

    /// The trace recorded so far, if tracing is supported and enabled.
    fn trace(&self) -> Option<&crate::trace::TraceRecorder> {
        None
    }
}

/// Sequential execution on the plain interpreter: no timing model, no
/// speculation — the ground truth every speculative backend must match
/// bit-for-bit, and the substrate the §6 value profiler records from.
///
/// Every invocation runs on a fresh [`LocalSys`], exactly as
/// [`run_function`](crate::interp::run_function) would; the ports are kept,
/// so the `profile` hook events of an instrumented program can be read off
/// the backend after the run ([`InterpBackend::profile_events`]).
#[derive(Debug, Default)]
pub struct InterpBackend {
    /// The program with its decoded form (built once per `load`), the
    /// kernel, and the memory image.
    loaded: Option<(Program, DecodedProgram, FuncId, FlatMemory)>,
    ports: Vec<LocalSys>,
}

impl InterpBackend {
    /// Creates an unloaded interpreter backend.
    #[must_use]
    pub fn new() -> Self {
        InterpBackend::default()
    }

    /// The `(site, values)` profile-hook events of every invocation run
    /// since `load`, one list per invocation, in order.
    pub fn profile_events(&self) -> impl Iterator<Item = Vec<(u32, &[i64])>> {
        self.ports.iter().map(LocalSys::profile_events)
    }
}

impl ExecutionBackend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn threads(&self) -> usize {
        1
    }

    fn load(
        &mut self,
        program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<(), BackendError> {
        let mem = FlatMemory::for_program(&program, options.heap_words);
        let decoded = DecodedProgram::new(&program);
        self.loaded = Some((program, decoded, kernel, mem));
        self.ports.clear();
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        &self.loaded.as_ref().expect("load() first").3
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        &mut self.loaded.as_mut().expect("load() first").3
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let (program, decoded, kernel, mem) =
            self.loaded.as_mut().ok_or(BackendError::NotLoaded)?;
        let mut sys = LocalSys::new();
        let started = std::time::Instant::now();
        // One fuel for every interpreted run. The largest invocation of the
        // full-size suite (`mcf_app`) retires 1.6e5 instructions and a fig8
        // corpus loop (64 nodes) under a thousand, so `DEFAULT_FUEL` (5e8)
        // leaves three orders of magnitude of headroom while still turning
        // a runaway loop into `OutOfFuel` within seconds.
        let out = run_decoded_with(
            (program, decoded),
            *kernel,
            args,
            mem,
            &mut sys,
            DEFAULT_FUEL,
            |_, _, _| {},
        )
        .map_err(|t| BackendError::Engine(t.to_string()))?;
        let elapsed = started.elapsed();
        self.ports.push(sys);
        Ok(ExecutionReport {
            backend: "interp",
            cost: ExecutionCost::WallNanos(elapsed.as_nanos()),
            return_value: out.return_value,
            misspeculated: false,
            committed_chunks: 0,
            squashed_chunks: 0,
            workers: Vec::new(),
            work_per_thread: vec![out.stats.total],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::Operand;

    #[test]
    fn derive_finds_cursor_and_reduction() {
        let (p, f, ..) = crate::fixtures::list_min_program(32);
        let spec = derive_loop_spec(&p, f, None).unwrap();
        assert_eq!(spec.cursors.len(), 1, "one speculated cursor");
        assert_eq!(spec.reductions.len(), 1, "the min reduction");
        assert!(!spec.blocks.is_empty());
        assert_ne!(spec.header, spec.exit_edge.1);
    }

    #[test]
    fn derive_rejects_loopless_functions() {
        let mut b = FunctionBuilder::new("noloop");
        b.ret(None);
        let mut p = Program::new();
        let f = p.add_func(b.finish());
        assert_eq!(
            derive_loop_spec(&p, f, None).unwrap_err(),
            SpecError::NoSuchLoop
        );
    }

    /// Regression: an invocation where one worker starved entirely must read
    /// as *less* balanced than one where every thread worked — the old code
    /// filtered zero-work threads out before computing the CV, so a fully
    /// starved `[N, 0, 0, 0]` invocation scored a perfect 0.
    #[test]
    fn starved_threads_count_as_imbalance() {
        let starved = work_imbalance(&[vec![8, 0, 0, 0]]);
        // CV of [8,0,0,0]: mean 2, stddev 2*sqrt(3).
        assert!(
            (starved - 3f64.sqrt()).abs() < 1e-12,
            "starved CV was {starved}"
        );
        let balanced = work_imbalance(&[vec![8, 8, 8, 8]]);
        assert!(balanced.abs() < 1e-12);
        let skewed = work_imbalance(&[vec![6, 2, 0, 0]]);
        assert!(
            balanced < skewed && skewed < starved,
            "ordering violated: balanced {balanced}, skewed {skewed}, starved {starved}"
        );
        // Nothing-ran invocations and single-thread vectors are still skipped.
        assert_eq!(work_imbalance(&[vec![0, 0, 0]]), 0.0);
        assert_eq!(work_imbalance(&[vec![100]]), 0.0);
        assert_eq!(work_imbalance(&[]), 0.0);
    }

    /// The interpreter backend runs invocation by invocation over its own
    /// memory, reports retired instructions as the thread's work, and keeps
    /// each invocation's profile-hook events separately.
    #[test]
    fn interp_backend_runs_invocations_and_keeps_their_profile_events() {
        let mut b = FunctionBuilder::new("load_and_report");
        let addr = b.param();
        let v = b.load(addr, 0);
        b.profile_hook(7, vec![addr, v]);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let cell = p.add_global("cell", 1);
        let f = p.add_func(b.finish());

        let mut backend = InterpBackend::new();
        assert!(matches!(
            backend.run_invocation(&[cell]),
            Err(BackendError::NotLoaded)
        ));
        backend.load(p, f, LoadOptions::new(16, None)).unwrap();
        for value in [41, 42] {
            backend.mem_mut().write(cell, value).unwrap();
            let report = backend.run_invocation(&[cell]).unwrap();
            assert_eq!(report.return_value, Some(value));
            assert_eq!(report.work_per_thread.len(), 1);
            assert!(report.work_per_thread[0] >= 2 && !report.misspeculated);
        }
        let events: Vec<_> = backend.profile_events().collect();
        assert_eq!(
            events,
            vec![vec![(7, &[cell, 41][..])], vec![(7, &[cell, 42][..])]]
        );
        // An out-of-range access is a typed engine error, not a panic.
        assert!(matches!(
            backend.run_invocation(&[-5]),
            Err(BackendError::Engine(_))
        ));
    }

    #[test]
    fn report_helpers() {
        let report = ExecutionReport {
            backend: "test",
            cost: ExecutionCost::Cycles(100),
            return_value: Some(7),
            misspeculated: true,
            committed_chunks: 1,
            squashed_chunks: 1,
            workers: vec![
                WorkerReport {
                    committed: true,
                    cause: None,
                    work: 10,
                },
                WorkerReport {
                    committed: false,
                    cause: Some(MisspeculationCause::StalePrediction),
                    work: 3,
                },
            ],
            work_per_thread: vec![10, 10, 0],
        };
        assert_eq!(report.cost.magnitude(), 100);
        assert_eq!(
            report.misspeculation_causes(),
            vec![MisspeculationCause::StalePrediction]
        );
        assert_eq!(ExecutionCost::WallNanos(5).magnitude(), 5);
    }
}
