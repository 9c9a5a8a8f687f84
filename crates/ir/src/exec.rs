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
//! * [`CommitChain`] — the one ordered-commit rule: fed each chunk's end and
//!   RAW witness in thread order, it names commit or the squash cause, for
//!   the native commit loop and the simulator's report and trace alike;
//! * [`Throttle`] — the one dependence-violation throttle: after repeated
//!   violations by worker 1 it runs invocations without workers, re-probing
//!   with exponential back-off; the native backend steps it, and the
//!   simulator's generated merge chain implements it;
//! * [`SpiceLoopSpec`] / [`derive_loop_spec`] — the backend-neutral summary
//!   of the target loop (header, speculated cursor registers, recognised
//!   reductions, live-out fold contract) every backend chunks it by,
//!   re-exported from [`crate::analysis`]. It admits only a loop that runs
//!   exactly once per call, so every worker of an invocation runs a chunk.
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
use crate::types::{BlockId, FuncId, Reg, TrapKind};
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

/// Why a speculative chunk was squashed, as [`CommitChain::judge`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisspeculationCause {
    /// The first chunk whose start neither the main chunk nor its committed
    /// predecessor handed off: the prediction no longer appeared in the
    /// traversal (the paper's primary squash reason), or the loop ended first.
    StalePrediction,
    /// The chunk's start was validated, then it trapped (e.g. chased a
    /// dangling pointer).
    Fault(TrapKind),
    /// An earlier chunk was squashed, so this one was squashed in the
    /// cascade.
    SquashCascade,
    /// The chunk's start was validated, but it read a word that a logically
    /// earlier chunk wrote — a cross-chunk memory flow (RAW) dependence
    /// violated by the speculation ([`ConflictPolicy::Detect`]). `addr` is
    /// the smallest conflicting word address, as a diagnosis witness.
    DependenceViolation {
        /// Smallest word address present in both the chunk's read set and an
        /// earlier chunk's write set.
        addr: i64,
    },
}

/// How a speculative chunk stopped, as the ordered commit sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEnd {
    /// At its successor's predicted start: the hand-off.
    Handoff,
    /// At the loop's exit.
    Exit,
    /// Anywhere else: a trap or an exhausted budget.
    Fault(TrapKind),
}

/// The paper's §3 ordered-commit rule, stepped over one invocation's chunks
/// in thread order: a chunk commits iff its start was validated, it stopped
/// where it should (its successor's start or the loop's exit) and its reads
/// miss every earlier committed write; everything after the first failure is
/// squashed. The state is what the chain says about the *next* start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitChain {
    /// Handed off by the main chunk or the last committed chunk: the only
    /// state in which the chunk's own end and RAW witness decide anything.
    Validated,
    /// Not handed off by the main chunk or the last committed chunk.
    Unvalidated,
    /// A chunk was squashed: every later chunk is squashed in cascade.
    Broken,
}

impl CommitChain {
    /// The chain after the main chunk stopped with `main`.
    #[must_use]
    pub fn new(main: ChunkEnd) -> Self {
        if main == ChunkEnd::Handoff {
            CommitChain::Validated
        } else {
            CommitChain::Unvalidated
        }
    }

    /// Judges the next chunk from how it `end`ed and its RAW `witness` (a
    /// word it read that an earlier committed chunk wrote): `None` commits
    /// it, otherwise the squash cause. A validated chunk with a witness is a
    /// dependence violation even if it then faulted: the stale read came
    /// first, and may be what made it fault.
    pub fn judge(&mut self, end: ChunkEnd, witness: Option<i64>) -> Option<MisspeculationCause> {
        use MisspeculationCause as Cause;
        let cause = match (*self, end, witness) {
            (CommitChain::Broken, ..) => Some(Cause::SquashCascade),
            (CommitChain::Unvalidated, ..) => Some(Cause::StalePrediction),
            (CommitChain::Validated, _, Some(addr)) => Some(Cause::DependenceViolation { addr }),
            (CommitChain::Validated, ChunkEnd::Fault(trap), None) => Some(Cause::Fault(trap)),
            (CommitChain::Validated, _, None) => None,
        };
        *self = match cause {
            Some(_) => CommitChain::Broken,
            None => CommitChain::new(end),
        };
        cause
    }
}

/// The dependence-violation throttle (in the spirit of Cintra and
/// Torrellas, HPCA 2002: learn from cross-thread violations instead of
/// squashing again): after [`Throttle::K`] invocations in a row whose first
/// worker was squashed for a [`MisspeculationCause::DependenceViolation`],
/// the next invocations run without workers — the main thread runs the loop
/// alone, memoizing for the next probe — and the number it skips doubles
/// with every further violating probe, up to [`Throttle::CAP`]. A probe
/// whose first worker commits ends the streak, so a loop whose conflicts
/// stop goes back to speculating.
///
/// The state is two counters. Only speculated invocations update them, and
/// only worker 1's verdict counts: a violation extends the streak, a commit
/// resets it, any other cause (a stale prediction, a fault) leaves it. Once
/// `streak ≥ K`, `skip = min(2^(streak − K), CAP)`. Before each invocation,
/// `skip > 0` throttles it and consumes one skip.
///
/// The native backend steps this value; the simulator keeps the same two
/// words in its predictor slab, written by the merge chain's worker-1
/// blocks and read by core 0's centralized step, and its report is pinned
/// to this rule invocation by invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Throttle {
    /// Consecutive speculated invocations whose worker 1 violated.
    pub streak: u64,
    /// Invocations still to run without workers.
    pub skip: u64,
}

impl Throttle {
    /// Violating invocations in a row before the throttle engages.
    pub const K: u64 = 2;
    /// The longest run of throttled invocations between two probes.
    pub const CAP: u64 = 16;

    /// Before an invocation: whether it runs without workers (consuming one
    /// skip if so).
    pub fn throttles(&mut self) -> bool {
        let throttled = self.skip > 0;
        self.skip -= u64::from(throttled);
        throttled
    }

    /// After a speculated invocation: absorbs worker 1's verdict (`None`
    /// when it committed).
    pub fn observe(&mut self, worker1: Option<MisspeculationCause>) {
        match worker1 {
            None => self.streak = 0,
            Some(MisspeculationCause::DependenceViolation { .. }) => {
                self.streak += 1;
                if self.streak >= Self::K {
                    let doubling = u32::try_from(self.streak - Self::K).unwrap_or(u32::MAX);
                    self.skip = 2u64.saturating_pow(doubling).min(Self::CAP);
                }
            }
            Some(_) => {}
        }
    }
}

/// Per-worker slice of an [`ExecutionReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Why the chunk was squashed; `None` if it committed.
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
    /// Whether the [`Throttle`] ran the invocation without workers: then
    /// no chunk was tasked, so none committed or was squashed.
    pub throttled: bool,
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
    /// A report whose `misspeculated`, `committed_chunks` and
    /// `squashed_chunks` derive from `workers`: a chunk committed iff its
    /// [`WorkerReport::cause`] is `None`.
    #[must_use]
    pub fn new(
        backend: &'static str,
        cost: ExecutionCost,
        return_value: Option<i64>,
        workers: Vec<WorkerReport>,
        work_per_thread: Vec<u64>,
    ) -> Self {
        let committed_chunks = workers.iter().filter(|w| w.cause.is_none()).count();
        let squashed_chunks = workers.len() - committed_chunks;
        ExecutionReport {
            backend,
            cost,
            return_value,
            misspeculated: squashed_chunks > 0,
            throttled: false,
            committed_chunks,
            squashed_chunks,
            workers,
            work_per_thread,
        }
    }

    /// The report of an invocation the [`Throttle`] ran without workers:
    /// no chunk was tasked, and every thread but the main one did no work.
    #[must_use]
    pub fn throttled(
        backend: &'static str,
        cost: ExecutionCost,
        return_value: Option<i64>,
        work_per_thread: Vec<u64>,
    ) -> Self {
        ExecutionReport {
            throttled: true,
            ..ExecutionReport::new(backend, cost, return_value, Vec::new(), work_per_thread)
        }
    }

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

/// The coarsest conflict-detection grain a backend accepts, as a
/// power-of-two word count: the simulator keeps its predictor words apart
/// from program data and from each other in slabs of `2^6` words, so a
/// coarser grain would put them back into one grain and report violations
/// the program does not have.
pub const MAX_CONFLICT_GRANULARITY_LOG2: u8 = 6;

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
    /// [`LoadOptions::conflict_granularity_log2`] is coarser than
    /// [`MAX_CONFLICT_GRANULARITY_LOG2`].
    Granularity(u8),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::NotLoaded => f.write_str("backend has no loaded program"),
            BackendError::Spec(e) => write!(f, "loop not chunkable: {e}"),
            BackendError::Analysis(m) => write!(f, "transformation failed: {m}"),
            BackendError::Engine(m) => write!(f, "execution failed: {m}"),
            BackendError::Memory(t) => write!(f, "non-speculative memory access failed: {t}"),
            BackendError::Granularity(g) => write!(
                f,
                "conflict-detection grain 2^{g} words is coarser than the \
                 2^{MAX_CONFLICT_GRANULARITY_LOG2} a backend accepts"
            ),
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
    /// Options with a first-invocation estimate.
    #[must_use]
    pub fn new(work_estimate: Option<u64>) -> Self {
        LoadOptions {
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
    /// words per grain; `0` = exact words, `3` = 64-byte lines). A grain
    /// coarser than [`MAX_CONFLICT_GRANULARITY_LOG2`] is refused by `load`.
    #[must_use]
    pub fn with_conflict_granularity_log2(mut self, granularity_log2: u8) -> Self {
        self.conflict_granularity_log2 = granularity_log2;
        self
    }

    /// Checks what every backend's `load` checks before anything else.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Granularity`] for a grain coarser than
    /// [`MAX_CONFLICT_GRANULARITY_LOG2`].
    pub fn validate(&self) -> Result<(), BackendError> {
        match self.conflict_granularity_log2 {
            g if g > MAX_CONFLICT_GRANULARITY_LOG2 => Err(BackendError::Granularity(g)),
            _ => Ok(()),
        }
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
    /// or transformed by this backend, or if `options` fail
    /// [`LoadOptions::validate`].
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
/// [`run_function`](crate::interp::run_function) would. A backend made by
/// [`InterpBackend::watching`] also watches loop headers: each time the
/// thread arrives at a watched header's first instruction it reads the
/// header's registers, without adding an instruction to the program or a
/// step to the run. The `(site, values)` events of each invocation are read
/// off the backend after the run ([`InterpBackend::profile_events`]).
#[derive(Debug, Default)]
pub struct InterpBackend {
    /// The decoded program (built once per `load`), the kernel, and the
    /// memory image.
    loaded: Option<(DecodedProgram, FuncId, FlatMemory)>,
    /// The watched headers: `(function, header, registers)`, site = index.
    watches: Vec<(FuncId, BlockId, Vec<Reg>)>,
    /// `site_at[pc]`: the site whose header starts at `pc` (resolved by
    /// `load`; empty when nothing is watched).
    site_at: Vec<Option<u32>>,
    /// Every event's values, back to back.
    values: Vec<i64>,
    /// Per invocation since `load`: `(site, start in values)` per event.
    events: Vec<Vec<(u32, usize)>>,
}

impl InterpBackend {
    /// Creates an unloaded interpreter backend that watches nothing.
    #[must_use]
    pub fn new() -> Self {
        InterpBackend::default()
    }

    /// Creates an unloaded interpreter backend that records, at every
    /// arrival at each `(function, header)` block, the values of its
    /// registers; the event's site is the header's index in `headers`.
    ///
    /// # Panics
    ///
    /// `load` panics if the loaded program has no such function or block.
    #[must_use]
    pub fn watching(headers: Vec<(FuncId, BlockId, Vec<Reg>)>) -> Self {
        InterpBackend {
            watches: headers,
            ..InterpBackend::default()
        }
    }

    /// The `(site, values)` header-arrival events of every invocation run
    /// since `load`, one list per invocation, in order.
    pub fn profile_events(&self) -> impl Iterator<Item = Vec<(u32, &[i64])>> {
        self.events.iter().map(|events| {
            events
                .iter()
                .map(|&(site, at)| {
                    let len = self.watches[site as usize].2.len();
                    (site, &self.values[at..at + len])
                })
                .collect()
        })
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
        _options: LoadOptions,
    ) -> Result<(), BackendError> {
        let mem = FlatMemory::for_program(&program, 0);
        let decoded = DecodedProgram::new(&program);
        let pcs: Vec<usize> = self
            .watches
            .iter()
            .map(|&(func, header, _)| decoded.func(func).block_entry(header))
            .collect();
        self.site_at = vec![None; pcs.iter().max().map_or(0, |pc| pc + 1)];
        for (site, pc) in pcs.into_iter().enumerate() {
            self.site_at[pc] = Some(site as u32);
        }
        self.loaded = Some((decoded, kernel, mem));
        self.values.clear();
        self.events.clear();
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        &self.loaded.as_ref().expect("load() first").2
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        &mut self.loaded.as_mut().expect("load() first").2
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let (decoded, kernel, mem) = self.loaded.as_mut().ok_or(BackendError::NotLoaded)?;
        let (watches, site_at, values) = (&self.watches, &self.site_at, &mut self.values);
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        // One fuel for every interpreted run. The largest invocation of the
        // full-size suite (`mcf_app`) retires 1.6e5 instructions and a fig8
        // corpus loop (64 nodes) under a thousand, so `DEFAULT_FUEL` (5e8)
        // leaves three orders of magnitude of headroom while still turning
        // a runaway loop into `OutOfFuel` within seconds.
        let out = run_decoded_with(
            decoded,
            *kernel,
            args,
            mem,
            &mut LocalSys::new(),
            DEFAULT_FUEL,
            |thread| {
                if let Some(&Some(site)) = thread.pc().and_then(|pc| site_at.get(pc)) {
                    events.push((site, values.len()));
                    values.extend(watches[site as usize].2.iter().map(|&r| thread.reg(r)));
                }
            },
        )
        .map_err(|t| BackendError::Engine(t.to_string()))?;
        let elapsed = started.elapsed();
        self.events.push(events);
        Ok(ExecutionReport::new(
            "interp",
            ExecutionCost::WallNanos(elapsed.as_nanos()),
            out.return_value,
            Vec::new(),
            vec![out.stats.total],
        ))
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

    /// The commit rule's whole vocabulary: each chain below is the main
    /// chunk's end, then the workers' `(end, witness)` in thread order.
    #[test]
    fn commit_chain_names_every_cause() {
        use ChunkEnd::{Exit, Fault, Handoff};
        use MisspeculationCause as C;
        let trap = TrapKind::DivideByZero;
        let judge = |main: ChunkEnd, chunks: &[(ChunkEnd, Option<i64>)]| {
            let mut chain = CommitChain::new(main);
            let verdicts: Vec<_> = chunks.iter().map(|&(e, w)| chain.judge(e, w)).collect();
            verdicts
        };
        // Every start handed off, the last chunk at the exit: all commit.
        assert_eq!(
            judge(Handoff, &[(Handoff, None), (Exit, None)]),
            [None, None]
        );
        // A validated start, then a fault or a RAW witness; the cascade. A
        // witness outranks the fault it may have caused.
        assert_eq!(
            judge(Handoff, &[(Fault(trap), None), (Exit, None)]),
            [Some(C::Fault(trap)), Some(C::SquashCascade)]
        );
        assert_eq!(
            judge(Handoff, &[(Fault(trap), Some(4)), (Exit, None)]),
            [
                Some(C::DependenceViolation { addr: 4 }),
                Some(C::SquashCascade)
            ]
        );
        assert_eq!(
            judge(Handoff, &[(Handoff, None), (Exit, Some(8)), (Exit, None)]),
            [
                None,
                Some(C::DependenceViolation { addr: 8 }),
                Some(C::SquashCascade)
            ]
        );
        // A start nobody handed off: the main chunk or a committed
        // predecessor reached the exit first. No witness is read there.
        assert_eq!(
            judge(Exit, &[(Handoff, None), (Exit, None)]),
            [Some(C::StalePrediction), Some(C::SquashCascade)]
        );
        assert_eq!(
            judge(Handoff, &[(Exit, None), (Handoff, Some(3))]),
            [None, Some(C::StalePrediction)]
        );

        // What the chain says about the next start.
        let mut chain = CommitChain::new(Handoff);
        chain.judge(Exit, None);
        assert_eq!(chain, CommitChain::Unvalidated);
        chain.judge(Handoff, None);
        assert_eq!(chain, CommitChain::Broken);
    }

    /// The throttle's rule over a violating run: the streak grows with every
    /// violating probe, the skips double from the `K`-th one, and every
    /// throttled invocation consumes one — the `C V V T V T T V T T …`
    /// sequence of a loop whose first worker always violates.
    #[test]
    fn throttle_backs_off_exponentially_on_a_violating_run() {
        let violation = Some(MisspeculationCause::DependenceViolation { addr: 7 });
        let mut throttle = Throttle::default();
        let mut seen = String::new();
        let mut states = Vec::new();
        for inv in 0..12 {
            if throttle.throttles() {
                seen.push('T');
            } else {
                let committed = inv == 0;
                seen.push(if committed { 'C' } else { 'V' });
                throttle.observe(if committed { None } else { violation });
            }
            states.push((throttle.streak, throttle.skip));
        }
        assert_eq!(seen, "CVVTVTTVTTTT");
        assert_eq!(
            states[..8],
            [
                (0, 0),
                (1, 0),
                (2, 1),
                (2, 0),
                (3, 2),
                (3, 1),
                (3, 0),
                (4, 4)
            ]
        );
    }

    /// A worker-1 commit ends the streak (the skips already granted run
    /// out), and causes other than a violation leave the state alone.
    #[test]
    fn throttle_resets_on_a_commit_and_ignores_other_causes() {
        let violation = Some(MisspeculationCause::DependenceViolation { addr: 1 });
        let mut throttle = Throttle::default();
        throttle.observe(violation);
        for other in [
            MisspeculationCause::StalePrediction,
            MisspeculationCause::Fault(TrapKind::OutOfFuel),
        ] {
            throttle.observe(Some(other));
            assert_eq!(throttle, Throttle { streak: 1, skip: 0 });
        }
        throttle.observe(violation);
        assert_eq!(throttle, Throttle { streak: 2, skip: 1 });
        throttle.observe(None);
        assert_eq!(throttle, Throttle { streak: 0, skip: 1 });
        assert!(throttle.throttles());
        assert!(!throttle.throttles());
        // A fresh streak must reach `K` again before anything is throttled.
        throttle.observe(violation);
        assert_eq!(throttle, Throttle { streak: 1, skip: 0 });
    }

    /// The skips stop doubling at the cap, however long the streak.
    #[test]
    fn throttle_skips_are_capped() {
        let violation = Some(MisspeculationCause::DependenceViolation { addr: 1 });
        let mut throttle = Throttle::default();
        let mut skips = Vec::new();
        for _ in 0..70 {
            throttle.observe(violation);
            skips.push(throttle.skip);
        }
        assert_eq!(skips[..8], [0, 1, 2, 4, 8, 16, 16, 16]);
        assert!(skips.iter().all(|&s| s <= Throttle::CAP));
        assert_eq!(
            throttle,
            Throttle {
                streak: 70,
                skip: Throttle::CAP
            }
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
    /// each invocation's header-arrival events separately.
    #[test]
    fn interp_backend_runs_invocations_and_keeps_their_profile_events() {
        let mut b = FunctionBuilder::new("load_and_report");
        let addr = b.param();
        let v = b.load(addr, 0);
        let report = b.new_block();
        b.br(report);
        b.switch_to(report);
        b.ret(Some(Operand::Reg(v)));
        let mut p = Program::new();
        let cell = p.add_global("cell", 1);
        let f = p.add_func(b.finish());

        let mut backend = InterpBackend::watching(vec![(f, report, vec![addr, v])]);
        assert!(matches!(
            backend.run_invocation(&[cell]),
            Err(BackendError::NotLoaded)
        ));
        backend.load(p, f, LoadOptions::new(None)).unwrap();
        for value in [41, 42] {
            backend.mem_mut().write(cell, value).unwrap();
            let report = backend.run_invocation(&[cell]).unwrap();
            assert_eq!(report.return_value, Some(value));
            assert_eq!(report.work_per_thread.len(), 1);
            // The load and the branch; watching adds nothing.
            assert_eq!(report.work_per_thread, [2]);
            assert!(!report.misspeculated);
        }
        let events: Vec<_> = backend.profile_events().collect();
        assert_eq!(
            events,
            vec![vec![(0, &[cell, 41][..])], vec![(0, &[cell, 42][..])]]
        );
        // An out-of-range access is a typed engine error, not a panic.
        assert!(matches!(
            backend.run_invocation(&[-5]),
            Err(BackendError::Engine(_))
        ));
    }

    #[test]
    fn report_helpers() {
        let report = ExecutionReport::new(
            "test",
            ExecutionCost::Cycles(100),
            Some(7),
            vec![
                WorkerReport {
                    cause: None,
                    work: 10,
                },
                WorkerReport {
                    cause: Some(MisspeculationCause::StalePrediction),
                    work: 3,
                },
            ],
            vec![10, 10, 0],
        );
        assert!(report.misspeculated);
        assert!(!report.throttled);
        assert_eq!((report.committed_chunks, report.squashed_chunks), (1, 1));
        assert_eq!(report.cost.magnitude(), 100);
        assert_eq!(
            report.misspeculation_causes(),
            vec![MisspeculationCause::StalePrediction]
        );
        assert_eq!(ExecutionCost::WallNanos(5).magnitude(), 5);

        let throttled =
            ExecutionReport::throttled("test", ExecutionCost::Cycles(100), Some(7), vec![10, 0, 0]);
        assert!(throttled.throttled && !throttled.misspeculated);
        assert_eq!(
            (throttled.committed_chunks, throttled.squashed_chunks),
            (0, 0)
        );
        assert!(throttled.workers.is_empty());
    }

    #[test]
    fn load_options_refuse_grains_coarser_than_the_slab() {
        let at = |g| LoadOptions::new(None).with_conflict_granularity_log2(g);
        assert_eq!(at(MAX_CONFLICT_GRANULARITY_LOG2).validate(), Ok(()));
        assert_eq!(at(7).validate(), Err(BackendError::Granularity(7)));
    }
}
