//! The native-thread [`ExecutionBackend`]: Spice chunked execution of an
//! *unmodified* IR loop on real OS threads.
//!
//! Where the simulator backend runs the code-generated transformation
//! (worker functions, channels, resteers) on simulated cores, this backend
//! realizes the same execution model interpretively: every thread steps a
//! [`ThreadState`] over the **original** kernel function. The main thread
//! runs the kernel's entry code to its first arrival at the loop header and
//! hands every worker a copy of its state there; the worker sets the cursor
//! registers to its prediction row (zeroed until memoized, like `spice.sva`)
//! and the reductions to their identity, and iterates; the main thread
//! validates and commits the workers' buffered stores in thread order — the
//! paper's Figures 4/5 with the interpreter standing in for hardware.
//!
//! The execution model matches the paper's pre-spawned runtime: the worker
//! threads are spawned **once**, at the first invocation, and persist across
//! the whole run, waiting on their task channels between invocations. The
//! loop front end admits only a loop that runs exactly once per call, so
//! every invocation that does not trap reaches the header once and sends
//! every worker a `new_invocation` token there — a [`WorkerTask`] carrying
//! what the paper's token carries: the live-ins (the main thread's header
//! frame), the start/successor predictions and the memoization plan;
//! everything that is invariant across a `load` rides along as one shared
//! [`LoopContext`]. A worker therefore never executes entry code: its
//! registers are the main thread's at the header, every memory access it
//! makes is an access of the loop, and the only happens-before edges it
//! takes part in are the task send (which every entry-code store precedes)
//! and its result send (which precedes every write of the apply step). The
//! main chunk's write set starts at the header for the same reason — a
//! store that precedes every speculative read cannot be the earlier half of
//! a RAW violation. The simulator's conflict epoch opens at the same point,
//! the main thread's release of the workers, so the two backends squash for
//! the same reasons on every machine.
//!
//! A hand-off in either direction (a worker waiting for its task, the main
//! thread waiting for a [`WorkerChunk`]) polls its channel for
//! [`HANDOFF_SPIN`] before it parks in a blocking `recv` — when the pool
//! was spawned on a host with a core per thread; see [`recv_handoff`].
//!
//! The centralized half of Algorithm 2 ([`chunk_memo_plan`]) runs on the
//! main thread *inside* the timed window — where the simulator runs the same
//! step, as core 0's generated preheader code — so its wall-time is part of
//! the invocation's cost, not the driver's.
//!
//! Every chunk — the main thread's, a worker's, the main thread's resume
//! after the commit chain ends — is one call of [`run_chunk`], the only
//! place that knows what a header arrival, an iteration and a stop are.
//!
//! Under conflict detection the main thread also steps the one
//! dependence-violation throttle ([`Throttle`]), as the simulator's
//! generated merge chain does: worker 1's verdict feeds it after every
//! speculated invocation, and an invocation it throttles sends no
//! [`WorkerTask`] — the main thread runs the loop straight on the image, as
//! the resume does ([`run_to_return`]), memoizing per its plan, and reports
//! and narrates the invocation as tasking no chunk.
//!
//! Memory follows the `spice-runtime` speculation contract (the
//! [`crate::heap`] module): there is one memory, the [`FlatMemory`] image the
//! driver reads and writes between invocations. The entry code and the
//! resume step it directly, the one thread running; in between, the image is
//! frozen — the main chunk and every worker chunk read it through a
//! [`SpecView`] and buffer their stores — and after the last join the main
//! thread applies the main chunk's buffer and each committed worker's, in
//! thread order. The commit loop therefore only *decides*, by the one
//! ordered-commit rule ([`CommitChain::judge`], which the simulator's report
//! and trace use too); its `Verdict` list is applied, reported and narrated
//! to the trace afterwards.
//!
//! Chunk boundaries, squash recovery and the load balancer follow the
//! paper's protocol: immediate hand-off when a chunk reaches its successor's
//! predicted start, ordered commit, [`chunk_memo_plan`] thresholds. A
//! "chunk" is a slice of the *source loop's* iteration space.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spice_ir::exec::{
    derive_loop_spec, AccessSet, BackendError, ChunkEnd, CombineKind, CommitChain,
    ExecutionBackend, ExecutionCost, ExecutionReport, LoadOptions, MisspeculationCause,
    SpiceLoopSpec, Throttle, WorkerReport,
};
use spice_ir::interp::{FlatMemory, MemPort, StepEvent, SysPort, ThreadState};
use spice_ir::reduction::ReductionKind;
use spice_ir::{
    BlockId, DecodedProgram, FuncId, InstClass, Program, SquashForensics, TraceEvent,
    TraceRecorder, TrapKind,
};

use crate::heap::SpecView;

/// Default per-thread interpreter step budget per chunk. A stale prediction
/// can send a speculative chunk on an unbounded walk (the paper's "loop
/// forever" case); the budget bounds it when the squash flag cannot.
const DEFAULT_STEP_BUDGET: u64 = 200_000_000;

/// How often (in steps) a chunk polls its squash flag between header
/// arrivals — inner loops (e.g. mcf's climb) may not pass the header for a
/// while.
const SQUASH_POLL_INTERVAL: u64 = 1024;

/// How long a hand-off polls its channel before it parks (see
/// [`recv_handoff`]). Sized from the gap a worker actually waits out between
/// its result send and its next task — the rest of the commit loop, the
/// apply step, the workload driver's host-side bookkeeping and the next
/// invocation's entry code: 50–500 µs on the suite's loops, against the
/// 30–170 µs a futex wake of a halted vCPU costs on its own.
const HANDOFF_SPIN: Duration = Duration::from_micros(500);

/// Spice execution of IR loops on native OS threads, behind the shared
/// [`ExecutionBackend`] API. The worker pool is pre-spawned at the first
/// invocation and reused for every later one (and across `load`s — it
/// depends only on the thread count).
#[derive(Debug)]
pub struct NativeLoopBackend {
    threads: usize,
    loaded: Option<Loaded>,
    /// The `threads - 1` pre-spawned workers; empty until the first
    /// invocation.
    pool: Vec<PoolWorker>,
    tracing: NativeTracing,
}

/// Trace mirror state for the native backend. The simulator's chunk
/// lifecycle subset (`ChunkBegin`/`ChunkValidate`/`ChunkCommit`/
/// `ChunkSquash`, plus invocation and predictor markers) is re-emitted
/// here — by [`NativeTracing::narrate`], from the verdicts the commit loop
/// recorded in thread order, so the trace is deterministic regardless of how
/// the host schedules the worker threads. `at` carries a monotone sequence
/// number in place of a simulated cycle.
#[derive(Debug, Default)]
struct NativeTracing {
    rec: Option<TraceRecorder>,
    /// Monotone event sequence number (the native `at` coordinate).
    seq: u64,
    /// Monotone chunk id allocator; never reset, so ids are unique across
    /// invocations like the simulator's forensic chunk ids.
    chunk_next: u64,
    /// Zero-based invocation counter for `InvocationBegin`.
    invocations: u64,
}

impl NativeTracing {
    fn on(&self) -> bool {
        self.rec.is_some()
    }

    fn next_at(&mut self) -> u64 {
        let at = self.seq;
        self.seq += 1;
        at
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(rec) = self.rec.as_mut() {
            rec.emit(event);
        }
    }
}

/// What is invariant across a `load`, shared by the main thread and every
/// pool worker.
#[derive(Debug)]
struct LoopContext {
    /// The pre-decoded execution form every thread steps over (the
    /// structured [`Program`] is consumed by the loop analysis and the
    /// decode; nothing at run time walks it).
    program: DecodedProgram,
    /// The target loop; `spec.func` is the kernel.
    spec: SpiceLoopSpec,
    /// Whether cross-chunk memory dependences are detected
    /// ([`spice_ir::exec::ConflictPolicy::Detect`]): every chunk records its
    /// load set and the ordered validation squashes RAW violations.
    detect: bool,
    /// Conflict-set coarsening (power-of-two words per grain; 0 = exact).
    granularity_log2: u8,
}

#[derive(Debug)]
struct Loaded {
    ctx: Arc<LoopContext>,
    /// The loop's one memory. Uniquely held between invocations and
    /// whenever it is written; cloned into the [`WorkerTask`]s while the
    /// chunks run, which freezes it.
    mem: Arc<FlatMemory>,
    /// Memoized chunk-start live-ins, one row per speculative worker, one
    /// value per cursor register.
    predictions: Vec<Vec<i64>>,
    /// Per-thread iteration counts of the previous invocation (main first),
    /// feeding the load balancer.
    last_work: Vec<u64>,
    /// The memoization plan of the most recent invocation (the centralized
    /// step's output), per thread.
    last_plan: Vec<Vec<(u64, usize)>>,
    /// The dependence-violation throttle, stepped once per invocation.
    throttle: Throttle,
}

/// One `new_invocation` token: what a pre-spawned worker needs, beyond the
/// shared context, to run its speculative chunk for the current invocation.
struct WorkerTask {
    ctx: Arc<LoopContext>,
    /// The frozen image the chunk reads; dropped with the task, before the
    /// result send.
    mem: Arc<FlatMemory>,
    /// The main thread's state paused on its first header arrival: the
    /// chunk's live-ins, bound by the entry code the main thread ran.
    state: ThreadState,
    /// Predicted cursor values the chunk starts from.
    start: Vec<i64>,
    /// The next worker's predicted start, when it has one: this chunk's
    /// hand-off boundary.
    successor: Option<Vec<i64>>,
    plan: Vec<(u64, usize)>,
}

/// A pre-spawned worker thread: tasks go down `task_tx`, one
/// [`WorkerChunk`] comes back per task. The thread waits on its channel
/// between invocations — the software form of the paper's workers waiting
/// for the `new_invocation` token.
#[derive(Debug)]
struct PoolWorker {
    task_tx: Option<Sender<WorkerTask>>,
    result_rx: Receiver<WorkerChunk>,
    handle: Option<JoinHandle<()>>,
    /// Raised by the main thread to stop the worker's current chunk early.
    squash: Arc<AtomicBool>,
    /// Whether the hand-offs of this worker poll before they park — decided
    /// once, by whoever spawns the pool.
    spin: bool,
}

impl PoolWorker {
    fn spawn(spin: bool) -> Self {
        let (task_tx, task_rx) = std::sync::mpsc::channel::<WorkerTask>();
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let squash = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&squash);
        let handle = std::thread::spawn(move || {
            while let Ok(task) = recv_handoff(&task_rx, spin) {
                if result_tx.send(run_worker_chunk(task, &flag)).is_err() {
                    break;
                }
            }
        });
        PoolWorker {
            task_tx: Some(task_tx),
            result_rx,
            handle: Some(handle),
            squash,
            spin,
        }
    }

    fn send(&self, task: WorkerTask) -> Result<(), BackendError> {
        self.task_tx
            .as_ref()
            .expect("pool worker alive")
            .send(task)
            .map_err(|_| BackendError::Engine("pool worker thread died".to_string()))
    }

    fn recv(&self) -> Result<WorkerChunk, BackendError> {
        recv_handoff(&self.result_rx, self.spin)
            .map_err(|_| BackendError::Engine("pool worker thread died".to_string()))
    }
}

/// The one receive of the hand-off protocol, used in both directions. With
/// `spin`, polls `rx` for up to [`HANDOFF_SPIN`] — an `mpsc` send to a
/// polling receiver makes no system call, and the receiver sees the message
/// without a futex wake — and only then parks in the blocking `recv`, which
/// is all it does without `spin`. A closed channel ends either phase at
/// once, so dropping the pool never waits out a spin window.
///
/// `spin` must be false on a host with fewer cores than pool threads: a
/// poller that holds a core the sender needs delays the very message it
/// polls for (measured, DESIGN.md §2).
fn recv_handoff<T>(rx: &Receiver<T>, spin: bool) -> Result<T, RecvError> {
    if spin {
        let deadline = Instant::now() + HANDOFF_SPIN;
        while Instant::now() < deadline {
            match rx.try_recv() {
                Ok(message) => return Ok(message),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
            }
        }
    }
    rx.recv()
}

/// Whether this host has a core for each of `threads` pool threads — the
/// condition under which a waiting thread may poll instead of parking.
/// Affinity masks and cgroup quotas count: `available_parallelism` sees both.
fn host_has_a_core_per_thread(threads: usize) -> bool {
    threads <= std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

impl Drop for PoolWorker {
    fn drop(&mut self) {
        // Closing the task channel ends the worker's recv loop; then join.
        self.task_tx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Error-path cleanup: squash and drain the `outstanding` workers, so a
/// failed invocation leaves no stale results in the channels.
fn abort_pool(outstanding: &[PoolWorker]) {
    for worker in outstanding {
        worker.squash.store(true, Ordering::Release);
    }
    for worker in outstanding {
        let _ = worker.recv();
    }
}

/// The centralized half of the load balancer (paper Algorithm 2): given the
/// per-thread work distribution of the previous invocation, computes for
/// every thread the list of `(local iteration threshold, prediction row)`
/// pairs at which it should memoize its live-in values, so the next
/// invocation's chunk boundaries split the iteration space evenly.
///
/// This is the repository's one host-side planner
/// (`spice_core::predictor::plan` is an adapter over it). The simulator's
/// generated centralized step implements the same algorithm in IR;
/// `predictor_plans_identical_across_backends` pins the two to one another,
/// assignment for assignment.
#[must_use]
pub fn chunk_memo_plan(last_work: &[u64], threads: usize) -> Vec<Vec<(u64, usize)>> {
    let t = threads;
    let mut plan = vec![Vec::new(); t];
    let total: u64 = last_work.iter().sum();
    if total == 0 {
        return plan;
    }
    let mut prefix = vec![0u64; t + 1];
    for i in 0..t {
        prefix[i + 1] = prefix[i] + last_work.get(i).copied().unwrap_or(0);
    }
    for k in 1..t {
        let g = (k as u64 * total) / t as u64;
        let mut tid = t - 1;
        for i in 0..t {
            if last_work.get(i).copied().unwrap_or(0) > 0 && g <= prefix[i + 1] {
                tid = i;
                break;
            }
        }
        plan[tid].push(((g - prefix[tid]).max(1), k - 1));
    }
    for p in &mut plan {
        p.sort_unstable();
    }
    plan
}

impl NativeLoopBackend {
    /// Creates a backend running `threads` OS threads (one non-speculative
    /// main + `threads - 1` speculative workers).
    ///
    /// # Panics
    ///
    /// Panics if `threads < 2`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 2, "Spice needs at least two threads");
        NativeLoopBackend {
            threads,
            loaded: None,
            pool: Vec::new(),
            tracing: NativeTracing::default(),
        }
    }

    /// Current chunk-boundary predictions (one row per worker), for tests
    /// and diagnostics. Rows start zeroed, like the generated `spice.sva`.
    #[must_use]
    pub fn predictions(&self) -> Option<&[Vec<i64>]> {
        self.loaded.as_ref().map(|l| l.predictions.as_slice())
    }

    /// The centralized step's output for the most recent invocation,
    /// flattened to `(tid, threshold, row)` triples ordered by `sva` row —
    /// directly comparable with the simulator backend's reconstructed
    /// `Assignment` list. `None` before `load`, empty before the first
    /// invocation.
    #[must_use]
    pub fn last_plan(&self) -> Option<Vec<(usize, u64, usize)>> {
        let loaded = self.loaded.as_ref()?;
        let mut flat: Vec<(usize, u64, usize)> = loaded
            .last_plan
            .iter()
            .enumerate()
            .flat_map(|(tid, entries)| {
                entries
                    .iter()
                    .map(move |&(threshold, row)| (tid, threshold, row))
            })
            .collect();
        flat.sort_by_key(|&(_, _, row)| row);
        Some(flat)
    }

    /// Thread ids of the pre-spawned pool workers, in worker order — stable
    /// across invocations, which is how tests assert the pool really is
    /// persistent. `None` until the first invocation spawns the pool.
    #[must_use]
    pub fn worker_thread_ids(&self) -> Option<Vec<std::thread::ThreadId>> {
        if self.pool.is_empty() {
            return None;
        }
        Some(
            self.pool
                .iter()
                .map(|w| w.handle.as_ref().expect("pool worker alive").thread().id())
                .collect(),
        )
    }
}

impl ExecutionBackend for NativeLoopBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn enable_trace(&mut self, capacity: usize) {
        if self.tracing.rec.is_none() {
            self.tracing.rec = Some(TraceRecorder::new(capacity));
        }
    }

    fn trace(&self) -> Option<&TraceRecorder> {
        self.tracing.rec.as_ref()
    }

    fn load(
        &mut self,
        program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<(), BackendError> {
        options.validate()?;
        let spec = derive_loop_spec(&program, kernel, options.loop_header)?;
        let mem = FlatMemory::for_program(&program, 0);
        let width = spec.cursors.len();
        let mut last_work = Vec::new();
        if let Some(estimate) = options.work_estimate {
            last_work = vec![0; self.threads];
            last_work[0] = estimate;
        }
        let ctx = LoopContext {
            program: DecodedProgram::new(&program),
            spec,
            detect: options.conflict_policy.detects(),
            granularity_log2: options.conflict_granularity_log2,
        };
        self.loaded = Some(Loaded {
            ctx: Arc::new(ctx),
            mem: Arc::new(mem),
            predictions: vec![vec![0; width]; self.threads - 1],
            last_work,
            last_plan: Vec::new(),
            throttle: Throttle::default(),
        });
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        &self.loaded.as_ref().expect("load() first").mem
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        Arc::make_mut(&mut self.loaded.as_mut().expect("load() first").mem)
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let threads = self.threads;
        let workers = threads - 1;
        let loaded = self.loaded.as_mut().ok_or(BackendError::NotLoaded)?;
        if self.pool.is_empty() {
            let spin = host_has_a_core_per_thread(threads);
            self.pool = (0..workers).map(|_| PoolWorker::spawn(spin)).collect();
        }
        let pool = self.pool.as_slice();
        let tracing = &mut self.tracing;
        let invocation = tracing.invocations;
        tracing.invocations += 1;
        tracing.emit(TraceEvent::InvocationBegin { index: invocation });

        let ctx = Arc::clone(&loaded.ctx);
        let spec = &ctx.spec;
        let (detect, granularity_log2) = (ctx.detect, ctx.granularity_log2);
        for worker in pool {
            worker.squash.store(false, Ordering::Release);
        }

        // The invocation's cost starts here and includes the centralized
        // predictor step: its wall-time is part of the measured runtime,
        // not the driver's.
        let started = Instant::now();
        loaded.last_plan = chunk_memo_plan(&loaded.last_work, threads);
        let memo_plan = &loaded.last_plan;
        let predictions = &loaded.predictions;

        // The main thread runs the kernel's entry code first, straight on
        // the image — every pool worker is waiting on its task channel — and
        // outside any write set: every store it makes happens-before every
        // worker read through the task sends below, so none of them can be
        // the earlier half of a RAW violation.
        let mut steps = DEFAULT_STEP_BUDGET;
        let mut main =
            enter_loop(&ctx, args, exclusive(&mut loaded.mem)?, &mut steps).map_err(engine_trap)?;

        // A throttled invocation tasks no worker: the main thread runs the
        // loop straight on the image, as the resume step does, memoizing
        // per the plan so the next probe starts from fresh rows.
        if detect && loaded.throttle.throttles() {
            let mem = exclusive(&mut loaded.mem)?;
            let finished = run_to_return(&ctx, &mut main, mem, &memo_plan[0])?;
            let elapsed = started.elapsed();
            let mut work = vec![0; threads];
            work[0] = finished.iterations;
            loaded.last_work.clone_from(&work);
            for (row, cursors) in finished.memos {
                if row < loaded.predictions.len() {
                    loaded.predictions[row] = cursors;
                }
            }
            let Throttle { streak, skip } = loaded.throttle;
            tracing.narrate_throttled(streak, skip);
            return Ok(ExecutionReport::throttled(
                "native",
                ExecutionCost::WallNanos(elapsed.as_nanos()),
                finished.value,
                work,
            ));
        }

        // new_invocation: hand every worker its task token — the main
        // thread's header frame, the image (frozen from here to the last
        // join) and this invocation's predictions, a zero row included.
        for (wi, worker) in pool.iter().enumerate() {
            let task = WorkerTask {
                ctx: Arc::clone(&ctx),
                mem: Arc::clone(&loaded.mem),
                state: main.clone(),
                start: predictions[wi].clone(),
                successor: predictions.get(wi + 1).cloned(),
                plan: memo_plan[wi + 1].clone(),
            };
            if let Err(e) = worker.send(task) {
                // A worker already tasked this invocation must be squashed
                // and drained, or its stale result would desynchronize the
                // next invocation's commit loop.
                abort_pool(&pool[..wi]);
                return Err(e);
            }
        }

        // Main (non-speculative) chunk on the calling thread, from the
        // header to the first worker's predicted boundary — like a worker's,
        // through a view: the workers are reading the image, so its stores
        // wait in the view's buffer for the apply step.
        let mut view = SpecView::with_read_tracking(&loaded.mem, false);
        let limits = ChunkLimits {
            boundary: Some(predictions[0].as_slice()),
            plan: &memo_plan[0],
            squash: None,
        };
        let main_run = run_chunk(&ctx, &mut main, &mut view, &mut steps, &limits);
        let (main_writes, _) = view.into_parts();
        if let Stop::Trap(trap) = main_run.stop {
            abort_pool(pool);
            return Err(engine_trap(trap));
        }

        // Ordered commit by the one commit rule (paper §3). Under
        // ConflictPolicy::Detect the union of the main chunk's and every
        // committed chunk's write addresses is carried along, and each
        // validated chunk's load set is intersected against it for its RAW
        // witness — the software form of the paper's hardware conflict
        // detection. The loop only decides: a chunk's stores stay in its
        // verdict.
        let mut earlier_writes = AccessSet::with_granularity(granularity_log2);
        if detect {
            earlier_writes.extend(main_writes.iter().map(|&(addr, _)| addr));
        }
        let mut chain = CommitChain::new(main_run.stop.end());
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(workers);
        // The main chunk memoized at every plan entry it consumed.
        let resume_plan: Vec<(u64, usize)> = memo_plan[0][main_run.memos.len()..]
            .iter()
            .map(|&(threshold, row)| (threshold.saturating_sub(main_run.iterations), row))
            .collect();
        let mut memos = main_run.memos;

        for (wi, worker) in pool.iter().enumerate() {
            if chain != CommitChain::Validated {
                // Every later chunk is squashed: flag them all at once, so
                // they stop at their next poll instead of winding down
                // serially as the join loop reaches them.
                for later in &pool[wi..] {
                    later.squash.store(true, Ordering::Release);
                }
            }
            let result = match worker.recv() {
                Ok(r) => r,
                Err(e) => {
                    abort_pool(&pool[wi + 1..]);
                    return Err(e);
                }
            };
            // RAW check: only a validated start's reads decide anything.
            let witness = if detect && chain == CommitChain::Validated {
                result.reads.first_overlap(&earlier_writes)
            } else {
                None
            };
            let cause = chain.judge(result.run.stop.end(), witness);
            if cause.is_none() {
                // Only a later chunk is ever validated against these.
                if detect && wi + 1 < workers {
                    earlier_writes.extend(result.writes.iter().map(|&(addr, _)| addr));
                }
                fold_liveouts(spec, &mut main, &result.finals);
                memos.extend(result.run.memos);
            }
            verdicts.push(Verdict {
                witness,
                cause,
                iterations: result.run.iterations,
                writes: result.writes,
            });
        }

        // Apply: every worker has reported, and dropped its clone of
        // the image before it did, so the image is the main thread's alone
        // again. The main chunk's stores land first, then each committed
        // chunk's, in thread order; a squashed chunk's are dropped.
        let mem = exclusive(&mut loaded.mem)?;
        let committed_writes = verdicts.iter().filter(|v| v.cause.is_none());
        for &(addr, value) in main_writes
            .iter()
            .chain(committed_writes.flat_map(|v| &v.writes))
        {
            mem.write(addr, value)
                .expect("SpecView bounds-checks every buffered store");
        }

        // Resume the main thread to the end of the kernel, straight on the
        // image: on success from the terminal state of the last committed
        // chunk; after a squash from the first non-validated boundary
        // (which the last valid chunk reached itself, so it is a genuine
        // traversal point) — the commit fold left exactly that state in the
        // main thread's registers, reductions carrying the committed prefix.
        // Re-executing after a validated start's squash, it memoizes like the
        // generated main thread, carrying on the main chunk's work and plan.
        let reexecutes = matches!(
            verdicts.iter().find_map(|v| v.cause),
            Some(MisspeculationCause::DependenceViolation { .. } | MisspeculationCause::Fault(_))
        );
        let plan = if reexecutes { &resume_plan[..] } else { &[] };
        let resumed = run_to_return(&ctx, &mut main, mem, plan)?;
        let main_work = main_run.iterations + resumed.iterations;
        memos.extend(resumed.memos);
        let return_value = resumed.value;
        let elapsed = started.elapsed();

        // Predictor feedback for the next invocation.
        for (row, cursors) in memos {
            if row < loaded.predictions.len() {
                loaded.predictions[row] = cursors;
            }
        }
        // The main thread re-ran a squashed chunk's iterations.
        let work: Vec<u64> = std::iter::once(main_work)
            .chain(verdicts.iter().map(|v| v.cause.map_or(v.iterations, |_| 0)))
            .collect();
        loaded.last_work = work.clone();
        if detect {
            loaded
                .throttle
                .observe(verdicts.first().and_then(|v| v.cause));
        }
        tracing.narrate(&verdicts, granularity_log2);

        let reports = verdicts.iter().map(|v| WorkerReport {
            cause: v.cause,
            work: v.iterations,
        });
        Ok(ExecutionReport::new(
            "native",
            ExecutionCost::WallNanos(elapsed.as_nanos()),
            return_value,
            reports.collect(),
            work,
        ))
    }
}

/// The image, for writing. Between the last join of one invocation and the
/// first task send of the next the main thread holds the only reference, so
/// this fails only if that protocol is broken.
fn exclusive(mem: &mut Arc<FlatMemory>) -> Result<&mut FlatMemory, BackendError> {
    Arc::get_mut(mem)
        .ok_or_else(|| BackendError::Engine("a worker still holds the memory image".to_string()))
}

/// What the commit rule decided about worker `i`'s chunk (core `i + 1`): the
/// record the report, work counters, apply step and narration derive from.
struct Verdict {
    /// The RAW witness, when the validation found one.
    witness: Option<i64>,
    /// Why the chunk was squashed; `None` if it committed.
    cause: Option<MisspeculationCause>,
    /// Iterations the chunk ran, committed or not.
    iterations: u64,
    /// The chunk's buffered stores, first-write order.
    writes: Vec<(i64, i64)>,
}

impl NativeTracing {
    /// Narrates an invocation the throttle ran without workers: the
    /// throttle's state, then a `PredictorFeedback` with no chunk.
    fn narrate_throttled(&mut self, streak: u64, skip: u64) {
        if !self.on() {
            return;
        }
        let at = self.next_at();
        self.emit(TraceEvent::Throttled { at, streak, skip });
        let at = self.next_at();
        self.emit(TraceEvent::PredictorFeedback {
            at,
            committed: 0,
            squashed: 0,
        });
    }

    /// Narrates a completed invocation from its verdicts, which are in
    /// thread order: a `ChunkBegin` per chunk and the `PredictorPlan`, then
    /// each chunk's `ChunkValidate` and `ChunkCommit` or `ChunkSquash`, then
    /// the `PredictorFeedback`.
    fn narrate(&mut self, verdicts: &[Verdict], granularity_log2: u8) {
        if !self.on() {
            return;
        }
        let first_chunk = self.chunk_next;
        let chunks = verdicts.len() as u64;
        self.chunk_next += chunks;
        for (core, chunk) in (1..).zip(first_chunk..first_chunk + chunks) {
            let at = self.next_at();
            self.emit(TraceEvent::ChunkBegin { at, core, chunk });
        }
        let at = self.next_at();
        self.emit(TraceEvent::PredictorPlan { at, chunks });

        // Word-exact writer attribution for squash forensics: a violating
        // address is traced back to the committed chunk that wrote it. One
        // that no committed worker wrote is the main chunk's (core 0, no
        // speculative chunk id) — nothing else is in the earlier-write set.
        let mut writer_by_word: HashMap<i64, (u32, Option<u64>)> = HashMap::new();
        for ((core, v), chunk) in (1..).zip(verdicts).zip(first_chunk..) {
            let chunk = Some(chunk);
            let at = self.next_at();
            self.emit(TraceEvent::ChunkValidate {
                at,
                core,
                chunk,
                conflict: v.witness,
            });
            let at = self.next_at();
            let Some(cause) = v.cause else {
                writer_by_word.extend(v.writes.iter().map(|&(addr, _)| (addr, (core, chunk))));
                self.emit(TraceEvent::ChunkCommit {
                    at,
                    core,
                    chunk,
                    writes: v.writes.len() as u64,
                });
                continue;
            };
            // RAW-chain forensics: the violating grain base address, plus
            // the writer. Native read sets are only kept at the configured
            // granularity, so the shared word is certain only with exact
            // (word) grains, and the word-vs-grain false-conflict count is
            // not measurable here — the simulator's word shadow sets cover
            // that side.
            let forensics = match cause {
                MisspeculationCause::DependenceViolation { addr } => {
                    let span = 1i64 << granularity_log2;
                    let (writer_core, writer_chunk) = (addr..addr + span)
                        .find_map(|w| writer_by_word.get(&w).copied())
                        .unwrap_or((0, None));
                    Some(SquashForensics {
                        addr,
                        word_addr: (granularity_log2 == 0).then_some(addr),
                        writer_core: Some(writer_core),
                        writer_chunk,
                        writer_site: None,
                        writer_at: None,
                        reader_site: None,
                        false_conflicts: 0,
                        granularity_log2,
                    })
                }
                _ => None,
            };
            self.emit(TraceEvent::ChunkSquash {
                at,
                core,
                chunk,
                cause,
                forensics,
            });
        }

        let at = self.next_at();
        let committed = verdicts.iter().filter(|v| v.cause.is_none()).count();
        self.emit(TraceEvent::PredictorFeedback {
            at,
            committed: committed as u64,
            squashed: (verdicts.len() - committed) as u64,
        });
    }
}

/// Why a chunk stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The cursors equal the successor's predicted start: the hand-off
    /// point. The thread is paused on a header arrival.
    Boundary,
    /// Control arrived at the loop's exit block: the loop genuinely ended
    /// inside this chunk (the exit code itself is the main thread's to run).
    Exit,
    /// The kernel returned: only the resume, which runs past the exit, stops
    /// here.
    Finished(Option<i64>),
    /// A trap, a blocking receive, or the step budget ran out — which a
    /// raised squash flag ends at once (`OutOfFuel`).
    Trap(TrapKind),
}

impl Stop {
    /// The stop as the commit rule reads it.
    fn end(self) -> ChunkEnd {
        match self {
            Stop::Boundary => ChunkEnd::Handoff,
            Stop::Exit => ChunkEnd::Exit,
            Stop::Finished(_) => unreachable!("a chunk stops at the loop's exit before any return"),
            Stop::Trap(trap) => ChunkEnd::Fault(trap),
        }
    }
}

/// Where a chunk must stop (besides the loop's exit) and what it memoizes.
#[derive(Default)]
struct ChunkLimits<'a> {
    /// The successor's predicted start, if it has one.
    boundary: Option<&'a [i64]>,
    /// `(local iteration threshold, prediction row)` pairs, ascending.
    plan: &'a [(u64, usize)],
    squash: Option<&'a AtomicBool>,
}

/// What one [`run_chunk`] call did.
struct ChunkRun {
    stop: Stop,
    /// Completed iterations: header re-arrivals. The final header
    /// evaluation that takes the exit edge is not one (the sim backend's
    /// latch test makes the same call; the counters must agree).
    iterations: u64,
    memos: Vec<(usize, Vec<i64>)>,
}

/// The one chunk loop. Steps `state`, paused on a header arrival, through
/// whole iterations until the first of: the cursors equal `limits.boundary`,
/// control arrives at the exit block, the kernel finishes, a trap or the end
/// of the `steps` budget, the squash flag. On every header arrival, in this
/// order: boundary, squash flag, memoization plan.
fn run_chunk<M: MemPort>(
    ctx: &LoopContext,
    state: &mut ThreadState,
    port: &mut M,
    steps: &mut u64,
    limits: &ChunkLimits<'_>,
) -> ChunkRun {
    let mut plan = limits.plan.iter().peekable();
    let mut iterations = 0u64;
    let mut memos = Vec::new();
    // One buffer for the whole chunk, refilled on every arrival and cloned
    // only when a memo is actually taken.
    let mut cursors = Vec::with_capacity(ctx.spec.cursors.len());
    let stop = loop {
        cursors.clear();
        cursors.extend(ctx.spec.cursors.iter().map(|&r| state.reg(r)));
        if limits.boundary == Some(cursors.as_slice()) {
            break Stop::Boundary;
        }
        if limits.squash.is_some_and(|s| s.load(Ordering::Acquire)) {
            break Stop::Trap(TrapKind::OutOfFuel);
        }
        if let Some(&(_, row)) = plan.next_if(|&&(threshold, _)| iterations >= threshold) {
            memos.push((row, cursors.clone()));
        }
        match step_to_header(ctx, state, port, steps, limits.squash) {
            None => iterations += 1,
            Some(stop) => break stop,
        }
    };
    ChunkRun {
        stop,
        iterations,
        memos,
    }
}

/// The one step loop. Steps `state` until it next *arrives* at (enters
/// through a branch) the loop header — `None` — or something else ends the
/// chunk first. Arrivals are qualified by function: block ids are
/// function-local, so a kernel whose entry phase or body calls helper
/// functions (e.g. `mcf_app`'s arc scan and relink) would otherwise
/// "arrive" at a callee block that merely shares the header's numeric id.
fn step_to_header<M: MemPort>(
    ctx: &LoopContext,
    state: &mut ThreadState,
    port: &mut M,
    steps: &mut u64,
    squash: Option<&AtomicBool>,
) -> Option<Stop> {
    let spec = &ctx.spec;
    loop {
        if *steps == 0 {
            return Some(Stop::Trap(TrapKind::OutOfFuel));
        }
        *steps -= 1;
        if steps.is_multiple_of(SQUASH_POLL_INTERVAL)
            && squash.is_some_and(|s| s.load(Ordering::Acquire))
        {
            return Some(Stop::Trap(TrapKind::OutOfFuel));
        }
        match state.step(&ctx.program, port, &mut NopSys) {
            Ok(StepEvent::Executed(info)) => {
                if info.class() == InstClass::Branch && state.current_func() == spec.func {
                    if state.current_block() == spec.header {
                        return None;
                    }
                    if state.current_block() == spec.exit_edge.1 {
                        return Some(Stop::Exit);
                    }
                }
            }
            Ok(StepEvent::Finished(value)) => return Some(Stop::Finished(value)),
            // Untransformed kernels have no channels: a `Recv` would block
            // forever.
            Ok(StepEvent::Blocked) => return Some(Stop::Trap(TrapKind::UnsupportedIntrinsic)),
            Err(trap) => return Some(Stop::Trap(trap)),
        }
    }
}

/// What the main thread did from a header arrival to the kernel's return.
struct Finished {
    value: Option<i64>,
    /// Completed iterations, as [`ChunkRun::iterations`] counts them.
    iterations: u64,
    memos: Vec<(usize, Vec<i64>)>,
}

/// Runs the main thread, paused on a header arrival, straight on the image
/// to the kernel's return — the resume after the commit chain, and the
/// whole loop of a throttled invocation — memoizing per `plan` until the
/// loop exits.
fn run_to_return(
    ctx: &LoopContext,
    main: &mut ThreadState,
    mem: &mut FlatMemory,
    plan: &[(u64, usize)],
) -> Result<Finished, BackendError> {
    let mut steps = DEFAULT_STEP_BUDGET;
    let mut limits = ChunkLimits {
        plan,
        ..ChunkLimits::default()
    };
    let (mut iterations, mut memos) = (0, Vec::new());
    loop {
        let run = run_chunk(ctx, main, &mut *mem, &mut steps, &limits);
        iterations += run.iterations;
        memos.extend(run.memos);
        // Past the loop's exit nothing is memoized.
        limits.plan = &[];
        match run.stop {
            Stop::Finished(value) => {
                return Ok(Finished {
                    value,
                    iterations,
                    memos,
                })
            }
            Stop::Trap(trap) => return Err(engine_trap(trap)),
            // The exit code is the main thread's own to run.
            Stop::Exit => {}
            Stop::Boundary => unreachable!("the main thread runs to its return unbounded"),
        }
    }
}

/// Starts the main thread on the kernel and runs the function's own entry
/// code up to the first header arrival (binding the invariant live-ins), or
/// to its trap: the front end refuses a kernel whose entry code can reach a
/// `ret` or the loop's exit without the loop.
fn enter_loop<M: MemPort>(
    ctx: &LoopContext,
    args: &[i64],
    port: &mut M,
    steps: &mut u64,
) -> Result<ThreadState, TrapKind> {
    let mut state = ThreadState::new(&ctx.program, ctx.spec.func, args);
    match step_to_header(ctx, &mut state, port, steps, None) {
        None => Ok(state),
        Some(Stop::Trap(trap)) => Err(trap),
        Some(stop) => unreachable!("the entry code reached {stop:?} before the loop header"),
    }
}

/// A worker's view of its chunk after it stopped.
struct WorkerChunk {
    run: ChunkRun,
    writes: Vec<(i64, i64)>,
    /// Load set of the chunk (addresses read from the image, not
    /// store-forwarded) — empty under `ConflictPolicy::AssumeIndependent`.
    reads: AccessSet,
    /// Values, at the stop point, of the registers of the spec's live-out
    /// groups, in group order — what a committed chunk hands back.
    finals: Vec<i64>,
}

/// Runs one speculative worker chunk: from the main thread's header frame,
/// with the cursors at the predicted start and the reductions at their
/// identity, iterate until the successor's boundary, the loop's natural
/// exit, a fault, or a squash.
fn run_worker_chunk(task: WorkerTask, squash: &AtomicBool) -> WorkerChunk {
    let ctx = &*task.ctx;
    let mut state = task.state;
    for (reg, value) in ctx.spec.cursors.iter().zip(&task.start) {
        state.set_reg(*reg, *value);
    }
    for r in &ctx.spec.reductions {
        state.set_reg(r.reg, r.kind.identity());
    }
    let mut view = SpecView::with_read_tracking(&task.mem, ctx.detect)
        .with_conflict_granularity(ctx.granularity_log2);
    let mut steps = DEFAULT_STEP_BUDGET;
    let limits = ChunkLimits {
        boundary: task.successor.as_deref(),
        plan: &task.plan,
        squash: Some(squash),
    };
    let run = run_chunk(ctx, &mut state, &mut view, &mut steps, &limits);
    let (writes, reads) = view.into_parts();
    WorkerChunk {
        run,
        writes,
        reads,
        finals: snapshot_finals(&ctx.spec, &state),
    }
}

/// System port for untransformed kernels: they contain no channel or
/// speculation intrinsics, so everything is inert. A `Recv` (which would
/// block forever) surfaces as [`StepEvent::Blocked`] and the chunk stops.
struct NopSys;

impl SysPort for NopSys {
    fn send(&mut self, _chan: i64, _value: i64) {}
    fn try_recv(&mut self, _chan: i64) -> Option<i64> {
        None
    }
    fn resteer(&mut self, _core: i64, _target: BlockId) {}
}

/// Snapshot of a stopped chunk's live-out registers, in the order of the
/// spec's groups. Meaningless (and not even addressable — register files are
/// function-local) unless the thread's innermost frame is the kernel
/// function, as it is at every boundary; a chunk that faulted inside a
/// callee reports no finals.
fn snapshot_finals(spec: &SpiceLoopSpec, state: &ThreadState) -> Vec<i64> {
    if state.current_func() != spec.func {
        return Vec::new();
    }
    let regs = spec.liveouts.iter().flat_map(|g| &g.regs);
    regs.map(|&r| state.reg(r)).collect()
}

fn engine_trap(trap: TrapKind) -> BackendError {
    BackendError::Engine(format!("main thread trapped: {trap}"))
}

/// Folds a committed chunk's finals into the main thread's registers, group
/// by group, in thread order — the merge the transformation generates for
/// core 0, interpreted.
fn fold_liveouts(spec: &SpiceLoopSpec, main: &mut ThreadState, mut finals: &[i64]) {
    for group in &spec.liveouts {
        let (theirs, rest) = finals.split_at(group.regs.len());
        finals = rest;
        let acc = group.regs[0];
        let ours = main.reg(acc);
        // Strict comparisons keep the earliest chunk's value on ties,
        // matching the sequential first-minimum semantics.
        let take_theirs = match group.kind {
            CombineKind::Overwrite => true,
            CombineKind::Reduction(ReductionKind::Min) => theirs[0] < ours,
            CombineKind::Reduction(ReductionKind::Max) => theirs[0] > ours,
            CombineKind::Reduction(ReductionKind::Binop(op)) => {
                if let Ok(v) = op.eval(ours, theirs[0]) {
                    main.set_reg(acc, v);
                }
                false
            }
        };
        if take_theirs {
            for (&reg, &value) in group.regs.iter().zip(theirs) {
                main.set_reg(reg, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::builder::FunctionBuilder;
    use spice_ir::fixtures::{chained_increment_program, list_min_program, write_list};
    use spice_ir::{BinOp, Operand};

    /// Both hand-off paths, whichever of them this host's core count would
    /// select: `spin` false parks in `recv`, true polls first.
    const HANDOFF_PATHS: [bool; 2] = [false, true];

    /// A backend whose pool is already spawned on the given hand-off path.
    fn backend_on_path(threads: usize, spin: bool) -> NativeLoopBackend {
        let mut backend = NativeLoopBackend::new(threads);
        backend.pool = (1..threads).map(|_| PoolWorker::spawn(spin)).collect();
        backend
    }

    #[test]
    fn native_backend_runs_list_min_and_learns_boundaries() {
        let weights: Vec<i64> = (0..400).map(|i| ((i * 37) % 211) + 5).collect();
        let (program, f, nodes, out) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let expected = *weights.iter().min().unwrap();

        let mut saw_parallel = false;
        for inv in 0..4 {
            let report = backend.run_invocation(&[head]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
            assert_eq!(report.backend, "native");
            // The exit-block store, made by the resume straight on the image.
            let argmin = backend.mem().read(out).unwrap();
            assert_eq!(backend.mem().read(argmin).unwrap(), expected);
            // Every invocation commits all three chunks: the first one's
            // workers start from the zeroed rows, past the list's end, and
            // leave all the work to the main thread.
            assert_eq!(report.committed_chunks, 3, "invocation {inv}");
            assert!(!report.misspeculated);
            if inv == 0 {
                assert_eq!(report.work_per_thread, [400, 0, 0, 0]);
            }
            let active = report.work_per_thread.iter().filter(|&&w| w > 0).count();
            saw_parallel |= active >= 3;
        }
        assert!(saw_parallel, "chunk predictions never converged");
    }

    #[test]
    fn stale_native_predictions_squash_but_stay_correct() {
        let weights: Vec<i64> = (0..300).map(|i| 1000 - i).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(3);
        backend
            .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        backend.run_invocation(&[head]).unwrap();
        backend.run_invocation(&[head]).unwrap();

        // Rebuild a shorter list skipping every other node: many memoized
        // cursors no longer appear in the traversal.
        let shorter: Vec<i64> = weights.iter().copied().step_by(2).collect();
        let head2 = {
            let mem = backend.mem_mut();
            for addr in 0..mem.size() as i64 {
                mem.write(addr, 0).unwrap();
            }
            for (i, w) in shorter.iter().enumerate() {
                let addr = nodes + 4 * i as i64;
                let next = if i + 1 < shorter.len() { addr + 4 } else { 0 };
                mem.write(addr, *w).unwrap();
                mem.write(addr + 1, next).unwrap();
            }
            nodes
        };
        let out = backend.run_invocation(&[head2]).unwrap();
        assert_eq!(out.return_value, Some(*shorter.iter().min().unwrap()));
        // Re-learning: after another invocation the new boundaries hold.
        let out2 = backend.run_invocation(&[head2]).unwrap();
        assert_eq!(out2.return_value, Some(*shorter.iter().min().unwrap()));
    }

    #[test]
    fn cross_chunk_raw_dependence_is_squashed_and_recovered() {
        for spin in HANDOFF_PATHS {
            cross_chunk_raw_dependence_on(backend_on_path(4, spin));
        }
    }

    fn cross_chunk_raw_dependence_on(mut backend: NativeLoopBackend) {
        let n: i64 = 200;
        let v0: i64 = 50;
        let (program, f, nodes) = chained_increment_program(n + 4);
        backend
            .load(program, f, LoadOptions::new(Some(n as u64)))
            .unwrap();
        let mut values = vec![0; n as usize];
        values[0] = v0;
        write_list(backend.mem_mut(), nodes, &values);
        // Sequentially: value(i) becomes v0 + i before it is read.
        let expected = n * v0 + n * (n - 1) / 2;

        let mut saw_violation = false;
        for inv in 0..5 {
            let report = backend.run_invocation(&[nodes]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
            for i in 1..n {
                assert_eq!(
                    backend.mem().read(nodes + 2 * i).unwrap(),
                    v0 + i,
                    "node {i} potential after invocation {inv}"
                );
            }
            if report
                .misspeculation_causes()
                .iter()
                .any(|c| matches!(c, MisspeculationCause::DependenceViolation { .. }))
            {
                saw_violation = true;
                assert!(report.misspeculated);
                assert!(report.squashed_chunks > 0);
            }
        }
        assert!(
            saw_violation,
            "speculative chunks never tripped the conflict detector"
        );
    }

    /// The native backend mirrors the simulator's chunk-lifecycle trace:
    /// every tasked chunk opens with `ChunkBegin` and resolves through
    /// `ChunkValidate` into exactly one `ChunkCommit` or `ChunkSquash`, and a
    /// dependence-violation squash carries RAW forensics naming the
    /// violating address and a writer.
    #[test]
    fn native_trace_mirrors_chunk_lifecycle_with_forensics() {
        let n: i64 = 200;
        let v0: i64 = 50;
        let (program, kernel, nodes) = chained_increment_program(n + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, kernel, LoadOptions::new(Some(n as u64)))
            .unwrap();
        {
            let mem = backend.mem_mut();
            for i in 0..n {
                let addr = nodes + 2 * i;
                let next = if i + 1 < n { addr + 2 } else { 0 };
                mem.write(addr, if i == 0 { v0 } else { 0 }).unwrap();
                mem.write(addr + 1, next).unwrap();
            }
        }
        backend.enable_trace(1 << 12);
        for _ in 0..5 {
            backend.run_invocation(&[nodes]).unwrap();
        }

        let trace = backend.trace().expect("trace enabled");
        let events: Vec<&TraceEvent> = trace.events().collect();

        // Five invocation markers, indexed in issue order.
        let indices: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::InvocationBegin { index } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);

        // The native `at` coordinate is a strictly monotone sequence.
        let ats: Vec<u64> = events
            .iter()
            .filter(|e| !matches!(e, TraceEvent::InvocationBegin { .. }))
            .map(|e| e.at())
            .collect();
        assert!(ats.windows(2).all(|w| w[0] < w[1]), "ats not monotone");

        // Chunk ids are unique across invocations and every begun chunk is
        // resolved by exactly one commit or squash.
        let begun: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkBegin { chunk, .. } => Some(*chunk),
                _ => None,
            })
            .collect();
        assert!(!begun.is_empty(), "no chunks were tasked");
        assert!(begun.windows(2).all(|w| w[0] < w[1]), "ids not monotone");
        let mut resolved: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkCommit { chunk, .. } | TraceEvent::ChunkSquash { chunk, .. } => {
                    *chunk
                }
                _ => None,
            })
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, begun);
        let validated = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ChunkValidate { .. }))
            .count();
        assert_eq!(validated, begun.len());

        // One plan (or, after two violating invocations, one throttle
        // marker: `C V V T V`) and one feedback marker per invocation.
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("predictor_plan"), 4);
        assert_eq!(count("throttled"), 1);
        assert_eq!(count("predictor_feedback"), 5);

        // The workload's genuine RAW violation is mirrored with forensics:
        // the violating address lies in the node array, and at the default
        // exact granularity the shared word is certain.
        let squash = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::ChunkSquash {
                    cause: MisspeculationCause::DependenceViolation { addr },
                    forensics,
                    ..
                } => Some((*addr, forensics.as_ref())),
                _ => None,
            })
            .expect("no dependence-violation squash in trace");
        let (addr, fx) = squash;
        let fx = fx.expect("dependence violations carry forensics");
        assert_eq!(fx.addr, addr);
        assert!(addr >= nodes && addr < nodes + 2 * (n + 4), "addr {addr}");
        assert_eq!(fx.granularity_log2, 0);
        assert_eq!(fx.word_addr, Some(addr));
        assert!(fx.writer_core.is_some());

        // The recorder's lifetime squash counter agrees with the events.
        let squashes = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::ChunkSquash { .. }))
            .count() as u64;
        assert_eq!(trace.squashes(), squashes);
    }

    /// The loop's *entry code* loads a global that the loop body stores to:
    /// a chunk computed from a mid-loop value of `g` must never commit. The
    /// invariant this protects — a worker's `base` is the value the main
    /// thread bound — holds by construction: the worker starts from the main
    /// thread's header frame and runs no entry code of its own.
    #[test]
    fn entry_code_reads_participate_in_conflict_detection() {
        let n: i64 = 160;
        let mut program = Program::new();
        let nodes = program.add_global("nodes", (n + 4) * 2);
        let g = program.add_global("g", 1);
        let mut b = FunctionBuilder::new("entry_bound");
        let head = b.param();
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let base = b.load(g, 0); // entry: bind the invariant from memory
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 0);
        let bv = b.binop(BinOp::Add, base, v);
        let s = b.binop(BinOp::Add, sum, bv);
        b.copy_into(sum, s);
        b.store(bv, g, 0); // the body overwrites what the entry read
        let nx = b.load(c, 1);
        b.copy_into(c, nx);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = program.add_func(b.finish());

        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, f, LoadOptions::new(Some(n as u64)))
            .unwrap();
        {
            let mem = backend.mem_mut();
            mem.write(g, 1000).unwrap();
            for i in 0..n {
                let addr = nodes + 2 * i;
                let next = if i + 1 < n { addr + 2 } else { 0 };
                mem.write(addr, i + 1).unwrap();
                mem.write(addr + 1, next).unwrap();
            }
        }
        for inv in 0..5 {
            // Host mirror: base is g's value at entry, fixed per invocation.
            let base = backend.mem().read(g).unwrap();
            let expected: i64 = (1..=n).map(|v| base + v).sum();
            let report = backend.run_invocation(&[nodes]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
            assert_eq!(backend.mem().read(g).unwrap(), base + n, "invocation {inv}");
        }
    }

    /// `kernel(head, scale, slot)`: the entry code publishes `scale` in the
    /// word at `slot` and every iteration of the list walk loads it back:
    /// Σ weight × scale. Returns `(program, kernel, nodes, g)`, `g` being a
    /// global word to pass as `slot`.
    fn scaled_sum_program(capacity: i64) -> (Program, FuncId, i64, i64) {
        let mut program = Program::new();
        let nodes = program.add_global("nodes", capacity * 2);
        let g = program.add_global("g", 1);
        let mut b = FunctionBuilder::new("scaled_sum");
        let (head, scale, slot) = (b.param(), b.param(), b.param());
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.store(scale, slot, 0);
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, 0);
        let k = b.load(slot, 0); // the body reads what the entry stored
        let scaled = b.binop(BinOp::Mul, v, k);
        let s = b.binop(BinOp::Add, sum, scaled);
        b.copy_into(sum, s);
        let nx = b.load(c, 1);
        b.copy_into(c, nx);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let f = program.add_func(b.finish());
        (program, f, nodes, g)
    }

    const SCALED_SUM_NODES: i64 = 160;

    /// Loads [`scaled_sum_program`] on four threads over the list 1..=160.
    /// Returns the backend, the list head and `g`.
    fn scaled_sum_backend() -> (NativeLoopBackend, i64, i64) {
        let n = SCALED_SUM_NODES;
        let (program, f, nodes, g) = scaled_sum_program(n + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, f, LoadOptions::new(Some(n as u64)))
            .unwrap();
        let weights: Vec<i64> = (1..=n).collect();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        (backend, head, g)
    }

    /// One invocation that must succeed with the host mirror's result;
    /// returns its committed-chunk count.
    fn scaled_sum_invocation(backend: &mut NativeLoopBackend, args: [i64; 3]) -> usize {
        let n = SCALED_SUM_NODES;
        let report = backend.run_invocation(&args).unwrap();
        assert_eq!(report.return_value, Some(args[1] * n * (n + 1) / 2));
        report.committed_chunks
    }

    /// An entry-code store to a word the loop body reads happens-before
    /// every worker read (the task is sent after the entry code ran), so it
    /// is not in the main chunk's write set and squashes nothing — and the
    /// workers do read this invocation's value, not the previous one's. The
    /// first invocation's workers start from the zeroed rows and commit
    /// empty chunks.
    #[test]
    fn entry_code_store_read_by_the_body_squashes_nothing() {
        let (mut backend, head, g) = scaled_sum_backend();
        for inv in 0..5 {
            let committed = scaled_sum_invocation(&mut backend, [head, 3 + inv, g]);
            assert_eq!(committed, 3, "invocation {inv}");
        }
    }

    /// Neither kind of failed invocation leaves a `WorkerChunk` behind in a
    /// channel: a trap in the entry code returns before any task exists, a
    /// trap in the main chunk squashes and drains the tasked workers. The
    /// invocation after each is an exact repeat of the one before it — a
    /// stale result would carry the failed invocation's `scale`.
    #[test]
    fn failed_invocations_leave_no_stale_worker_result() {
        let (mut backend, head, g) = scaled_sum_backend();
        scaled_sum_invocation(&mut backend, [head, 2, g]);
        assert_eq!(scaled_sum_invocation(&mut backend, [head, 3, g]), 3);
        let ids = backend.worker_thread_ids();

        // The entry code's store faults.
        assert!(backend.run_invocation(&[head, 4, -1]).is_err());
        assert_eq!(scaled_sum_invocation(&mut backend, [head, 5, g]), 3);

        // The main chunk walks into a dangling `next`; all three workers
        // were tasked and their lists are intact.
        let link = head + 2 * 5 + 1;
        let next = backend.mem().read(link).unwrap();
        backend.mem_mut().write(link, -7).unwrap();
        assert!(backend.run_invocation(&[head, 6, g]).is_err());
        backend.mem_mut().write(link, next).unwrap();
        assert_eq!(scaled_sum_invocation(&mut backend, [head, 7, g]), 3);
        assert_eq!(backend.worker_thread_ids(), ids);
    }

    #[test]
    fn assume_independent_policy_skips_detection() {
        // Same conflict-carrying loop, detection off: results may be stale,
        // but no DependenceViolation may ever be reported. (This documents
        // that AssumeIndependent really is the caller's assertion.)
        let n: i64 = 120;
        let (program, f, nodes) = chained_increment_program(n + 4);
        let mut backend = NativeLoopBackend::new(3);
        let options = LoadOptions::new(Some(n as u64))
            .with_conflict_policy(spice_ir::exec::ConflictPolicy::AssumeIndependent);
        backend.load(program, f, options).unwrap();
        write_list(backend.mem_mut(), nodes, &vec![1; n as usize]);
        for _ in 0..4 {
            let report = backend.run_invocation(&[nodes]).unwrap();
            assert!(report
                .misspeculation_causes()
                .iter()
                .all(|c| !matches!(c, MisspeculationCause::DependenceViolation { .. })));
        }
    }

    /// The acceptance property of the pre-spawned pool: across a
    /// 100-invocation run the same OS threads serve every invocation — no
    /// per-invocation spawning — on either hand-off path.
    #[test]
    fn worker_pool_threads_are_constant_across_100_invocations() {
        for spin in HANDOFF_PATHS {
            let backend = hundred_list_min_invocations(backend_on_path(4, spin));
            // The centralized step's output is observable after each
            // invocation.
            let plan = backend.last_plan().expect("loaded");
            assert!(!plan.is_empty(), "no plan after a converged run");
            for &(tid, threshold, row) in &plan {
                assert!(tid < 4 && row < 3 && threshold >= 1);
            }
        }
    }

    /// More threads than any CI host has cores: the pool is spawned by the
    /// first invocation, on the path the host's core count selects, and
    /// stays the same seven threads.
    #[test]
    fn oversubscribed_pool_is_constant_across_100_invocations() {
        let backend = NativeLoopBackend::new(8);
        assert!(backend.worker_thread_ids().is_none(), "pool is lazy");
        hundred_list_min_invocations(backend);
    }

    /// Runs the list-min fixture a hundred times on `backend`, checking
    /// every result and that the pool's threads never change.
    fn hundred_list_min_invocations(mut backend: NativeLoopBackend) -> NativeLoopBackend {
        let weights: Vec<i64> = (0..200).map(|i| ((i * 31) % 509) + 1).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        backend
            .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let expected = *weights.iter().min().unwrap();

        backend.run_invocation(&[head]).unwrap();
        let ids = backend.worker_thread_ids().expect("pool spawned");
        assert_eq!(ids.len(), backend.threads() - 1);
        for inv in 1..100 {
            let report = backend.run_invocation(&[head]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
        }
        assert_eq!(
            backend.worker_thread_ids().unwrap(),
            ids,
            "workers were re-spawned during the run"
        );
        backend
    }

    /// Dropping the pool while a worker polls for its next task must not
    /// wait the spin window out: the polling receive sees the closed
    /// channel. A worker that has just sent its result is inside its
    /// window; the best of twenty drops is taken so that one preempted
    /// thread cannot fail the test, while a receive that ignored
    /// `Disconnected` would hold every drop for the rest of the window.
    #[test]
    fn dropping_the_backend_ends_a_spinning_worker_at_once() {
        let weights: Vec<i64> = (1..=60).collect();
        let best = (0..20)
            .map(|_| {
                let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
                let mut backend = backend_on_path(2, true);
                backend
                    .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
                    .unwrap();
                let head = write_list(backend.mem_mut(), nodes, &weights);
                backend.run_invocation(&[head]).unwrap();
                let report = backend.run_invocation(&[head]).unwrap();
                assert_eq!(report.committed_chunks, 1, "the worker was tasked");
                let dropped = Instant::now();
                drop(backend);
                dropped.elapsed()
            })
            .min()
            .unwrap();
        assert!(best < HANDOFF_SPIN / 2, "fastest drop took {best:?}");
    }

    /// What a driver does to the image between invocations — zeroing a
    /// word it never wrote, or swapping in a fresh image (of the same size,
    /// or a smaller one) — is what the next invocation sees: there is no
    /// second copy for invocation *k*'s value to survive in, and none whose
    /// size could disagree.
    #[test]
    fn driver_zeroing_or_image_swap_is_what_the_next_invocation_sees() {
        let (program, f, nodes) = chained_increment_program(32);
        // The last node of the globals.
        let high = program.data_end() - 2;
        let fresh = FlatMemory::for_program(&program, 0);
        let smaller = FlatMemory::new(high as usize);
        let mut backend = NativeLoopBackend::new(2);
        backend.load(program, f, LoadOptions::new(Some(2))).unwrap();
        // Node A links to node B at `high`, which the driver never writes:
        // visiting A stores A's value + 1 into B.
        let link = |mem: &mut FlatMemory| {
            mem.write(nodes, 5).unwrap();
            mem.write(nodes + 1, high).unwrap();
        };
        link(backend.mem_mut());
        let report = backend.run_invocation(&[nodes]).unwrap();
        assert_eq!(report.return_value, Some(5 + 6));
        assert_eq!(backend.mem().read(high), Ok(6), "committed to the image");

        // The driver zeroes the word; a walk starting at B must see 0.
        backend.mem_mut().write(high, 0).unwrap();
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(0));

        // Same through a fresh image.
        link(backend.mem_mut());
        backend.run_invocation(&[nodes]).unwrap();
        assert_eq!(backend.mem().read(high), Ok(6));
        *backend.mem_mut() = fresh;
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(0), "stale word survived");
        assert_eq!(backend.mem().read(high), Ok(0));

        // A smaller image: a list inside it is walked, and `high`, now past
        // its end, is a typed out-of-bounds error — for the entry walk and
        // for a chunk that follows a link there — never a panic.
        *backend.mem_mut() = smaller;
        assert_eq!(
            backend.mem().size() as i64,
            high,
            "`high` is just past its end"
        );
        let head = write_list(backend.mem_mut(), nodes, &[3, 0]);
        let report = backend.run_invocation(&[head]).unwrap();
        assert_eq!(report.return_value, Some(3 + 4));
        for start in [high, nodes] {
            link(backend.mem_mut());
            let err = backend.run_invocation(&[start]).unwrap_err();
            assert!(
                matches!(&err, BackendError::Engine(m) if m.contains("out-of-bounds")),
                "{err}"
            );
        }
    }

    /// The reverse: the driver writes the last node of the globals, which no
    /// invocation has touched.
    #[test]
    fn driver_write_at_the_end_of_the_globals_is_seen() {
        let (program, f, nodes) = chained_increment_program(8);
        let mut backend = NativeLoopBackend::new(2);
        backend.load(program, f, LoadOptions::new(Some(2))).unwrap();
        let head = write_list(backend.mem_mut(), nodes, &[1, 2]);
        assert_eq!(
            backend.run_invocation(&[head]).unwrap().return_value,
            Some(1 + 2)
        );
        // A one-node list in the last node of the globals, written between
        // invocations.
        let high = backend.mem().size() as i64 - 2;
        backend.mem_mut().write(high, 9).unwrap();
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(9));
    }

    /// One memory: the image `load` built is the one every invocation reads
    /// and writes and the one the driver sees — never mirrored, snapshotted
    /// or cloned, whether an invocation commits or squashes.
    #[test]
    fn the_image_is_never_copied() {
        let n: i64 = 120;
        let (program, f, nodes) = chained_increment_program(n + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, f, LoadOptions::new(Some(n as u64)))
            .unwrap();
        let image = backend.mem().words().as_ptr();
        let mut squashed = 0;
        for inv in 0..10 {
            let mut values = vec![0; n as usize];
            values[0] = inv;
            write_list(backend.mem_mut(), nodes, &values);
            assert_eq!(backend.mem().words().as_ptr(), image, "mem_mut {inv}");
            let report = backend.run_invocation(&[nodes]).unwrap();
            assert_eq!(report.return_value, Some(n * inv + n * (n - 1) / 2));
            assert_eq!(backend.mem().words().as_ptr(), image, "invocation {inv}");
            squashed += report.squashed_chunks;
        }
        assert!(squashed > 0, "the loop's RAW chain never squashed a chunk");
    }

    /// The one chunk loop driven by hand on the calling thread — no pool —
    /// over a ten-node list: every stop reason, with the iteration and memo
    /// counts the validation relies on.
    #[test]
    fn chunk_loop_reports_every_stop_reason() {
        let (program, f, nodes, _) = list_min_program(16);
        let mut backend = NativeLoopBackend::new(2);
        backend.load(program, f, LoadOptions::new(None)).unwrap();
        let weights: Vec<i64> = (0..10).map(|i| 50 - i).collect();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let loaded = backend.loaded.unwrap();
        let ctx = &*loaded.ctx;
        let node = |i: i64| head + 2 * i;
        let direct = || FlatMemory::clone(&loaded.mem);
        let chunk = |limits: &ChunkLimits<'_>, budget: u64| {
            let (mut port, mut steps) = (direct(), budget);
            let mut state = enter_loop(ctx, &[head], &mut port, &mut steps)
                .expect("the entry code reaches the header");
            let run = run_chunk(ctx, &mut state, &mut port, &mut steps, limits);
            (run, state)
        };

        // Boundary: the cursor equals the successor's start after four
        // iterations; the plan's threshold-2 entry memoized node 2 on the way.
        let boundary = [node(4)];
        let limits = ChunkLimits {
            boundary: Some(&boundary),
            plan: &[(2, 0)],
            squash: None,
        };
        let (run, _) = chunk(&limits, 1000);
        assert_eq!((run.stop, run.iterations), (Stop::Boundary, 4));
        assert_eq!(run.memos, vec![(0, vec![node(2)])]);

        // Exit: ten iterations — the header evaluation that takes the exit
        // edge is not an eleventh — and the all-zero cursor row the tenth
        // arrival holds is memoized like any other, as the generated exit
        // pass memoizes it.
        let limits = ChunkLimits {
            plan: &[(3, 1), (10, 0)],
            ..ChunkLimits::default()
        };
        let (run, mut state) = chunk(&limits, 1000);
        assert_eq!((run.stop, run.iterations), (Stop::Exit, 10));
        assert_eq!(run.memos, vec![(1, vec![node(3)]), (0, vec![0])]);

        // Finished: the resume call, here from the exit block.
        let resume = ChunkLimits::default();
        let run = run_chunk(ctx, &mut state, &mut direct(), &mut 1000, &resume);
        assert_eq!((run.stop, run.iterations), (Stop::Finished(Some(41)), 0));
        assert!(run.memos.is_empty());

        // Budget exhausted mid-loop.
        let (run, _) = chunk(&resume, 60);
        assert_eq!(run.stop, Stop::Trap(TrapKind::OutOfFuel));
        assert_eq!(run.iterations, 5);

        // Squash flag: polled on the very first arrival.
        let flag = AtomicBool::new(true);
        let limits = ChunkLimits {
            squash: Some(&flag),
            ..ChunkLimits::default()
        };
        let (run, _) = chunk(&limits, 1000);
        assert_eq!(
            (run.stop, run.iterations),
            (Stop::Trap(TrapKind::OutOfFuel), 0)
        );
    }

    /// The chunks of an invocation partition the iteration space: however
    /// the work was split, and whether or not anything squashed, the
    /// per-thread counters add up to the sequential iteration count.
    #[test]
    fn work_per_thread_sums_to_the_sequential_iteration_count() {
        for spin in HANDOFF_PATHS {
            work_per_thread_sums_on(backend_on_path(4, spin));
        }
    }

    fn work_per_thread_sums_on(mut backend: NativeLoopBackend) {
        let weights: Vec<i64> = (0..400).map(|i| ((i * 37) % 211) + 5).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        backend
            .load(program, f, LoadOptions::new(Some(weights.len() as u64)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let mut clean_runs = 0;
        for inv in 0..6 {
            let report = backend.run_invocation(&[head]).unwrap();
            let total: u64 = report.work_per_thread.iter().sum();
            assert_eq!(total, 400, "invocation {inv}: {:?}", report.work_per_thread);
            clean_runs += usize::from(!report.misspeculated);
        }
        assert!(clean_runs > 0, "chunk predictions never converged");
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn single_thread_is_rejected() {
        let _ = NativeLoopBackend::new(1);
    }

    #[test]
    fn run_before_load_errors() {
        let mut backend = NativeLoopBackend::new(2);
        assert!(matches!(
            backend.run_invocation(&[0]),
            Err(BackendError::NotLoaded)
        ));
    }
}
