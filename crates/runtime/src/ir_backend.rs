//! The native-thread [`ExecutionBackend`]: Spice chunked execution of an
//! *unmodified* IR loop on real OS threads.
//!
//! Where the simulator backend runs the code-generated transformation
//! (worker functions, channels, resteers) on simulated cores, this backend
//! realizes the same execution model interpretively: every thread steps a
//! [`ThreadState`] over the **original** kernel function, the speculative
//! workers are teleported to the loop header with their cursor registers set
//! to the live-in values memoized during the previous invocation, and the
//! main thread validates and commits their buffered stores in thread order —
//! the paper's Figures 4/5 with the interpreter standing in for hardware.
//!
//! The execution model matches the paper's pre-spawned runtime: the worker
//! threads are spawned **once**, at the first invocation, and persist across
//! the whole run, blocked on their task channels between invocations. Each
//! invocation sends every predicted worker a `new_invocation` token — a
//! [`WorkerTask`] carrying that invocation's arguments, start/successor
//! predictions and memoization plan; everything that is invariant across a
//! `load` rides along as one shared [`LoopContext`]. The centralized half of
//! Algorithm 2 ([`chunk_memo_plan`]) runs on the main thread *inside* the
//! timed window — where the simulator runs the same step, as core 0's
//! generated preheader code — so its wall-time is part of the invocation's
//! cost, not the driver's.
//!
//! Every chunk — the main thread's, a worker's, the main thread's resume
//! after the commit chain ends — is one call of [`run_chunk`], the only
//! place that knows what a header arrival, an iteration and a stop are.
//!
//! Memory follows the `spice-runtime` speculation contract: a *persistent*
//! [`SharedHeap`] mirrors the canonical [`FlatMemory`] image — re-mirrored
//! only when a driver actually mutated the image since the last commit —
//! workers buffer writes in [`SpecView`]s, only validated buffers are
//! committed, and the heap is copied back afterwards so workload drivers see
//! one coherent memory between invocations. Both copies cover the touched
//! prefix only (the extent rule in [`FlatMemory`]'s doc), not the heap
//! reservation.
//!
//! Chunk boundaries, squash recovery and the load balancer follow the
//! paper's protocol: immediate hand-off when a chunk reaches its successor's
//! predicted start, ordered commit, [`chunk_memo_plan`] thresholds. A
//! "chunk" is a slice of the *source loop's* iteration space.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use spice_ir::exec::{
    derive_loop_spec, AccessSet, BackendError, ExecutionBackend, ExecutionCost, ExecutionReport,
    LoadOptions, MisspeculationCause, SpiceLoopSpec, WorkerReport,
};
use spice_ir::interp::{FlatMemory, MemPort, StepEvent, SysPort, ThreadState};
use spice_ir::reduction::ReductionKind;
use spice_ir::{
    BlockId, DecodedProgram, FuncId, InstClass, Program, Reg, SquashForensics, TraceEvent,
    TraceRecorder, TraceSink, TrapKind,
};

use crate::heap::{SharedHeap, SpecView};

/// Default per-thread interpreter step budget per chunk. A stale prediction
/// can send a speculative chunk on an unbounded walk (the paper's "loop
/// forever" case); the budget bounds it when the squash flag cannot.
const DEFAULT_STEP_BUDGET: u64 = 200_000_000;

/// How often (in steps) a chunk polls its squash flag between header
/// arrivals — inner loops (e.g. mcf's climb) may not pass the header for a
/// while.
const SQUASH_POLL_INTERVAL: u64 = 1024;

/// Spice execution of IR loops on native OS threads, behind the shared
/// [`ExecutionBackend`] API. The worker pool is pre-spawned at the first
/// invocation and reused for every later one (and across `load`s — it
/// depends only on the thread count).
#[derive(Debug)]
pub struct NativeLoopBackend {
    threads: usize,
    step_budget: u64,
    loaded: Option<Loaded>,
    /// The `threads - 1` pre-spawned workers; empty until the first
    /// invocation.
    pool: Vec<PoolWorker>,
    tracing: NativeTracing,
}

/// Trace mirror state for the native backend. The simulator's chunk
/// lifecycle subset (`ChunkBegin`/`ChunkValidate`/`ChunkCommit`/
/// `ChunkSquash`, plus invocation and predictor markers) is re-emitted
/// here — exclusively from the ordered main-thread sections of
/// `run_invocation`, so the trace is deterministic regardless of how the
/// host schedules the worker threads. `at` carries a monotone sequence
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
    kernel: FuncId,
    spec: SpiceLoopSpec,
    /// Persistent shared heap the threads execute against. Mirrors
    /// `Loaded::mem`; re-synced from it only when `heap_dirty` says a driver
    /// mutated the canonical image since the last post-invocation commit.
    heap: SharedHeap,
    step_budget: u64,
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
    mem: FlatMemory,
    /// Set by [`NativeLoopBackend::mem_mut`]; cleared whenever heap and
    /// canonical image are known identical.
    heap_dirty: bool,
    /// Memoized chunk-start live-ins, one row per speculative worker, one
    /// value per cursor register.
    predictions: Vec<Vec<i64>>,
    /// Per-thread iteration counts of the previous invocation (main first),
    /// feeding the load balancer.
    last_work: Vec<u64>,
    /// The memoization plan of the most recent invocation (the centralized
    /// step's output), per thread.
    last_plan: Vec<Vec<(u64, usize)>>,
}

/// One `new_invocation` token: what a pre-spawned worker needs, beyond the
/// shared context, to run its speculative chunk for the current invocation.
struct WorkerTask {
    ctx: Arc<LoopContext>,
    args: Vec<i64>,
    /// Predicted cursor values the chunk starts from.
    start: Vec<i64>,
    /// The next worker's predicted start, when it has one: this chunk's
    /// hand-off boundary.
    successor: Option<Vec<i64>>,
    plan: Vec<(u64, usize)>,
}

/// A pre-spawned worker thread: tasks go down `task_tx`, one
/// [`WorkerChunk`] comes back per task. The thread blocks on its channel
/// between invocations — the software form of the paper's workers waiting
/// for the `new_invocation` token.
#[derive(Debug)]
struct PoolWorker {
    task_tx: Option<Sender<WorkerTask>>,
    result_rx: Receiver<WorkerChunk>,
    handle: Option<JoinHandle<()>>,
    /// Raised by the main thread to stop the worker's current chunk early.
    squash: Arc<AtomicBool>,
}

impl PoolWorker {
    fn spawn() -> Self {
        let (task_tx, task_rx) = std::sync::mpsc::channel::<WorkerTask>();
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let squash = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&squash);
        let handle = std::thread::spawn(move || {
            while let Ok(task) = task_rx.recv() {
                if result_tx.send(run_worker_chunk(&task, &flag)).is_err() {
                    break;
                }
            }
        });
        PoolWorker {
            task_tx: Some(task_tx),
            result_rx,
            handle: Some(handle),
            squash,
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
        self.result_rx
            .recv()
            .map_err(|_| BackendError::Engine("pool worker thread died".to_string()))
    }
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

/// Error-path cleanup: squash and drain every worker still marked
/// outstanding in `tasked`, so a failed invocation leaves no stale results
/// in the channels.
fn abort_pool(pool: &[PoolWorker], tasked: &[bool]) {
    for (worker, _) in pool.iter().zip(tasked).filter(|(_, t)| **t) {
        worker.squash.store(true, Ordering::Release);
    }
    for (worker, _) in pool.iter().zip(tasked).filter(|(_, t)| **t) {
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
            step_budget: DEFAULT_STEP_BUDGET,
            loaded: None,
            pool: Vec::new(),
            tracing: NativeTracing::default(),
        }
    }

    /// Overrides the per-thread interpreter step budget of every loop
    /// loaded from now on.
    #[must_use]
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.step_budget = steps;
        self
    }

    /// Current chunk-boundary predictions (one row per worker), for tests
    /// and diagnostics.
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
        let spec = derive_loop_spec(&program, kernel, options.loop_header)?;
        let mem = FlatMemory::for_program(&program, options.heap_words.max(1024));
        let width = spec.cursors.len();
        let mut last_work = Vec::new();
        if let Some(estimate) = options.work_estimate {
            last_work = vec![0; self.threads];
            last_work[0] = estimate;
        }
        let ctx = LoopContext {
            program: DecodedProgram::new(&program),
            kernel,
            spec,
            heap: SharedHeap::new(mem.size()),
            step_budget: self.step_budget,
            detect: options.conflict_policy.detects(),
            granularity_log2: options.conflict_granularity_log2,
        };
        self.loaded = Some(Loaded {
            ctx: Arc::new(ctx),
            mem,
            heap_dirty: true,
            predictions: vec![vec![0; width]; self.threads - 1],
            last_work,
            last_plan: Vec::new(),
        });
        Ok(())
    }

    fn mem(&self) -> &FlatMemory {
        &self.loaded.as_ref().expect("load() first").mem
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        let loaded = self.loaded.as_mut().expect("load() first");
        // A driver may mutate the canonical image through this borrow, so
        // the persistent heap must be re-synced before the next invocation.
        loaded.heap_dirty = true;
        &mut loaded.mem
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let threads = self.threads;
        let workers = threads - 1;
        let loaded = self.loaded.as_mut().ok_or(BackendError::NotLoaded)?;
        if self.pool.is_empty() {
            self.pool = (0..workers).map(|_| PoolWorker::spawn()).collect();
        }
        let pool = self.pool.as_slice();
        let tracing = &mut self.tracing;
        let invocation = tracing.invocations;
        tracing.invocations += 1;
        tracing.emit(TraceEvent::InvocationBegin { index: invocation });

        let ctx = Arc::clone(&loaded.ctx);
        let (spec, heap) = (&ctx.spec, &ctx.heap);
        let (detect, granularity_log2) = (ctx.detect, ctx.granularity_log2);
        // Mirror the canonical memory into the persistent shared heap only
        // when a driver actually touched the image since the last commit —
        // an unchanged image is reused as-is. Every pool worker is blocked
        // on its task channel here; the task sends below publish the mirror.
        if loaded.heap_dirty {
            heap.overwrite(&loaded.mem);
        }
        // The invocation is about to write the heap; until the
        // post-invocation commit copies it back, the canonical image is
        // stale. Arming the flag here (cleared only after a successful
        // commit) means every early error return leaves it set, so the next
        // invocation re-mirrors instead of executing on a half-written heap.
        loaded.heap_dirty = true;
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

        // new_invocation: hand every predicted worker its task token; the
        // pre-spawned threads wake from their channel recv.
        let mut tasked = vec![false; workers];
        let mut chunk_ids: Vec<Option<u64>> = vec![None; workers];
        for wi in 0..workers {
            if !is_prediction(&predictions[wi]) {
                continue;
            }
            let task = WorkerTask {
                ctx: Arc::clone(&ctx),
                args: args.to_vec(),
                start: predictions[wi].clone(),
                successor: predictions
                    .get(wi + 1)
                    .filter(|s| is_prediction(s))
                    .cloned(),
                plan: memo_plan[wi + 1].clone(),
            };
            if let Err(e) = pool[wi].send(task) {
                // A worker already tasked this invocation must be squashed
                // and drained, or its stale result would desynchronize the
                // next invocation's commit loop.
                abort_pool(pool, &tasked);
                return Err(e);
            }
            tasked[wi] = true;
            if tracing.on() {
                let id = tracing.chunk_next;
                tracing.chunk_next += 1;
                chunk_ids[wi] = Some(id);
                let at = tracing.next_at();
                tracing.emit(TraceEvent::ChunkBegin {
                    at,
                    core: (wi + 1) as u32,
                    chunk: id,
                });
            }
        }
        if tracing.on() {
            let chunks = tasked.iter().filter(|&&t| t).count() as u64;
            let at = tracing.next_at();
            tracing.emit(TraceEvent::PredictorPlan { at, chunks });
        }

        // Main (non-speculative) chunk on the calling thread, stopping at
        // the first worker's predicted boundary.
        let mut port = DirectPort {
            heap,
            alloc_next: loaded.mem.heap_next(),
            write_log: detect.then(|| AccessSet::with_granularity(granularity_log2)),
        };
        let mut steps = ctx.step_budget;
        let (mut main, early) = enter_loop(&ctx, args, &mut port, &mut steps, None);
        let main_run = match early {
            Some(stop) => ChunkRun::stopped(stop),
            None => {
                let limits = ChunkLimits {
                    boundary: predictions
                        .first()
                        .filter(|b| is_prediction(b))
                        .map(Vec::as_slice),
                    plan: &memo_plan[0],
                    squash: None,
                };
                run_chunk(&ctx, &mut main, &mut port, &mut steps, &limits)
            }
        };
        if let Stop::Trap(trap) = main_run.stop {
            abort_pool(pool, &tasked);
            return Err(engine_trap(trap));
        }

        // Ordered validation and commit (paper §3: the main thread is the
        // only committer, one chunk at a time, in thread order). Under
        // ConflictPolicy::Detect the union of the main chunk's and every
        // committed chunk's write addresses is carried along, and each
        // chunk's load set is intersected against it before acceptance —
        // the software form of the paper's hardware conflict detection.
        // After the main chunk, validation needs no further port access,
        // so recording stops here (the post-squash resume writes are
        // never checked against anything).
        let mut earlier_writes = port.write_log.take().unwrap_or_default();
        // Word-exact writer attribution for squash forensics: committed
        // worker chunks publish exact (addr, value) write lists, so a
        // violating address can be traced back to the chunk that wrote it.
        // The main chunk's stores are only logged at grain granularity; an
        // address with no recorded worker writer is therefore attributed to
        // the main chunk (core 0, no speculative chunk id).
        let mut writer_by_word: Option<HashMap<i64, (u32, Option<u64>)>> =
            (detect && tracing.on()).then(HashMap::new);
        let mut committed = 0usize;
        let mut still_valid = main_run.stop == Stop::Boundary;
        let mut end_reached = false;
        let mut resume_finals: Option<Vec<(Reg, i64)>> = None;
        let mut reports = Vec::with_capacity(workers);
        let mut work = vec![main_run.iterations];
        let mut memos = main_run.memos;
        // Registers whose resume values come from reduction combining,
        // not from copying the last committed chunk's state.
        let combined_regs: Vec<Reg> = spec
            .reductions
            .iter()
            .flat_map(|r| std::iter::once(r.reg).chain(r.payloads.iter().copied()))
            .collect();

        for wi in 0..workers {
            if !tasked[wi] {
                reports.push(WorkerReport {
                    committed: false,
                    cause: Some(MisspeculationCause::NoPrediction),
                    work: 0,
                });
                work.push(0);
                still_valid = false;
                continue;
            }
            if !still_valid || end_reached {
                // The chain is broken: flag every not-yet-joined worker at
                // once, so they all stop at their next poll instead of
                // winding down serially as the join loop reaches them.
                for (later, worker) in pool.iter().enumerate().skip(wi) {
                    if tasked[later] {
                        worker.squash.store(true, Ordering::Release);
                    }
                }
            }
            let result = match pool[wi].recv() {
                Ok(r) => r,
                Err(e) => {
                    tasked[wi] = false;
                    abort_pool(pool, &tasked);
                    return Err(e);
                }
            };
            tasked[wi] = false;
            // RAW check: did this chunk read a word an earlier chunk
            // wrote? Only meaningful while the chain is intact — once a
            // predecessor failed, the chunk is squashed regardless.
            let conflict = if detect && still_valid && !end_reached {
                result.reads.first_overlap(&earlier_writes)
            } else {
                None
            };
            if tracing.on() {
                let at = tracing.next_at();
                tracing.emit(TraceEvent::ChunkValidate {
                    at,
                    core: (wi + 1) as u32,
                    chunk: chunk_ids[wi],
                    conflict,
                });
            }
            let fault = result.run.stop.fault();
            if still_valid && !end_reached && fault.is_none() && conflict.is_none() {
                for &(addr, value) in &result.writes {
                    // Ordered commit — one worker at a time, by the main
                    // thread, after the worker's result send.
                    heap.write(addr, value)
                        .expect("SpecView bounds-checks every buffered store");
                }
                if detect {
                    earlier_writes.extend(result.writes.iter().map(|(a, _)| *a));
                }
                if let Some(map) = writer_by_word.as_mut() {
                    for &(addr, _) in &result.writes {
                        map.insert(addr, ((wi + 1) as u32, chunk_ids[wi]));
                    }
                }
                if tracing.on() {
                    let at = tracing.next_at();
                    tracing.emit(TraceEvent::ChunkCommit {
                        at,
                        core: (wi + 1) as u32,
                        chunk: chunk_ids[wi],
                        writes: result.writes.len() as u64,
                    });
                }
                combine_reductions(spec, &mut main, &result.finals);
                memos.extend(result.run.memos);
                work.push(result.run.iterations);
                committed += 1;
                end_reached = result.run.stop == Stop::Exit;
                resume_finals = Some(result.finals);
                reports.push(WorkerReport {
                    committed: true,
                    cause: None,
                    work: result.run.iterations,
                });
            } else {
                let cause = if !still_valid || end_reached {
                    MisspeculationCause::SquashCascade
                } else if let Some(f) = fault {
                    f
                } else if let Some(addr) = conflict {
                    MisspeculationCause::DependenceViolation { addr }
                } else {
                    MisspeculationCause::StalePrediction
                };
                if tracing.on() {
                    // RAW-chain forensics: the violating grain base address,
                    // plus writer attribution from the word-exact commit
                    // log. Native read sets are only kept at the configured
                    // granularity, so the shared word is certain only with
                    // exact (word) grains, and the word-vs-grain
                    // false-conflict count is not measurable here — the
                    // simulator's word shadow sets cover that side.
                    let forensics = match cause {
                        MisspeculationCause::DependenceViolation { addr } => {
                            let span = 1i64 << granularity_log2;
                            let writer = writer_by_word.as_ref().and_then(|map| {
                                (addr..addr + span).find_map(|w| map.get(&w).copied())
                            });
                            let (writer_core, writer_chunk) = match writer {
                                Some((core, chunk)) => (Some(core), chunk),
                                None => (Some(0), None),
                            };
                            Some(SquashForensics {
                                addr,
                                word_addr: (granularity_log2 == 0).then_some(addr),
                                writer_core,
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
                    let at = tracing.next_at();
                    tracing.emit(TraceEvent::ChunkSquash {
                        at,
                        core: (wi + 1) as u32,
                        chunk: chunk_ids[wi],
                        cause,
                        forensics,
                    });
                }
                still_valid = false;
                work.push(0);
                reports.push(WorkerReport {
                    committed: false,
                    cause: Some(cause),
                    work: result.run.iterations,
                });
            }
        }

        // Resume the main thread to the end of the kernel: on success from
        // the terminal state of the last committed chunk; after a squash
        // from the first non-validated boundary (which the last valid chunk
        // reached itself, so it is a genuine traversal point). Through the
        // same port, so allocations made during the main chunk are not
        // handed out a second time.
        let return_value = match main_run.stop {
            Stop::Finished(value) => value,
            _ => {
                for (reg, value) in resume_finals.iter().flatten() {
                    if !combined_regs.contains(reg) {
                        main.set_reg(*reg, *value);
                    }
                }
                let mut steps = ctx.step_budget;
                loop {
                    let resume = ChunkLimits::default();
                    let run = run_chunk(&ctx, &mut main, &mut port, &mut steps, &resume);
                    work[0] += run.iterations;
                    match run.stop {
                        Stop::Finished(value) => break value,
                        Stop::Trap(trap) => return Err(engine_trap(trap)),
                        // The exit code is the main thread's own to run.
                        Stop::Exit => {}
                        Stop::Boundary | Stop::Squashed => {
                            unreachable!("the resume has no boundary and no squash flag")
                        }
                    }
                }
            }
        };
        let elapsed = started.elapsed();

        // Commit: publish the invocation's memory effects and predictor
        // feedback into the canonical image (every worker has reported, so
        // nothing else touches the heap). The heap and the image are
        // identical afterwards, so the next invocation skips the mirror
        // unless a driver mutates the image in between.
        heap.snapshot_into(&mut loaded.mem);
        loaded.heap_dirty = false;
        loaded.mem.set_heap_next(port.alloc_next);
        for (row, cursors) in memos {
            if row < loaded.predictions.len() {
                loaded.predictions[row] = cursors;
            }
        }
        loaded.last_work = work.clone();

        if tracing.on() {
            let at = tracing.next_at();
            tracing.emit(TraceEvent::PredictorFeedback {
                at,
                committed: committed as u64,
                squashed: (workers - committed) as u64,
            });
        }

        Ok(ExecutionReport {
            backend: "native",
            cost: ExecutionCost::WallNanos(elapsed.as_nanos()),
            return_value,
            misspeculated: committed < workers,
            committed_chunks: committed,
            squashed_chunks: workers - committed,
            workers: reports,
            work_per_thread: work,
        })
    }
}

/// An all-zero cursor row is the no-prediction marker, and also what the
/// cursors hold once the loop is done — a chunk cannot start from "done".
/// So such a row is never a chunk start, never a boundary, and never
/// memoized (the row keeps its previous value instead).
fn is_prediction(row: &[i64]) -> bool {
    row.iter().any(|&v| v != 0)
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
    /// The kernel returned (or halted) without passing either.
    Finished(Option<i64>),
    /// A trap, a blocking receive, or the step budget ran out.
    Trap(TrapKind),
    /// The squash flag was seen raised.
    Squashed,
}

impl Stop {
    /// Why a *speculative* chunk that stopped this way cannot be committed;
    /// `None` for the two stops a valid chunk ends on.
    fn fault(self) -> Option<MisspeculationCause> {
        match self {
            Stop::Boundary | Stop::Exit => None,
            Stop::Finished(_) => Some(MisspeculationCause::Fault(TrapKind::UnsupportedIntrinsic)),
            Stop::Trap(trap) => Some(MisspeculationCause::Fault(trap)),
            Stop::Squashed => Some(MisspeculationCause::SquashCascade),
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
    /// latch-side work bump makes the same call; the counters must agree).
    iterations: u64,
    memos: Vec<(usize, Vec<i64>)>,
}

impl ChunkRun {
    /// A chunk that stopped before its first header arrival.
    fn stopped(stop: Stop) -> Self {
        ChunkRun {
            stop,
            iterations: 0,
            memos: Vec::new(),
        }
    }
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
    let stop = loop {
        let cursors: Vec<i64> = ctx.spec.cursors.iter().map(|&r| state.reg(r)).collect();
        if limits.boundary == Some(cursors.as_slice()) {
            break Stop::Boundary;
        }
        if limits.squash.is_some_and(|s| s.load(Ordering::Acquire)) {
            break Stop::Squashed;
        }
        if let Some(&(_, row)) = plan.next_if(|&&(threshold, _)| iterations >= threshold) {
            if is_prediction(&cursors) {
                memos.push((row, cursors));
            }
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
            return Some(Stop::Squashed);
        }
        match state.step(&ctx.program, port, &mut NopSys) {
            Ok(StepEvent::Executed(info)) => {
                if info.class() == InstClass::Branch && state.current_func() == spec.func {
                    if state.current_block() == spec.header {
                        return None;
                    }
                    if state.current_block() == spec.exit_block {
                        return Some(Stop::Exit);
                    }
                }
            }
            Ok(StepEvent::Finished(value)) => return Some(Stop::Finished(value)),
            Ok(StepEvent::Halted) => return Some(Stop::Finished(None)),
            // Untransformed kernels have no channels: a `Recv` would block
            // forever.
            Ok(StepEvent::Blocked) => return Some(Stop::Trap(TrapKind::UnsupportedIntrinsic)),
            Err(trap) => return Some(Stop::Trap(trap)),
        }
    }
}

/// Starts a thread on the kernel and runs the function's own entry code up
/// to the first header arrival (binding the invariant live-ins). The stop
/// is `None` when the thread is paused there.
fn enter_loop<M: MemPort>(
    ctx: &LoopContext,
    args: &[i64],
    port: &mut M,
    steps: &mut u64,
    squash: Option<&AtomicBool>,
) -> (ThreadState, Option<Stop>) {
    let mut state = ThreadState::new(&ctx.program, ctx.kernel, args);
    let early = step_to_header(ctx, &mut state, port, steps, squash);
    (state, early)
}

/// A worker's view of its chunk after it stopped.
struct WorkerChunk {
    run: ChunkRun,
    writes: Vec<(i64, i64)>,
    /// Load set of the chunk (addresses read from the shared heap, not
    /// store-forwarded) — empty under `ConflictPolicy::AssumeIndependent`.
    reads: AccessSet,
    /// Final values of the spec-relevant registers (cursors, reductions,
    /// payloads, live-outs) at the stop point.
    finals: Vec<(Reg, i64)>,
}

/// Runs one speculative worker chunk: replay the entry code, teleport to
/// the header with the predicted cursors, iterate until the successor's
/// boundary, the loop's natural exit, a fault, or a squash.
fn run_worker_chunk(task: &WorkerTask, squash: &AtomicBool) -> WorkerChunk {
    let ctx = &*task.ctx;
    let mut view = SpecView::with_read_tracking(&ctx.heap, ctx.detect)
        .with_conflict_granularity(ctx.granularity_log2);
    let mut steps = ctx.step_budget;
    let (mut state, early) = enter_loop(ctx, &task.args, &mut view, &mut steps, Some(squash));
    let run = if early.is_some() {
        // Whatever kept the replay from the header, the chunk cannot run.
        ChunkRun::stopped(Stop::Trap(TrapKind::UnsupportedIntrinsic))
    } else {
        for (reg, value) in ctx.spec.cursors.iter().zip(&task.start) {
            state.set_reg(*reg, *value);
        }
        for r in &ctx.spec.reductions {
            state.set_reg(r.reg, r.kind.identity());
        }
        // Entry/preheader code belongs to the main thread's execution; any
        // stores it made were buffered above only to keep this thread's
        // reads coherent. Drop them so a validated chunk commits loop-body
        // stores exclusively — otherwise every worker would replay pre-loop
        // stores over values the main thread wrote later in the invocation.
        // The *reads* stay: the entry replay raced the main chunk, so an
        // entry load of a word the loop writes (e.g. an invariant register
        // bound from a global the body stores to) is a dependence the
        // conflict validation must observe.
        view.drop_writes();
        let limits = ChunkLimits {
            boundary: task.successor.as_deref(),
            plan: &task.plan,
            squash: Some(squash),
        };
        run_chunk(ctx, &mut state, &mut view, &mut steps, &limits)
    };
    let (writes, reads) = view.into_parts();
    WorkerChunk {
        run,
        writes,
        reads,
        finals: snapshot_finals(&ctx.spec, &state),
    }
}

/// Non-speculative port: reads and writes go straight to the shared heap
/// (the main thread is the only direct writer during an invocation). While
/// `write_log` is set, every store address is recorded — the main chunk's
/// write set, the base the conflict validation intersects worker load sets
/// against.
struct DirectPort<'h> {
    heap: &'h SharedHeap,
    alloc_next: i64,
    write_log: Option<AccessSet>,
}

impl MemPort for DirectPort<'_> {
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        self.heap
            .read(addr)
            .ok_or(TrapKind::OutOfBoundsAccess { addr })
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        self.heap
            .write(addr, value)
            .ok_or(TrapKind::OutOfBoundsAccess { addr })?;
        if let Some(log) = &mut self.write_log {
            log.insert(addr);
        }
        Ok(())
    }

    fn alloc(&mut self, words: i64) -> Result<i64, TrapKind> {
        if words < 0 {
            return Err(TrapKind::OutOfMemory);
        }
        let base = self.alloc_next;
        let end = base.checked_add(words).ok_or(TrapKind::OutOfMemory)?;
        if end as usize > self.heap.len() {
            return Err(TrapKind::OutOfMemory);
        }
        self.alloc_next = end;
        Ok(base)
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

/// Snapshot of the spec-relevant registers of a stopped chunk. Meaningless
/// (and not even addressable — register files are function-local) unless the
/// thread's innermost frame is the kernel function, as it is at every
/// boundary; a chunk that faulted inside a callee reports no finals.
fn snapshot_finals(spec: &SpiceLoopSpec, state: &ThreadState) -> Vec<(Reg, i64)> {
    if state.current_func() != spec.func {
        return Vec::new();
    }
    let mut regs: Vec<Reg> = spec.cursors.clone();
    regs.extend(spec.live_outs.iter().copied());
    for r in &spec.reductions {
        regs.push(r.reg);
        regs.extend(r.payloads.iter().copied());
    }
    regs.sort_unstable();
    regs.dedup();
    regs.into_iter().map(|r| (r, state.reg(r))).collect()
}

fn engine_trap(trap: TrapKind) -> BackendError {
    BackendError::Engine(format!("main thread trapped: {trap}"))
}

/// Folds a committed chunk's reduction accumulators (and payloads) into the
/// main thread's registers, in thread order.
fn combine_reductions(spec: &SpiceLoopSpec, main: &mut ThreadState, finals: &[(Reg, i64)]) {
    let lookup = |reg: Reg| finals.iter().find(|(r, _)| *r == reg).map(|(_, v)| *v);
    for red in &spec.reductions {
        let Some(theirs) = lookup(red.reg) else {
            continue;
        };
        let ours = main.reg(red.reg);
        match red.kind {
            ReductionKind::Min => {
                // Strict comparison keeps the earliest chunk's value on ties,
                // matching the sequential first-minimum semantics.
                if theirs < ours {
                    main.set_reg(red.reg, theirs);
                    for &p in &red.payloads {
                        if let Some(v) = lookup(p) {
                            main.set_reg(p, v);
                        }
                    }
                }
            }
            ReductionKind::Max => {
                if theirs > ours {
                    main.set_reg(red.reg, theirs);
                    for &p in &red.payloads {
                        if let Some(v) = lookup(p) {
                            main.set_reg(p, v);
                        }
                    }
                }
            }
            ReductionKind::Binop(op) => {
                if let Ok(v) = op.eval(ours, theirs) {
                    main.set_reg(red.reg, v);
                }
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

    #[test]
    fn native_backend_runs_list_min_and_learns_boundaries() {
        let weights: Vec<i64> = (0..400).map(|i| ((i * 37) % 211) + 5).collect();
        let (program, f, nodes, out) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let expected = *weights.iter().min().unwrap();

        let mut saw_parallel = false;
        for inv in 0..4 {
            let report = backend.run_invocation(&[head]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
            assert_eq!(report.backend, "native");
            // The exit-block store committed through the direct port.
            let argmin = backend.mem().read(out).unwrap();
            assert_eq!(backend.mem().read(argmin).unwrap(), expected);
            if report.committed_chunks == 3 {
                saw_parallel = true;
                assert!(!report.misspeculated);
                let active = report.work_per_thread.iter().filter(|&&w| w > 0).count();
                assert!(active >= 3, "work: {:?}", report.work_per_thread);
            }
        }
        assert!(saw_parallel, "chunk predictions never converged");
    }

    #[test]
    fn stale_native_predictions_squash_but_stay_correct() {
        let weights: Vec<i64> = (0..300).map(|i| 1000 - i).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(3);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        backend.run_invocation(&[head]).unwrap();
        backend.run_invocation(&[head]).unwrap();

        // Rebuild a shorter list skipping every other node: many memoized
        // cursors no longer appear in the traversal.
        let shorter: Vec<i64> = weights.iter().copied().step_by(2).collect();
        let head2 = {
            let mem = backend.mem_mut();
            for addr in 0..mem.extent() as i64 {
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
        let n: i64 = 200;
        let v0: i64 = 50;
        let (program, f, nodes) = chained_increment_program(n + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(program, f, LoadOptions::new(4096, Some(n as u64)))
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
            .load(program, kernel, LoadOptions::new(4096, Some(n as u64)))
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

        // One plan and one feedback marker per invocation.
        let plans = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PredictorPlan { .. }))
            .count();
        let feedbacks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PredictorFeedback { .. }))
            .count();
        assert_eq!(plans, 5);
        assert_eq!(feedbacks, 5);

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

    /// Regression: the loop's *entry code* loads a global that the loop body
    /// stores to. The invariant register bound by a worker's entry replay
    /// races the main chunk's stores, so the replay's reads must stay in the
    /// chunk's load set — dropping them with the replayed writes would let a
    /// chunk computed from a mid-loop value of `g` commit.
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
            .load(program, f, LoadOptions::new(4096, Some(n as u64)))
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

    #[test]
    fn assume_independent_policy_skips_detection() {
        // Same conflict-carrying loop, detection off: results may be stale,
        // but no DependenceViolation may ever be reported. (This documents
        // that AssumeIndependent really is the caller's assertion.)
        let n: i64 = 120;
        let (program, f, nodes) = chained_increment_program(n + 4);
        let mut backend = NativeLoopBackend::new(3);
        let options = LoadOptions::new(4096, Some(n as u64))
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
    /// per-invocation spawning.
    #[test]
    fn worker_pool_threads_are_constant_across_100_invocations() {
        let weights: Vec<i64> = (0..200).map(|i| ((i * 31) % 509) + 1).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let expected = *weights.iter().min().unwrap();

        assert!(backend.worker_thread_ids().is_none(), "pool is lazy");
        backend.run_invocation(&[head]).unwrap();
        let ids = backend.worker_thread_ids().expect("pool spawned");
        assert_eq!(ids.len(), 3);
        for inv in 1..100 {
            let report = backend.run_invocation(&[head]).unwrap();
            assert_eq!(report.return_value, Some(expected), "invocation {inv}");
        }
        assert_eq!(
            backend.worker_thread_ids().unwrap(),
            ids,
            "workers were re-spawned during the run"
        );
        // The centralized step's output is observable after each invocation.
        let plan = backend.last_plan().expect("loaded");
        assert!(!plan.is_empty(), "no plan after a converged run");
        for &(tid, threshold, row) in &plan {
            assert!(tid < 4 && row < 3 && threshold >= 1);
        }
    }

    /// Invocations over an untouched memory image skip the FlatMemory →
    /// SharedHeap mirror entirely (and still compute the right thing);
    /// mutating through `mem_mut` re-arms it.
    #[test]
    fn unchanged_memory_image_is_not_remirrored() {
        let weights: Vec<i64> = (0..150).map(|i| ((i * 13) % 271) + 2).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(3);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let expected = *weights.iter().min().unwrap();
        assert!(backend.loaded.as_ref().unwrap().heap_dirty);
        backend.run_invocation(&[head]).unwrap();
        // No driver mutation: the image stays clean across invocations.
        for _ in 0..3 {
            assert!(!backend.loaded.as_ref().unwrap().heap_dirty);
            let report = backend.run_invocation(&[head]).unwrap();
            assert_eq!(report.return_value, Some(expected));
        }
        // A driver mutation re-arms the mirror and is observed by the run.
        let new_min = -5;
        backend.mem_mut().write(nodes, new_min).unwrap();
        assert!(backend.loaded.as_ref().unwrap().heap_dirty);
        let report = backend.run_invocation(&[head]).unwrap();
        assert_eq!(report.return_value, Some(new_min));
    }

    /// Stale-tail hazard of the O(extent) mirror: invocation *k* stores to a
    /// word far above everything the image ever held, so the persistent heap
    /// is non-zero up there. When the driver then clears that word — by
    /// writing 0, or by swapping in a fresh image whose extent ends at the
    /// globals — the mirror must clear `[image extent .. heap extent)` too,
    /// or invocation *k+1* reads invocation *k*'s value.
    #[test]
    fn mirror_clears_what_the_heap_holds_past_the_image_extent() {
        let (program, f, nodes) = chained_increment_program(8);
        let fresh = FlatMemory::for_program(&program, 1 << 16);
        let mut backend = NativeLoopBackend::new(2);
        backend
            .load(program, f, LoadOptions::new(1 << 16, Some(2)))
            .unwrap();
        let high = backend.mem().size() as i64 - 64;
        // Node A (in the globals) links to node B at `high`, which the
        // driver never writes: visiting A stores A's value + 1 into B.
        let link = |mem: &mut FlatMemory| {
            mem.write(nodes, 5).unwrap();
            mem.write(nodes + 1, high).unwrap();
        };
        link(backend.mem_mut());
        assert!(backend.mem().extent() < high as usize);
        let report = backend.run_invocation(&[nodes]).unwrap();
        assert_eq!(report.return_value, Some(5 + 6));
        assert_eq!(backend.mem().read(high), Ok(6), "committed to the image");

        // The driver zeroes the word; a walk starting at B must see 0.
        backend.mem_mut().write(high, 0).unwrap();
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(0));

        // Same through a fresh image: its extent is below `high`, the
        // heap's is not.
        link(backend.mem_mut());
        backend.run_invocation(&[nodes]).unwrap();
        assert_eq!(backend.mem().read(high), Ok(6));
        *backend.mem_mut() = fresh;
        assert!(backend.mem().extent() < high as usize);
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(0), "stale heap word survived");
        assert_eq!(backend.mem().read(high), Ok(0));
    }

    /// The reverse: the driver writes a word far above anything the heap has
    /// seen, so the mirror must reach past the heap's own extent.
    #[test]
    fn mirror_reaches_a_driver_write_past_the_heap_extent() {
        let (program, f, nodes) = chained_increment_program(8);
        let mut backend = NativeLoopBackend::new(2);
        backend
            .load(program, f, LoadOptions::new(1 << 16, Some(2)))
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &[1, 2]);
        assert_eq!(
            backend.run_invocation(&[head]).unwrap().return_value,
            Some(1 + 2)
        );
        // A one-node list at the top of the heap, written between
        // invocations.
        let high = backend.mem().size() as i64 - 64;
        backend.mem_mut().write(high, 9).unwrap();
        let report = backend.run_invocation(&[high]).unwrap();
        assert_eq!(report.return_value, Some(9));
    }

    /// Regression: an invocation that errors out mid-run may have written
    /// the persistent heap already (the main chunk's direct stores land
    /// immediately), so the mirror flag must stay armed — otherwise the
    /// next invocation would skip the re-mirror and execute on a
    /// half-written heap.
    #[test]
    fn errored_invocation_rearms_the_heap_mirror() {
        let weights: Vec<i64> = (0..100).map(|i| i + 1).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        // A budget far too small to finish the loop: the main chunk traps
        // with OutOfFuel and run_invocation returns an error.
        let mut backend = NativeLoopBackend::new(2).with_step_budget(50);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
            .unwrap();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        assert!(backend.run_invocation(&[head]).is_err());
        assert!(
            backend.loaded.as_ref().unwrap().heap_dirty,
            "error path must leave the mirror armed"
        );
    }

    /// The one chunk loop driven by hand on the calling thread — no pool —
    /// over a ten-node list: every stop reason, with the iteration and memo
    /// counts the validation relies on.
    #[test]
    fn chunk_loop_reports_every_stop_reason() {
        let (program, f, nodes, _) = list_min_program(16);
        let mut backend = NativeLoopBackend::new(2);
        backend
            .load(program, f, LoadOptions::new(4096, None))
            .unwrap();
        let weights: Vec<i64> = (0..10).map(|i| 50 - i).collect();
        let head = write_list(backend.mem_mut(), nodes, &weights);
        let loaded = backend.loaded.unwrap();
        let ctx = &*loaded.ctx;
        ctx.heap.overwrite(&loaded.mem);
        let node = |i: i64| head + 2 * i;
        let direct = || DirectPort {
            heap: &ctx.heap,
            alloc_next: 0,
            write_log: None,
        };
        let chunk = |limits: &ChunkLimits<'_>, budget: u64| {
            let (mut port, mut steps) = (direct(), budget);
            let (mut state, early) = enter_loop(ctx, &[head], &mut port, &mut steps, None);
            assert_eq!(early, None, "the entry code reaches the header");
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
        // arrival holds is not memoized.
        let limits = ChunkLimits {
            plan: &[(3, 1), (10, 0)],
            ..ChunkLimits::default()
        };
        let (run, mut state) = chunk(&limits, 1000);
        assert_eq!((run.stop, run.iterations), (Stop::Exit, 10));
        assert_eq!(run.memos, vec![(1, vec![node(3)])]);

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
        assert_eq!((run.stop, run.iterations), (Stop::Squashed, 0));
    }

    /// The chunks of an invocation partition the iteration space: however
    /// the work was split, and whether or not anything squashed, the
    /// per-thread counters add up to the sequential iteration count.
    #[test]
    fn work_per_thread_sums_to_the_sequential_iteration_count() {
        let weights: Vec<i64> = (0..400).map(|i| ((i * 37) % 211) + 5).collect();
        let (program, f, nodes, _) = list_min_program(weights.len() as i64 + 4);
        let mut backend = NativeLoopBackend::new(4);
        backend
            .load(
                program,
                f,
                LoadOptions::new(4096, Some(weights.len() as u64)),
            )
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
