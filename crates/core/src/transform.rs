//! The Spice transformation (paper §4, Algorithm 1).
//!
//! Given a loop analysis, the transformation rewrites the loop's function
//! into the *main thread* of a Spice parallel loop and generates `t - 1`
//! *speculative worker* functions, wiring up:
//!
//! 1. communication of invariant live-ins and live-outs over scalar channels,
//! 2. initialization of the workers' speculated live-ins from the speculated
//!    values array (`sva`): the main thread reads each boundary row once, at
//!    release, and sends it to both chunks that meet there — as the start
//!    row of one worker and the successor row the previous worker checks
//!    against — so no worker reads `sva` before `spec.begin`,
//! 3. per-iteration mis-speculation detection (thread `i` compares its
//!    current live-ins against thread `i+1`'s predicted starting live-ins),
//! 4. **both halves** of the value predictor (Algorithm 2): the distributed
//!    half — work counters bumped once per completed iteration and
//!    threshold-triggered memoization into the `sva` — in every thread, and
//!    the **centralized half as generated IR on core 0**: at the start of
//!    every invocation the main thread reads the previous invocation's work
//!    counters, resets the shared arrays and writes the balanced
//!    threshold/row lists, then releases the workers with a
//!    `new_invocation` message on their invariant channels. Its cycles and
//!    channel traffic land in the simulator's per-core reports; no host code
//!    ever writes the predictor arrays,
//! 5. recovery code in every worker (speculative-state abort, then return),
//!    reached through the remote `resteer` issued by the main thread, which
//!    does not wait for it: the machine delivers each resteer a fixed
//!    inter-core latency after it issues, so squashed chunks abort in the
//!    order the merge chain resteers them,
//! 6. the post-loop merge in the main thread that commits valid workers in
//!    order, combines reductions and live-outs, and squashes the rest,
//! 7. under [`ConflictPolicy::Detect`], one serial loop on core 0, the lean
//!    loop, for the two times the main thread runs the loop alone: the rest
//!    of an invocation after a dependence violation, from the violated
//!    boundary, and an invocation the dependence-violation throttle
//!    ([`Throttle`]) skips — worker 1's conflict and commit blocks in the
//!    merge chain keep its `streak` and `skip` words, and the centralized
//!    step runs an invocation with `skip > 0` without workers, every worker
//!    resteered with no task.

use serde::{Deserialize, Serialize};

use spice_ir::analysis::{CombineKind, LiveOutGroup, SpiceLoopSpec};
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::{ConflictPolicy, Throttle};
use spice_ir::reduction::ReductionKind;
use spice_ir::verify::{verify_program, VerifyError};
use spice_ir::{BinOp, BlockId, FuncId, Inst, Operand, Program, Reg, Terminator};

use crate::lint::{lint_spice, LintError, MainShape, SerialShape};
use crate::predictor::{PredictorLayout, PredictorOptions, NEVER};

/// Options controlling the transformation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpiceOptions {
    /// Total number of threads (main + speculative workers). Must be ≥ 2.
    pub threads: usize,
    /// Predictor behaviour (re-memoization, load balancing) — baked into
    /// the generated centralized-step code on core 0, so a single options
    /// value configures a whole run at transform time.
    pub predictor: PredictorOptions,
    /// Optional estimate of the total work of the first invocation, seeded
    /// into thread 0's work counter so the very first centralized step has a
    /// work model to plan from. Without it the first two invocations run
    /// effectively sequentially.
    pub work_estimate: Option<u64>,
    /// How cross-chunk memory dependences are treated. Under the default
    /// [`ConflictPolicy::Detect`], the main thread's merge chain emits a
    /// `spec.check` per worker and, on a violation, squashes from that
    /// worker and resumes the loop itself from the violated boundary.
    pub conflict_policy: ConflictPolicy,
}

impl SpiceOptions {
    /// Options for `threads` threads with the default predictor behaviour.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SpiceOptions {
            threads,
            predictor: PredictorOptions::default(),
            work_estimate: None,
            conflict_policy: ConflictPolicy::default(),
        }
    }

    /// Options for `threads` threads with a first-invocation work estimate —
    /// the common case for workloads that know their iteration count, so the
    /// very first centralized step already has a work model to plan from.
    #[must_use]
    pub fn with_threads_and_estimate(threads: usize, iterations: u64) -> Self {
        SpiceOptions {
            work_estimate: Some(iterations),
            ..SpiceOptions::with_threads(threads)
        }
    }
}

impl Default for SpiceOptions {
    fn default() -> Self {
        SpiceOptions::with_threads(4)
    }
}

/// Errors produced by the transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// Fewer than two threads were requested — a property of the options,
    /// not of the loop.
    TooFewThreads,
    /// The transformed program failed structural verification — a bug in the
    /// transformation, reported rather than silently mis-executed.
    Verification(Vec<VerifyError>),
    /// The transformed program verified but broke the Spice protocol
    /// contract or boundary shape — likewise a transformation bug. The
    /// contract's two words, per worker, with `N` release words and `L`
    /// live-outs: the main thread's `send inv×N`, then
    /// `recv status, [spec.check], send command, recv live×L` or
    /// `[recv status, spec.check,] resteer`, or `resteer` alone on a
    /// throttled invocation; the worker's `recv inv×N, spec.begin, send
    /// status, recv command, spec.commit, send live×L, ret`, or `spec.abort,
    /// ret` from its recovery block.
    Lint(Vec<LintError>),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::TooFewThreads => f.write_str("at least two threads are required"),
            TransformError::Verification(errs) => write_failed(f, "verification", errs),
            TransformError::Lint(errs) => write_failed(f, "speculation-safety lints", errs),
        }
    }
}

/// Names the check a transformed program failed, then every error, one a
/// line.
fn write_failed<E: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    check: &str,
    errs: &[E],
) -> std::fmt::Result {
    let n = errs.len();
    write!(f, "transformed program failed {check}: {n} errors")?;
    errs.iter().try_for_each(|e| write!(f, "\n  {e}"))
}

impl std::error::Error for TransformError {}

/// Channels connecting the main thread with one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerChannels {
    /// Main → worker: invariant live-ins, sent once per invocation.
    pub invariant: i64,
    /// Worker → main: 1 if the worker observed its successor's predicted
    /// live-ins during its chunk (successor speculated correctly), 0 if it
    /// ran to the real loop exit.
    pub status: i64,
    /// Main → worker: permission to commit.
    pub command: i64,
    /// Worker → main: live-out values, in [`SpiceParallelLoop::liveouts`]
    /// order, sent after the worker's `spec.commit` — so the main thread's
    /// last live-out receive is what orders that commit before the next
    /// worker's `spec.check`.
    pub liveout: i64,
}

/// One generated speculative worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// The worker's function.
    pub func: FuncId,
    /// The worker's thread id and the core it runs on (the main thread is
    /// 0, workers are 1..); also its `spec.check` / `resteer` core operand.
    pub core: usize,
    /// Entry block of the worker's recovery code — the target of the remote
    /// resteer issued on a squash.
    pub recovery_block: BlockId,
    /// The channels connecting this worker with the main thread.
    pub channels: WorkerChannels,
}

/// The result of applying the Spice transformation to one loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpiceParallelLoop {
    /// The (rewritten) function containing the original loop; runs as the
    /// non-speculative main thread on core 0.
    pub main: FuncId,
    /// The generated speculative workers, in thread order.
    pub workers: Vec<WorkerInfo>,
    /// Shared-memory layout of the value predictor.
    pub layout: PredictorLayout,
    /// Invariant live-ins actually read inside the loop, in the order they
    /// are sent to each worker.
    pub invariants_sent: Vec<Reg>,
    /// Live-out groups, in the order they travel over the live-out channels.
    pub liveouts: Vec<LiveOutGroup>,
    /// The main function's protocol skeleton blocks, recorded at rewrite
    /// time so the speculation-safety lints check structure instead of
    /// guessing from labels.
    pub shape: MainShape,
    /// Whether the merge chain was generated with conflict detection.
    pub conflict_detection: bool,
}

impl SpiceParallelLoop {
    /// Number of scalar values sent per worker on its live-out channel.
    #[must_use]
    pub fn liveout_width(&self) -> usize {
        self.liveouts.iter().map(|g| g.regs.len()).sum()
    }

    /// Total thread count: the main thread plus every worker.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }
}

/// The Spice transformation.
#[derive(Debug, Clone)]
pub struct SpiceTransform {
    options: SpiceOptions,
}

impl SpiceTransform {
    /// Creates a transformation with the given options.
    #[must_use]
    pub fn new(options: SpiceOptions) -> Self {
        SpiceTransform { options }
    }

    /// Applies the transformation to the loop described by `analysis`,
    /// rewriting `program` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::TooFewThreads`] when fewer than two threads
    /// are requested, [`TransformError::Verification`] if the generated
    /// program is structurally broken, and [`TransformError::Lint`] if it
    /// breaks the Spice protocol (both transformation bugs).
    pub fn apply(
        &self,
        program: &mut Program,
        analysis: &SpiceLoopSpec,
    ) -> Result<SpiceParallelLoop, TransformError> {
        let t = self.options.threads;
        if t < 2 {
            return Err(TransformError::TooFewThreads);
        }

        let layout = PredictorLayout::allocate_seeded(
            program,
            t,
            analysis.cursors.len(),
            self.options.work_estimate,
        );

        // Registers the loop body actually mentions (used to filter invariant
        // live-ins that are merely live *through* the loop).
        let src = program.func(analysis.func).clone();
        let mut loop_regs: std::collections::HashSet<Reg> = std::collections::HashSet::new();
        for &b in &analysis.blocks {
            let blk = src.block(b);
            for inst in &blk.insts {
                loop_regs.extend(inst.uses());
                if let Some(d) = inst.def() {
                    loop_regs.insert(d);
                }
            }
            loop_regs.extend(blk.terminator.uses());
        }
        let invariants_sent: Vec<Reg> = analysis
            .invariant
            .iter()
            .copied()
            .filter(|r| loop_regs.contains(r))
            .collect();
        let loop_regs: Vec<Reg> = loop_regs.into_iter().collect();

        // Per-worker channels.
        let mut channels = Vec::new();
        for _ in 0..t - 1 {
            channels.push(WorkerChannels {
                invariant: program.fresh_channel(),
                status: program.fresh_channel(),
                command: program.fresh_channel(),
                liveout: program.fresh_channel(),
            });
        }

        // Generate workers from the pristine copy of the main function.
        let mut workers = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for wi in 0..t - 1 {
            let (func, recovery_block) = build_worker(
                program,
                &src,
                analysis,
                &layout,
                &invariants_sent,
                wi,
                t,
                channels[wi],
            );
            workers.push(WorkerInfo {
                func,
                core: wi + 1,
                recovery_block,
                channels: channels[wi],
            });
        }

        // Rewrite the main function in place; the rewrite only appends blocks.
        let shape = rewrite_main(
            program,
            analysis,
            &layout,
            &invariants_sent,
            &workers,
            self.options.conflict_policy,
            &self.options.predictor,
            (&src, &loop_regs),
        );

        if let Err(errs) = verify_program(program) {
            return Err(TransformError::Verification(errs));
        }

        let spice = SpiceParallelLoop {
            main: analysis.func,
            workers,
            layout,
            invariants_sent,
            liveouts: analysis.liveouts.clone(),
            shape,
            conflict_detection: self.options.conflict_policy.detects(),
        };

        // Every transform output must honor the protocol contract it was
        // generated under; a lint failure here is a transformation bug.
        if let Err(errs) = lint_spice(program, &spice) {
            return Err(TransformError::Lint(errs));
        }

        Ok(spice)
    }
}

/// `x × k`, with no instruction when `k` is one.
fn emit_scaled(b: &mut FunctionBuilder, x: Reg, k: usize) -> Reg {
    if k == 1 {
        x
    } else {
        b.binop(BinOp::Mul, x, k as i64)
    }
}

/// Emits the Algorithm 2 memoization blocks of thread `tid` into `b`: the
/// slow path's threshold test in `memo_bb`, which continues to
/// `header_target`.
///
/// `memo_bb` is entered on the first arrival and from every latch test that
/// failed, and it loads `thresh = svat[tid][memo_idx]` before testing
/// `my_work >= thresh`; the memoization reloads it after `memo_idx += 1`. So
/// `thresh` holds the next threshold on every later back edge, and the
/// latch test ([`emit_latch_test`]) compares against it without a load.
///
/// `my_work` is *not* incremented here: the work counter counts completed
/// iterations and is bumped by the latch test, so the final pass through
/// detection on loop exit does not inflate it. Firing on `my_work >=
/// threshold` therefore memoizes the live-ins after exactly `threshold`
/// completed iterations — the same point at which the native runtime
/// memoizes (`iterations >= threshold` at its loop top), keeping the two
/// backends' predictor states in lockstep.
fn emit_memoization(
    b: &mut FunctionBuilder,
    layout: &PredictorLayout,
    tid: usize,
    (my_work, memo_idx, thresh): (Reg, Reg, Reg),
    spec_values: &[Reg],
    memo_bb: BlockId,
    header_target: BlockId,
) {
    let do_memo = b.new_labeled_block("spice.do_memo");
    b.switch_to(memo_bb);
    let svat_addr = b.binop(BinOp::Add, memo_idx, layout.svat_addr(tid, 0));
    b.load_into(thresh, svat_addr, 0);
    let fire = b.binop(BinOp::Ge, my_work, thresh);
    b.cond_br(fire, do_memo, header_target);

    b.switch_to(do_memo);
    emit_memo_row(b, layout, tid, (memo_idx, thresh), spec_values);
    b.br(header_target);
}

/// Emits one memoization into the current block: store `spec_values` into
/// the `sva` row `svai[tid][memo_idx]` names, advance `memo_idx` and load
/// its threshold into `thresh`.
fn emit_memo_row(
    b: &mut FunctionBuilder,
    layout: &PredictorLayout,
    tid: usize,
    (memo_idx, thresh): (Reg, Reg),
    spec_values: &[Reg],
) {
    let svai_addr = b.binop(BinOp::Add, memo_idx, layout.svai_addr(tid, 0));
    let row = b.load(svai_addr, 0);
    let row_off = emit_scaled(b, row, layout.spec_width);
    let row_addr = b.binop(BinOp::Add, row_off, layout.sva_base);
    for (j, r) in spec_values.iter().enumerate() {
        b.store(*r, row_addr, j as i64);
    }
    b.binop_into(BinOp::Add, memo_idx, memo_idx, 1i64);
    let svat_addr = b.binop(BinOp::Add, memo_idx, layout.svat_addr(tid, 0));
    b.load_into(thresh, svat_addr, 0);
}

/// Emits the latch test on every back edge of one loop copy whose latches
/// are `latches` and whose header is `header`. A back edge that is `br
/// header` gets the test appended in place, so it issues in the latch's own
/// group; a conditional back edge gets a block of its own, labelled
/// `label`. The test counts the completed iteration and leaves for
/// `slow_bb` only when the work reaches the next threshold or, with a
/// `boundary` (`current` live-ins against the successor's `predicted`
/// start), when the chunk reaches its end:
///
/// ```text
/// my_work = add my_work, 1
/// slow = ge my_work, thresh
/// [slow = or slow, (current == predicted)]
/// condbr slow, slow_bb, header
/// ```
///
/// The entry pass and the final exit pass do not count, so the work
/// counters equal completed iterations on every thread — the same
/// definition the native runtime uses. `thresh` must hold the threshold at
/// `memo_idx` ([`emit_memoization`]), so a fast-path iteration is exactly
/// one whose slow path would have done nothing.
fn emit_latch_test(
    b: &mut FunctionBuilder,
    (latches, header, label): (&[BlockId], BlockId, &str),
    slow_bb: BlockId,
    (my_work, thresh): (Reg, Reg),
    boundary: Option<(&[Reg], &[Reg])>,
) {
    for &nb in latches {
        let latch = if b.func_mut().block(nb).terminator == Terminator::Br(header) {
            nb
        } else {
            let latch = b.new_labeled_block(label);
            let term = &mut b.func_mut().block_mut(nb).terminator;
            term.remap_blocks(|t| if t == header { latch } else { t });
            latch
        };
        b.switch_to(latch);
        b.binop_into(BinOp::Add, my_work, my_work, 1i64);
        let mut slow = b.binop(BinOp::Ge, my_work, thresh);
        if let Some((current, predicted)) = boundary {
            let at_boundary = emit_compare_all(b, current, predicted);
            slow = b.binop(BinOp::Or, slow, at_boundary);
        }
        b.cond_br(slow, slow_bb, header);
    }
}

/// Emits the centralized half of Algorithm 2 as IR, entered from the main
/// function's preheader at the start of every invocation — *before* the
/// `new_invocation` message releases the workers, so its reads and writes of
/// the shared arrays are ordered against everything else by construction.
///
/// The generated code mirrors [`crate::predictor::plan`] exactly:
///
/// 1. read the per-thread work counters of the previous invocation, sum
///    them, and reset the counters;
/// 2. unless memoize-once already produced a plan, and provided any work
///    was observed, place the `t - 1` chunk boundaries: boundary `k` sits at
///    global work `⌊k·total/t⌋`, belongs to the first thread whose work
///    range contains it (zero-work threads skipped — computed as a
///    descending select chain so the lowest matching thread wins), and is
///    appended to that thread's threshold/row lists at its cursor
///    (boundaries are processed in ascending order, so each list stays
///    sorted);
/// 3. terminate every thread's list with one ∞ sentinel entry. The
///    distributed half scans its list strictly forward from entry 0 and
///    can never advance past a sentinel, so entries beyond it need no
///    clearing — writing one terminator per thread replaces a full-array
///    reset and keeps the step's memory traffic proportional to the plan.
///
/// The per-boundary loop is fully unrolled: `t` is a transform-time
/// constant, and the handful of arithmetic operations per boundary is
/// exactly the cost the paper attributes to the centralized step — now paid
/// in simulated cycles (and cache/coherence traffic) on core 0 instead of
/// invisibly on the host.
///
/// With a `throttle` block (conflict detection only), the step also loads
/// the throttle's `skip` word and ends in `skip ? throttle : done`; the
/// block and the `skip` register are returned for the throttle block to
/// consume.
fn emit_centralized(
    b: &mut FunctionBuilder,
    layout: &PredictorLayout,
    options: &PredictorOptions,
    entry_bb: BlockId,
    done_bb: BlockId,
    throttle: Option<BlockId>,
) -> Option<(BlockId, Reg)> {
    let t = layout.threads;
    b.switch_to(entry_bb);
    let gate = throttle.map(|throttle_bb| (throttle_bb, b.load(layout.skip_addr(), 0)));
    let done = |b: &mut FunctionBuilder| match gate {
        Some((throttle_bb, skip)) => b.cond_br(skip, throttle_bb, done_bb),
        None => b.br(done_bb),
    };
    // 1. Read the previous invocation's counters, then reset them.
    let work: Vec<Reg> = (0..t).map(|tid| b.load(layout.work_addr(tid), 0)).collect();
    let mut total = work[0];
    for w in &work[1..] {
        total = b.binop(BinOp::Add, total, *w);
    }
    for tid in 0..t {
        b.store(0i64, layout.work_addr(tid), 0);
    }

    // 2. Gate: memoize-once short-circuits to the clear path once a plan
    // was produced; so does an empty work model.
    let plan_bb = b.new_labeled_block("spice.central.plan");
    let clear_bb = b.new_labeled_block("spice.central.clear");
    if !options.rememoize {
        let fresh_bb = b.new_labeled_block("spice.central.fresh");
        let flag = b.load(layout.flag_base, 0);
        b.cond_br(flag, clear_bb, fresh_bb);
        b.switch_to(fresh_bb);
    }
    let have_work = b.binop(BinOp::Ne, total, 0i64);
    b.cond_br(have_work, plan_bb, clear_bb);

    // No plan this invocation: empty every list with a sentinel at entry 0.
    b.switch_to(clear_bb);
    for tid in 0..t {
        b.store(NEVER, layout.svat_addr(tid, 0), 0);
    }
    done(b);

    b.switch_to(plan_bb);
    if options.load_balance {
        for tid in 0..t {
            b.store(0i64, layout.cidx_addr(tid), 0);
        }
        let mut prefix: Vec<Reg> = Vec::with_capacity(t + 1);
        prefix.push(b.copy(0i64));
        for i in 0..t {
            let p = b.binop(BinOp::Add, prefix[i], work[i]);
            prefix.push(p);
        }
        for k in 1..t {
            let scaled = emit_scaled(b, total, k);
            let g = b.binop(BinOp::Div, scaled, t as i64);
            let mut tid = b.copy((t - 1) as i64);
            let mut tid_prefix = b.copy(prefix[t - 1]);
            for i in (0..t).rev() {
                let active = b.binop(BinOp::Gt, work[i], 0i64);
                let contains = b.binop(BinOp::Le, g, prefix[i + 1]);
                let hit = b.binop(BinOp::And, active, contains);
                tid = b.select(hit, i as i64, tid);
                tid_prefix = b.select(hit, prefix[i], tid_prefix);
            }
            let raw = b.binop(BinOp::Sub, g, tid_prefix);
            let threshold = b.binop(BinOp::Max, raw, 1i64);
            let cursor_addr = b.binop(BinOp::Add, tid, layout.cidx_base);
            let cursor = b.load(cursor_addr, 0);
            let list_off = b.binop(BinOp::Mul, tid, layout.max_entries as i64);
            let slot = b.binop(BinOp::Add, list_off, cursor);
            let svat_slot = b.binop(BinOp::Add, slot, layout.svat_base);
            b.store(threshold, svat_slot, 0);
            let svai_slot = b.binop(BinOp::Add, slot, layout.svai_base);
            b.store((k - 1) as i64, svai_slot, 0);
            let bumped = b.binop(BinOp::Add, cursor, 1i64);
            b.store(bumped, cursor_addr, 0);
        }
        // 3. Terminators, one per thread, at each final cursor.
        for tid in 0..t {
            let cursor = b.load(layout.cidx_addr(tid), 0);
            let slot = b.binop(BinOp::Add, cursor, layout.svat_addr(tid, 0));
            b.store(NEVER, slot, 0);
        }
    } else {
        // Without load balancing every boundary belongs to thread 0 and the
        // local threshold equals the global one; terminators are static.
        for k in 1..t {
            let scaled = emit_scaled(b, total, k);
            let g = b.binop(BinOp::Div, scaled, t as i64);
            let threshold = b.binop(BinOp::Max, g, 1i64);
            b.store(threshold, layout.svat_addr(0, k - 1), 0);
            b.store((k - 1) as i64, layout.svai_addr(0, k - 1), 0);
        }
        b.store(NEVER, layout.svat_addr(0, t - 1), 0);
        for tid in 1..t {
            b.store(NEVER, layout.svat_addr(tid, 0), 0);
        }
    }
    if !options.rememoize {
        b.store(1i64, layout.flag_base, 0);
    }
    done(b);
    gate
}

/// Emits the lean loop, the one loop a detecting loop's main thread runs
/// alone, and its two entries. Its exit goes to `finish_bb`, past the merge
/// chain, so every worker's word is whole at both entries. The loop is a
/// copy of the pristine loop blocks over the same registers, where main's
/// `thresh` register holds `svat[0][memo_idx]` as it does in the
/// instrumented loop. Each back edge carries the latch test without a
/// boundary ([`emit_latch_test`]: `my_work += 1; my_work >= thresh ?
/// lean.memo : header`), and the memo block is `spice.do_memo`'s
/// memoization.
///
/// * `throttle` (the centralized step's `skip > 0` exit): consume one skip,
///   release every worker with no task (a resteer to its recovery block,
///   before anything is sent to it), and run the whole loop from thread 0's
///   first threshold. The first arrival needs no memo test: a threshold is
///   at least one, and `my_work` is zero.
/// * `tail` → `resume` (the merge chain's end): when a dependence violation
///   left iterations unexecuted (`need_resume`), run on from the violated
///   boundary. The cursor registers hold it, reductions carry the committed
///   prefix, and `my_work`/`memo_idx` carry the main chunk's count and its
///   place in thread 0's plan. The main chunk stopped at a boundary hit,
///   before that arrival's memo test, so `resume` runs it.
#[allow(clippy::too_many_arguments)]
fn emit_serial_paths(
    b: &mut FunctionBuilder,
    (src, loop_regs): (&spice_ir::Function, &[Reg]),
    analysis: &SpiceLoopSpec,
    layout: &PredictorLayout,
    workers: &[WorkerInfo],
    (throttle, skip): (BlockId, Reg),
    (my_work, memo_idx, thresh, need_resume): (Reg, Reg, Reg, Reg),
    finish_bb: BlockId,
) -> SerialShape {
    let (bmap, _) = b.func_mut().import_blocks(src, &analysis.blocks, loop_regs);
    let lean = bmap[&analysis.header];
    let lean_memo = b.new_labeled_block("spice.lean.memo");
    for sb in &analysis.blocks {
        let term = &mut b.func_mut().block_mut(bmap[sb]).terminator;
        term.remap_blocks(|t| {
            if t == analysis.exit_edge.1 {
                finish_bb
            } else {
                t
            }
        });
    }
    let latches: Vec<BlockId> = analysis.latches.iter().map(|l| bmap[l]).collect();
    emit_latch_test(
        b,
        (&latches, lean, "spice.lean.latch"),
        lean_memo,
        (my_work, thresh),
        None,
    );

    b.switch_to(lean_memo);
    emit_memo_row(b, layout, 0, (memo_idx, thresh), &analysis.cursors);
    b.br(lean);

    b.switch_to(throttle);
    for w in workers {
        b.push(Inst::Resteer {
            core: Operand::Imm(w.core as i64),
            target: w.recovery_block,
        });
    }
    let left = b.binop(BinOp::Sub, skip, 1i64);
    b.store(left, layout.skip_addr(), 0);
    b.copy_into(my_work, 0i64);
    b.copy_into(memo_idx, 0i64);
    b.load_into(thresh, layout.svat_addr(0, 0), 0);
    b.br(lean);

    let tail = b.new_labeled_block("spice.tail");
    let resume = b.new_labeled_block("spice.resume");
    b.switch_to(tail);
    b.cond_br(need_resume, resume, finish_bb);

    b.switch_to(resume);
    let thresh_idx = b.binop(BinOp::Add, memo_idx, layout.svat_addr(0, 0));
    b.load_into(thresh, thresh_idx, 0);
    let fire = b.binop(BinOp::Ge, my_work, thresh);
    b.cond_br(fire, lean_memo, lean);

    SerialShape {
        throttle,
        tail,
        resume,
        lean,
        lean_memo,
    }
}

/// Emits worker 1's dependence violation into the throttle's words
/// ([`Throttle::observe`]): `streak += 1`, then, once `streak ≥ K`,
/// `skip = min(2^(streak − K), CAP)`. The invocation was speculated, so
/// `skip` is zero until then.
fn emit_throttle_violation(b: &mut FunctionBuilder, layout: &PredictorLayout) {
    let streak = b.load(layout.streak_addr(), 0);
    let streak = b.binop(BinOp::Add, streak, 1i64);
    b.store(streak, layout.streak_addr(), 0);
    let past = b.binop(BinOp::Sub, streak, Throttle::K as i64);
    // Below `K` the shift is garbage, and the select drops it.
    let doubling = b.binop(BinOp::Min, past, 62i64);
    let backoff = b.binop(BinOp::Shl, 1i64, doubling);
    let backoff = b.binop(BinOp::Min, backoff, Throttle::CAP as i64);
    let engaged = b.binop(BinOp::Ge, streak, Throttle::K as i64);
    let skip = b.select(engaged, backoff, 0i64);
    b.store(skip, layout.skip_addr(), 0);
}

/// Emits the live-in comparison of the detection code: `all_eq = (r0 == p0)
/// && (r1 == p1) && ...`.
fn emit_compare_all(b: &mut FunctionBuilder, current: &[Reg], predicted: &[Reg]) -> Reg {
    let mut all_eq = b.binop(BinOp::Eq, current[0], predicted[0]);
    for (r, p) in current.iter().zip(predicted).skip(1) {
        let e = b.binop(BinOp::Eq, *r, *p);
        all_eq = b.binop(BinOp::And, all_eq, e);
    }
    all_eq
}

/// Builds one speculative worker function. Returns its id and the id of its
/// recovery block.
#[allow(clippy::too_many_arguments)]
fn build_worker(
    program: &mut Program,
    src: &spice_ir::Function,
    analysis: &SpiceLoopSpec,
    layout: &PredictorLayout,
    invariants_sent: &[Reg],
    wi: usize,
    threads: usize,
    chans: WorkerChannels,
) -> (FuncId, BlockId) {
    let tid = wi + 1;
    let is_last = wi == threads - 2;
    let mut b = FunctionBuilder::new(format!("{}.spice.w{}", src.name, tid));

    // Clone the loop body.
    let (bmap, rmap) = b.func_mut().import_blocks(src, &analysis.blocks, &[]);

    // Helper: worker-local register for a main-function register, if the loop
    // body mentions it.
    let local = |r: Reg| -> Option<Reg> { rmap.get(&r).copied() };

    // Auxiliary blocks.
    let check_bb = b.new_labeled_block("spice.check");
    let memo_bb = b.new_labeled_block("spice.memo");
    let hit_bb = b.new_labeled_block("spice.hit");
    let exit_bb = b.new_labeled_block("spice.exit");
    let recovery_bb = b.new_labeled_block("spice.recovery");
    let cloned_header = bmap[&analysis.header];

    // Fix up the cloned terminators: rebuild them from the source so that
    // in-loop targets follow the block map and the loop exit leads to the
    // worker's exit block (out-of-loop targets must not leak stale ids).
    for &sb in &analysis.blocks {
        let nb = bmap[&sb];
        let mut term = src.block(sb).terminator.clone();
        term.remap_regs(|r| rmap[&r]);
        term.remap_blocks(|t| bmap.get(&t).copied().unwrap_or(exit_bb));
        b.func_mut().block_mut(nb).terminator = term;
    }

    // Preamble (entry block). The receives take the `new_invocation`
    // message: this pre-spawned worker blocks on its first word until the
    // main thread's centralized step has rewritten the predictor arrays for
    // the new invocation (the paper's pre-spawned-worker handshake). The
    // message carries the worker's start row of `sva`, its successor's row
    // (all but the last worker) and the invariant live-ins, so the worker
    // reads no row the main thread may be memoizing into: each boundary is
    // read once, at release, and handed to both chunks that meet there.
    let spec_locals: Vec<Reg> = analysis
        .cursors
        .iter()
        .map(|r| local(*r).expect("speculated live-ins are used in the loop"))
        .collect();
    for lr in &spec_locals {
        b.recv_into(*lr, chans.invariant);
    }
    // Successor's predicted live-ins (for all but the last worker).
    let pred_regs: Vec<Reg> = if is_last {
        Vec::new()
    } else {
        analysis
            .cursors
            .iter()
            .map(|_| b.recv(chans.invariant))
            .collect()
    };
    for r in invariants_sent {
        if let Some(lr) = local(*r) {
            b.recv_into(lr, chans.invariant);
        } else {
            // Keep channel framing consistent even if this worker's clone
            // never mentions the register.
            let _ = b.recv(chans.invariant);
        }
    }
    for red in &analysis.reductions {
        if let Some(acc) = local(red.reg) {
            b.copy_into(acc, red.kind.identity());
        }
        for p in &red.payloads {
            if let Some(pl) = local(*p) {
                b.copy_into(pl, 0i64);
            }
        }
    }
    let status = b.copy(0i64);
    let my_work = b.copy(0i64);
    let memo_idx = b.copy(0i64);
    let thresh = b.fresh();
    b.push(Inst::SpecBegin);
    b.br(check_bb);

    // Detection (check) block.
    b.switch_to(check_bb);
    if is_last {
        b.br(memo_bb);
    } else {
        let all_eq = emit_compare_all(&mut b, &spec_locals, &pred_regs);
        b.cond_br(all_eq, hit_bb, memo_bb);
    }

    // Memoization blocks.
    emit_memoization(
        &mut b,
        layout,
        tid,
        (my_work, memo_idx, thresh),
        &spec_locals,
        memo_bb,
        cloned_header,
    );

    // Hit block (successor speculated correctly).
    b.switch_to(hit_bb);
    b.copy_into(status, 1i64);
    b.br(exit_bb);

    // Exit block: report status, wait for the commit command, publish state.
    b.switch_to(exit_bb);
    b.send(chans.status, status);
    let _cmd = b.recv(chans.command);
    b.push(Inst::SpecCommit);
    b.store(my_work, layout.work_addr(tid), 0);
    for group in &analysis.liveouts {
        for r in &group.regs {
            match local(*r) {
                Some(lr) => b.send(chans.liveout, lr),
                None => b.send(chans.liveout, 0i64),
            }
        }
    }
    b.ret(None);

    // Recovery block: squash target of the remote resteer.
    b.switch_to(recovery_bb);
    b.push(Inst::SpecAbort);
    b.ret(None);

    // Every back edge of the cloned loop counts the completed iteration and
    // runs detection only at a threshold or at the successor's start.
    let latches: Vec<BlockId> = analysis.latches.iter().map(|l| bmap[l]).collect();
    emit_latch_test(
        &mut b,
        (&latches, cloned_header, "spice.latch"),
        check_bb,
        (my_work, thresh),
        (!is_last).then_some((&spec_locals[..], &pred_regs[..])),
    );

    let func = program.add_func(b.finish());
    (func, recovery_bb)
}

/// Rewrites the main function in place. `pristine` is the function before
/// the rewrite and the registers its loop mentions, which the lean loop is
/// made from.
///
/// Control-flow shape of the rewritten function (the lines marked
/// "detection only" under [`ConflictPolicy::Detect`]):
///
/// ```text
/// preheader ─▶ central: read work, reset arrays ──▶ central.plan ─▶ dispatch
///                 [load skip]      └──(no work / memoize-once)──▶ dispatch
///                                    [either: skip > 0 ─▶ throttle instead]
/// dispatch: load row 0; per worker: load successor row,
///           new_invocation: start row, successor row, invariants ─▶ check
/// check ──hit──▶ hit ─▶ chain ─▶ w1.dispatch …
///   └─▶ memo: thresh = svat[0][memo_idx]; my_work ≥ thresh ? do_memo : header
///       do_memo: store row, memo_idx += 1, reload thresh ─▶ header
/// header ─▶ body … latch: …; my_work += 1;
///                  my_work ≥ thresh || live-ins == row 0 ? check : header
///                  exit ─▶ chain
/// w(k).dispatch ─valid──▶ w(k).valid: recv status; spec.check core k
///                │          ├─conflict─▶ w(k).conflict: resteer,
///                │          │            still_valid=0, need_resume=1
///                │          │            (w1: streak += 1, set skip)
///                │          └─▶ w(k).commit: command, (w1: streak = 0),
///                │                           live-outs
///                └─▶ w(k).squash: resteer
/// last worker ─▶ finish: store main's work counter ─▶ exit
///
/// detection only — the chain ends in tail, and the loop runs alone on the
/// lean copy, memoizing on its back edges, its exit going to finish:
/// tail ──need_resume──▶ resume: my_work ≥ svat[0][memo_idx] ? lean.memo
///   └─▶ finish                                             : lean
/// throttle: resteer every worker, skip −= 1 ─▶ lean
/// ```
///
/// `central` is the centralized half of Algorithm 2 running on core 0 (see
/// [`emit_centralized`]); the workers block on the first word of their
/// `new_invocation` message until `dispatch` releases them, so the
/// centralized step is ordered before every worker access to the predictor
/// arrays. The message carries the worker's boundary rows, so a worker reads
/// only its own `svat`/`svai` lists, which the centralized step wrote before
/// the release.
///
/// Under conflict detection the centralized step also loads the throttle's
/// `skip` word; a nonzero one sends core 0 to `throttle` instead of
/// `dispatch`, and a dependence violation in the merge chain sends it from
/// `tail` to `resume`. Both run the rest of the loop alone on one lean copy
/// ([`emit_serial_paths`]); the next probe plans from the work counters that
/// invocation left.
///
/// The merge chain waits only for what it reads: a worker's status and its
/// live-outs. A committed worker sends its live-outs after `spec.commit`, so
/// the last live-out receive orders that commit before the next
/// `spec.check`; a resteer is not waited for, because the machine delivers
/// each one a fixed inter-core latency after it issues, so squashed chunks
/// abort in worker order. The host counts committed workers from the cores'
/// `spec.commit` counts.
#[allow(clippy::too_many_arguments)]
fn rewrite_main(
    program: &mut Program,
    analysis: &SpiceLoopSpec,
    layout: &PredictorLayout,
    invariants_sent: &[Reg],
    workers: &[WorkerInfo],
    conflict_policy: ConflictPolicy,
    predictor: &PredictorOptions,
    pristine: (&spice_ir::Function, &[Reg]),
) -> MainShape {
    let func = analysis.func;
    let exit_from = analysis.exit_edge.0;
    let exit_target = analysis.exit_edge.1;
    let header = analysis.header;

    // Move the main function into a builder so the new blocks can be emitted
    // with the same API the workers use; it is moved back at the end.
    let mut owned = std::mem::replace(
        program.func_mut(func),
        spice_ir::Function::new("spice.placeholder"),
    );
    let mut b = FunctionBuilder::new(owned.name.clone());
    std::mem::swap(b.func_mut(), &mut owned);

    let success = b.fresh();
    let my_work = b.fresh();
    let memo_idx = b.fresh();
    let thresh = b.fresh();
    let still_valid = b.fresh();
    // Set when a conflict squash leaves un-executed iterations behind: the
    // main thread must run on from the violated boundary. A status-0 chain
    // break needs no resume (that worker ran to the exit).
    let need_resume = conflict_policy.detects().then(|| b.fresh());
    let pred_regs: Vec<Reg> = analysis.cursors.iter().map(|_| b.fresh()).collect();

    let central_bb = b.new_labeled_block("spice.central");
    let dispatch_bb = b.new_labeled_block("spice.dispatch");
    let check_bb = b.new_labeled_block("spice.check");
    let memo_bb = b.new_labeled_block("spice.memo");
    let hit_bb = b.new_labeled_block("spice.hit");
    let chain_bb = b.new_labeled_block("spice.chain");
    let finish_bb = b.new_labeled_block("spice.finish");

    // Under conflict detection, an invocation the dependence-violation
    // throttle skips runs from here without workers.
    let throttle_bb = conflict_policy
        .detects()
        .then(|| b.new_labeled_block("spice.throttle"));

    // --- Centralized predictor step (Algorithm 2's second half), on core 0,
    // entered from the preheader at the start of every invocation.
    let gate = emit_centralized(
        &mut b,
        layout,
        predictor,
        central_bb,
        dispatch_bb,
        throttle_bb,
    );

    // --- The throttled invocation and the resume after a dependence
    // violation: the loop alone on core 0, past the merge chain.
    let serial = gate.zip(need_resume).map(|(gate, need_resume)| {
        emit_serial_paths(
            &mut b,
            pristine,
            analysis,
            layout,
            workers,
            gate,
            (my_work, memo_idx, thresh, need_resume),
            finish_bb,
        )
    });

    // --- Dispatch: load this invocation's boundary prediction (row 0), then
    // release every pre-spawned worker in order with its `new_invocation`
    // message — its start row, its successor's row (all but the last
    // worker), the invariant live-ins — and initialize the loop state. Each
    // row is loaded once, just before the first send that carries it.
    b.switch_to(dispatch_bb);
    for (j, p) in pred_regs.iter().enumerate() {
        b.load_into(*p, layout.sva_addr(0, j), 0);
    }
    let mut start_row = pred_regs.clone();
    for (wi, w) in workers.iter().enumerate() {
        let successor_row: Vec<Reg> = if wi + 1 < workers.len() {
            (0..layout.spec_width)
                .map(|j| b.load(layout.sva_addr(wi + 1, j), 0))
                .collect()
        } else {
            Vec::new()
        };
        for r in start_row
            .iter()
            .chain(&successor_row)
            .chain(invariants_sent)
        {
            b.send(w.channels.invariant, *r);
        }
        start_row = successor_row;
    }
    b.copy_into(success, 0i64);
    b.copy_into(my_work, 0i64);
    b.copy_into(memo_idx, 0i64);
    if let Some(need_resume) = need_resume {
        b.copy_into(need_resume, 0i64);
    }
    b.br(check_bb);

    // --- Detection block: compare the live-ins against the predicted
    // boundary.
    b.switch_to(check_bb);
    let all_eq = emit_compare_all(&mut b, &analysis.cursors, &pred_regs);
    b.cond_br(all_eq, hit_bb, memo_bb);

    // --- Memoization (thread 0).
    emit_memoization(
        &mut b,
        layout,
        0,
        (my_work, memo_idx, thresh),
        &analysis.cursors,
        memo_bb,
        header,
    );

    // --- Hit block.
    b.switch_to(hit_bb);
    b.copy_into(success, 1i64);
    b.br(chain_bb);

    // --- Merge chain, entered from the hit and from the loop exit.
    b.switch_to(chain_bb);
    b.copy_into(still_valid, success);
    let mut next_dispatch = b.new_labeled_block("spice.w1.dispatch");
    b.br(next_dispatch);
    for (i, w) in workers.iter().enumerate() {
        let dispatch = next_dispatch;
        let valid_bb = b.new_labeled_block(format!("spice.w{}.valid", w.core));
        let squash_bb = b.new_labeled_block(format!("spice.w{}.squash", w.core));
        next_dispatch = if i + 1 < workers.len() {
            b.new_labeled_block(format!("spice.w{}.dispatch", w.core + 1))
        } else {
            serial.map_or(finish_bb, |s| s.tail)
        };

        b.switch_to(dispatch);
        b.cond_br(still_valid, valid_bb, squash_bb);

        // Valid worker: its start boundary was validated and it finished its
        // chunk. Under ConflictPolicy::Detect, ask the memory system whether
        // the chunk's speculative read set hit a word committed earlier this
        // invocation (the main chunk's stores or an earlier worker's commit)
        // before granting the commit — the paper's hardware conflict check,
        // placed exactly at the in-order commit point.
        b.switch_to(valid_bb);
        let status = b.recv(w.channels.status);
        if let Some(need_resume) = need_resume {
            let conflict_bb = b.new_labeled_block(format!("spice.w{}.conflict", w.core));
            let commit_bb = b.new_labeled_block(format!("spice.w{}.commit", w.core));
            let conflict = b.spec_check(w.core as i64);
            b.cond_br(conflict, conflict_bb, commit_bb);

            // Dependence violation: squash this worker (its buffered stores
            // are discarded by the recovery code) and remember that the main
            // thread must re-execute from this worker's start boundary — its
            // cursor registers already hold exactly that state (the last
            // committed chunk ended there, or the main chunk did for w1).
            b.switch_to(conflict_bb);
            b.push(Inst::Resteer {
                core: Operand::Imm(w.core as i64),
                target: w.recovery_block,
            });
            b.copy_into(still_valid, 0i64);
            b.copy_into(need_resume, 1i64);
            if i == 0 {
                emit_throttle_violation(&mut b, layout);
            }
            b.br(next_dispatch);

            b.switch_to(commit_bb);
        }
        b.send(w.channels.command, 1i64);
        if i == 0 && conflict_policy.detects() {
            // Worker 1 committed: the violation streak is over.
            b.store(0i64, layout.streak_addr(), 0);
        }
        for group in &analysis.liveouts {
            let tmps: Vec<Reg> = group
                .regs
                .iter()
                .map(|_| b.recv(w.channels.liveout))
                .collect();
            match &group.kind {
                CombineKind::Reduction(kind) => {
                    let acc = group.regs[0];
                    match kind {
                        ReductionKind::Binop(op) => {
                            let combined = b.binop(*op, acc, tmps[0]);
                            b.copy_into(acc, combined);
                        }
                        ReductionKind::Min | ReductionKind::Max => {
                            let cmp = if matches!(kind, ReductionKind::Min) {
                                BinOp::Lt
                            } else {
                                BinOp::Gt
                            };
                            let cond = b.binop(cmp, tmps[0], acc);
                            let new_acc = b.select(cond, tmps[0], acc);
                            b.copy_into(acc, new_acc);
                            for (payload, tmp) in group.regs[1..].iter().zip(&tmps[1..]) {
                                let np = b.select(cond, *tmp, *payload);
                                b.copy_into(*payload, np);
                            }
                        }
                    }
                }
                CombineKind::Overwrite => {
                    b.copy_into(group.regs[0], tmps[0]);
                }
            }
        }
        b.copy_into(still_valid, status);
        b.br(next_dispatch);

        // Invalid worker: squash it.
        b.switch_to(squash_bb);
        b.push(Inst::Resteer {
            core: Operand::Imm(w.core as i64),
            target: w.recovery_block,
        });
        b.br(next_dispatch);
    }

    // --- Finish: store the main thread's work counter and fall through to
    // the original post-loop code.
    b.switch_to(finish_bb);
    b.store(my_work, layout.work_addr(0), 0);
    b.br(exit_target);

    // --- Redirect control flow:
    //  * the preheader enters through the centralized predictor step (which
    //    dispatches the workers and falls into the check block),
    //  * every back edge carries the latch test, which runs detection only
    //    at a threshold or at the next worker's predicted start,
    //  * the loop exit edge goes to the merge chain.
    {
        let term = &mut b.func_mut().block_mut(analysis.preheader).terminator;
        term.remap_blocks(|t| if t == header { central_bb } else { t });
    }
    emit_latch_test(
        &mut b,
        (&analysis.latches, header, "spice.latch"),
        check_bb,
        (my_work, thresh),
        Some((&analysis.cursors, &pred_regs)),
    );
    {
        let term = &mut b.func_mut().block_mut(exit_from).terminator;
        term.remap_blocks(|t| if t == exit_target { chain_bb } else { t });
    }

    *program.func_mut(func) = b.finish();

    MainShape {
        central: central_bb,
        dispatch: dispatch_bb,
        check: check_bb,
        header,
        memo: memo_bb,
        hit: hit_bb,
        chain: chain_bb,
        finish: finish_bb,
        serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::analysis::derive_loop_spec;
    use spice_ir::fixtures::list_min_program;

    #[test]
    fn transform_produces_verified_program_for_two_threads() {
        let (mut p, f, ..) = list_min_program(8);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads(2))
            .apply(&mut p, &analysis)
            .unwrap();
        assert_eq!(spice.workers.len(), 1);
        assert_eq!(spice.threads(), 2);
        assert!(verify_program(&p).is_ok());
        // The worker function exists and is distinct from main.
        assert_ne!(spice.workers[0].func, spice.main);
        assert_eq!(p.func(spice.workers[0].func).name, "list_min.spice.w1");
    }

    #[test]
    fn transform_scales_to_four_threads() {
        let (mut p, f, ..) = list_min_program(8);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads(4))
            .apply(&mut p, &analysis)
            .unwrap();
        assert_eq!(spice.workers.len(), 3);
        assert!(verify_program(&p).is_ok());
        // Worker thread ids (their cores) are 1..=3.
        let cores: Vec<usize> = spice.workers.iter().map(|w| w.core).collect();
        assert_eq!(cores, vec![1, 2, 3]);
        // The sva has (t-1) rows of one word (only `c` is speculated).
        assert_eq!(spice.layout.spec_width, 1);
        assert_eq!(analysis.cursors.len(), 1);
    }

    #[test]
    fn liveout_order_contains_min_reduction_and_pointer() {
        let (mut p, f, ..) = list_min_program(8);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads(2))
            .apply(&mut p, &analysis)
            .unwrap();
        assert_eq!(spice.liveouts.len(), 2);
        assert!(matches!(
            spice.liveouts[0].kind,
            CombineKind::Reduction(ReductionKind::Min)
        ));
        assert_eq!(spice.liveouts[0].regs.len(), 2); // wm + cm payload
        assert!(matches!(spice.liveouts[1].kind, CombineKind::Overwrite));
        assert_eq!(spice.liveout_width(), 3);
    }

    #[test]
    fn single_thread_request_is_rejected() {
        let (mut p, f, ..) = list_min_program(8);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let err = SpiceTransform::new(SpiceOptions::with_threads(1))
            .apply(&mut p, &analysis)
            .unwrap_err();
        assert_eq!(err, TransformError::TooFewThreads);
    }

    /// A worker learns its boundaries from its release message alone: its
    /// entry block, everything before `spec.begin`, loads nothing.
    #[test]
    fn no_worker_entry_block_loads() {
        for threads in 2..=4 {
            let (mut p, f, ..) = list_min_program(8);
            let analysis = derive_loop_spec(&p, f, None).unwrap();
            let spice = SpiceTransform::new(SpiceOptions::with_threads(threads))
                .apply(&mut p, &analysis)
                .unwrap();
            for w in &spice.workers {
                let func = p.func(w.func);
                let entry = func.block(func.entry);
                assert!(
                    entry.insts.iter().any(|i| matches!(i, Inst::SpecBegin)),
                    "{}: the entry block begins the chunk",
                    func.name
                );
                assert!(
                    !entry.insts.iter().any(|i| matches!(i, Inst::Load { .. })),
                    "{}: the entry block loads",
                    func.name
                );
            }
        }
    }

    /// The main loop has one detection block and no merge block, and only a
    /// detecting loop runs the loop alone: the throttle, the chain's tail,
    /// the resume and the lean loop exist under `Detect` only.
    #[test]
    fn only_a_detecting_loop_has_serial_paths() {
        for policy in [ConflictPolicy::Detect, ConflictPolicy::AssumeIndependent] {
            let (mut p, f, ..) = list_min_program(8);
            let analysis = derive_loop_spec(&p, f, None).unwrap();
            let spice = SpiceTransform::new(SpiceOptions {
                conflict_policy: policy,
                ..SpiceOptions::with_threads(3)
            })
            .apply(&mut p, &analysis)
            .unwrap();
            let main = p.func(spice.main);
            let labels: Vec<&str> = main
                .block_ids()
                .into_iter()
                .filter_map(|b| main.block(b).label.as_deref())
                .collect();
            for gone in ["spice.merge", "spice.compare"] {
                assert!(!labels.contains(&gone), "{gone} under {policy:?}");
            }
            for serial in [
                "spice.throttle",
                "spice.tail",
                "spice.resume",
                "spice.lean.memo",
            ] {
                let present = labels.contains(&serial);
                assert_eq!(present, policy.detects(), "{serial} under {policy:?}");
            }
            assert_eq!(spice.shape.serial.is_some(), policy.detects());
        }
    }

    #[test]
    fn channels_are_distinct_across_workers() {
        let (mut p, f, ..) = list_min_program(8);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads(4))
            .apply(&mut p, &analysis)
            .unwrap();
        let mut all: Vec<i64> = Vec::new();
        for w in &spice.workers {
            all.extend_from_slice(&[
                w.channels.invariant,
                w.channels.status,
                w.channels.command,
                w.channels.liveout,
            ]);
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "channel ids must not collide");
    }
}
