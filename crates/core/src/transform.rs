//! The Spice transformation (paper §4, Algorithm 1).
//!
//! Given a loop analysis, the transformation rewrites the loop's function
//! into the *main thread* of a Spice parallel loop and generates `t - 1`
//! *speculative worker* functions, wiring up:
//!
//! 1. communication of invariant live-ins and live-outs over scalar channels,
//! 2. initialization of the workers' speculated live-ins from the speculated
//!    values array (`sva`),
//! 3. per-iteration mis-speculation detection (thread `i` compares its
//!    current live-ins against thread `i+1`'s predicted starting live-ins),
//! 4. **both halves** of the value predictor (Algorithm 2): the distributed
//!    half — work counters bumped once per completed iteration and
//!    threshold-triggered memoization into the `sva` — in every thread, and
//!    the **centralized half as generated IR on core 0**: at the start of
//!    every invocation the main thread reads the previous invocation's work
//!    counters, resets the shared arrays and writes the balanced
//!    threshold/row lists, then releases the workers with a
//!    `new_invocation` token on their invariant channels. Its cycles and
//!    channel traffic land in the simulator's per-core reports; no host code
//!    ever writes the predictor arrays,
//! 5. recovery code in every worker (speculative-state abort + acknowledge),
//!    reached through the remote `resteer` issued by the main thread,
//! 6. the post-loop merge in the main thread that commits valid workers in
//!    order, combines reductions and live-outs, and squashes the rest.

use serde::{Deserialize, Serialize};

use spice_ir::analysis::{CombineKind, LiveOutGroup, SpiceLoopSpec};
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::ConflictPolicy;
use spice_ir::lint::{lint_spice, LintError, MainShape, SpiceProtocol, WorkerProtocol};
use spice_ir::reduction::ReductionKind;
use spice_ir::verify::{verify_program, VerifyError};
use spice_ir::{BinOp, BlockId, FuncId, Inst, Operand, Program, Reg};

use crate::predictor::{PredictorLayout, PredictorOptions, NEVER};

/// Options controlling the transformation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpiceOptions {
    /// Total number of threads (main + speculative workers). Must be ≥ 2.
    pub threads: usize,
    /// Predictor behaviour (re-memoization, load balancing, initial
    /// estimate) — baked into the generated centralized-step code on core 0
    /// and into the seeded work counter, so a single options value
    /// configures a whole run at transform time.
    pub predictor: PredictorOptions,
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
            conflict_policy: ConflictPolicy::default(),
        }
    }

    /// Options for `threads` threads with a first-invocation work estimate —
    /// the common case for workloads that know their iteration count, so the
    /// very first centralized step already has a work model to plan from.
    #[must_use]
    pub fn with_threads_and_estimate(threads: usize, iterations: u64) -> Self {
        SpiceOptions {
            threads,
            predictor: PredictorOptions {
                initial_work_estimate: Some(iterations),
                ..PredictorOptions::default()
            },
            conflict_policy: ConflictPolicy::default(),
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
    /// contract (channel framing, spec.check placement, exemption coverage
    /// or boundary shape) — likewise a transformation bug.
    Lint(Vec<LintError>),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::TooFewThreads => f.write_str("at least two threads are required"),
            TransformError::Verification(errs) => {
                write!(
                    f,
                    "transformed program failed verification: {} errors",
                    errs.len()
                )
            }
            TransformError::Lint(errs) => {
                write!(
                    f,
                    "transformed program failed speculation-safety lints: {} errors",
                    errs.len()
                )
            }
        }
    }
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
    /// order.
    pub liveout: i64,
    /// Worker → main: acknowledgement that commit or recovery completed.
    pub ack: i64,
}

/// One generated speculative worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerInfo {
    /// The worker's function.
    pub func: FuncId,
    /// Thread id (main thread is 0, workers are 1..).
    pub tid: usize,
    /// Core the worker is expected to run on (equal to `tid`).
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
    /// Total thread count.
    pub threads: usize,
    /// Invariant live-ins actually read inside the loop, in the order they
    /// are sent to each worker.
    pub invariants_sent: Vec<Reg>,
    /// Live-out groups, in the order they travel over the live-out channels.
    pub liveouts: Vec<LiveOutGroup>,
    /// The main function's protocol skeleton blocks, recorded at rewrite
    /// time so the speculation-safety lints check structure instead of
    /// guessing from labels.
    pub shape: MainShape,
    /// Blocks `0..main_program_blocks` of the main function are original
    /// program code; everything from there on was generated.
    pub main_program_blocks: usize,
    /// Cloned loop-body blocks per worker (ids `1..=worker_body_blocks`).
    pub worker_body_blocks: usize,
    /// Whether the merge chain was generated with conflict detection.
    pub conflict_detection: bool,
}

impl SpiceParallelLoop {
    /// Number of scalar values sent per worker on its live-out channel.
    #[must_use]
    pub fn liveout_width(&self) -> usize {
        self.liveouts.iter().map(|g| g.regs.len()).sum()
    }

    /// The protocol contract this transformed loop was generated under, in
    /// the IR-level terms [`spice_ir::lint::lint_spice`] checks.
    #[must_use]
    pub fn protocol(&self) -> SpiceProtocol {
        SpiceProtocol {
            main: self.main,
            main_program_blocks: self.main_program_blocks,
            shape: self.shape,
            workers: self
                .workers
                .iter()
                .map(|w| WorkerProtocol {
                    func: w.func,
                    core: w.core as i64,
                    recovery_block: w.recovery_block,
                    invariant: w.channels.invariant,
                    status: w.channels.status,
                    command: w.channels.command,
                    liveout: w.channels.liveout,
                    ack: w.channels.ack,
                    body_blocks: self.worker_body_blocks,
                })
                .collect(),
            invariant_payload: self.invariants_sent.len(),
            liveout_width: self.liveout_width(),
            detect: self.conflict_detection,
            exempt_range: self.layout.address_range(),
        }
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
    /// are requested and [`TransformError::Verification`] if the generated
    /// program is structurally broken (a transformation bug).
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
            self.options.predictor.initial_work_estimate,
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

        // Per-worker channels.
        let mut channels = Vec::new();
        for _ in 0..t - 1 {
            channels.push(WorkerChannels {
                invariant: program.fresh_channel(),
                status: program.fresh_channel(),
                command: program.fresh_channel(),
                liveout: program.fresh_channel(),
                ack: program.fresh_channel(),
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
                tid: wi + 1,
                core: wi + 1,
                recovery_block,
                channels: channels[wi],
            });
        }

        // Rewrite the main function in place. Blocks below the pre-rewrite
        // count stay original program code; the rewrite only appends.
        let main_program_blocks = src.blocks.len();
        let shape = rewrite_main(
            program,
            analysis,
            &layout,
            &invariants_sent,
            &workers,
            self.options.conflict_policy,
            &self.options.predictor,
        );

        if let Err(errs) = verify_program(program) {
            return Err(TransformError::Verification(errs));
        }

        let spice = SpiceParallelLoop {
            main: analysis.func,
            workers,
            layout,
            threads: t,
            invariants_sent,
            liveouts: analysis.liveouts.clone(),
            shape,
            main_program_blocks,
            worker_body_blocks: analysis.blocks.len(),
            conflict_detection: self.options.conflict_policy.detects(),
        };

        // Every transform output must honor the protocol contract it was
        // generated under; a lint failure here is a transformation bug.
        if let Err(errs) = lint_spice(program, &spice.protocol()) {
            return Err(TransformError::Lint(errs));
        }

        Ok(spice)
    }
}

/// Emits the Algorithm 2 memoization blocks into `b`. The caller must have
/// positioned `header_target` as the block to continue with.
///
/// `my_work` is *not* incremented here: the work counter counts completed
/// iterations and is bumped on the latch path (see the `spice.bump` blocks),
/// so the final pass through detection on loop exit does not inflate it.
/// Firing on `my_work >= threshold` therefore memoizes the live-ins after
/// exactly `threshold` completed iterations — the same point at which the
/// native runtime memoizes (`iterations >= threshold` at its loop top),
/// keeping the two backends' predictor states in lockstep.
#[allow(clippy::too_many_arguments)]
fn emit_memoization(
    b: &mut FunctionBuilder,
    layout: &PredictorLayout,
    tid: usize,
    my_work: Reg,
    memo_idx: Reg,
    spec_values: &[Reg],
    memo_bb: BlockId,
    header_target: BlockId,
) {
    let do_memo = b.new_labeled_block("spice.do_memo");
    b.switch_to(memo_bb);
    let svat_addr = b.binop(BinOp::Add, memo_idx, layout.svat_addr(tid, 0));
    let thresh = b.load(svat_addr, 0);
    let fire = b.binop(BinOp::Ge, my_work, thresh);
    b.cond_br(fire, do_memo, header_target);

    b.switch_to(do_memo);
    let svai_addr = b.binop(BinOp::Add, memo_idx, layout.svai_addr(tid, 0));
    let row = b.load(svai_addr, 0);
    let row_off = b.binop(BinOp::Mul, row, layout.spec_width as i64);
    let row_addr = b.binop(BinOp::Add, row_off, layout.sva_base);
    for (j, r) in spec_values.iter().enumerate() {
        b.store(*r, row_addr, j as i64);
    }
    let idx2 = b.binop(BinOp::Add, memo_idx, 1i64);
    b.copy_into(memo_idx, idx2);
    b.br(header_target);
}

/// Emits the latch-side work bump block: each completed iteration (back-edge
/// traversal) counts one unit of predictor work before re-entering
/// detection. The entry pass and the final exit pass do not count, so the
/// work counters equal completed iterations on every thread — the same
/// definition the native runtime uses.
fn emit_work_bump(b: &mut FunctionBuilder, bump_bb: BlockId, my_work: Reg, check_bb: BlockId) {
    b.switch_to(bump_bb);
    let w2 = b.binop(BinOp::Add, my_work, 1i64);
    b.copy_into(my_work, w2);
    b.br(check_bb);
}

/// Emits the centralized half of Algorithm 2 as IR, entered from the main
/// function's preheader at the start of every invocation — *before* the
/// `new_invocation` token releases the workers, so its reads and writes of
/// the shared arrays are ordered against everything else by construction.
///
/// The generated code mirrors [`crate::predictor::plan`] exactly:
///
/// 1. read the per-thread work counters of the previous invocation, sum
///    them, and reset the counters and the status word;
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
fn emit_centralized(
    b: &mut FunctionBuilder,
    layout: &PredictorLayout,
    options: &PredictorOptions,
    entry_bb: BlockId,
    done_bb: BlockId,
) {
    let t = layout.threads;
    b.switch_to(entry_bb);
    // 1. Read the previous invocation's counters, then reset them.
    let work: Vec<Reg> = (0..t).map(|tid| b.load(layout.work_addr(tid), 0)).collect();
    let mut total = work[0];
    for w in &work[1..] {
        total = b.binop(BinOp::Add, total, *w);
    }
    for tid in 0..t {
        b.store(0i64, layout.work_addr(tid), 0);
    }
    b.store(0i64, layout.status_base, 0);

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
    b.br(done_bb);

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
            let scaled = b.binop(BinOp::Mul, total, k as i64);
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
            let scaled = b.binop(BinOp::Mul, total, k as i64);
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
    b.br(done_bb);
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
    let bump_bb = b.new_labeled_block("spice.bump");
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

    // Preamble (entry block). The first receive is the `new_invocation`
    // token: this pre-spawned worker blocks here until the main thread's
    // centralized step has rewritten the predictor arrays for the new
    // invocation, so every later read of `sva`/`svat`/`svai` is ordered
    // after those writes (the paper's pre-spawned-worker handshake).
    let _token = b.recv(chans.invariant);
    for r in invariants_sent {
        if let Some(lr) = local(*r) {
            b.recv_into(lr, chans.invariant);
        } else {
            // Keep channel framing consistent even if this worker's clone
            // never mentions the register.
            let _ = b.recv(chans.invariant);
        }
    }
    for (j, r) in analysis.cursors.iter().enumerate() {
        let lr = local(*r).expect("speculated live-ins are used in the loop");
        b.load_into(lr, layout.sva_addr(wi, j), 0);
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
    // Successor's predicted live-ins (for all but the last worker).
    let mut pred_regs = Vec::new();
    if !is_last {
        for (j, _) in analysis.cursors.iter().enumerate() {
            pred_regs.push(b.load(layout.sva_addr(wi + 1, j), 0));
        }
    }
    b.push(Inst::SpecBegin);
    b.br(check_bb);

    // Detection (check) block.
    let spec_locals: Vec<Reg> = analysis
        .cursors
        .iter()
        .map(|r| local(*r).expect("speculated live-ins are used in the loop"))
        .collect();
    b.switch_to(check_bb);
    if is_last {
        b.br(memo_bb);
    } else {
        let all_eq = emit_compare_all(&mut b, &spec_locals, &pred_regs);
        b.cond_br(all_eq, hit_bb, memo_bb);
    }

    // Memoization blocks, plus the latch-side work bump.
    emit_memoization(
        &mut b,
        layout,
        tid,
        my_work,
        memo_idx,
        &spec_locals,
        memo_bb,
        cloned_header,
    );
    emit_work_bump(&mut b, bump_bb, my_work, check_bb);

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
    b.send(chans.ack, 1i64);
    b.push(Inst::Halt);
    b.ret(None);

    // Recovery block: squash target of the remote resteer.
    b.switch_to(recovery_bb);
    b.push(Inst::SpecAbort);
    b.send(chans.ack, 1i64);
    b.push(Inst::Halt);
    b.ret(None);

    // Redirect back edges of the cloned loop through the work bump and the
    // check block: every cloned predecessor of the cloned header now counts
    // the completed iteration, then runs detection.
    let cloned_blocks: Vec<BlockId> = analysis.blocks.iter().map(|sb| bmap[sb]).collect();
    for nb in &cloned_blocks {
        let term = &mut b.func_mut().block_mut(*nb).terminator;
        term.remap_blocks(|t| if t == cloned_header { bump_bb } else { t });
    }

    let func = program.add_func(b.finish());
    (func, recovery_bb)
}

/// Rewrites the main function in place.
///
/// Control-flow shape of the rewritten function (conflict handling under
/// [`ConflictPolicy::Detect`]):
///
/// ```text
/// preheader ─▶ central: read work, reset arrays ──▶ central.plan ─▶ dispatch
///                                  └──(no work / memoize-once)──▶ dispatch
/// dispatch: new_invocation tokens + invariants ─▶ check
/// check ──resumed──▶ memo ─▶ header ─▶ body … latch ─▶ bump(work+=1) ─▶ check
///   └─▶ compare ──hit──▶ merge ──resumed──▶ finish
///           └─▶ memo        └─▶ chain ─▶ w1.dispatch …
/// w(k).dispatch ─valid──▶ w(k).valid: recv status; spec.check core k
///                │          ├─conflict─▶ w(k).conflict: resteer, ack,
///                │          │            still_valid=0, need_resume=1
///                │          └─▶ w(k).commit: command, live-outs, ack
///                └─▶ w(k).squash: resteer, ack
/// tail ──need_resume──▶ resume: resumed=1 ─▶ check   (main re-executes
///   └─▶ finish: publish predictor feedback ─▶ exit    from the violated
///                                                     boundary itself)
/// ```
///
/// `central` is the centralized half of Algorithm 2 running on core 0 (see
/// [`emit_centralized`]); the workers block on the `new_invocation` token
/// until `dispatch` releases them, so the centralized step is ordered before
/// every worker access to the predictor arrays.
#[allow(clippy::too_many_arguments)]
fn rewrite_main(
    program: &mut Program,
    analysis: &SpiceLoopSpec,
    layout: &PredictorLayout,
    invariants_sent: &[Reg],
    workers: &[WorkerInfo],
    conflict_policy: ConflictPolicy,
    predictor: &PredictorOptions,
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
    let valid_count = b.fresh();
    let still_valid = b.fresh();
    // Set when a conflict squash leaves un-executed iterations behind: the
    // main thread must re-enter the loop from the violated boundary. A
    // status-0 chain break needs no resume (that worker ran to the exit).
    let need_resume = b.fresh();
    // Set while the main thread is re-executing after a squash: boundary
    // detection is off (the old boundaries are behind it) and the loop exit
    // bypasses the already-run merge chain.
    let resumed = b.fresh();
    let pred_regs: Vec<Reg> = analysis.cursors.iter().map(|_| b.fresh()).collect();

    let central_bb = b.new_labeled_block("spice.central");
    let dispatch_bb = b.new_labeled_block("spice.dispatch");
    let check_bb = b.new_labeled_block("spice.check");
    let bump_bb = b.new_labeled_block("spice.bump");
    let compare_bb = b.new_labeled_block("spice.compare");
    let memo_bb = b.new_labeled_block("spice.memo");
    let hit_bb = b.new_labeled_block("spice.hit");
    let merge_bb = b.new_labeled_block("spice.merge");
    let chain_bb = b.new_labeled_block("spice.chain");
    let tail_bb = b.new_labeled_block("spice.tail");
    let resume_bb = b.new_labeled_block("spice.resume");
    let finish_bb = b.new_labeled_block("spice.finish");

    // --- Centralized predictor step (Algorithm 2's second half), on core 0,
    // entered from the preheader at the start of every invocation.
    emit_centralized(&mut b, layout, predictor, central_bb, dispatch_bb);

    // --- Dispatch: release every pre-spawned worker with its
    // `new_invocation` token, send the invariant live-ins, load this
    // invocation's boundary prediction and initialize the loop state.
    b.switch_to(dispatch_bb);
    for w in workers {
        b.send(w.channels.invariant, 1i64);
        for r in invariants_sent {
            b.send(w.channels.invariant, *r);
        }
    }
    b.copy_into(success, 0i64);
    b.copy_into(my_work, 0i64);
    b.copy_into(memo_idx, 0i64);
    b.copy_into(valid_count, 0i64);
    b.copy_into(need_resume, 0i64);
    b.copy_into(resumed, 0i64);
    for (j, p) in pred_regs.iter().enumerate() {
        b.load_into(*p, layout.sva_addr(0, j), 0);
    }
    b.br(check_bb);

    // --- Latch-side work bump: one predictor work unit per completed
    // iteration.
    emit_work_bump(&mut b, bump_bb, my_work, check_bb);

    // --- Detection block: after a squash-resume, the memoized boundaries
    // are behind the main thread, so the comparison is skipped.
    b.switch_to(check_bb);
    b.cond_br(resumed, memo_bb, compare_bb);

    b.switch_to(compare_bb);
    let all_eq = emit_compare_all(&mut b, &analysis.cursors, &pred_regs);
    b.cond_br(all_eq, hit_bb, memo_bb);

    // --- Memoization (thread 0).
    emit_memoization(
        &mut b,
        layout,
        0,
        my_work,
        memo_idx,
        &analysis.cursors,
        memo_bb,
        header,
    );

    // --- Hit block.
    b.switch_to(hit_bb);
    b.copy_into(success, 1i64);
    b.br(merge_bb);

    // --- Merge chain. The loop exit lands here; after a squash-resume the
    // chain has already run, so fall through to the feedback stores.
    b.switch_to(merge_bb);
    b.cond_br(resumed, finish_bb, chain_bb);

    b.switch_to(chain_bb);
    b.copy_into(still_valid, success);
    let mut next_dispatch = b.new_labeled_block("spice.w1.dispatch");
    b.br(next_dispatch);
    for (i, w) in workers.iter().enumerate() {
        let dispatch = next_dispatch;
        let valid_bb = b.new_labeled_block(format!("spice.w{}.valid", w.tid));
        let squash_bb = b.new_labeled_block(format!("spice.w{}.squash", w.tid));
        next_dispatch = if i + 1 < workers.len() {
            b.new_labeled_block(format!("spice.w{}.dispatch", w.tid + 1))
        } else {
            tail_bb
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
        if conflict_policy.detects() {
            let conflict_bb = b.new_labeled_block(format!("spice.w{}.conflict", w.tid));
            let commit_bb = b.new_labeled_block(format!("spice.w{}.commit", w.tid));
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
            let _ack = b.recv(w.channels.ack);
            b.copy_into(still_valid, 0i64);
            b.copy_into(need_resume, 1i64);
            b.br(next_dispatch);

            b.switch_to(commit_bb);
        }
        b.send(w.channels.command, 1i64);
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
        let _ack = b.recv(w.channels.ack);
        let vc = b.binop(BinOp::Add, valid_count, 1i64);
        b.copy_into(valid_count, vc);
        b.copy_into(still_valid, status);
        b.br(next_dispatch);

        // Invalid worker: squash it and wait for its recovery acknowledgement.
        b.switch_to(squash_bb);
        b.push(Inst::Resteer {
            core: Operand::Imm(w.core as i64),
            target: w.recovery_block,
        });
        let _ack = b.recv(w.channels.ack);
        b.br(next_dispatch);
    }

    // --- Tail: if a conflict squash left iterations unexecuted, re-enter
    // the loop from the violated boundary (the speculated registers hold it;
    // reductions carry the committed prefix). Otherwise publish predictor
    // feedback and fall through to the original post-loop code.
    b.switch_to(tail_bb);
    b.cond_br(need_resume, resume_bb, finish_bb);

    b.switch_to(resume_bb);
    b.copy_into(resumed, 1i64);
    b.copy_into(need_resume, 0i64);
    b.br(check_bb);

    b.switch_to(finish_bb);
    b.store(my_work, layout.work_addr(0), 0);
    b.store(valid_count, layout.status_base, 0);
    b.br(exit_target);

    // --- Redirect control flow:
    //  * the preheader enters through the centralized predictor step (which
    //    dispatches the workers and falls into the check block),
    //  * every back edge bumps the work counter, then runs detection,
    //  * the loop exit edge goes to the merge chain.
    {
        let term = &mut b.func_mut().block_mut(analysis.preheader).terminator;
        term.remap_blocks(|t| if t == header { central_bb } else { t });
    }
    for p in analysis.latches.iter().copied() {
        let term = &mut b.func_mut().block_mut(p).terminator;
        term.remap_blocks(|t| if t == header { bump_bb } else { t });
    }
    {
        let term = &mut b.func_mut().block_mut(exit_from).terminator;
        term.remap_blocks(|t| if t == exit_target { merge_bb } else { t });
    }

    *program.func_mut(func) = b.finish();

    MainShape {
        central: central_bb,
        dispatch: dispatch_bb,
        check: check_bb,
        bump: bump_bb,
        compare: compare_bb,
        memo: memo_bb,
        hit: hit_bb,
        merge: merge_bb,
        chain: chain_bb,
        tail: tail_bb,
        resume: resume_bb,
        finish: finish_bb,
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
        assert_eq!(spice.threads, 2);
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
        // Thread ids and cores are 1..=3.
        let tids: Vec<usize> = spice.workers.iter().map(|w| w.tid).collect();
        assert_eq!(tids, vec![1, 2, 3]);
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
                w.channels.ack,
            ]);
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "channel ids must not collide");
    }
}
