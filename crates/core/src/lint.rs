//! Speculation-safety lints for Spice-transformed programs.
//!
//! The structural verifier ([`spice_ir::verify`]) proves a program is a
//! valid IR artifact; these lints prove a *transformed* program still
//! implements the Spice protocol. They run on every transform output (and
//! from the `spice-lint` binary) against the [`SpiceParallelLoop`] record
//! the transformation returns about itself — channel roles, worker cores,
//! recovery blocks, the main function's protocol skeleton, and which blocks
//! are original program code versus generated protocol code.
//!
//! The lint catalog:
//!
//! * **channel-protocol** — the channel state machine balances: every
//!   `new_invocation` send has a matching worker receive, the invariant
//!   channel carries exactly one release message per invocation — the
//!   worker's start row of `sva`, its successor's row (all but the last
//!   worker), then the invariant live-ins, so `rows × spec_width +
//!   invariants` words, all sent in the dispatch block (which sits outside
//!   every CFG cycle) and received in the worker's entry block — status,
//!   commit-command and live-out framing counts agree on both sides, and no
//!   protocol channel is touched by a foreign function.
//! * **spec-check placement** — under conflict detection, exactly one
//!   `spec.check` per worker core sits in the main function's merge chain
//!   and dominates that worker's commit point (the `command` send).
//! * **conflict-exemption coverage** — the predictor-array address range is
//!   exempt from conflict detection, so every access into it that resolves
//!   to a constant must come from generated protocol code, never from the
//!   original program blocks.
//! * **boundary/resume shape** — the `need_resume`/`resumed` control flow is
//!   well nested: the recorded skeleton blocks are wired exactly as the
//!   transform documents, the resume block is entered only from the tail,
//!   every recovery block aborts and returns (ending the worker's thread),
//!   and every remote resteer targets its worker's recovery block.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use spice_ir::cfg::Cfg;
use spice_ir::dataflow::accesses;
use spice_ir::dom::DomTree;
use spice_ir::pretty;
use spice_ir::{BlockId, FuncId, Function, Inst, Operand, Program, Terminator};

use crate::transform::SpiceParallelLoop;

/// The protocol skeleton blocks of the rewritten main function, in the shape
/// documented on `rewrite_main` in [`crate::transform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MainShape {
    /// Centralized predictor step, entered from the preheader.
    pub central: BlockId,
    /// Worker release: each worker's `new_invocation` message — its start
    /// row, its successor's row (all but the last worker), the invariant
    /// live-ins — after the main thread's own row 0 is loaded.
    pub dispatch: BlockId,
    /// Boundary detection entry.
    pub check: BlockId,
    /// Latch-side work bump.
    pub bump: BlockId,
    /// Live-in comparison against the predicted boundary.
    pub compare: BlockId,
    /// Memoization entry.
    pub memo: BlockId,
    /// Boundary hit (successor speculated correctly).
    pub hit: BlockId,
    /// Merge-chain entry; the loop exit lands here.
    pub merge: BlockId,
    /// First block of the per-worker commit chain.
    pub chain: BlockId,
    /// End of the merge chain.
    pub tail: BlockId,
    /// Squash-resume re-entry into the loop.
    pub resume: BlockId,
    /// The main thread's work-counter store before the original post-loop
    /// code.
    pub finish: BlockId,
}

/// A single speculation-safety lint failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintError {
    /// A channel's send/receive count does not match the protocol framing.
    ChannelCount {
        /// Function holding the mismatched ops.
        func: String,
        /// The channel id.
        chan: i64,
        /// The channel's protocol role (e.g. `"invariant send"`).
        role: &'static str,
        /// Ops the protocol requires.
        expected: usize,
        /// Ops actually found.
        found: usize,
    },
    /// A once-per-invocation channel op sits outside its designated block.
    ChannelOutsideBlock {
        /// Function holding the op.
        func: String,
        /// The channel id.
        chan: i64,
        /// The channel's protocol role.
        role: &'static str,
        /// Block actually holding the op.
        block: BlockId,
        /// The block the protocol requires.
        expected_block: BlockId,
    },
    /// A once-per-invocation channel op sits inside a CFG cycle, so it could
    /// execute more than once.
    ChannelInCycle {
        /// Function holding the op.
        func: String,
        /// The channel id.
        chan: i64,
        /// The channel's protocol role.
        role: &'static str,
        /// The block inside a cycle.
        block: BlockId,
    },
    /// A protocol channel is touched by a function that is neither the main
    /// thread nor the channel's worker.
    ForeignChannelOp {
        /// The trespassing function.
        func: String,
        /// The channel id.
        chan: i64,
        /// Block holding the op.
        block: BlockId,
        /// Instruction index of the op.
        ip: usize,
    },
    /// Conflict detection is on but a worker has no `spec.check` in the
    /// merge chain.
    MissingSpecCheck {
        /// The unchecked worker core.
        core: i64,
    },
    /// More than one `spec.check` names the same worker core.
    DuplicateSpecCheck {
        /// The worker core.
        core: i64,
        /// Checks found.
        found: usize,
    },
    /// A `spec.check` appears where the protocol has none (detection off, a
    /// non-worker core, or outside the main function).
    UnexpectedSpecCheck {
        /// Function holding the check.
        func: String,
        /// Block holding the check.
        block: BlockId,
        /// Instruction index of the check.
        ip: usize,
    },
    /// A worker's `spec.check` does not dominate its commit point, so a
    /// commit could be granted without consulting the conflict detector.
    SpecCheckNotDominatingCommit {
        /// The worker core.
        core: i64,
        /// Block holding the check.
        check_block: BlockId,
        /// Block holding the `command` send it must dominate.
        commit_block: BlockId,
    },
    /// Original program code accesses the conflict-exempt predictor range.
    ExemptRangeAccess {
        /// Function holding the access.
        func: String,
        /// Block holding the access.
        block: BlockId,
        /// Instruction index of the access.
        ip: usize,
        /// The resolved absolute address.
        addr: i64,
    },
    /// A protocol skeleton block is not wired the way the transform
    /// documents.
    ShapeEdge {
        /// Function holding the block.
        func: String,
        /// The mis-wired block.
        block: BlockId,
        /// What the protocol expects of it.
        expected: String,
    },
    /// The squash-resume block is entered from somewhere other than the
    /// merge-chain tail, breaking `need_resume`/`resumed` nesting.
    ResumeEntry {
        /// Function holding the resume block.
        func: String,
        /// The offending predecessor.
        pred: BlockId,
        /// The resume block.
        resume: BlockId,
    },
    /// A worker's recovery block is malformed: it has no abort, has
    /// in-function predecessors, or does not return — the return is what
    /// ends the squashed worker's thread.
    RecoveryShape {
        /// The worker function.
        func: String,
        /// The recovery block.
        block: BlockId,
        /// What is wrong with it.
        detail: String,
    },
    /// A remote resteer does not target its worker's recovery block.
    ResteerTarget {
        /// Function issuing the resteer.
        func: String,
        /// Block holding the resteer.
        block: BlockId,
        /// The core being resteered.
        core: i64,
        /// The (wrong) target block.
        target: BlockId,
    },
    /// The protocol metadata itself is inconsistent (colliding channel ids,
    /// duplicate or main-thread worker cores).
    ProtocolMetadata {
        /// What is inconsistent.
        detail: String,
    },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::ChannelCount {
                func,
                chan,
                role,
                expected,
                found,
            } => write!(
                f,
                "channel-protocol: @{func}: {role} on ch{chan} appears {found} time(s), protocol requires {expected}"
            ),
            LintError::ChannelOutsideBlock {
                func,
                chan,
                role,
                block,
                expected_block,
            } => write!(
                f,
                "channel-protocol: @{func}: {role} on ch{chan} sits in {block}, protocol requires {expected_block}"
            ),
            LintError::ChannelInCycle {
                func,
                chan,
                role,
                block,
            } => write!(
                f,
                "channel-protocol: @{func}: {role} on ch{chan} in {block} is inside a CFG cycle — could run more than once per invocation"
            ),
            LintError::ForeignChannelOp {
                func,
                chan,
                block,
                ip,
            } => write!(
                f,
                "channel-protocol: @{func}: {block}[{ip}] touches protocol channel ch{chan} owned by another thread pair"
            ),
            LintError::MissingSpecCheck { core } => write!(
                f,
                "spec-check-placement: no spec.check for worker core {core} in the merge chain"
            ),
            LintError::DuplicateSpecCheck { core, found } => write!(
                f,
                "spec-check-placement: {found} spec.checks for worker core {core}, protocol requires exactly one"
            ),
            LintError::UnexpectedSpecCheck { func, block, ip } => write!(
                f,
                "spec-check-placement: @{func}: unexpected spec.check at {block}[{ip}]"
            ),
            LintError::SpecCheckNotDominatingCommit {
                core,
                check_block,
                commit_block,
            } => write!(
                f,
                "spec-check-placement: spec.check for core {core} in {check_block} does not dominate the commit point in {commit_block}"
            ),
            LintError::ExemptRangeAccess {
                func,
                block,
                ip,
                addr,
            } => write!(
                f,
                "conflict-exemption: @{func}: program code at {block}[{ip}] accesses address {addr} inside the conflict-exempt predictor range"
            ),
            LintError::ShapeEdge {
                func,
                block,
                expected,
            } => write!(
                f,
                "boundary-shape: @{func}: {block} is mis-wired — expected {expected}"
            ),
            LintError::ResumeEntry { func, pred, resume } => write!(
                f,
                "boundary-shape: @{func}: resume block {resume} entered from {pred}, protocol allows only the merge-chain tail"
            ),
            LintError::RecoveryShape { func, block, detail } => write!(
                f,
                "boundary-shape: @{func}: recovery block {block} malformed: {detail}"
            ),
            LintError::ResteerTarget {
                func,
                block,
                core,
                target,
            } => write!(
                f,
                "boundary-shape: @{func}: resteer of core {core} at {block} targets {target}, not the worker's recovery block"
            ),
            LintError::ProtocolMetadata { detail } => {
                write!(f, "protocol-metadata: {detail}")
            }
        }
    }
}

impl LintError {
    /// The function the error points into, if any.
    #[must_use]
    pub fn func_name(&self) -> Option<&str> {
        match self {
            LintError::ChannelCount { func, .. }
            | LintError::ChannelOutsideBlock { func, .. }
            | LintError::ChannelInCycle { func, .. }
            | LintError::ForeignChannelOp { func, .. }
            | LintError::UnexpectedSpecCheck { func, .. }
            | LintError::ExemptRangeAccess { func, .. }
            | LintError::ShapeEdge { func, .. }
            | LintError::ResumeEntry { func, .. }
            | LintError::RecoveryShape { func, .. }
            | LintError::ResteerTarget { func, .. } => Some(func),
            _ => None,
        }
    }

    /// The block the error points at, if any.
    #[must_use]
    pub fn block(&self) -> Option<BlockId> {
        match self {
            LintError::ChannelOutsideBlock { block, .. }
            | LintError::ChannelInCycle { block, .. }
            | LintError::ForeignChannelOp { block, .. }
            | LintError::UnexpectedSpecCheck { block, .. }
            | LintError::ExemptRangeAccess { block, .. }
            | LintError::ShapeEdge { block, .. }
            | LintError::RecoveryShape { block, .. }
            | LintError::ResteerTarget { block, .. } => Some(*block),
            LintError::SpecCheckNotDominatingCommit { check_block, .. } => Some(*check_block),
            LintError::ResumeEntry { resume, .. } => Some(*resume),
            _ => None,
        }
    }

    /// The instruction index the error points at, if any.
    #[must_use]
    pub fn ip(&self) -> Option<usize> {
        match self {
            LintError::ForeignChannelOp { ip, .. }
            | LintError::UnexpectedSpecCheck { ip, .. }
            | LintError::ExemptRangeAccess { ip, .. } => Some(*ip),
            _ => None,
        }
    }

    /// Renders the error as a compiler-style diagnostic, quoting the
    /// offending block (and marking the instruction when known).
    #[must_use]
    pub fn render(&self, program: &Program) -> String {
        let mut out = format!("error[lint]: {self}\n");
        if let Some(fid) = self.func_name().and_then(|name| program.func_by_name(name)) {
            if let Some(block) = self.block() {
                out.push_str(&pretty::block_listing(program.func(fid), block, self.ip()));
            }
        }
        out
    }
}

/// Checks the loop record's protocol *metadata* for internal consistency —
/// no program needed.
///
/// # Errors
///
/// Returns every inconsistency found: colliding channel ids, duplicate or
/// main-thread worker cores.
pub fn check_protocol_metadata(spice: &SpiceParallelLoop) -> Result<(), Vec<LintError>> {
    let mut errs = Vec::new();
    let mut chans: Vec<i64> = Vec::new();
    let mut cores: Vec<usize> = Vec::new();
    for w in &spice.workers {
        let c = &w.channels;
        chans.extend_from_slice(&[c.invariant, c.status, c.command, c.liveout]);
        cores.push(w.core);
    }
    let total = chans.len();
    chans.sort_unstable();
    chans.dedup();
    if chans.len() != total {
        errs.push(LintError::ProtocolMetadata {
            detail: "protocol channel ids collide across workers".to_string(),
        });
    }
    let wcount = cores.len();
    cores.sort_unstable();
    cores.dedup();
    if cores.len() != wcount {
        errs.push(LintError::ProtocolMetadata {
            detail: "worker cores collide".to_string(),
        });
    }
    if cores.contains(&0) {
        errs.push(LintError::ProtocolMetadata {
            detail: "a worker claims core 0, which belongs to the main thread".to_string(),
        });
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// One channel op found while scanning a function.
#[derive(Debug, Clone, Copy)]
struct ChanOp {
    block: BlockId,
    ip: usize,
    is_send: bool,
}

/// All channel ops of `func`, grouped by constant channel id. The transform
/// only ever emits immediate channel operands, so register-indirect channel
/// ops never belong to the protocol (and would be caught as a count
/// mismatch on the channel they fail to appear on).
fn scan_channels(func: &Function) -> HashMap<i64, Vec<ChanOp>> {
    let mut map: HashMap<i64, Vec<ChanOp>> = HashMap::new();
    for b in func.block_ids() {
        for (ip, inst) in func.block(b).insts.iter().enumerate() {
            let (chan, is_send) = match inst {
                Inst::Send { chan, .. } => (chan, true),
                Inst::Recv { chan, .. } => (chan, false),
                _ => continue,
            };
            if let Operand::Imm(id) = chan {
                map.entry(*id).or_default().push(ChanOp {
                    block: b,
                    ip,
                    is_send,
                });
            }
        }
    }
    map
}

/// Whether `block` sits inside a CFG cycle (is reachable from one of its
/// own successors).
fn in_cycle(cfg: &Cfg, block: BlockId) -> bool {
    let mut seen = vec![false; cfg.block_count()];
    let mut stack: Vec<BlockId> = cfg.succs(block).to_vec();
    while let Some(b) = stack.pop() {
        if b == block {
            return true;
        }
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        stack.extend_from_slice(cfg.succs(b));
    }
    false
}

/// What the lint passes read of one function, built once per lint run.
struct FuncCtx<'a> {
    func: &'a Function,
    cfg: Cfg,
    chans: HashMap<i64, Vec<ChanOp>>,
}

impl<'a> FuncCtx<'a> {
    fn new(func: &'a Function) -> Self {
        let cfg = Cfg::new(func);
        let chans = scan_channels(func);
        FuncCtx { func, cfg, chans }
    }

    fn count(&self, chan: i64, is_send: bool) -> usize {
        self.chans
            .get(&chan)
            .map(|ops| ops.iter().filter(|o| o.is_send == is_send).count())
            .unwrap_or(0)
    }

    fn ops(&self, chan: i64, is_send: bool) -> Vec<ChanOp> {
        self.chans
            .get(&chan)
            .map(|ops| {
                ops.iter()
                    .filter(|o| o.is_send == is_send)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Runs the full speculation-safety lint stack over a transformed program.
///
/// # Errors
///
/// Returns every lint failure found, most fundamental first (metadata, then
/// channel protocol, spec-check placement, exemption coverage, shape).
pub fn lint_spice(program: &Program, spice: &SpiceParallelLoop) -> Result<(), Vec<LintError>> {
    let mut errs = Vec::new();
    if let Err(mut meta) = check_protocol_metadata(spice) {
        errs.append(&mut meta);
    }

    // One context per function, indexed by `FuncId`, shared by every pass.
    let ctxs: Vec<FuncCtx<'_>> = program.funcs.iter().map(FuncCtx::new).collect();
    let main_ctx = &ctxs[spice.main.index()];

    lint_channel_protocol(program, spice, &ctxs, &mut errs);
    lint_spec_check_placement(program, spice, main_ctx, &mut errs);
    lint_exemption_coverage(spice, &ctxs, &mut errs);
    lint_boundary_shape(program, spice, &ctxs, &mut errs);

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Channel-protocol state machine: framing counts on both ends of every
/// channel, once-per-invocation placement of the `new_invocation` sends and
/// receives, and channel ownership.
fn lint_channel_protocol(
    program: &Program,
    spice: &SpiceParallelLoop,
    ctxs: &[FuncCtx<'_>],
    errs: &mut Vec<LintError>,
) {
    let main_ctx = &ctxs[spice.main.index()];
    let main_name = &main_ctx.func.name;
    for (wi, w) in spice.workers.iter().enumerate() {
        let wctx = &ctxs[w.func.index()];
        let worker = wctx.func;
        let c = &w.channels;
        // The release message: the worker's start row, its successor's row
        // (all but the last worker), then the invariant live-ins.
        let rows = if wi + 1 < spice.workers.len() { 2 } else { 1 };
        let invariant_sends = rows * spice.layout.spec_width + spice.invariants_sent.len();

        // Main side.
        let main_counts: &[(i64, bool, &'static str, usize)] = &[
            (c.invariant, true, "new_invocation send", invariant_sends),
            (c.status, false, "status receive", 1),
            (c.command, true, "commit-command send", 1),
            (c.liveout, false, "live-out receive", spice.liveout_width()),
        ];
        for &(chan, is_send, role, expected) in main_counts {
            let found = main_ctx.count(chan, is_send);
            if found != expected {
                errs.push(LintError::ChannelCount {
                    func: main_name.clone(),
                    chan,
                    role,
                    expected,
                    found,
                });
            }
        }
        // Invariant sends run exactly once per invocation: all in the
        // dispatch block, which must sit outside every CFG cycle.
        for op in main_ctx.ops(c.invariant, true) {
            if op.block != spice.shape.dispatch {
                errs.push(LintError::ChannelOutsideBlock {
                    func: main_name.clone(),
                    chan: c.invariant,
                    role: "new_invocation send",
                    block: op.block,
                    expected_block: spice.shape.dispatch,
                });
            } else if in_cycle(&main_ctx.cfg, op.block) {
                errs.push(LintError::ChannelInCycle {
                    func: main_name.clone(),
                    chan: c.invariant,
                    role: "new_invocation send",
                    block: op.block,
                });
            }
        }

        // Worker side.
        let worker_counts: &[(i64, bool, &'static str, usize)] = &[
            (
                c.invariant,
                false,
                "new_invocation receive",
                invariant_sends,
            ),
            (c.status, true, "status send", 1),
            (c.command, false, "commit-command receive", 1),
            (c.liveout, true, "live-out send", spice.liveout_width()),
        ];
        for &(chan, is_send, role, expected) in worker_counts {
            let found = wctx.count(chan, is_send);
            if found != expected {
                errs.push(LintError::ChannelCount {
                    func: worker.name.clone(),
                    chan,
                    role,
                    expected,
                    found,
                });
            }
        }
        let worker_entry = wctx.cfg.entry();
        for op in wctx.ops(c.invariant, false) {
            if op.block != worker_entry {
                errs.push(LintError::ChannelOutsideBlock {
                    func: worker.name.clone(),
                    chan: c.invariant,
                    role: "new_invocation receive",
                    block: op.block,
                    expected_block: worker_entry,
                });
            } else if in_cycle(&wctx.cfg, op.block) {
                errs.push(LintError::ChannelInCycle {
                    func: worker.name.clone(),
                    chan: c.invariant,
                    role: "new_invocation receive",
                    block: op.block,
                });
            }
        }
    }

    // Channel ownership: a protocol channel may appear only in the main
    // function and in its own worker.
    let owner: HashMap<i64, FuncId> = spice
        .workers
        .iter()
        .flat_map(|w| {
            let c = &w.channels;
            [c.invariant, c.status, c.command, c.liveout]
                .into_iter()
                .map(move |c| (c, w.func))
        })
        .collect();
    for fid in program.func_ids() {
        if fid == spice.main {
            continue;
        }
        let ctx = &ctxs[fid.index()];
        for (&chan, ops) in &ctx.chans {
            let Some(owning_worker) = owner.get(&chan) else {
                continue;
            };
            if *owning_worker != fid {
                for op in ops {
                    errs.push(LintError::ForeignChannelOp {
                        func: ctx.func.name.clone(),
                        chan,
                        block: op.block,
                        ip: op.ip,
                    });
                }
            }
        }
    }
}

/// `spec.check` placement: one per worker core, in the main function,
/// dominating that worker's commit point.
fn lint_spec_check_placement(
    program: &Program,
    spice: &SpiceParallelLoop,
    main_ctx: &FuncCtx<'_>,
    errs: &mut Vec<LintError>,
) {
    // Collect every spec.check in the program, by function.
    let mut main_checks: HashMap<i64, Vec<(BlockId, usize)>> = HashMap::new();
    for fid in program.func_ids() {
        let func = program.func(fid);
        for b in func.block_ids() {
            for (ip, inst) in func.block(b).insts.iter().enumerate() {
                let Inst::SpecCheck { core, .. } = inst else {
                    continue;
                };
                let in_main = fid == spice.main;
                let core_id = match core {
                    Operand::Imm(c) => Some(*c),
                    Operand::Reg(_) => None,
                };
                let known = core_id
                    .map(|c| spice.workers.iter().any(|w| w.core as i64 == c))
                    .unwrap_or(false);
                if in_main && known && spice.conflict_detection {
                    main_checks
                        .entry(core_id.unwrap())
                        .or_default()
                        .push((b, ip));
                } else {
                    errs.push(LintError::UnexpectedSpecCheck {
                        func: func.name.clone(),
                        block: b,
                        ip,
                    });
                }
            }
        }
    }
    if !spice.conflict_detection {
        return;
    }

    let dom = DomTree::new(&main_ctx.cfg);
    for w in &spice.workers {
        let core = w.core as i64;
        let checks = main_checks.remove(&core).unwrap_or_default();
        match checks.len() {
            0 => {
                errs.push(LintError::MissingSpecCheck { core });
                continue;
            }
            1 => {}
            n => {
                errs.push(LintError::DuplicateSpecCheck { core, found: n });
                continue;
            }
        }
        let (check_block, _) = checks[0];
        // The commit point is the send on this worker's command channel.
        for op in main_ctx.ops(w.channels.command, true) {
            if !dom.dominates(check_block, op.block) {
                errs.push(LintError::SpecCheckNotDominatingCommit {
                    core,
                    check_block,
                    commit_block: op.block,
                });
            }
        }
    }
}

/// Conflict-exemption coverage: constant-resolvable accesses into the
/// exempt predictor range must come from generated protocol blocks, never
/// from original program code.
fn lint_exemption_coverage(
    spice: &SpiceParallelLoop,
    ctxs: &[FuncCtx<'_>],
    errs: &mut Vec<LintError>,
) {
    let (lo, hi) = spice.layout.address_range();
    let mut check_func = |fid: FuncId, is_program_block: &dyn Fn(BlockId) -> bool| {
        let ctx = &ctxs[fid.index()];
        let program_blocks: Vec<BlockId> = ctx
            .func
            .block_ids()
            .into_iter()
            .filter(|&b| is_program_block(b))
            .collect();
        for access in accesses(ctx.func, &ctx.cfg, &program_blocks) {
            let Some(addr) = access.expr.as_const() else {
                continue;
            };
            if addr >= lo && addr < hi {
                errs.push(LintError::ExemptRangeAccess {
                    func: ctx.func.name.clone(),
                    block: access.site.block,
                    ip: access.site.ip,
                    addr,
                });
            }
        }
    };

    let program_limit = spice.main_program_blocks;
    check_func(spice.main, &|b: BlockId| b.index() < program_limit);
    let body = spice.worker_body_blocks;
    for w in &spice.workers {
        check_func(w.func, &|b: BlockId| b.index() >= 1 && b.index() <= body);
    }
}

fn expect_br(
    func: &Function,
    block: BlockId,
    target: BlockId,
    what: &str,
    errs: &mut Vec<LintError>,
) {
    match func.block(block).terminator {
        Terminator::Br(t) if t == target => {}
        _ => errs.push(LintError::ShapeEdge {
            func: func.name.clone(),
            block,
            expected: format!("br {target} ({what})"),
        }),
    }
}

fn expect_cond_br(
    func: &Function,
    block: BlockId,
    then_bb: BlockId,
    else_bb: BlockId,
    what: &str,
    errs: &mut Vec<LintError>,
) {
    match func.block(block).terminator {
        Terminator::CondBr {
            then_bb: t,
            else_bb: e,
            ..
        } if t == then_bb && e == else_bb => {}
        _ => errs.push(LintError::ShapeEdge {
            func: func.name.clone(),
            block,
            expected: format!("condbr _, {then_bb}, {else_bb} ({what})"),
        }),
    }
}

/// Boundary/resume CFG shape: the recorded skeleton is wired as documented,
/// the resume edge is well nested, recovery blocks are sound squash
/// targets, and resteers point at them.
fn lint_boundary_shape(
    program: &Program,
    spice: &SpiceParallelLoop,
    ctxs: &[FuncCtx<'_>],
    errs: &mut Vec<LintError>,
) {
    let main_ctx = &ctxs[spice.main.index()];
    let main = main_ctx.func;
    let s = &spice.shape;

    expect_br(
        main,
        s.dispatch,
        s.check,
        "dispatch falls into detection",
        errs,
    );
    expect_br(main, s.bump, s.check, "work bump re-enters detection", errs);
    expect_cond_br(
        main,
        s.check,
        s.memo,
        s.compare,
        "resumed skips comparison",
        errs,
    );
    expect_cond_br(
        main,
        s.compare,
        s.hit,
        s.memo,
        "boundary hit or memoize",
        errs,
    );
    expect_br(main, s.hit, s.merge, "hit enters the merge chain", errs);
    expect_cond_br(
        main,
        s.merge,
        s.finish,
        s.chain,
        "resumed bypasses the chain",
        errs,
    );
    expect_cond_br(
        main,
        s.tail,
        s.resume,
        s.finish,
        "need_resume re-enters the loop",
        errs,
    );
    expect_br(main, s.resume, s.check, "resume re-enters detection", errs);
    match func_terminator(main, s.finish) {
        Terminator::Br(_) => {}
        _ => errs.push(LintError::ShapeEdge {
            func: main.name.clone(),
            block: s.finish,
            expected: "br <post-loop code>".to_string(),
        }),
    }

    // Well-nestedness: the resume block is entered only from the tail.
    for &pred in main_ctx.cfg.preds(s.resume) {
        if pred != s.tail {
            errs.push(LintError::ResumeEntry {
                func: main.name.clone(),
                pred,
                resume: s.resume,
            });
        }
    }

    // Worker recovery blocks: abort, then return, which ends the thread —
    // and no in-function predecessors (they are entered only by remote
    // resteer). The main thread does not wait for a recovery: the machine
    // delivers each resteer a fixed latency after it issues, in the merge
    // chain's order.
    for w in &spice.workers {
        let wctx = &ctxs[w.func.index()];
        let worker = wctx.func;
        let block = worker.block(w.recovery_block);
        let has_abort = block.insts.iter().any(|i| matches!(i, Inst::SpecAbort));
        let mut details = Vec::new();
        if !has_abort {
            details.push("no spec.abort");
        }
        if !matches!(block.terminator, Terminator::Ret { .. }) {
            details.push("does not return");
        }
        if !wctx.cfg.preds(w.recovery_block).is_empty() {
            details.push("has in-function predecessors");
        }
        if !details.is_empty() {
            errs.push(LintError::RecoveryShape {
                func: worker.name.clone(),
                block: w.recovery_block,
                detail: details.join(", "),
            });
        }
    }

    // Remote resteers: every one in the main function must target its
    // worker's recovery block; none may appear elsewhere.
    for fid in program.func_ids() {
        let func = program.func(fid);
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                let Inst::Resteer { core, target } = inst else {
                    continue;
                };
                let core_id = match core {
                    Operand::Imm(c) => *c,
                    Operand::Reg(_) => i64::MIN,
                };
                let worker = spice.workers.iter().find(|w| w.core as i64 == core_id);
                let ok = fid == spice.main && worker.is_some_and(|w| w.recovery_block == *target);
                if !ok {
                    errs.push(LintError::ResteerTarget {
                        func: func.name.clone(),
                        block: b,
                        core: core_id,
                        target: *target,
                    });
                }
            }
        }
    }
}

fn func_terminator(func: &Function, block: BlockId) -> &Terminator {
    &func.block(block).terminator
}
